#ifndef BATI_COMMON_CRC32_H_
#define BATI_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace bati {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip checksum) over `n` bytes.
/// Chain blocks by passing the previous result as `seed`. Used to detect
/// truncated or garbled checkpoint files and fleet wire frames — integrity
/// only, not cryptographic.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(const std::string& s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

/// Fixed-width lowercase hex rendering ("%08x") of a CRC, the form the
/// checkpoint header and the fleet result frames embed.
std::string Crc32Hex(uint32_t crc);

/// Strict inverse of Crc32Hex: exactly eight lowercase/uppercase hex
/// digits. Returns false (leaving *out untouched) on anything else.
bool ParseCrc32Hex(std::string_view token, uint32_t* out);

}  // namespace bati

#endif  // BATI_COMMON_CRC32_H_
