#include "common/crc32.h"

#include <array>
#include <cstdio>

namespace bati {

namespace {

/// The reflected IEEE polynomial table, computed once at startup. 256
/// entries of 4 bytes; building it beats shipping a 1 KiB literal.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const std::array<uint32_t, 256>& table = Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string Crc32Hex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

bool ParseCrc32Hex(std::string_view token, uint32_t* out) {
  if (token.size() != 8) return false;
  uint32_t value = 0;
  for (char c : token) {
    const int digit = HexDigit(c);
    if (digit < 0) return false;
    value = (value << 4) | static_cast<uint32_t>(digit);
  }
  *out = value;
  return true;
}

}  // namespace bati
