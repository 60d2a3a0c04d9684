#include "serve/event_json.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>

#include "common/json.h"
#include "common/record_file.h"
#include "session/spec_json.h"

namespace bati {

namespace {

/// One key of an event grammar: how its value is read, and the error for
/// a required key the line lacks (nullptr when the key is optional).
struct EventKey {
  std::string_view name;
  Status (*read)(JsonReader*, std::string_view, ServeEvent*);
  const char* missing;
};

/// One event type's grammar. Register events hand every key their table
/// does not list to RunSpecReader (session/spec_json.h), so a template
/// accepts exactly the bati_batch spec vocabulary.
struct EventGrammar {
  std::string_view type;
  ServeEventType kind;
  const char* noun;  ///< for "unknown key ... for <noun>"
  std::span<const EventKey> keys;
};

Status ReadTenant(JsonReader* r, std::string_view key, ServeEvent* e) {
  Status st = r->ReadString(key, &e->tenant);
  if (st.ok() && e->tenant.empty()) {
    st = Status::InvalidArgument("\"tenant\" is required");
  }
  return st;
}

/// Reads a non-negative count of at least `min` into `field`.
template <int64_t ServeEvent::*field, int64_t min>
Status ReadCount(JsonReader* r, std::string_view key, ServeEvent* e) {
  return r->ReadInt(key, min, std::numeric_limits<int64_t>::max(),
                    &(e->*field));
}

/// Reads a positive number into `field`.
template <double ServeEvent::*field>
Status ReadPositive(JsonReader* r, std::string_view key, ServeEvent* e) {
  Status st = r->ReadNumber(key, 0.0, std::numeric_limits<double>::max(),
                            &(e->*field));
  if (st.ok() && e->*field <= 0.0) {
    st = Status::InvalidArgument("\"" + std::string(key) +
                                 "\" must be positive");
  }
  return st;
}

/// Parses a deploy config: space-separated non-negative candidate
/// positions ("1 4 7"); the empty string is the base (no-index)
/// configuration. Duplicates are rejected so a diff is well-defined.
Status ParseConfigString(std::string_view text,
                         std::vector<size_t>* positions) {
  positions->clear();
  for (std::string_view token : SplitTokens(text)) {
    size_t pos = 0;
    if (!ParseInteger(token, &pos)) {
      return Status::InvalidArgument("\"config\" must be space-separated "
                                     "non-negative positions, got '" +
                                     std::string(token) + "'");
    }
    if (!positions->empty() && pos <= positions->back()) {
      return Status::InvalidArgument(
          "\"config\" positions must be strictly ascending");
    }
    positions->push_back(pos);
  }
  return Status::Ok();
}

// Required type-specific keys come first: their "missing" error wins over
// the tenant's.
constexpr EventKey kQueryKeys[] = {
    {"query",
     [](JsonReader* r, std::string_view k, ServeEvent* e) {
       int64_t id = 0;
       Status st = r->ReadInt(k, 0, std::numeric_limits<int>::max(), &id);
       if (st.ok()) e->query_id = static_cast<int>(id);
       return st;
     },
     "query events require \"query\""},
    {"weight", ReadPositive<&ServeEvent::weight>, nullptr},
    {"tenant", ReadTenant, "\"tenant\" is required"},
};

constexpr EventKey kRegisterKeys[] = {
    {"queue_quota", ReadCount<&ServeEvent::queue_quota, 1>, nullptr},
    {"budget_quota", ReadCount<&ServeEvent::budget_quota, 0>, nullptr},
    {"tune",
     [](JsonReader* r, std::string_view k, ServeEvent* e) {
       return r->ReadBool(k, &e->tune_on_register);
     },
     nullptr},
    {"tenant", ReadTenant, "\"tenant\" is required"},
};

constexpr EventKey kTuneKeys[] = {
    {"budget", ReadCount<&ServeEvent::budget_override, 0>, nullptr},
    {"seed", ReadCount<&ServeEvent::seed_override, 0>, nullptr},
    {"algorithm",
     [](JsonReader* r, std::string_view k, ServeEvent* e) {
       Status st = r->ReadString(k, &e->algorithm_override);
       if (st.ok() && !IsKnownAlgorithm(e->algorithm_override)) {
         st = Status::InvalidArgument("unknown algorithm \"" +
                                      e->algorithm_override + "\"");
       }
       return st;
     },
     nullptr},
    {"tenant", ReadTenant, "\"tenant\" is required"},
};

constexpr EventKey kDeployKeys[] = {
    {"config",
     [](JsonReader* r, std::string_view k, ServeEvent* e) {
       std::string text;
       Status st = r->ReadString(k, &text);
       if (st.ok()) st = ParseConfigString(text, &e->config);
       return st;
     },
     "deploy events require \"config\""},
    {"tenant", ReadTenant, "\"tenant\" is required"},
};

constexpr EventKey kAdvanceKeys[] = {
    {"seconds", ReadPositive<&ServeEvent::seconds>,
     "advance events require \"seconds\""},
};

constexpr EventGrammar kGrammars[] = {
    {"query", ServeEventType::kQuery, "a query event", kQueryKeys},
    {"register", ServeEventType::kRegister, "a register event",
     kRegisterKeys},
    {"tune", ServeEventType::kTune, "a tune event", kTuneKeys},
    {"deploy", ServeEventType::kDeploy, "a deploy event", kDeployKeys},
    {"advance", ServeEventType::kAdvance, "an advance event", kAdvanceKeys},
    {"drain", ServeEventType::kDrain, "a drain event", {}},
};

Status ParseEvent(const std::string& line, ServeEvent* event) {
  *event = ServeEvent();
  // First pass: the whole line must be a well-formed flat object, and its
  // "type" picks the grammar for the second pass.
  std::string type;
  JsonReader scan(line);
  Status st = ReadFlatObject(&scan, "event line", [&](std::string_view key) {
    if (key == "type") return scan.ReadString(key, &type);
    Status skipped = scan.SkipValue();
    if (skipped.ok()) return skipped;
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\": " + skipped.message());
  });
  if (!st.ok()) return st;
  if (type.empty()) return Status::InvalidArgument("\"type\" is required");
  const EventGrammar* grammar = nullptr;
  for (const EventGrammar& g : kGrammars) {
    if (g.type == type) grammar = &g;
  }
  if (grammar == nullptr) {
    return Status::InvalidArgument("unknown event type \"" + type + "\"");
  }
  event->type = grammar->kind;

  // Only register events carry spec keys; the hot query path skips
  // building a RunSpec.
  std::optional<RunSpecReader> spec;
  if (grammar->kind == ServeEventType::kRegister) spec.emplace();
  uint32_t seen = 0;  // bit i: grammar->keys[i] was present
  JsonReader reader(line);
  st = ReadFlatObject(&reader, "event line", [&](std::string_view key) {
    if (key == "type") return reader.SkipValue();
    for (size_t i = 0; i < grammar->keys.size(); ++i) {
      if (grammar->keys[i].name == key) {
        seen |= 1u << i;
        return grammar->keys[i].read(&reader, key, event);
      }
    }
    if (spec) return spec->Read(key, &reader);
    return Status::InvalidArgument("unknown key \"" + std::string(key) +
                                   "\" for " + grammar->noun);
  });
  if (st.ok() && spec) st = spec->Finish(&event->spec);
  if (!st.ok()) return st;
  for (size_t i = 0; i < grammar->keys.size(); ++i) {
    if (grammar->keys[i].missing != nullptr && (seen & (1u << i)) == 0) {
      return Status::InvalidArgument(grammar->keys[i].missing);
    }
  }
  return Status::Ok();
}

}  // namespace

Status ParseServeEventJson(const std::string& line, int lineno,
                           ServeEvent* event) {
  Status st = ParseEvent(line, event);
  if (st.ok()) return st;
  return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                 st.message());
}

}  // namespace bati
