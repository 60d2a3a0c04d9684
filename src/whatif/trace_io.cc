#include "whatif/trace_io.h"

#include <cstdio>

#include "common/record_file.h"

namespace bati {

std::string LayoutToCsv(const CostService& service,
                        const Workload& workload) {
  std::string out =
      "call,query_id,query_name,config_size,config,what_if_cost,round\n";
  char buf[64];
  for (size_t i = 0; i < service.layout().size(); ++i) {
    const LayoutEntry& e = service.layout()[i];
    out += std::to_string(i + 1) + ",";
    out += std::to_string(e.query_id) + ",";
    out += workload.queries[static_cast<size_t>(e.query_id)].name + ",";
    out += std::to_string(e.config.count()) + ",";
    bool first = true;
    for (size_t pos : e.config.ToIndices()) {
      if (!first) out += ";";
      out += std::to_string(pos);
      first = false;
    }
    out += ",";
    auto cost = service.CachedCost(e.query_id, e.config);
    std::snprintf(buf, sizeof(buf), "%.6g", cost.value_or(-1.0));
    out += buf;
    out += "," + std::to_string(e.round);
    out += "\n";
  }
  return out;
}

Status WriteLayoutCsv(const CostService& service, const Workload& workload,
                      const std::string& path) {
  // Shares the checkpoint writer's write-temp-then-rename helper: an
  // exported trace is either the old file or the complete new one.
  return AtomicWriteFile(path, LayoutToCsv(service, workload));
}

std::string ResultToJson(const CostService& service,
                         const Workload& workload,
                         const std::string& algorithm, const Config& config,
                         double true_improvement,
                         const MetricsSnapshot* metrics, bool canonical) {
  char buf[64];
  std::string out = "{";
  out += "\"workload\":\"" + workload.name + "\",";
  out += "\"algorithm\":\"" + algorithm + "\",";
  out += "\"budget\":" + std::to_string(service.budget()) + ",";
  out += "\"calls\":" + std::to_string(service.calls_made()) + ",";
  std::snprintf(buf, sizeof(buf), "%.4f", true_improvement);
  out += std::string("\"improvement\":") + buf + ",";
  std::snprintf(buf, sizeof(buf), "%.4f",
                service.DerivedImprovement(config));
  out += std::string("\"derived_improvement\":") + buf + ",";
  out += "\"indexes\":[";
  bool first = true;
  const Database& db = *workload.database;
  for (const Index& ix : service.Materialize(config)) {
    if (!first) out += ",";
    out += "\"" + ix.Name(db) + "\"";
    first = false;
  }
  out += "],";
  CostEngineStats stats = service.EngineStats();
  if (canonical) stats.executor_wall_seconds = 0.0;
  out += "\"engine_stats\":" + stats.ToJson();
  if (metrics != nullptr) {
    out += ",\"metrics\":" + metrics->ToJson();
  }
  out += "}";
  return out;
}

}  // namespace bati
