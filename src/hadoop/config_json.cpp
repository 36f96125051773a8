#include "hadoop/config_json.h"

#include <stdexcept>
#include <vector>

#include "hadoop/faults.h"
#include "util/strings.h"

namespace keddah::hadoop {

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kStar:
      return "star";
    case TopologyKind::kRackTree:
      return "racktree";
    case TopologyKind::kFatTree:
      return "fattree";
  }
  return "racktree";
}

TopologyKind topology_kind_from_name(const std::string& name) {
  if (name == "star") return TopologyKind::kStar;
  if (name == "racktree") return TopologyKind::kRackTree;
  if (name == "fattree") return TopologyKind::kFatTree;
  throw std::invalid_argument("unknown topology '" + name +
                              "' (expected star, racktree, or fattree)");
}

ClusterConfig default_scenario_cluster() {
  ClusterConfig cfg;
  cfg.containers_per_node = 4;
  cfg.locality_delay_s = 2.0;
  return cfg;
}

ClusterConfig read_cluster_config(const util::Json& c, const std::string& key,
                                  util::FieldReader& reader) {
  ClusterConfig cfg = default_scenario_cluster();
  if (!c.is_object()) {
    reader.error(key, "must be an object");
    return cfg;
  }
  reader.unknown_keys(c, key,
                      {"topology", "racks", "hosts_per_rack", "fat_tree_k", "access_gbps",
                       "core_gbps", "block_size", "replication", "containers", "slowstart",
                       "locality_delay_s", "compress_ratio", "speculative",
                       "straggler_fraction"});
  const std::string topo = reader.string(c, key, "topology", "racktree");
  try {
    cfg.topology = topology_kind_from_name(topo);
  } catch (const std::invalid_argument&) {
    reader.error(key + ".topology", "unknown topology '" + topo + "'",
                 "one of: star, racktree, fattree");
  }
  cfg.racks = reader.count(c, key, "racks", cfg.racks, 1, "must be >= 1");
  cfg.hosts_per_rack =
      reader.count(c, key, "hosts_per_rack", cfg.hosts_per_rack, 1, "must be >= 1");
  cfg.fat_tree_k = reader.count(c, key, "fat_tree_k", cfg.fat_tree_k);
  if (cfg.topology == TopologyKind::kFatTree && (cfg.fat_tree_k < 2 || cfg.fat_tree_k % 2 != 0)) {
    reader.error(key + ".fat_tree_k", "fat-tree arity must be an even integer >= 2");
  }
  const double access_gbps = reader.number(c, key, "access_gbps", 1.0);
  if (access_gbps <= 0.0) reader.error(key + ".access_gbps", "access link rate must be > 0");
  cfg.access_bps = access_gbps * 1e9;
  const double core_gbps = reader.number(c, key, "core_gbps", 10.0);
  if (core_gbps <= 0.0) reader.error(key + ".core_gbps", "core link rate must be > 0");
  cfg.core_bps = core_gbps * 1e9;
  cfg.block_size = reader.bytes(c, key, "block_size", cfg.block_size);
  if (cfg.block_size == 0) reader.error(key + ".block_size", "byte size must be > 0");
  const std::uint64_t replication =
      reader.count(c, key, "replication", cfg.replication, 1, "replication factor must be >= 1");
  if (replication > cfg.num_workers()) {
    reader.error(key + ".replication",
                 util::format("replication %llu exceeds the cluster size (%zu workers)",
                              static_cast<unsigned long long>(replication), cfg.num_workers()),
                 "lower replication or add racks/hosts");
  } else {
    cfg.replication = static_cast<std::uint32_t>(replication);
  }
  cfg.containers_per_node = reader.count(c, key, "containers", cfg.containers_per_node, 1,
                                         "containers per node must be >= 1");
  cfg.slowstart = reader.number(c, key, "slowstart", cfg.slowstart);
  if (cfg.slowstart < 0.0 || cfg.slowstart > 1.0) {
    reader.error(key + ".slowstart", "slowstart must be in [0, 1]",
                 "it is the map-completion fraction that releases reducers");
  }
  cfg.locality_delay_s = reader.number(c, key, "locality_delay_s", cfg.locality_delay_s);
  if (cfg.locality_delay_s < 0.0) reader.error(key + ".locality_delay_s", "must be >= 0");
  cfg.map_output_compress_ratio =
      reader.number(c, key, "compress_ratio", cfg.map_output_compress_ratio);
  if (cfg.map_output_compress_ratio <= 0.0) {
    reader.error(key + ".compress_ratio", "map-output compression ratio must be > 0");
  }
  cfg.straggler_fraction = reader.number(c, key, "straggler_fraction", cfg.straggler_fraction);
  if (cfg.straggler_fraction < 0.0 || cfg.straggler_fraction > 1.0) {
    reader.error(key + ".straggler_fraction", "must be in [0, 1]");
  }
  cfg.speculative_execution =
      reader.boolean(c, key, "speculative", cfg.speculative_execution);
  return cfg;
}

ClusterConfig parse_cluster_config(const util::Json& cluster, const std::string& context,
                                   const std::string& key) {
  std::vector<util::Diagnostic> diagnostics;
  util::FieldReader reader(context, diagnostics);
  const ClusterConfig cfg = read_cluster_config(cluster, key, reader);
  reader.throw_first_error();
  return cfg;
}

util::Json cluster_config_to_json(const ClusterConfig& cfg) {
  util::Json doc = util::Json::object();
  doc["topology"] = util::Json(topology_kind_name(cfg.topology));
  doc["racks"] = util::Json(static_cast<std::uint64_t>(cfg.racks));
  doc["hosts_per_rack"] = util::Json(static_cast<std::uint64_t>(cfg.hosts_per_rack));
  if (cfg.topology == TopologyKind::kFatTree) {
    doc["fat_tree_k"] = util::Json(static_cast<std::uint64_t>(cfg.fat_tree_k));
  }
  doc["access_gbps"] = util::Json(cfg.access_bps / 1e9);
  doc["core_gbps"] = util::Json(cfg.core_bps / 1e9);
  doc["block_size"] = util::Json(cfg.block_size);
  doc["replication"] = util::Json(static_cast<std::uint64_t>(cfg.replication));
  doc["containers"] = util::Json(static_cast<std::uint64_t>(cfg.containers_per_node));
  doc["slowstart"] = util::Json(cfg.slowstart);
  doc["locality_delay_s"] = util::Json(cfg.locality_delay_s);
  doc["compress_ratio"] = util::Json(cfg.map_output_compress_ratio);
  doc["straggler_fraction"] = util::Json(cfg.straggler_fraction);
  doc["speculative"] = util::Json(cfg.speculative_execution);
  return doc;
}

util::Json fault_plan_to_json(const FaultPlan& plan) {
  util::Json array = util::Json::array();
  for (const auto& event : plan.events) {
    util::Json entry = util::Json::object();
    entry["kind"] = util::Json(fault_kind_name(event.kind));
    entry["worker"] = util::Json(static_cast<std::uint64_t>(event.worker));
    entry["at"] = util::Json(event.at);
    if (event.kind != FaultKind::kCrash) entry["duration"] = util::Json(event.duration);
    if (event.kind == FaultKind::kDegradeLink || event.kind == FaultKind::kSlowNode) {
      entry["factor"] = util::Json(event.factor);
    }
    array.push_back(std::move(entry));
  }
  return array;
}

}  // namespace keddah::hadoop
