// Table 6: traffic cost of a node failure (extension experiment).
//
// Expected shape: a mid-job NodeManager/DataNode failure adds (a) HDFS
// re-replication traffic proportional to the replicas the node held, (b)
// rerun read/shuffle traffic for lost attempts and map outputs, and (c)
// stretches the job; the deficit scheduler capacity makes later waves
// slower.
#include <iostream>

#include "bench_common.h"
#include "hadoop/cluster.h"
#include "workloads/profiles.h"

namespace {

struct Row {
  double read;
  double shuffle;
  double write;
  double repair;
  double duration;
  std::uint64_t failed_attempts;
  std::uint64_t map_reruns;
  std::uint64_t reducer_restarts;
};

Row run(const keddah::hadoop::ClusterConfig& cfg, double fail_at, std::uint64_t seed) {
  using namespace keddah;
  using bench::kGiB;
  hadoop::HadoopCluster cluster(cfg, seed);
  const auto input = cluster.ensure_input(8 * kGiB);
  if (fail_at > 0.0) cluster.fail_node_at(cluster.workers()[5], fail_at);
  const auto result =
      cluster.run_job(workloads::make_spec(workloads::Workload::kSort, input, 16));
  const auto& trace = cluster.trace();
  Row row{};
  row.read = bench::class_bytes(trace, net::FlowKind::kHdfsRead);
  row.shuffle = bench::class_bytes(trace, net::FlowKind::kShuffle);
  row.write = bench::class_bytes(trace, net::FlowKind::kHdfsWrite);
  for (const auto& r : trace.records()) {
    if (r.truth == net::FlowKind::kHdfsWrite && r.job_id == 0) row.repair += r.bytes;
  }
  row.duration = result.duration();
  row.failed_attempts = cluster.runner().failed_attempts();
  row.map_reruns = cluster.fault_stats().map_reruns;
  row.reducer_restarts = cluster.fault_stats().reducer_restarts;
  return row;
}

}  // namespace

int main() {
  using namespace keddah;

  bench::banner("Table 6", "traffic cost of one node failure (Sort, 8 GB, fail worker 5)");
  util::TextTable table({"scenario", "hdfs_read", "shuffle", "hdfs_write", "repair(bg)", "job_s",
                         "killed", "reruns", "red_restarts"});
  const auto cfg = bench::default_config();
  const std::vector<std::pair<std::string, double>> scenarios = {
      {"no failure", 0.0},
      {"fail @ t=2s (maps running)", 2.0},
      {"fail @ t=5s (maps done)", 5.0},
      {"fail @ t=15s (shuffle)", 15.0},
      {"fail @ t=25s (write tail)", 25.0},
  };
  std::uint64_t seed = 16000;
  for (const auto& [label, fail_at] : scenarios) {
    const Row row = run(cfg, fail_at, seed++);
    table.add_row({label, util::human_bytes(row.read), util::human_bytes(row.shuffle),
                   util::human_bytes(row.write), util::human_bytes(row.repair),
                   util::format("%.1f", row.duration), std::to_string(row.failed_attempts),
                   std::to_string(row.map_reruns), std::to_string(row.reducer_restarts)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: every failure adds ~ (blocks on node) x 128 MB of repair\n"
               "traffic; map-phase failures add rerun reads, shuffle-phase failures add\n"
               "refetch traffic, and all stretch the job.\n";
  return 0;
}
