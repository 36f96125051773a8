// Deeper behavioural coverage: shuffle fetch-parallelism bounds, skewed
// partitions, alternative fabrics end-to-end, network introspection, and
// control-plane edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "hadoop/cluster.h"
#include "workloads/suite.h"

namespace kh = keddah::hadoop;
namespace kn = keddah::net;
namespace kc = keddah::capture;
namespace kw = keddah::workloads;
namespace ks = keddah::sim;
namespace ku = keddah::util;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

kh::ClusterConfig test_config() {
  kh::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  cfg.containers_per_node = 4;
  return cfg;
}

/// Max number of records of `kind` destined to `dst` overlapping in time.
std::size_t max_overlap_at(const kc::Trace& trace, kn::FlowKind kind, kn::NodeId dst) {
  std::vector<std::pair<double, int>> deltas;
  for (const auto& r : trace.records()) {
    if (r.truth != kind || r.dst_id != dst) continue;
    deltas.emplace_back(r.start, +1);
    deltas.emplace_back(r.end, -1);
  }
  std::sort(deltas.begin(), deltas.end());
  std::size_t best = 0;
  int level = 0;
  for (const auto& [t, d] : deltas) {
    (void)t;
    level += d;
    best = std::max(best, static_cast<std::size_t>(std::max(level, 0)));
  }
  return best;
}

}  // namespace

TEST(ShuffleParallelism, FetchesPerReducerBounded) {
  kh::ClusterConfig cfg = test_config();
  cfg.shuffle_parallel_copies = 3;
  cfg.slowstart = 1.0;  // all fetches queued at once: worst case for the bound
  kh::HadoopCluster cluster(cfg, 501);
  const auto input = cluster.ensure_input(512 * kMiB);  // 8 maps
  // One reducer: every shuffle flow sinks into its host.
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 1));
  const auto trace = cluster.take_trace();
  const auto shuffle = trace.filter_kind(kn::FlowKind::kShuffle);
  ASSERT_GT(shuffle.size(), 0u);
  const kn::NodeId reducer_host = shuffle[0].dst_id;
  EXPECT_LE(max_overlap_at(trace, kn::FlowKind::kShuffle, reducer_host), 3u);
  EXPECT_EQ(result.num_reducers, 1u);
}

TEST(ShuffleParallelism, ParallelismHidesFetchLatency) {
  // For bandwidth-bound shuffles, K does not change the span (the reducer
  // downlink is the bottleneck either way). For latency-bound fetches
  // (grep's header-only partitions), serial fetching pays one RTT+setup per
  // map while K=8 overlaps them.
  auto shuffle_span = [](std::size_t copies) {
    kh::ClusterConfig cfg = test_config();
    cfg.shuffle_parallel_copies = copies;
    cfg.slowstart = 1.0;
    cfg.latency_s = 5e-3;  // high-latency links make fetch setup visible
    kh::HadoopCluster cluster(cfg, 503);
    const auto input = cluster.ensure_input(1024 * kMiB);  // 16 maps
    const auto result = cluster.run_job(kw::make_spec(kw::Workload::kGrep, input, 1));
    return result.shuffle_end - result.shuffle_start;
  };
  EXPECT_GT(shuffle_span(1), shuffle_span(8) * 2.0);
}

TEST(PartitionSkew, HotReducerReceivesMore) {
  kh::ClusterConfig cfg = test_config();
  kh::HadoopCluster cluster(cfg, 505);
  const auto input = cluster.ensure_input(1024 * kMiB);
  auto spec = kw::make_spec(kw::Workload::kSort, input, 8);
  spec.profile.partition_skew = 1.2;
  cluster.run_job(spec);
  const auto shuffle = cluster.take_trace().filter_kind(kn::FlowKind::kShuffle);
  std::map<kn::NodeId, double> per_dst;
  for (const auto& r : shuffle.records()) per_dst[r.dst_id] += r.bytes;
  double hottest = 0.0;
  double total = 0.0;
  for (const auto& [dst, bytes] : per_dst) {
    (void)dst;
    hottest = std::max(hottest, bytes);
    total += bytes;
  }
  // Zipf(1.2) over 8 reducers: top weight ~0.38 of total; far above 1/8.
  EXPECT_GT(hottest / total, 0.25);
}

TEST(Fabrics, JobRunsOnStarTopology) {
  kh::ClusterConfig cfg = test_config();
  cfg.topology = kh::TopologyKind::kStar;
  kh::HadoopCluster cluster(cfg, 507);
  const auto input = cluster.ensure_input(256 * kMiB);
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e5);
  // Star has one rack: rack-aware placement degrades gracefully.
  EXPECT_GT(cluster.trace().size(), 0u);
}

TEST(Fabrics, JobRunsOnFatTree) {
  kh::ClusterConfig cfg = test_config();
  cfg.topology = kh::TopologyKind::kFatTree;
  cfg.fat_tree_k = 4;  // 16 hosts
  kh::HadoopCluster cluster(cfg, 509);
  EXPECT_EQ(cluster.workers().size(), 16u);
  const auto input = cluster.ensure_input(512 * kMiB);
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e5);
}

TEST(NetworkIntrospection, CountersAndFindFlow) {
  ks::Simulator sim;
  kn::NetworkOptions opts;
  opts.model_latency = false;
  kn::Network net(sim, kn::make_star(3, 1e9, 0.0), opts);
  const auto& topo = net.topology();
  const auto id = net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e6), {}, nullptr);
  EXPECT_EQ(net.total_flows(), 1u);
  sim.step();  // activate
  const auto* flow = net.find_flow(id);
  ASSERT_NE(flow, nullptr);
  EXPECT_DOUBLE_EQ(flow->bytes.value(), 1e6);
  EXPECT_GT(flow->rate_bps, 0.0);
  EXPECT_GT(net.scheduler_stats().solves, 0u);
  sim.run();
  EXPECT_EQ(net.find_flow(id), nullptr);
  EXPECT_EQ(net.find_flow(999), nullptr);
}

TEST(ControlPlane, EnableIsIdempotent) {
  kh::HadoopCluster cluster(test_config(), 511);
  cluster.control().enable();
  cluster.control().enable();  // no double-scheduling
  cluster.simulator().run(2.5);
  cluster.control().disable();
  cluster.control().disable();
  cluster.simulator().run();
  // 8 workers, 7 with non-loopback heartbeats; ~2 NM beats + ~1 DN beat
  // each in 2.5 s. The exact count is seeded; assert a sane band.
  const auto n = cluster.trace().size();
  EXPECT_GT(n, 8u);
  EXPECT_LT(n, 80u);
  EXPECT_EQ(cluster.simulator().pending(), 0u);
}

TEST(Hdfs, ReadAfterFailureUsesSurvivingReplica) {
  kh::HadoopCluster cluster(test_config(), 513);
  const auto input = cluster.ensure_input(256 * kMiB);
  const auto& info = cluster.hdfs().file_by_name(input);
  const auto victim = info.blocks[0].replicas[0];
  if (victim == cluster.master()) GTEST_SKIP() << "victim is master in this seed";
  cluster.fail_node(victim);
  cluster.simulator().run();  // let re-replication settle
  bool done = false;
  // Read from a node chosen so the read cannot be loopback-satisfied by
  // the dead node.
  cluster.hdfs().read_block(info.id, 0, cluster.workers()[1], 1, [&] { done = true; });
  cluster.simulator().run();
  EXPECT_TRUE(done);
  for (const auto& r : cluster.trace().records()) {
    if (r.truth == kn::FlowKind::kHdfsRead) {
      EXPECT_NE(r.src_id, victim);
    }
  }
}

TEST(Runner, ManyReducersFewSlotsCompletes) {
  // Reducers exceed total slots: slow-start + FIFO must not deadlock.
  kh::ClusterConfig cfg = test_config();
  cfg.containers_per_node = 2;  // 16 slots
  kh::HadoopCluster cluster(cfg, 515);
  const auto input = cluster.ensure_input(512 * kMiB);
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 14));
  EXPECT_EQ(result.num_reducers, 14u);
  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e5);
}

TEST(Runner, TinyInputSingleMap) {
  kh::HadoopCluster cluster(test_config(), 517);
  cluster.hdfs().ingest_file("tiny", 1000);
  auto spec = kw::make_spec(kw::Workload::kSort, "tiny", 2);
  const auto result = cluster.run_job(spec);
  EXPECT_EQ(result.num_maps, 1u);
  EXPECT_GE(result.output_bytes, 900u);
}
