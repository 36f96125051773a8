// Tests for ModelBank (config-conditional model registry) and the HDFS
// balancer / storage accounting extensions.
#include <gtest/gtest.h>

#include <cstdio>

#include "capture/collector.h"
#include "hadoop/hdfs.h"
#include "model/model_bank.h"
#include "net/network.h"

namespace km = keddah::model;
namespace kh = keddah::hadoop;
namespace kn = keddah::net;
namespace kc = keddah::capture;
namespace ks = keddah::sim;
namespace ku = keddah::util;

namespace {

km::KeddahModel make_model(const std::string& job, std::uint64_t block, std::uint32_t repl,
                           std::size_t nodes, double duration_intercept) {
  km::KeddahModel m;
  m.set_job_name(job);
  m.context().block_size = block;
  m.context().replication = repl;
  m.context().cluster_nodes = nodes;
  m.duration_model().intercept = duration_intercept;
  return m;
}

}  // namespace

TEST(ModelBank, AddAndEnumerate) {
  km::ModelBank bank;
  EXPECT_TRUE(bank.empty());
  bank.add(make_model("sort", 128 << 20, 3, 16, 1));
  bank.add(make_model("sort", 64 << 20, 3, 16, 2));
  bank.add(make_model("grep", 128 << 20, 3, 16, 3));
  EXPECT_EQ(bank.size(), 3u);
  EXPECT_EQ(bank.job_names(), (std::vector<std::string>{"grep", "sort"}));
  EXPECT_EQ(bank.models_for("sort").size(), 2u);
  EXPECT_TRUE(bank.models_for("hive").empty());
}

TEST(ModelBank, ExactMatch) {
  km::ModelBank bank;
  bank.add(make_model("sort", 128 << 20, 3, 16, 1));
  bank.add(make_model("sort", 64 << 20, 2, 8, 2));
  const auto* hit = bank.find_exact("sort", 64 << 20, 2, 8);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->duration_model().intercept, 2.0);
  EXPECT_EQ(bank.find_exact("sort", 256 << 20, 3, 16), nullptr);
  EXPECT_EQ(bank.find_exact("grep", 128 << 20, 3, 16), nullptr);
}

TEST(ModelBank, SelectsNearestConfiguration) {
  km::ModelBank bank;
  bank.add(make_model("sort", 128 << 20, 3, 16, 1));   // reference
  bank.add(make_model("sort", 64 << 20, 3, 16, 2));    // block off by 1 octave
  bank.add(make_model("sort", 128 << 20, 1, 16, 3));   // replication off by 2
  // Asking for 128MB/r3/32 nodes: nearest is the reference (1 octave on
  // nodes) vs block-64 (1 octave block + 1 octave nodes).
  const auto* pick = bank.select("sort", 128 << 20, 3, 32);
  ASSERT_NE(pick, nullptr);
  EXPECT_DOUBLE_EQ(pick->duration_model().intercept, 1.0);
  // Exact config always wins.
  EXPECT_DOUBLE_EQ(bank.select("sort", 64 << 20, 3, 16)->duration_model().intercept, 2.0);
  EXPECT_EQ(bank.select("hive", 128 << 20, 3, 16), nullptr);
}

TEST(ModelBank, ConfigDistanceProperties) {
  km::TrainingContext ctx;
  ctx.block_size = 128 << 20;
  ctx.replication = 3;
  ctx.cluster_nodes = 16;
  EXPECT_DOUBLE_EQ(km::ModelBank::config_distance(ctx, 128 << 20, 3, 16), 0.0);
  EXPECT_DOUBLE_EQ(km::ModelBank::config_distance(ctx, 256 << 20, 3, 16), 1.0);
  EXPECT_DOUBLE_EQ(km::ModelBank::config_distance(ctx, 128 << 20, 1, 16), 2.0);
  EXPECT_DOUBLE_EQ(km::ModelBank::config_distance(ctx, 128 << 20, 3, 64), 2.0);
}

TEST(ModelBank, FileRoundTrip) {
  km::ModelBank bank;
  bank.add(make_model("sort", 128 << 20, 3, 16, 7));
  bank.add(make_model("grep", 64 << 20, 2, 8, 9));
  const std::string path = ::testing::TempDir() + "/keddah_bank.json";
  bank.save(path);
  const auto loaded = km::ModelBank::load(path);
  EXPECT_EQ(loaded.size(), 2u);
  const auto* sort_model = loaded.select("sort", 128 << 20, 3, 16);
  ASSERT_NE(sort_model, nullptr);
  EXPECT_DOUBLE_EQ(sort_model->duration_model().intercept, 7.0);
  std::remove(path.c_str());
}

TEST(ModelBank, PointersStableAcrossAdds) {
  km::ModelBank bank;
  bank.add(make_model("sort", 128 << 20, 3, 16, 1));
  const auto* first = bank.select("sort", 128 << 20, 3, 16);
  for (int i = 0; i < 50; ++i) bank.add(make_model("grep", 128 << 20, 3, 16, i));
  EXPECT_EQ(bank.select("sort", 128 << 20, 3, 16), first);
}

// ---------------------------------------------------------------- balancer

namespace {

struct BalancerHarness {
  ks::Simulator sim;
  kh::ClusterConfig config;
  std::unique_ptr<kn::Network> net;
  std::unique_ptr<kc::FlowCollector> collector;
  kh::FaultStats faults;
  std::unique_ptr<kh::HdfsCluster> hdfs;

  BalancerHarness() {
    config.racks = 2;
    config.hosts_per_rack = 4;
    config.block_size = 64ull << 20;
    config.replication = 2;
    net = std::make_unique<kn::Network>(sim, config.build_topology());
    collector = std::make_unique<kc::FlowCollector>(*net);
    hdfs = std::make_unique<kh::HdfsCluster>(*net, net->topology().hosts(), config,
                                             ku::Rng(3), faults);
  }
};

}  // namespace

TEST(Balancer, UsageAccounting) {
  BalancerHarness h;
  h.hdfs->ingest_file("f", 512ull << 20);  // 8 blocks x 2 replicas x 64 MB
  const auto usage = h.hdfs->datanode_usage();
  EXPECT_EQ(usage.size(), 8u);
  std::uint64_t total = 0;
  for (const auto& [node, bytes] : usage) {
    (void)node;
    total += bytes;
  }
  EXPECT_EQ(total, 2ull * 512ull * (1 << 20));
  EXPECT_GE(h.hdfs->storage_imbalance(), 1.0);
}

TEST(Balancer, ReducesImbalanceAndEmitsTraffic) {
  BalancerHarness h;
  // Many files: random placement leaves residual imbalance.
  for (int i = 0; i < 12; ++i) {
    h.hdfs->ingest_file("f" + std::to_string(i), 256ull << 20);
  }
  const double before = h.hdfs->storage_imbalance();
  const auto moves = h.hdfs->run_balancer(0.05, 100);
  h.sim.run();
  const double after = h.hdfs->storage_imbalance();
  if (before > 1.10) {
    EXPECT_GT(moves, 0u);
    EXPECT_LT(after, before);
  }
  // Every balancer move is an HDFS-write flow with job_id 0.
  EXPECT_EQ(h.collector->trace().size(), moves);
  for (const auto& r : h.collector->trace().records()) {
    EXPECT_EQ(kc::classify_by_ports(r), kn::FlowKind::kHdfsWrite);
    EXPECT_EQ(r.job_id, 0u);
  }
}

TEST(Balancer, NoopWhenBalanced) {
  BalancerHarness h;
  // Empty filesystem: nothing to move.
  EXPECT_EQ(h.hdfs->run_balancer(), 0u);
  EXPECT_DOUBLE_EQ(h.hdfs->storage_imbalance(), 0.0);
}

TEST(Balancer, RespectsMoveCap) {
  BalancerHarness h;
  for (int i = 0; i < 12; ++i) {
    h.hdfs->ingest_file("g" + std::to_string(i), 256ull << 20);
  }
  const auto moves = h.hdfs->run_balancer(0.0, 3);
  EXPECT_LE(moves, 3u);
}

TEST(Balancer, PreservesReplicaCountAndDistinctness) {
  BalancerHarness h;
  for (int i = 0; i < 8; ++i) {
    h.hdfs->ingest_file("h" + std::to_string(i), 256ull << 20);
  }
  h.hdfs->run_balancer(0.0, 200);
  h.sim.run();
  for (int i = 0; i < 8; ++i) {
    for (const auto& block : h.hdfs->file_by_name("h" + std::to_string(i)).blocks) {
      EXPECT_EQ(block.replicas.size(), 2u);
      EXPECT_NE(block.replicas[0], block.replicas[1]);
    }
  }
}
