// Unit tests for topology construction, routing, ECMP, and the builders.
#include <gtest/gtest.h>

#include <set>

#include "net/topology.h"

namespace kn = keddah::net;
namespace ku = keddah::util;

TEST(Topology, AddAndLookupNodes) {
  kn::Topology t;
  const auto h0 = t.add_host("h0", 0);
  const auto sw = t.add_switch("sw");
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.find("h0"), h0);
  EXPECT_EQ(t.find("sw"), sw);
  EXPECT_EQ(t.find("nope"), kn::kInvalidNode);
  EXPECT_FALSE(t.node(h0).is_switch);
  EXPECT_TRUE(t.node(sw).is_switch);
}

TEST(Topology, DuplicateNameThrows) {
  kn::Topology t;
  t.add_host("x", 0);
  EXPECT_THROW(t.add_host("x", 1), std::invalid_argument);
}

TEST(Topology, BadLinksThrow) {
  kn::Topology t;
  const auto a = t.add_host("a", 0);
  EXPECT_THROW(t.add_link(a, a, ku::Rate::bps(1e9), ku::Seconds(0.0)), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, kn::NodeId(99), ku::Rate::bps(1e9), ku::Seconds(0.0)), std::out_of_range);
  const auto b = t.add_host("b", 0);
  EXPECT_THROW(t.add_link(a, b, ku::Rate::bps(0.0), ku::Seconds(0.0)), std::invalid_argument);
}

TEST(Topology, RouteThroughSwitch) {
  kn::Topology t = kn::make_star(4, 1e9, 1e-4);
  const auto h0 = t.find("h0");
  const auto h1 = t.find("h1");
  const auto path = t.route(h0, h1, 1);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(t.arc_from(path[0]), h0);
  EXPECT_EQ(t.arc_to(path[1]), h1);
  EXPECT_DOUBLE_EQ(t.path_latency(path).value(), 2e-4);
}

TEST(Topology, LoopbackRouteIsEmpty) {
  kn::Topology t = kn::make_star(2, 1e9, 1e-4);
  EXPECT_TRUE(t.route(t.find("h0"), t.find("h0"), 1).empty());
}

TEST(Topology, UnreachableThrows) {
  kn::Topology t;
  const auto a = t.add_host("a", 0);
  const auto b = t.add_host("b", 1);
  EXPECT_THROW(t.route(a, b, 1), std::runtime_error);
  EXPECT_EQ(t.distance(a, b), -1);
}

TEST(Topology, DistanceCounts) {
  kn::Topology t = kn::make_rack_tree(2, 2, 1e9, 1e10, 1e-4);
  const auto h0 = t.find("h0");
  const auto h1 = t.find("h1");  // same rack
  const auto h2 = t.find("h2");  // other rack
  EXPECT_EQ(t.distance(h0, h0), 0);
  EXPECT_EQ(t.distance(h0, h1), 2);   // h0 -> tor -> h1
  EXPECT_EQ(t.distance(h0, h2), 4);   // h0 -> tor0 -> core -> tor1 -> h2
}

TEST(Topology, SameRack) {
  kn::Topology t = kn::make_rack_tree(2, 2, 1e9, 1e10, 1e-4);
  EXPECT_TRUE(t.same_rack(t.find("h0"), t.find("h1")));
  EXPECT_FALSE(t.same_rack(t.find("h0"), t.find("h2")));
  EXPECT_FALSE(t.same_rack(t.find("h0"), t.find("tor0")));
}

TEST(Topology, HostsByRack) {
  kn::Topology t = kn::make_rack_tree(3, 4, 1e9, 1e10, 1e-4);
  const auto racks = t.hosts_by_rack();
  ASSERT_EQ(racks.size(), 3u);
  for (const auto& [rack, hosts] : racks) {
    (void)rack;
    EXPECT_EQ(hosts.size(), 4u);
  }
  EXPECT_EQ(t.hosts().size(), 12u);
}

TEST(Topology, StarShape) {
  kn::Topology t = kn::make_star(8, 1e9, 1e-4);
  EXPECT_EQ(t.hosts().size(), 8u);
  EXPECT_EQ(t.num_links(), 8u);
}

TEST(Topology, RackTreeShape) {
  kn::Topology t = kn::make_rack_tree(4, 4, 1e9, 1e10, 1e-4);
  EXPECT_EQ(t.hosts().size(), 16u);
  // 16 access + 4 uplinks.
  EXPECT_EQ(t.num_links(), 20u);
  // Uplink capacity is the core rate.
  const auto tor0 = t.find("tor0");
  const auto core = t.find("core");
  ASSERT_NE(tor0, kn::kInvalidNode);
  ASSERT_NE(core, kn::kInvalidNode);
}

TEST(Topology, FatTreeShape) {
  const std::size_t k = 4;
  kn::Topology t = kn::make_fat_tree(k, 1e10, 1e-5);
  EXPECT_EQ(t.hosts().size(), k * k * k / 4);            // 16 hosts
  const std::size_t switches = t.num_nodes() - k * k * k / 4;
  EXPECT_EQ(switches, k * k + k * k / 4);                // 20 switches
  // Links: hosts (16) + edge-agg (k pods * (k/2)^2 = 16) + agg-core (16).
  EXPECT_EQ(t.num_links(), 48u);
}

TEST(Topology, FatTreeOddKThrows) {
  EXPECT_THROW(kn::make_fat_tree(3, 1e9, 0.0), std::invalid_argument);
}

TEST(Topology, FatTreeAllHostsReachable) {
  kn::Topology t = kn::make_fat_tree(4, 1e10, 1e-5);
  const auto hosts = t.hosts();
  for (const auto a : hosts) {
    for (const auto b : hosts) {
      if (a == b) continue;
      EXPECT_GE(t.distance(a, b), 2);
      EXPECT_LE(t.distance(a, b), 6);
    }
  }
}

TEST(Topology, FatTreeEcmpSpreadsFlows) {
  kn::Topology t = kn::make_fat_tree(4, 1e10, 1e-5);
  // Pick two hosts in different pods: many equal-cost core paths exist.
  const auto src = t.find("h0");
  const auto dst = t.find("h15");
  std::set<std::uint32_t> first_hops;
  std::set<std::uint32_t> core_arcs;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const auto path = t.route(src, dst, key);
    ASSERT_EQ(path.size(), 6u);  // host-edge-agg-core-agg-edge-host
    first_hops.insert(path[1].index());
    core_arcs.insert(path[2].index());
    // Path is consistent: arcs chain from src to dst.
    EXPECT_EQ(t.arc_from(path[0]), src);
    for (std::size_t i = 1; i < path.size(); ++i) {
      EXPECT_EQ(t.arc_from(path[i]), t.arc_to(path[i - 1]));
    }
    EXPECT_EQ(t.arc_to(path.back()), dst);
  }
  // ECMP should use more than one aggregation and core choice.
  EXPECT_GT(first_hops.size(), 1u);
  EXPECT_GT(core_arcs.size(), 1u);
}

TEST(Topology, EcmpStablePerKey) {
  kn::Topology t = kn::make_fat_tree(4, 1e10, 1e-5);
  const auto src = t.find("h0");
  const auto dst = t.find("h12");
  const auto p1 = t.route(src, dst, 77);
  const auto p2 = t.route(src, dst, 77);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i].index(), p2[i].index());
}

TEST(Topology, DumbbellBottleneck) {
  kn::Topology t = kn::make_dumbbell(2, 2, 1e9, 5e8, 1e-4);
  EXPECT_EQ(t.hosts().size(), 4u);
  const auto h0 = t.find("h0");
  const auto h2 = t.find("h2");
  const auto path = t.route(h0, h2, 1);
  ASSERT_EQ(path.size(), 3u);
  // Middle arc is the bottleneck link.
  EXPECT_DOUBLE_EQ(t.link(path[1].link).capacity.bps(), 5e8);
}

TEST(Topology, ArcIndexEncoding) {
  kn::Arc a{3, 0};
  kn::Arc b{3, 1};
  EXPECT_EQ(a.index(), 6u);
  EXPECT_EQ(b.index(), 7u);
  EXPECT_NE(a, b);
}
