// Scheduler fast-path benchmark: drives the incremental and reference
// fair-share schedulers over the same synthetic shuffle loads and reports
// flows/sec plus the counters that explain the speedup (links touched per
// reshare, flows re-rated, heap ops, solve-size distribution). Results go
// to stdout as a table and to BENCH_scheduler.json for machine diffing.
//
// The `large` shape is the acceptance gate for the incremental rewrite:
// eight racks each running a rack-confined all-to-all shuffle means a
// completion in one rack is invisible to the other seven, so the dirty-link
// frontier should cut links-touched-per-reshare by well over 3x versus the
// full recompute.
//
// The `dense` shape mirrors the paper pipeline's sort replay: open-loop
// arrivals on the 16-host rack tree outrun the fabric, so thousands of
// flows are live at once on at most 240 host-pair paths. It is the shape
// path bundling is for; bundles/solve (next to solve_size_hist) shows how
// far the solver's work shrinks below flows/solve.
//
// Usage: perf_scheduler [--quick] [--out PATH]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/counters.h"
#include "util/rng.h"
#include "util/strings.h"

namespace kn = keddah::net;
namespace ks = keddah::sim;
namespace ku = keddah::util;

namespace {

struct Shape {
  std::string name;
  std::size_t flows;  // populated by build()
};

struct ModeResult {
  double wall_s = 0.0;
  double flows_per_s = 0.0;
  std::size_t peak_live = 0;
  kn::SchedulerStats stats;
};

/// One benchmark shape: builds the topology and schedules its flow load.
/// Returns the number of flows injected.
std::size_t build(const std::string& name, ks::Simulator& sim, kn::Network*& net,
                  std::vector<std::unique_ptr<kn::Network>>& keep, bool reference,
                  double scale) {
  kn::NetworkOptions opts;
  opts.model_latency = false;
  opts.reference_scheduler = reference;
  ku::Rng rng(1234);
  std::size_t flows = 0;
  const auto start_all = [&](kn::Network& n, kn::NodeId src, kn::NodeId dst, double bytes,
                             double at) {
    sim.schedule_at(at, [&n, src, dst, bytes] { n.start_flow(src, dst, ku::Bytes(bytes), {}, nullptr); });
    ++flows;
  };
  if (name == "small") {
    // Star, 16 hosts: every reshare is global no matter what — measures the
    // incremental bookkeeping overhead where it cannot win.
    keep.push_back(std::make_unique<kn::Network>(sim, kn::make_star(16, 1e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t n = static_cast<std::size_t>(600 * scale);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      auto dst = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      start_all(*net, src, dst, std::pow(10.0, rng.uniform(4.0, 7.0)), rng.uniform(0.0, 2.0));
    }
  } else if (name == "medium") {
    // 4x8 rack tree, mixed rack-local and cross-rack traffic: partial
    // decomposition, some reshares stay rack-local.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(4, 8, 1e9, 10e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t n = static_cast<std::size_t>(1200 * scale);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      kn::NodeId dst;
      if (rng.chance(0.7)) {  // rack-local
        const std::size_t rack = static_cast<std::size_t>(i) % 4;
        dst = hosts[rack * 8 + static_cast<std::size_t>(rng.uniform_int(0, 7))];
      } else {
        dst = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      }
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      start_all(*net, src, dst, std::pow(10.0, rng.uniform(4.0, 7.5)), rng.uniform(0.0, 3.0));
    }
  } else if (name == "mid-mixed") {
    // 6x8 rack tree, the same mixed 70% rack-local pattern as medium but
    // half again as many hosts and double the flows: the lower boundary
    // shape between medium and large, so a regression class that only
    // bites at a particular component size cannot hide between the two.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(6, 8, 1e9, 20e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t n = static_cast<std::size_t>(2400 * scale);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      kn::NodeId dst;
      if (rng.chance(0.7)) {  // rack-local
        const std::size_t rack = static_cast<std::size_t>(i) % 6;
        dst = hosts[rack * 8 + static_cast<std::size_t>(rng.uniform_int(0, 7))];
      } else {
        dst = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      }
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      start_all(*net, src, dst, std::pow(10.0, rng.uniform(4.0, 7.5)), rng.uniform(0.0, 3.0));
    }
  } else if (name == "mid-local") {
    // 8x8 rack tree at large's size but with 85% rack-local mixed traffic
    // instead of fully rack-confined waves: the upper boundary shape, where
    // occasional cross-rack flows keep merging components that large's
    // all-to-all never connects.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(8, 8, 1e9, 40e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t n = static_cast<std::size_t>(3600 * scale);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      kn::NodeId dst;
      if (rng.chance(0.85)) {  // rack-local
        const std::size_t rack = static_cast<std::size_t>(i) % 8;
        dst = hosts[rack * 8 + static_cast<std::size_t>(rng.uniform_int(0, 7))];
      } else {
        dst = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      }
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      start_all(*net, src, dst, std::pow(10.0, rng.uniform(4.5, 7.2)), rng.uniform(0.0, 3.0));
    }
  } else if (name == "dense") {
    // 4x4 rack tree (the paper's testbed shape): ~25 Gb/s of open-loop
    // arrivals into 16 Gb/s of access capacity for two seconds, so the
    // backlog climbs into the thousands before it drains.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(4, 4, 1e9, 10e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t n = static_cast<std::size_t>(6000 * scale);
    const double window = 2.0 * scale;
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      auto dst = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      start_all(*net, src, dst, std::pow(10.0, rng.uniform(5.0, 6.6)), rng.uniform(0.0, window));
    }
  } else {  // large
    // 8x8 rack tree, eight concurrent rack-confined all-to-all shuffles:
    // the decomposable case the incremental scheduler is built for.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(8, 8, 1e9, 40e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t waves = static_cast<std::size_t>(4 * scale) + 1;
    for (std::size_t w = 0; w < waves; ++w) {
      for (std::size_t rack = 0; rack < 8; ++rack) {
        for (std::size_t a = 0; a < 8; ++a) {
          for (std::size_t b = 0; b < 8; ++b) {
            if (a == b) continue;
            start_all(*net, hosts[rack * 8 + a], hosts[rack * 8 + b],
                      std::pow(10.0, rng.uniform(5.0, 7.0)),
                      static_cast<double>(w) * 0.5 + rng.uniform(0.0, 0.4));
          }
        }
      }
    }
  }
  return flows;
}

ModeResult run(const std::string& shape, bool reference, double scale) {
  ks::Simulator sim;
  kn::Network* net = nullptr;
  std::vector<std::unique_ptr<kn::Network>> keep;
  const std::size_t flows = build(shape, sim, net, keep, reference, scale);
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  ModeResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.flows_per_s = static_cast<double>(flows) / r.wall_s;
  r.stats = net->scheduler_stats();
  r.peak_live = net->arena_stats().peak_live;
  return r;
}

/// Mean path bundles per solve: the unit of the solver's work, against
/// flows_visited / solves.
double bundles_per_solve(const kn::SchedulerStats& s) {
  return s.solves > 0 ? static_cast<double>(s.bundles_visited) / static_cast<double>(s.solves)
                      : 0.0;
}

/// The scheduler's counters plus the bench-only extras.
ku::Json mode_json(const ModeResult& r) {
  ku::Json doc = ku::counters_json(r.stats);
  doc["wall_s"] = ku::Json(r.wall_s);
  doc["flows_per_s"] = ku::Json(r.flows_per_s);
  doc["links_per_reshare"] = ku::Json(r.stats.links_per_reshare());
  ku::Json hist = ku::Json::array();
  for (const std::uint64_t n : r.stats.solve_size_hist) hist.push_back(ku::Json(n));
  doc["solve_size_hist"] = std::move(hist);
  doc["bundles_per_solve"] = ku::Json(bundles_per_solve(r.stats));
  doc["peak_live"] = ku::Json(static_cast<std::uint64_t>(r.peak_live));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::string out_path = "BENCH_scheduler.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) scale = 0.25;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  // One row per (shape, scheduler) run, counter columns from visit(), then
  // a rollup of the two headline ratios (reference / incremental).
  std::vector<std::string> header = {"shape", "scheduler", "wall_s", "flows/sec",
                                     "links/reshare", "bundles/solve"};
  kn::SchedulerStats{}.visit([&](const char* name, const auto&) { header.emplace_back(name); });
  ku::TextTable runs(header);
  ku::TextTable rollup({"shape", "links_per_reshare_ratio", "wall_speedup"});
  ku::Json doc = ku::Json::object();
  for (const std::string shape :
       {"small", "medium", "mid-mixed", "mid-local", "large", "dense"}) {
    ModeResult results[2];
    for (const bool reference : {false, true}) {
      auto& r = results[reference ? 1 : 0];
      r = run(shape, reference, scale);
      std::vector<std::string> row = {shape, reference ? "reference" : "incremental",
                                      ku::format("%.4f", r.wall_s),
                                      ku::format("%.0f", r.flows_per_s),
                                      ku::format("%.2f", r.stats.links_per_reshare()),
                                      ku::format("%.1f", bundles_per_solve(r.stats))};
      r.stats.visit([&](const char*, const auto& v) { row.push_back(std::to_string(v)); });
      runs.add_row(std::move(row));
    }
    const double link_ratio =
        results[1].stats.links_per_reshare() / results[0].stats.links_per_reshare();
    const double speedup = results[1].wall_s / results[0].wall_s;
    rollup.add_row({shape, ku::format("%.2fx", link_ratio), ku::format("%.2fx", speedup)});
    ku::Json& entry = doc[shape];
    entry["incremental"] = mode_json(results[0]);
    entry["reference"] = mode_json(results[1]);
    entry["links_per_reshare_ratio"] = ku::Json(link_ratio);
    entry["wall_speedup"] = ku::Json(speedup);
  }
  std::printf("%s\n%s", runs.str().c_str(), rollup.str().c_str());

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
