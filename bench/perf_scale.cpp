// Fat-tree scale benchmark: the acceptance gate for the columnar flow
// arena and the mmap'd capture spill. Drives the workloads::scale scenario
// (10k-host oversubscribed fat-tree, >1M flows by default) through the
// incremental scheduler with capture spilling to disk, and gates on
// flows/sec and peak RSS so a pointer-heavy or RAM-bound regression fails
// the bench instead of shipping. Results go to BENCH_scale.json.
//
// The reference scheduler is deliberately not run here — full recomputes
// over a 70k-arc fabric at 1M flows are days of wall clock. Correctness of
// the incremental scheduler on fat-trees is locked by
// tests/net_differential_test.cpp at k=4/k=8, which is the documented
// correctness lock for this bench (ROADMAP.md).
//
// Usage: perf_scale [--quick] [--out PATH] [--spill-dir DIR]
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "capture/collector.h"
#include "capture/spill.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/counters.h"
#include "util/strings.h"
#include "workloads/scale.h"

namespace kn = keddah::net;
namespace ks = keddah::sim;
namespace ku = keddah::util;
namespace kc = keddah::capture;
namespace kw = keddah::workloads;

namespace {

/// Peak resident set size in MB (Linux ru_maxrss is in KB).
double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Gate {
  const char* name;
  bool passed;
  std::string detail;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_scale.json";
  std::string spill_dir = "perf_scale_spill";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) spill_dir = argv[++i];
  }

  kw::ScaleSpec spec;
  // Gate floors/ceilings, set from measured full-run numbers with wide
  // headroom (shared CI machines are noisy): the full run measures
  // ~190k flows/s and ~360 MB peak RSS on a dev box.
  double min_flows_per_s = 40000.0;
  double max_rss_mb = 1024.0;
  if (quick) {
    // CI-sized: k=12 fat-tree (432 hosts), ~15k flows, seconds of wall
    // clock, same machinery end to end. Quick gates are loose enough to
    // pass under a sanitizer (check_sanitize.sh runs this mode): a dev box
    // measures ~95k flows/s and ~6 MB peak RSS natively.
    spec.target_hosts = 400;
    spec.local_waves = 6;
    spec.flows_per_host_per_wave = 4;
    spec.cross_waves = 1;
    spec.cross_flows_per_wave = 5000;
    min_flows_per_s = 2000.0;
    max_rss_mb = 768.0;
  }

  const std::size_t k = kw::fat_tree_k_for_hosts(spec.target_hosts);
  std::printf("perf_scale: building k=%zu fat-tree (oversubscription %.1f:1)...\n", k,
              spec.oversubscription);
  ks::Simulator sim;
  kn::NetworkOptions opts;
  opts.model_latency = false;  // scheduler + arena throughput, not latency tails
  kn::Network net(sim, kw::make_scale_topology(spec), opts);
  const std::size_t hosts = net.topology().hosts().size();

  std::printf("perf_scale: generating schedule...\n");
  const kw::ScaleSchedule sched = kw::make_scale_schedule(net.topology(), spec);
  const std::size_t n_flows = sched.size();
  std::printf("perf_scale: %zu hosts, %zu flows, spilling capture to %s\n", hosts, n_flows,
              spill_dir.c_str());

  kc::CollectorOptions copts;
  copts.spill_dir = spill_dir;
  kc::FlowCollector collector(net, copts);

  // Self-rescheduling injector: one resident event walks the start-sorted
  // columns instead of pre-scheduling a million closures (each simulator
  // event is a heap-allocated std::function — at 1M flows that alone would
  // dominate RSS and defeat the arena measurement).
  std::size_t next = 0;
  std::function<void()> inject = [&] {
    while (next < n_flows && sched.start[next] <= sim.now()) {
      net.start_flow(sched.src[next], sched.dst[next], ku::Bytes(sched.bytes[next]), {}, nullptr);
      ++next;
    }
    if (next < n_flows) sim.schedule_at(sched.start[next], inject);
  };
  if (n_flows > 0) sim.schedule_at(sched.start[0], inject);

  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();
  const double flows_per_s = static_cast<double>(n_flows) / wall_s;
  const double rss_mb = peak_rss_mb();

  collector.finalize_spill();
  const kn::SchedulerStats& ss = net.scheduler_stats();
  const kn::ArenaStats as = net.arena_stats();

  // Verify the spilled capture is readable and complete before gating.
  std::uint64_t spill_records = 0;
  std::string spill_error;
  try {
    kc::SpillReader reader(collector.spill_path());
    spill_records = reader.size();
  } catch (const std::exception& e) {
    spill_error = e.what();
  }

  net.audit_conservation();
  const double offered = net.offered_bytes().value();
  const double delivered = net.delivered_bytes().value();

  std::vector<Gate> gates;
  gates.push_back({"all_flows_started", net.total_flows() == n_flows,
                   ku::format("%llu of %zu", static_cast<unsigned long long>(net.total_flows()),
                              n_flows)});
  gates.push_back({"all_flows_drained", net.active_flows() == 0 && net.aborted_flows() == 0,
                   ku::format("%zu active, %llu aborted at end", net.active_flows(),
                              static_cast<unsigned long long>(net.aborted_flows()))});
  gates.push_back(
      {"bytes_conserved", std::fabs(offered - delivered) <= 1e-6 * offered + 1.0,
       ku::format("offered %.0f B, delivered %.0f B", offered, delivered)});
  gates.push_back({"spill_complete", spill_error.empty() && spill_records == n_flows,
                   spill_error.empty()
                       ? ku::format("%llu records", static_cast<unsigned long long>(spill_records))
                       : spill_error});
  gates.push_back({"flows_per_s_floor", flows_per_s >= min_flows_per_s,
                   ku::format("%.0f >= %.0f", flows_per_s, min_flows_per_s)});
  gates.push_back({"peak_rss_ceiling", rss_mb <= max_rss_mb,
                   ku::format("%.0f MB <= %.0f MB", rss_mb, max_rss_mb)});

  bool all_passed = true;
  std::printf("\n%-18s %-6s %s\n", "gate", "state", "detail");
  for (const Gate& g : gates) {
    all_passed = all_passed && g.passed;
    std::printf("%-18s %-6s %s\n", g.name, g.passed ? "PASS" : "FAIL", g.detail.c_str());
  }
  std::printf("\n%zu flows in %.2f s -> %.0f flows/s, peak RSS %.0f MB\n", n_flows, wall_s,
              flows_per_s, rss_mb);
  std::printf("\n%s\n%s", ku::counters_table(as, "arena counter").str().c_str(),
              ku::counters_table(ss, "scheduler counter").str().c_str());

  ku::Json doc = ku::Json::object();
  doc["quick"] = ku::Json(quick);
  doc["fat_tree_k"] = ku::Json(static_cast<std::uint64_t>(k));
  doc["oversubscription"] = ku::Json(spec.oversubscription);
  doc["hosts"] = ku::Json(static_cast<std::uint64_t>(hosts));
  doc["flows"] = ku::Json(static_cast<std::uint64_t>(n_flows));
  doc["wall_s"] = ku::Json(wall_s);
  doc["flows_per_s"] = ku::Json(flows_per_s);
  doc["peak_rss_mb"] = ku::Json(rss_mb);
  doc["spill_records"] = ku::Json(spill_records);
  doc["arena"] = ku::counters_json(as);
  doc["scheduler"] = ku::counters_json(ss);
  doc["scheduler"]["links_per_reshare"] = ku::Json(ss.links_per_reshare());
  ku::Json gates_json = ku::Json::object();
  for (const Gate& g : gates) gates_json[g.name] = ku::Json(g.passed);
  doc["gates"] = std::move(gates_json);
  doc["all_gates_passed"] = ku::Json(all_passed);

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  // The spill file of a full run is ~56 MB of scratch; don't leave it around.
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);

  return all_passed ? 0 : 1;
}
