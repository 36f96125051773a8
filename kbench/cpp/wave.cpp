// fattree-wave: the workloads::scale default spec, a k=36 fat-tree with
// 11,664 hosts at 4:1 oversubscription carrying ~1.0M flows, injected by one
// self-rescheduling event and captured to a KSPL spill on local disk.
//
// Time goes to routing and to spill appends; the solver does little (about
// 600 flows are ever live at once), so this is the workload where start_flow
// and the spill move and the paper pipeline's solver work does not.
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>

#include "bench.h"
#include "capture/collector.h"
#include "capture/spill.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workloads/scale.h"

namespace kbench {

namespace {

namespace kd = keddah;
using keddah::util::Json;

/// One pass's simulation state; built during set-up.
struct Wave {
  kd::sim::Simulator sim;
  std::unique_ptr<kd::net::Network> net;
  std::unique_ptr<kd::capture::FlowCollector> collector;
  kd::workloads::ScaleSchedule schedule;
};

}  // namespace

Report run_fattree_wave(const Options& options, Tracer& tracer) {
  Report report;
  kd::workloads::ScaleSpec spec;
  spec.seed = kd::util::derive_seed(options.seed, 0);
  const std::string spill_dir = options.work_dir + "/wave-spill";

  std::vector<double> setups, pass_s, rates, read_s, add_s, finalize_s, coverages;
  Json first_record;

  run_passes(options.seconds, [&](std::size_t pass) {
    const auto setup_start = Clock::now();
    auto wave = std::make_unique<Wave>();
    {
      kd::net::Topology topology;
      {
        Scope span(tracer, "net.topology_build");
        topology = kd::workloads::make_scale_topology(spec);
      }
      {
        Scope span(tracer, "workloads.schedule");
        wave->schedule = kd::workloads::make_scale_schedule(topology, spec);
      }
      kd::net::NetworkOptions net_options;
      net_options.model_latency = false;  // throughput of routing + arena, not latency tails
      wave->net = std::make_unique<kd::net::Network>(wave->sim, std::move(topology), net_options);
      kd::capture::CollectorOptions collector_options;
      collector_options.spill_dir = spill_dir;
      wave->collector = std::make_unique<kd::capture::FlowCollector>(*wave->net, collector_options);
    }
    setups.push_back(seconds_since(setup_start));

    auto& sim = wave->sim;
    auto& net = *wave->net;
    const auto& sched = wave->schedule;
    const std::size_t n_flows = sched.size();
    std::size_t next = 0;
    double injector_s = 0.0;
    std::uint64_t injector_calls = 0;
    const bool traced = tracer.enabled();
    // One resident event walks the start-sorted columns instead of
    // pre-scheduling a million closures. Traced runs time every start_flow
    // (routing + admission) into a count and a total, not a span per call.
    std::function<void()> inject = [&] {
      while (next < n_flows && sched.start[next] <= sim.now()) {
        if (traced) {
          const auto t0 = Clock::now();
          net.start_flow(sched.src[next], sched.dst[next], kd::util::Bytes(sched.bytes[next]), {},
                         nullptr);
          injector_s += seconds_since(t0);
          ++injector_calls;
        } else {
          net.start_flow(sched.src[next], sched.dst[next], kd::util::Bytes(sched.bytes[next]), {},
                         nullptr);
        }
        ++next;
      }
      if (next < n_flows) sim.schedule_at(sched.start[next], inject);
    };
    if (n_flows > 0) sim.schedule_at(sched.start[0], inject);

    const auto pass_start = Clock::now();
    const int root = tracer.open("wave");
    {
      Scope span(tracer, "sim.run");
      sim.run();
    }
    const auto finalize_start = Clock::now();
    {
      Scope span(tracer, "capture.spill_finalize");
      wave->collector->finalize_spill();
    }
    const auto pass_end = Clock::now();
    tracer.close(root);
    const double timed = seconds_between(pass_start, pass_end);
    pass_s.push_back(timed);
    rates.push_back(static_cast<double>(n_flows) / timed);
    finalize_s.push_back(seconds_between(finalize_start, pass_end));
    tracer.accumulate("net.start_flow", injector_s, injector_calls);
    if (traced) coverages.push_back(tracer.coverage(root));

    // perf_scale's four gates: all started, drained, bytes conserved, and
    // the spill readable and complete (decoded record by record here).
    report.attempted += n_flows;
    const std::uint64_t undelivered =
        n_flows - std::min<std::uint64_t>(n_flows, net.total_flows()) + net.active_flows() +
        net.aborted_flows();
    report.failed += undelivered;
    report.check(net.total_flows() == n_flows, "not every scheduled flow started");
    report.check(net.active_flows() == 0 && net.aborted_flows() == 0,
                 "flows left active or aborted at the end of the wave");
    net.audit_conservation();
    const double offered = net.offered_bytes().value();
    const double delivered = net.delivered_bytes().value();
    report.check(std::fabs(offered - delivered) <= 1e-6 * offered + 1.0,
                 "delivered bytes differ from offered bytes");

    Digest digest;
    std::uint64_t spilled = 0;
    try {
      const auto read_start = Clock::now();
      kd::capture::SpillReader reader(wave->collector->spill_path());
      std::vector<kd::capture::FlowRecord> records;
      records.reserve(traced ? reader.size() : 0);
      for (std::uint64_t i = 0; i < reader.size(); ++i) {
        const kd::capture::FlowRecord r = reader.record(i);
        digest.add(static_cast<std::uint64_t>(r.src_id) << 32 | r.dst_id);
        digest.add(r.bytes);
        digest.add(r.start);
        digest.add(r.end);
        if (traced) records.push_back(r);
      }
      spilled = reader.size();
      read_s.push_back(seconds_since(read_start));
      if (traced) {
        // Rewrites the capture through a fresh writer: the per-record
        // append cost the wave pays inside sim.run().
        const std::string copy = spill_dir + "/rewrite.kspill";
        kd::capture::SpillWriter writer(copy);
        const auto add_start = Clock::now();
        for (const auto& r : records) writer.add(r);
        add_s.push_back(seconds_since(add_start));
        writer.finalize();
        report.check(writer.records() == spilled, "spill rewrite lost records");
      }
    } catch (const std::exception& e) {
      report.check(false, std::string("spill unreadable: ") + e.what());
    }
    report.check(spilled == n_flows, "spill holds " + std::to_string(spilled) + " of " +
                                         std::to_string(n_flows) + " flow records");

    const kd::net::SchedulerStats& scheduler = net.scheduler_stats();
    const kd::net::ArenaStats arena = net.arena_stats();
    Json record = Json::object();
    record["flows"] = Json(static_cast<std::uint64_t>(n_flows));
    record["spill_records"] = Json(spilled);
    record["spill_digest"] = Json(digest.hex());
    record["makespan_s"] = Json(sim.now());
    record["delivered_bytes"] = Json(delivered);
    record["net.reshares"] = Json(scheduler.reshares);
    record["net.solves"] = Json(scheduler.solves);
    record["net.links_touched"] = Json(scheduler.links_touched);
    record["net.flows_rerated"] = Json(scheduler.flows_rerated);
    record["net.heap_ops"] = Json(scheduler.heap_ops);
    record["net.arena_peak_live"] = Json(static_cast<std::uint64_t>(arena.peak_live));
    record["net.arena_slot_reuses"] = Json(arena.slot_reuses);
    record["net.path_pool_len"] = Json(static_cast<std::uint64_t>(arena.path_pool_len));
    if (pass == 0) {
      first_record = record;
    } else {
      check_repeat(report, first_record, record, pass);
    }
    wave.reset();
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
    return timed;
  });

  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("pass_s", median(pass_s), "s");
  report.pass_seconds = pass_s;
  report.setup_seconds = setups;
  report.metric("flows_per_s", median(rates), "1/s");
  report.record = first_record;

  if (tracer.enabled()) {
    const double passes = static_cast<double>(pass_s.size());
    report.metric("net.topology_build_s", tracer.total("net.topology_build") / passes, "s");
    report.metric("workloads.schedule_s", tracer.total("workloads.schedule") / passes, "s");
    report.metric("net.start_flow_s", tracer.accumulated_seconds("net.start_flow") / passes, "s");
    report.metric("net.start_flow_calls",
                  static_cast<double>(tracer.accumulated_calls("net.start_flow")) / passes,
                  "count");
    report.metric("capture.spill_add_s", median(add_s), "s");
    report.metric("capture.spill_finalize_s", median(finalize_s), "s");
    report.metric("capture.spill_read_s", median(read_s), "s");
    report.metric("capture.records", first_record.at("spill_records").as_number(), "count");
    for (const char* counter :
         {"net.reshares", "net.solves", "net.links_touched", "net.flows_rerated", "net.heap_ops",
          "net.arena_peak_live", "net.arena_slot_reuses", "net.path_pool_len"}) {
      report.metric(counter, first_record.at(counter).as_number(), "count");
    }
    report.metric("trace.coverage", *std::min_element(coverages.begin(), coverages.end()),
                  "ratio");
  }
  return report;
}

}  // namespace kbench
