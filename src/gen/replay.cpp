#include "gen/replay.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "capture/collector.h"
#include "capture/spill.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/summary.h"

namespace keddah::gen {

namespace {
/// Finalizes a spill-mode capture and fills the result's spill fields plus
/// makespan, streamed off the mmap'd file rather than loaded into RAM.
void finish_spill(capture::FlowCollector& collector, ReplayResult& result) {
  collector.finalize_spill();
  result.spilled_records = collector.spilled();
  result.spill_path = collector.spill_path();
  capture::SpillReader reader(result.spill_path);
  double last_end = 0.0;
  for (std::uint64_t i = 0; i < reader.size(); ++i) {
    last_end = std::max(last_end, reader.record(i).end);
  }
  result.makespan = last_end;
}
}  // namespace

double ReplayResult::mean_fct() const { return stats::mean(flow_completion_times); }

double ReplayResult::p99_fct() const {
  if (flow_completion_times.empty()) return 0.0;
  return stats::quantile(flow_completion_times, 0.99);
}

net::FlowMeta meta_for_kind(net::FlowKind kind, std::uint32_t job_id) {
  net::FlowMeta meta;
  meta.job_id = job_id;
  meta.kind = kind;
  switch (kind) {
    case net::FlowKind::kHdfsRead:
      meta.src_port = net::ports::kDataNodeXfer;
      meta.dst_port = net::ports::kEphemeralBase;
      break;
    case net::FlowKind::kHdfsWrite:
      meta.src_port = net::ports::kEphemeralBase;
      meta.dst_port = net::ports::kDataNodeXfer;
      break;
    case net::FlowKind::kShuffle:
      meta.src_port = net::ports::kShuffle;
      meta.dst_port = net::ports::kEphemeralBase;
      break;
    case net::FlowKind::kControl:
      meta.src_port = net::ports::kEphemeralBase;
      meta.dst_port = net::ports::kRmTracker;
      break;
    case net::FlowKind::kOther:
      meta.src_port = net::ports::kEphemeralBase;
      meta.dst_port = net::ports::kEphemeralBase + 1;
      break;
  }
  return meta;
}

ReplayResult replay_closed_loop(const SyntheticTrafficSchedule& schedule,
                                const net::Topology& topology, ClosedLoopOptions options) {
  sim::Simulator sim;
  net::NetworkOptions net_options;
  net_options.loopback = util::Rate::bps(options.loopback_bps);
  net::Network network(sim, topology, net_options);
  capture::CollectorOptions capture_options;
  capture_options.spill_dir = options.spill_dir;
  capture::FlowCollector collector(network, capture_options);

  const auto hosts = network.topology().hosts();
  ReplayResult result;
  if (hosts.empty()) return result;

  // Per-destination shuffle fetch windows: in-flight count + FIFO backlog.
  struct FetchWindow {
    std::size_t inflight = 0;
    std::deque<SyntheticFlow> backlog;
  };
  auto windows = std::make_shared<std::unordered_map<std::size_t, FetchWindow>>();

  // Launch one flow onto the fabric; shuffle completions pump the window.
  auto launch = std::make_shared<std::function<void(const SyntheticFlow&)>>();
  *launch = [&network, &result, &hosts, windows, launch, options](const SyntheticFlow& f) {
    const net::NodeId src = hosts[f.src_host % hosts.size()];
    net::NodeId dst = hosts[f.dst_host % hosts.size()];
    if (dst == src) dst = hosts[(f.dst_host + 1) % hosts.size()];
    const bool gated = f.kind == net::FlowKind::kShuffle;
    const std::size_t window_key = f.dst_host % hosts.size();
    network.start_flow(src, dst, util::Bytes(f.bytes), meta_for_kind(f.kind),
                       [&result, windows, launch, gated, window_key](const net::Flow& flow) {
                         result.flow_completion_times.push_back(flow.end_time -
                                                                flow.submit_time);
                         if (!gated) return;
                         auto& window = (*windows)[window_key];
                         --window.inflight;
                         if (!window.backlog.empty()) {
                           const SyntheticFlow next = window.backlog.front();
                           window.backlog.pop_front();
                           ++window.inflight;
                           (*launch)(next);
                         }
                       });
  };

  for (const auto& f : schedule.flows) {
    sim.schedule_at(f.start, [launch, windows, f, options, &hosts] {
      if (f.kind != net::FlowKind::kShuffle) {
        (*launch)(f);
        return;
      }
      auto& window = (*windows)[f.dst_host % hosts.size()];
      if (window.inflight < options.shuffle_fetch_slots) {
        ++window.inflight;
        (*launch)(f);
      } else {
        window.backlog.push_back(f);
      }
    });
  }
  sim.run();
  result.scheduler = network.scheduler_stats();
  if (collector.spilling()) {
    finish_spill(collector, result);
  } else {
    result.trace = collector.take();
    result.makespan = result.trace.empty() ? 0.0 : result.trace.last_end();
  }
  // Break the launch lambda's self-reference so the shared state frees.
  *launch = nullptr;
  return result;
}

ReplayResult replay(const SyntheticTrafficSchedule& schedule, const net::Topology& topology,
                    double loopback_bps, const std::string& spill_dir) {
  sim::Simulator sim;
  net::NetworkOptions options;
  options.loopback = util::Rate::bps(loopback_bps);
  // The topology is borrowed per call; copy it into the engine.
  net::Network network(sim, topology, options);
  capture::CollectorOptions capture_options;
  capture_options.spill_dir = spill_dir;
  capture::FlowCollector collector(network, capture_options);

  const auto hosts = network.topology().hosts();
  ReplayResult result;
  if (hosts.empty()) return result;

  for (const auto& f : schedule.flows) {
    const net::NodeId src = hosts[f.src_host % hosts.size()];
    net::NodeId dst = hosts[f.dst_host % hosts.size()];
    if (dst == src) dst = hosts[(f.dst_host + 1) % hosts.size()];
    sim.schedule_at(f.start, [&network, &result, src, dst, f] {
      network.start_flow(src, dst, util::Bytes(f.bytes), meta_for_kind(f.kind),
                         [&result](const net::Flow& flow) {
                           result.flow_completion_times.push_back(flow.end_time -
                                                                  flow.submit_time);
                         });
    });
  }
  sim.run();
  result.scheduler = network.scheduler_stats();
  if (collector.spilling()) {
    finish_spill(collector, result);
  } else {
    result.trace = collector.take();
    result.makespan = result.trace.empty() ? 0.0 : result.trace.last_end();
  }
  return result;
}

}  // namespace keddah::gen
