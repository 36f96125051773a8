#include "gen/replay.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

#include "capture/collector.h"
#include "capture/spill.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/summary.h"

namespace keddah::gen {

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

namespace {
/// Marks a completion callback that pumps no fetch window.
constexpr std::size_t kUngated = std::numeric_limits<std::size_t>::max();

/// Per-destination shuffle fetch window: in-flight count + FIFO backlog.
struct FetchWindow {
  std::size_t inflight = 0;
  std::deque<SyntheticFlow> backlog;
};

/// The state the scheduled arrivals and the completion callbacks share.
/// They all run inside Simulator::run() while it lives, so each holds only
/// a pointer to it: every flow's arrival is queued up front and every
/// active flow holds a callback, so their closures' size is paid per flow.
struct ClosedLoop {
  net::Network& network;
  ReplayResult& result;
  const std::vector<net::NodeId>& hosts;
  std::size_t fetch_slots;
  std::vector<FetchWindow> windows;

  /// A scheduled flow arrives: it starts, unless it is a shuffle fetch
  /// whose destination's window is full, which queues.
  void arrive(const SyntheticFlow& f) {
    if (f.kind == net::FlowKind::kShuffle) {
      FetchWindow& window = windows[f.dst_host % hosts.size()];
      if (window.inflight >= fetch_slots) {
        window.backlog.push_back(f);
        return;
      }
      ++window.inflight;
    }
    launch(f);
  }

  void launch(const SyntheticFlow& f) {
    const net::NodeId src = hosts[f.src_host % hosts.size()];
    net::NodeId dst = hosts[f.dst_host % hosts.size()];
    if (dst == src) dst = hosts[(f.dst_host + 1) % hosts.size()];
    const std::size_t window =
        f.kind == net::FlowKind::kShuffle ? f.dst_host % hosts.size() : kUngated;
    network.start_flow(src, dst, util::Bytes(f.bytes), meta_for_kind(f.kind),
                       [this, window](const net::Flow& flow) { finish(flow, window); });
  }

  /// Records the flow's completion time; a shuffle completion pumps its
  /// destination's window.
  void finish(const net::Flow& flow, std::size_t window_index) {
    result.flow_completion_times.push_back(flow.end_time - flow.submit_time);
    if (window_index == kUngated) return;
    FetchWindow& window = windows[window_index];
    --window.inflight;
    if (!window.backlog.empty()) {
      const SyntheticFlow next = window.backlog.front();
      window.backlog.pop_front();
      ++window.inflight;
      launch(next);
    }
  }
};
}  // namespace

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

  ClosedLoop loop{network, result, hosts, options.shuffle_fetch_slots,
                  std::vector<FetchWindow>(hosts.size())};
  for (const auto& f : schedule.flows) {
    sim.schedule_at(f.start, [&loop, f] { loop.arrive(f); });
  }
  sim.run();
  result.scheduler = network.scheduler_stats();
  if (collector.spilling()) {
    // The makespan streams off the mmap'd spill rather than loading it.
    collector.finalize_spill();
    result.spilled_records = collector.spilled();
    result.spill_path = collector.spill_path();
    capture::SpillReader reader(result.spill_path);
    for (std::uint64_t i = 0; i < reader.size(); ++i) {
      result.makespan = std::max(result.makespan, reader.record(i).end);
    }
  } else {
    result.trace = collector.take();
    result.makespan = result.trace.empty() ? 0.0 : result.trace.last_end();
  }
  return result;
}

ReplayResult replay(const SyntheticTrafficSchedule& schedule, const net::Topology& topology,
                    double loopback_bps, const std::string& spill_dir) {
  // Open loop is closed loop with an unbounded fetch window: no shuffle
  // flow ever queues, so every flow starts at its scheduled time.
  ClosedLoopOptions options;
  options.shuffle_fetch_slots = std::numeric_limits<std::size_t>::max();
  options.loopback_bps = loopback_bps;
  options.spill_dir = spill_dir;
  return replay_closed_loop(schedule, topology, std::move(options));
}

}  // namespace keddah::gen
