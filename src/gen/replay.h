// ReplayEngine: plays a synthetic traffic schedule through the flow-level
// network simulator — the in-tree equivalent of the paper's ns-3 replay —
// and captures what actually happened on the wire.
#pragma once

#include <string>
#include <vector>

#include "capture/trace.h"
#include "gen/generator.h"
#include "net/network.h"
#include "net/topology.h"

namespace keddah::gen {

/// Outcome of replaying one schedule.
struct ReplayResult {
  /// What a capture of the replay saw (flow records with ports stamped by
  /// class, so the normal classifier applies).
  capture::Trace trace;
  /// Time the last flow finished.
  double makespan = 0.0;
  /// Per-flow completion times (end - start), in completion order.
  std::vector<double> flow_completion_times;
  /// Spill results when a spill_dir was configured: records written and the
  /// finalized spill file (trace above is empty in that mode; read it back
  /// with capture::SpillReader).
  std::uint64_t spilled_records = 0;
  std::string spill_path;
  /// The fair-share scheduler's counters over the whole replay.
  net::SchedulerStats scheduler;

  double mean_fct() const;
  double p99_fct() const;
};

/// Replays `schedule` on `topology`, mapping host index i to the i-th host
/// (modulo host count). Flows are injected at their scheduled start times
/// and share bandwidth max-min fairly (OPEN-loop replay: arrival times are
/// fixed regardless of how congested the fabric is). It is
/// replay_closed_loop with an unbounded shuffle fetch window.
/// `spill_dir`, when non-empty, streams the capture to an mmap'd spill file
/// there instead of accumulating it in ReplayResult::trace (long replays on
/// big fabrics; see capture/spill.h).
ReplayResult replay(const SyntheticTrafficSchedule& schedule, const net::Topology& topology,
                    double loopback_bps = 40.0e9, const std::string& spill_dir = "");

/// Closed-loop replay options.
struct ClosedLoopOptions {
  /// Concurrent shuffle fetches per destination host (the reducer's
  /// parallel-copies limit). Shuffle flows beyond it queue until a slot
  /// frees, exactly like real reducers back off under congestion.
  std::size_t shuffle_fetch_slots = 5;
  double loopback_bps = 40.0e9;
  /// When non-empty, the capture spills to `<spill_dir>/capture.kspill`
  /// instead of ReplayResult::trace (see capture/spill.h).
  std::string spill_dir;
};

/// CLOSED-loop replay: scheduled start times are treated as earliest-start
/// times, and shuffle flows additionally respect a per-destination fetch
/// window. On an underprovisioned fabric the shuffle self-paces (stretching
/// the makespan) instead of piling up unbounded in-flight transfers — the
/// behaviour a real Hadoop cluster, and a full ns-3 replay with application
/// feedback, would exhibit.
ReplayResult replay_closed_loop(const SyntheticTrafficSchedule& schedule,
                                const net::Topology& topology, ClosedLoopOptions options = {});

/// Assigns the port pair matching a traffic class (inverse of the
/// classifier), so replayed flows classify identically to captured ones.
net::FlowMeta meta_for_kind(net::FlowKind kind, std::uint32_t job_id = 1);

}  // namespace keddah::gen
