// Scripted fault injection: a FaultPlan is a validated list of fault events
// — permanent crashes, transient outages with a recovery time, access-link
// degradation windows, and slow-node (straggler) injection — declared in
// scenario JSON or on the CLI and scheduled onto a HadoopCluster. FaultStats
// aggregates the recovery counters (retries, backoff, rebuilds, aborted
// flows) a faulted run produces, so captures under faults can be compared
// against clean ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/field_reader.h"
#include "util/json.h"
#include "util/units.h"

namespace keddah::hadoop {

/// What kind of fault an event injects.
enum class FaultKind : std::uint8_t {
  /// Permanent node crash: containers die, replicas re-replicate, the node
  /// never returns.
  kCrash = 0,
  /// Transient outage: as a crash, but data survives on disk and the node
  /// rejoins after `duration` with empty container slots.
  kOutage = 1,
  /// The worker's access link runs at `factor` x capacity for `duration`.
  kDegradeLink = 2,
  /// Compute on the worker runs `factor` times slower for `duration`.
  kSlowNode = 3,
};

/// Human-readable kind name ("crash", "outage", "degrade_link", "slow_node").
const char* fault_kind_name(FaultKind kind);

/// Inverse of fault_kind_name; throws std::invalid_argument on unknown names.
FaultKind fault_kind_from_name(const std::string& name);

/// One scripted fault.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// Worker index into HadoopCluster::workers(). Worker 0 co-hosts the
  /// master and cannot be faulted.
  std::size_t worker = 0;
  /// Injection time, seconds of simulation.
  double at = 0.0;
  /// Window length, seconds: recovery time for outages, degradation window
  /// for degrade_link, slowdown window for slow_node. Ignored for crashes.
  double duration = 0.0;
  /// degrade_link: capacity multiplier in (0, 1). slow_node: compute
  /// multiplier > 1. Ignored for crash/outage.
  double factor = 0.0;
};

/// An ordered script of fault events for one run.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::size_t size() const { return events.size(); }
};

/// Records every per-event defect of `event` under key path `key`: worker 0
/// (the master) and workers at or past `num_workers` (0 = size unknown)
/// cannot be faulted, injection times are finite and >= 0, transient
/// faults need a window > 0, and factors lie in their kind's range. A
/// crash's duration is ignored (a warning when set).
void check_fault_event(const FaultEvent& event, std::size_t num_workers, const std::string& key,
                       util::FieldReader& reader);

/// Checks a programmatic plan with check_fault_event (keys "faults[i]") and
/// throws std::invalid_argument with the first error. `context` names the
/// source (file path, "fault plan", ...).
void validate_fault_plan(const FaultPlan& plan, std::size_t num_workers,
                         const std::string& context);

/// Reads a JSON array of fault events at key path `key` ("$" for a
/// standalone plan document):
///   [ {"kind": "outage",       "worker": 3, "at": 10.0, "duration": 15.0},
///     {"kind": "degrade_link", "worker": 2, "at": 5.0, "duration": 20.0, "factor": 0.1},
///     {"kind": "slow_node",    "worker": 1, "at": 0.0, "duration": 30.0, "factor": 4.0},
///     {"kind": "crash",        "worker": 5, "at": 12.5} ]
/// Entries without "kind" are legacy crash entries ({"worker", "at"}).
/// Besides field types and the check_fault_event rules, a document can
/// break three cross-event rules: a repeated (kind, worker, at) entry, an
/// event on a worker a crash at or before it already killed, and (when
/// `horizon` > 0) a window ending past the horizon.
FaultPlan read_fault_plan(const util::Json& array, const std::string& key,
                          std::size_t num_workers, double horizon, util::FieldReader& reader);

/// Reads a standalone plan document (keys "$[i]...") and throws
/// std::invalid_argument with the first error, prefixed by `context`.
FaultPlan parse_fault_plan(const util::Json& array, const std::string& context,
                           std::size_t num_workers = 0);

/// Aggregated fault/recovery counters for one cluster run.
struct FaultStats {
  // Injections performed.
  std::uint64_t crashes = 0;
  std::uint64_t outages = 0;
  std::uint64_t link_degradations = 0;
  std::uint64_t slow_nodes = 0;
  // Recovery work those injections caused.
  std::uint64_t aborted_flows = 0;
  util::Bytes aborted_bytes;
  std::uint64_t fetch_retries = 0;
  double fetch_backoff_s = 0.0;
  std::uint64_t fetch_failure_reruns = 0;
  std::uint64_t map_reruns = 0;
  std::uint64_t reducer_restarts = 0;
  std::uint64_t pipeline_rebuilds = 0;
  std::uint64_t hdfs_read_retries = 0;
  std::uint64_t rereplications = 0;

  /// Faults injected (crashes + outages + link degradations + slow nodes).
  std::uint64_t injections() const { return crashes + outages + link_degradations + slow_nodes; }

  template <typename Fn>
  void visit(Fn&& fn) const {
    fn("crashes", crashes);
    fn("outages", outages);
    fn("link_degradations", link_degradations);
    fn("slow_nodes", slow_nodes);
    fn("aborted_flows", aborted_flows);
    fn("aborted_bytes", aborted_bytes);
    fn("fetch_retries", fetch_retries);
    fn("fetch_backoff_s", fetch_backoff_s);
    fn("fetch_failure_reruns", fetch_failure_reruns);
    fn("map_reruns", map_reruns);
    fn("reducer_restarts", reducer_restarts);
    fn("pipeline_rebuilds", pipeline_rebuilds);
    fn("hdfs_read_retries", hdfs_read_retries);
    fn("rereplications", rereplications);
  }
};

/// Audits internal consistency of aggregated fault counters: aborted bytes
/// require aborted flows (and vice versa for a non-trivial payload), and
/// recovery work (reruns, restarts, rebuilds, re-replications, retries)
/// requires at least one injected fault. Throws util::AuditError naming the
/// violated relation. Called by HadoopCluster::fault_stats() in KEDDAH_CHECK
/// builds; callable explicitly in any build (the audit test does).
void audit_fault_stats(const FaultStats& stats);

}  // namespace keddah::hadoop
