// YARN-style container scheduler with delay scheduling for data locality.
//
// Requests may carry preferred nodes (the hosts holding the task's input
// replicas). A request is granted node-local immediately when possible;
// otherwise it accumulates *missed scheduling opportunities* — moments when
// the cluster had a free slot somewhere but not on a preferred node — and
// degrades to rack-local after ~locality_delay_s worth of misses, then to
// off-switch after twice that (the YARN CapacityScheduler's
// node-locality-delay mechanism). Crucially, time spent in a full cluster
// does NOT count against the hold-out: a map queued behind a busy wave
// still gets a fair shot at locality when slots churn. Requests without
// preferences (AM, reducers) are granted on any free node at once.
//
// Grant order is FIFO among immediately-grantable requests, but a request
// holding out for locality does not block later requests (no head-of-line
// blocking).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/topology.h"
#include "sim/simulator.h"

namespace keddah::hadoop {

/// Locality level of a granted container.
enum class LocalityLevel { kNodeLocal, kRackLocal, kOffSwitch };

/// Container-locality counters (for tests and the locality ablation bench).
struct LocalityStats {
  std::uint64_t granted_node_local = 0;
  std::uint64_t granted_rack_local = 0;
  std::uint64_t granted_off_switch = 0;
  std::uint64_t total() const {
    return granted_node_local + granted_rack_local + granted_off_switch;
  }
};

/// The ResourceManager of the emulated cluster.
///
/// Grants are delivered asynchronously through the simulator (zero-delay
/// events), so callers never observe re-entrant callbacks.
class YarnScheduler {
 public:
  /// Called when a container is granted, with the chosen node and the
  /// locality level achieved.
  using Grant = std::function<void(net::NodeId, LocalityLevel)>;

  /// `nodes` are NodeManager hosts, each with `containers_per_node` slots.
  /// When `locality` is false, preferences are ignored (ablation mode).
  /// `locality_delay_s` is how long a preferenced request waits for a
  /// node-local slot before degrading.
  YarnScheduler(sim::Simulator& sim, const net::Topology& topology,
                std::vector<net::NodeId> nodes, std::size_t containers_per_node,
                bool locality = true, double locality_delay_s = 3.0);

  YarnScheduler(const YarnScheduler&) = delete;
  YarnScheduler& operator=(const YarnScheduler&) = delete;

  /// Requests one container. `preferred` may be empty (any node).
  void request_container(std::vector<net::NodeId> preferred, Grant grant);

  /// Returns a container on `node` to the pool and pumps the queue.
  /// Releases on a downed node are ignored (the container died with it).
  void release_container(net::NodeId node);

  /// Takes a NodeManager out of service: its free slots disappear and its
  /// running containers are lost. Idempotent.
  void mark_node_down(net::NodeId node);

  /// Returns a recovered NodeManager to service with a full (empty) slot
  /// quota — its previous containers were lost with the outage. Idempotent;
  /// throws on a node that was never part of the cluster.
  void mark_node_up(net::NodeId node);

  /// True if the node is still in service.
  bool node_up(net::NodeId node) const;

  std::size_t total_slots() const { return total_slots_; }
  std::size_t free_slots() const { return free_slots_; }
  std::size_t free_slots_on(net::NodeId node) const;
  std::size_t queued_requests() const { return queue_.size(); }
  const LocalityStats& stats() const { return stats_; }

 private:
  struct Request {
    std::vector<net::NodeId> preferred;
    Grant grant;
    /// Scheduling opportunities this request declined while holding out
    /// for a node-local slot. Charged at most once per opportunity
    /// interval, so this counts seconds of starved-by-choice time.
    std::size_t missed_opportunities = 0;
    /// Last time a miss was charged (rate-limits the counter).
    double last_miss_time = -1.0e300;
  };

  /// Grants every currently grantable request; charges missed
  /// opportunities to requests that declined available capacity.
  void pump();

  /// Picks a node for the request; kInvalidNode when the request must wait
  /// (either for a slot or for its locality hold-out to run down).
  net::NodeId choose_node(const Request& request, LocalityLevel* level) const;

  /// Most-free node with capacity; kInvalidNode when the cluster is full.
  net::NodeId most_free_node() const;

  /// Misses after which a request accepts rack-local placement.
  std::size_t rack_miss_threshold() const;

  sim::Simulator& sim_;
  const net::Topology& topology_;
  std::vector<net::NodeId> nodes_;
  std::unordered_map<net::NodeId, std::size_t> free_;
  std::unordered_set<net::NodeId> down_;
  std::deque<Request> queue_;
  std::size_t total_slots_ = 0;
  std::size_t free_slots_ = 0;
  std::size_t containers_per_node_ = 0;
  bool locality_;
  double locality_delay_s_;
  /// How often a fresh scheduling opportunity is offered to starved
  /// requests (models the NodeManager heartbeat cadence).
  double opportunity_interval_s_ = 1.0;
  bool opportunity_scheduled_ = false;
  LocalityStats stats_;
};

}  // namespace keddah::hadoop
