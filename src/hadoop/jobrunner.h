// The MapReduce execution engine: schedules map/reduce containers through
// YARN, reads input through HDFS, runs the slow-start shuffle with bounded
// fetch parallelism, and writes replicated output — generating exactly the
// flow classes Keddah captures.
//
// Fault model: speculative execution launches backup attempts for straggling
// maps (first finisher wins; the loser's read traffic stays on the wire).
// A NodeManager *failure* kills its running attempts, loses the map outputs
// it hosted (forcing reruns for any reducer that had not fetched them), and
// restarts reducers that were running there (full shuffle refetch). A
// transient *outage* kills attempts and restarts reducers the same way but
// keeps completed map outputs: shuffle fetches against the down host fail
// and retry with capped exponential backoff, and once a map output
// accumulates `fetch_failure_threshold` failures the AM declares it lost and
// reruns the map — exactly the real framework's fetch-failure machinery.
// In-flight transfers touching a failed node are aborted at the network
// layer with partial-byte accounting (see DESIGN.md fault model).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "hadoop/config.h"
#include "hadoop/hdfs.h"
#include "hadoop/job.h"
#include "hadoop/joblog.h"
#include "hadoop/yarn.h"
#include "net/network.h"
#include "util/rng.h"

namespace keddah::hadoop {

/// Submits and drives MapReduce jobs. Multiple jobs may run concurrently;
/// each gets an isolated RNG stream split from the runner's.
class JobRunner {
 public:
  using JobCallback = std::function<void(const JobResult&)>;

  /// Recovery work is counted in place in `faults` (must outlive).
  JobRunner(net::Network& network, HdfsCluster& hdfs, YarnScheduler& scheduler,
            const ClusterConfig& config, util::Rng rng, FaultStats& faults);

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Submits a job; `on_complete` fires when all output is durable in HDFS.
  /// Returns the assigned job id (also stamped on every flow of the job).
  std::uint32_t submit(const JobSpec& spec, JobCallback on_complete);

  /// Jobs currently executing.
  std::size_t running_jobs() const { return running_; }

  /// Reacts to a permanent NodeManager failure: reruns lost work on
  /// surviving nodes, including completed maps whose outputs died with the
  /// host. (HDFS/scheduler/control-plane bookkeeping is the cluster
  /// facade's job.)
  void handle_node_failure(net::NodeId node);

  /// Reacts to a transient outage: running attempts are killed and reducers
  /// restarted as for a failure, but completed map outputs survive on the
  /// host's disk — the fetch-retry/threshold machinery decides whether they
  /// are ever declared lost.
  void handle_node_outage(net::NodeId node);

  /// Injects a compute slowdown on `node`: map/reduce compute there runs
  /// `factor` times slower (straggler injection). `factor <= 1` clears it.
  void set_node_slowdown(net::NodeId node, double factor);

  /// Backup attempts launched by speculative execution.
  std::uint64_t speculative_attempts() const { return speculative_attempts_; }
  /// Attempts killed by node failures.
  std::uint64_t failed_attempts() const { return failed_attempts_; }

  /// Attaches a job-history sink (task/job lifecycle events, as the real
  /// framework's history files record). Borrowed; may be null.
  void set_history_log(JobHistoryLog* log) { history_ = log; }

 private:
  struct Execution;
  using ExecPtr = std::shared_ptr<Execution>;

  void start_map_phase(const ExecPtr& exec);
  /// Requests a container for (another) attempt of map `map_index`.
  void launch_map_attempt(const ExecPtr& exec, std::size_t map_index);
  void run_map_attempt(const ExecPtr& exec, std::size_t map_index, net::NodeId node);
  void on_map_attempt_complete(const ExecPtr& exec, std::uint64_t attempt_id);
  void on_map_output_ready(const ExecPtr& exec, std::size_t map_index, net::NodeId node);
  void maybe_launch_reducers(const ExecPtr& exec);
  void request_reducer(const ExecPtr& exec, std::size_t reducer_index,
                       std::uint32_t expected_generation);
  void start_reducer(const ExecPtr& exec, std::size_t reducer_index, net::NodeId node,
                     std::uint32_t expected_generation);
  void pump_fetches(const ExecPtr& exec, std::size_t reducer_index);
  /// A fetch against map `map_index` failed (source down or transfer
  /// aborted): unclaims it and either schedules a backoff retry or, past
  /// the fetch-failure threshold, declares the map output lost and reruns.
  void on_fetch_failed(const ExecPtr& exec, std::size_t reducer_index, std::size_t map_index);
  void finish_reducer_shuffle(const ExecPtr& exec, std::size_t reducer_index);
  void check_speculation(const ExecPtr& exec);
  void finish_job(const ExecPtr& exec);
  /// Shared crash/outage reaction; `outputs_lost` distinguishes them.
  void handle_node_event(net::NodeId node, bool outputs_lost);
  /// Injected compute slowdown factor for a node (>= 1.0).
  double node_slowdown(net::NodeId node) const;

  /// Emits a history event when a log is attached.
  void log_event(double time, std::uint32_t job_id, TaskEvent::Kind kind,
                 net::NodeId node = net::kInvalidNode, std::uint32_t task_index = 0);

  net::Network& network_;
  HdfsCluster& hdfs_;
  YarnScheduler& scheduler_;
  ClusterConfig config_;
  util::Rng rng_;
  std::uint32_t next_job_id_ = 1;
  std::size_t running_ = 0;
  std::vector<std::weak_ptr<Execution>> active_;
  std::uint64_t speculative_attempts_ = 0;
  std::uint64_t failed_attempts_ = 0;
  FaultStats& faults_;
  std::unordered_map<net::NodeId, double> slowdown_;
  JobHistoryLog* history_ = nullptr;
};

}  // namespace keddah::hadoop
