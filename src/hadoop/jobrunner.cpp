#include "hadoop/jobrunner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/log.h"
#include "util/strings.h"

namespace keddah::hadoop {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;
}

/// Per-job mutable state shared by the event callbacks.
struct JobRunner::Execution {
  JobSpec spec;
  JobCallback on_complete;
  JobResult result;
  util::Rng rng;
  bool finished = false;

  /// One map task per input block, possibly spanning several files.
  struct Split {
    FileId file{0};
    std::size_t block_index = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Split> splits;
  std::size_t num_maps = 0;
  std::size_t num_reducers = 0;

  /// Normalized partition weights over reducers (skew applied, order
  /// shuffled so reducer 0 is not systematically the hottest).
  std::vector<double> partition_weights;
  /// Seed for per-map partition jitter; keyed by map index so a rerun
  /// reproduces the exact partition sizes (the real partitioner is
  /// deterministic in the input).
  std::uint64_t partition_seed = 0;

  struct MapState {
    bool done = false;
    net::NodeId host = net::kInvalidNode;  // output location once done
    std::vector<double> partition_bytes;   // per reducer
    std::uint32_t attempts_started = 0;
    std::uint32_t pending_requests = 0;  // container requests not yet granted
    double first_attempt_start = 0.0;
    bool backup_launched = false;
    /// Fetch failures reported against this map's current output (the AM's
    /// per-map counter; crossing the threshold reruns the map).
    std::uint32_t fetch_failures = 0;
  };
  std::vector<MapState> maps;
  std::size_t completed_maps = 0;
  double map_runtime_sum = 0.0;
  std::size_t map_runtime_count = 0;
  bool reducers_requested = false;
  std::size_t map_outputs_written = 0;  // map-only jobs

  struct Attempt {
    std::size_t map_index = 0;
    net::NodeId node = net::kInvalidNode;
    bool valid = true;
    double start_time = 0.0;
  };
  std::unordered_map<std::uint64_t, Attempt> attempts;
  std::uint64_t next_attempt_id = 1;

  struct ReducerState {
    net::NodeId node = net::kInvalidNode;
    bool running = false;
    bool finished = false;
    std::uint32_t generation = 0;
    std::vector<bool> claimed;  // fetch launched, per map
    std::deque<std::size_t> pending;
    std::size_t inflight = 0;
    std::size_t fetched = 0;
    double shuffle_bytes = 0.0;
    /// Failed-fetch retries so far, per map (drives exponential backoff).
    std::vector<std::uint32_t> retry_counts;
  };
  std::vector<ReducerState> reducers;
  std::size_t reducers_done = 0;

  net::NodeId am_node = net::kInvalidNode;
  bool am_released = false;
  sim::EventId speculation_event = sim::kInvalidEvent;

  util::Rng task_rng() { return rng.split(); }

  bool attempt_valid(std::uint64_t id) const {
    const auto it = attempts.find(id);
    return it != attempts.end() && it->second.valid;
  }

  std::size_t valid_attempts_for(std::size_t map_index) const {
    std::size_t n = 0;
    // Order-insensitive count; iteration order cannot reach the result.
    // detlint:allow(unordered-iter)
    for (const auto& [id, att] : attempts) {
      (void)id;
      n += (att.valid && att.map_index == map_index);
    }
    return n;
  }
};

JobRunner::JobRunner(net::Network& network, HdfsCluster& hdfs, YarnScheduler& scheduler,
                     const ClusterConfig& config, util::Rng rng, FaultStats& faults)
    : network_(network),
      hdfs_(hdfs),
      scheduler_(scheduler),
      config_(config),
      rng_(rng),
      faults_(faults) {}

void JobRunner::log_event(double time, std::uint32_t job_id, TaskEvent::Kind kind,
                          net::NodeId node, std::uint32_t task_index) {
  if (history_ == nullptr) return;
  TaskEvent event;
  event.time = time;
  event.job_id = job_id;
  event.kind = kind;
  event.node = node;
  event.task_index = task_index;
  history_->add(event);
}

std::uint32_t JobRunner::submit(const JobSpec& spec, JobCallback on_complete) {
  auto exec = std::make_shared<Execution>();
  exec->spec = spec;
  exec->on_complete = std::move(on_complete);
  exec->rng = rng_.split();

  std::uint64_t total_input = 0;
  for (const auto& name : spec.all_inputs()) {
    const FileInfo& input = hdfs_.file_by_name(name);
    total_input += input.bytes;
    for (std::size_t b = 0; b < input.blocks.size(); ++b) {
      exec->splits.push_back(
          Execution::Split{input.id, b, input.blocks[b].bytes});
    }
  }
  exec->num_maps = exec->splits.size();
  if (exec->num_maps == 0) throw std::invalid_argument("jobrunner: empty job input");
  exec->num_reducers = spec.num_reducers;

  exec->result.job_id = next_job_id_++;
  exec->result.job_name = spec.profile.name;
  exec->result.submit_time = network_.simulator().now();
  exec->result.num_maps = exec->num_maps;
  exec->result.num_reducers = exec->num_reducers;
  exec->result.input_bytes = total_input;

  exec->maps.resize(exec->num_maps);
  exec->reducers.resize(exec->num_reducers);

  // Partition weights: Zipf-shaped over reducers, randomly permuted.
  if (exec->num_reducers > 0) {
    exec->partition_weights.resize(exec->num_reducers);
    double total = 0.0;
    for (std::size_t r = 0; r < exec->num_reducers; ++r) {
      exec->partition_weights[r] =
          1.0 / std::pow(static_cast<double>(r + 1), spec.profile.partition_skew);
      total += exec->partition_weights[r];
    }
    for (auto& w : exec->partition_weights) w /= total;
    exec->rng.shuffle(exec->partition_weights);
    exec->partition_seed = exec->rng.next();
  }

  ++running_;
  active_.push_back(exec);
  log_event(exec->result.submit_time, exec->result.job_id, TaskEvent::Kind::kJobSubmit);
  // Application master container first (it coordinates everything).
  scheduler_.request_container({}, [this, exec](net::NodeId node, LocalityLevel) {
    exec->am_node = node;
    start_map_phase(exec);
    if (config_.speculative_execution) {
      exec->speculation_event = network_.simulator().schedule_in(
          config_.speculation_check_interval_s, [this, exec] { check_speculation(exec); });
    }
  });
  return exec->result.job_id;
}

void JobRunner::start_map_phase(const ExecPtr& exec) {
  for (std::size_t m = 0; m < exec->num_maps; ++m) launch_map_attempt(exec, m);
}

void JobRunner::launch_map_attempt(const ExecPtr& exec, std::size_t map_index) {
  ++exec->maps[map_index].pending_requests;
  // Prefer the hosts holding this split's replicas (dead ones have no free
  // slots, so the scheduler skips them naturally).
  const auto& split = exec->splits[map_index];
  const auto& block = hdfs_.file(split.file).blocks[split.block_index];
  scheduler_.request_container(block.replicas,
                               [this, exec, map_index](net::NodeId node, LocalityLevel) {
                                 run_map_attempt(exec, map_index, node);
                               });
}

void JobRunner::run_map_attempt(const ExecPtr& exec, std::size_t map_index, net::NodeId node) {
  auto& ms = exec->maps[map_index];
  if (ms.pending_requests > 0) --ms.pending_requests;
  if (exec->finished || ms.done) {
    // The map resolved while this container request was queued.
    scheduler_.release_container(node);
    return;
  }
  const std::uint64_t attempt_id = exec->next_attempt_id++;
  exec->attempts[attempt_id] =
      Execution::Attempt{map_index, node, true, network_.simulator().now()};
  log_event(network_.simulator().now(), exec->result.job_id, TaskEvent::Kind::kMapStart, node,
            static_cast<std::uint32_t>(map_index));
  const auto& split = exec->splits[map_index];
  if (++ms.attempts_started == 1) {
    ms.first_attempt_start = network_.simulator().now();
    if (hdfs_.is_local(split.file, split.block_index, node)) {
      ++exec->result.maps_with_local_read;
    }
  }

  util::Rng task_rng = exec->task_rng();
  const double startup = config_.task_startup_s * std::exp(task_rng.normal(0.0, 0.3));
  const bool straggles = task_rng.chance(config_.straggler_fraction);

  network_.simulator().schedule_in(
      startup, [this, exec, map_index, node, attempt_id, straggles, task_rng]() mutable {
        if (!exec->attempt_valid(attempt_id)) return;  // node died during startup
        // Read the split: loopback when a replica is local, an HDFS-read
        // flow otherwise.
        hdfs_.read_block(
            exec->splits[map_index].file, exec->splits[map_index].block_index, node,
            exec->result.job_id,
            [this, exec, map_index, node, attempt_id, straggles, task_rng]() mutable {
              if (!exec->attempt_valid(attempt_id)) return;
              const double input_mb = static_cast<double>(exec->splits[map_index].bytes) / kMiB;
              double compute = exec->spec.profile.map_cpu_s_per_mb * input_mb *
                               std::exp(task_rng.normal(0.0, config_.task_noise_sigma));
              if (straggles) compute *= config_.straggler_slowdown;
              compute *= node_slowdown(node);
              network_.simulator().schedule_in(
                  std::max(compute, 0.01),
                  [this, exec, attempt_id] { on_map_attempt_complete(exec, attempt_id); });
            });
      });
}

void JobRunner::on_map_attempt_complete(const ExecPtr& exec, std::uint64_t attempt_id) {
  const auto it = exec->attempts.find(attempt_id);
  if (it == exec->attempts.end() || !it->second.valid) {
    // Killed by a node failure: the container died with the node.
    if (it != exec->attempts.end()) exec->attempts.erase(it);
    return;
  }
  const Execution::Attempt attempt = it->second;
  exec->attempts.erase(it);
  log_event(network_.simulator().now(), exec->result.job_id, TaskEvent::Kind::kMapFinish,
            attempt.node, static_cast<std::uint32_t>(attempt.map_index));

  auto& ms = exec->maps[attempt.map_index];
  if (exec->finished || ms.done) {
    // Lost the speculation race (or the job is over): discard the output.
    scheduler_.release_container(attempt.node);
    return;
  }
  exec->map_runtime_sum += network_.simulator().now() - attempt.start_time;
  ++exec->map_runtime_count;
  scheduler_.release_container(attempt.node);
  on_map_output_ready(exec, attempt.map_index, attempt.node);
}

void JobRunner::on_map_output_ready(const ExecPtr& exec, std::size_t map_index,
                                    net::NodeId node) {
  auto& ms = exec->maps[map_index];
  ms.done = true;
  ms.host = node;
  const double out_bytes =
      exec->spec.profile.map_selectivity * static_cast<double>(exec->splits[map_index].bytes);
  exec->result.map_output_bytes += static_cast<std::uint64_t>(out_bytes);
  ++exec->completed_maps;
  exec->result.map_phase_end = network_.simulator().now();

  if (exec->num_reducers == 0) {
    // Map-only job: each map writes its own output part with replication.
    const std::string part = util::format("job%u_m%zu_a%u_out", exec->result.job_id, map_index,
                                          ms.attempts_started);
    hdfs_.write_file(part, static_cast<std::uint64_t>(out_bytes), node, exec->result.job_id,
                     [this, exec, out_bytes, part] {
                       exec->result.output_bytes += static_cast<std::uint64_t>(out_bytes);
                       exec->result.output_files.push_back(part);
                       if (++exec->map_outputs_written == exec->num_maps) finish_job(exec);
                     });
    return;
  }

  // Partition the map output across reducers with per-map jitter that is
  // deterministic in the map index (reruns reproduce identical partitions).
  util::Rng jitter(exec->partition_seed ^ (0x9e3779b97f4a7c15ULL * (map_index + 1)));
  ms.partition_bytes.assign(exec->num_reducers, 0.0);
  std::vector<double> w(exec->num_reducers);
  double total_w = 0.0;
  for (std::size_t r = 0; r < exec->num_reducers; ++r) {
    w[r] = exec->partition_weights[r] * std::exp(jitter.normal(0.0, 0.05));
    total_w += w[r];
  }
  for (std::size_t r = 0; r < exec->num_reducers; ++r) {
    ms.partition_bytes[r] = out_bytes * w[r] / total_w;
  }

  maybe_launch_reducers(exec);
  // Running reducers can now fetch this map's output.
  for (std::size_t r = 0; r < exec->num_reducers; ++r) {
    auto& red = exec->reducers[r];
    if (red.running && !red.claimed[map_index]) {
      red.pending.push_back(map_index);
      pump_fetches(exec, r);
    }
  }
}

void JobRunner::maybe_launch_reducers(const ExecPtr& exec) {
  if (exec->reducers_requested || exec->num_reducers == 0) return;
  const auto threshold = static_cast<std::size_t>(
      std::ceil(config_.slowstart * static_cast<double>(exec->num_maps)));
  if (exec->completed_maps < std::max<std::size_t>(threshold, 1)) return;
  exec->reducers_requested = true;
  for (std::size_t r = 0; r < exec->num_reducers; ++r) {
    request_reducer(exec, r, exec->reducers[r].generation);
  }
}

void JobRunner::request_reducer(const ExecPtr& exec, std::size_t reducer_index,
                                std::uint32_t expected_generation) {
  scheduler_.request_container(
      {}, [this, exec, reducer_index, expected_generation](net::NodeId node, LocalityLevel) {
        start_reducer(exec, reducer_index, node, expected_generation);
      });
}

void JobRunner::start_reducer(const ExecPtr& exec, std::size_t reducer_index, net::NodeId node,
                              std::uint32_t expected_generation) {
  auto& red = exec->reducers[reducer_index];
  if (exec->finished || red.generation != expected_generation || red.finished) {
    // Stale grant (the reducer restarted again, or the job is done).
    scheduler_.release_container(node);
    return;
  }
  red.node = node;
  util::Rng task_rng = exec->task_rng();
  const double startup = config_.task_startup_s * std::exp(task_rng.normal(0.0, 0.3));
  network_.simulator().schedule_in(
      startup, [this, exec, reducer_index, expected_generation] {
        auto& r = exec->reducers[reducer_index];
        if (exec->finished || r.generation != expected_generation || r.finished) return;
        r.running = true;
        log_event(network_.simulator().now(), exec->result.job_id,
                  TaskEvent::Kind::kReduceStart, r.node,
                  static_cast<std::uint32_t>(reducer_index));
        r.claimed.assign(exec->num_maps, false);
        r.retry_counts.assign(exec->num_maps, 0);
        r.pending.clear();
        for (std::size_t m = 0; m < exec->num_maps; ++m) {
          if (exec->maps[m].done) r.pending.push_back(m);
        }
        pump_fetches(exec, reducer_index);
      });
}

void JobRunner::pump_fetches(const ExecPtr& exec, std::size_t reducer_index) {
  auto& red = exec->reducers[reducer_index];
  while (red.inflight < config_.shuffle_parallel_copies && !red.pending.empty()) {
    const std::size_t map_index = red.pending.front();
    red.pending.pop_front();
    if (red.claimed[map_index] || !exec->maps[map_index].done) continue;
    red.claimed[map_index] = true;
    ++red.inflight;
    const auto& ms = exec->maps[map_index];
    const double payload = ms.partition_bytes[reducer_index];
    // Wire bytes shrink under map-output compression; the reducer still
    // accounts the logical payload for merge cost and output sizing.
    const double wire_bytes =
        payload * config_.map_output_compress_ratio + config_.shuffle_http_overhead_bytes;
    if (exec->result.shuffle_start == 0.0) {
      exec->result.shuffle_start = network_.simulator().now();
    }
    net::FlowMeta meta;
    meta.src_port = net::ports::kShuffle;  // ShuffleHandler serves the data
    meta.dst_port = net::ports::kEphemeralBase;
    meta.job_id = exec->result.job_id;
    meta.kind = net::FlowKind::kShuffle;
    const std::uint32_t generation = red.generation;
    network_.start_flow(
        ms.host, red.node, util::Bytes(wire_bytes), meta,
        [this, exec, reducer_index, map_index, generation, payload](const net::Flow& flow) {
          auto& r = exec->reducers[reducer_index];
          if (exec->finished || r.generation != generation) return;  // stale fetch
          if (flow.aborted) {
            // The reducer's own death is handled wholesale by its restart;
            // a dead/failed source is a fetch failure.
            if (!network_.node_up(r.node)) return;
            on_fetch_failed(exec, reducer_index, map_index);
            return;
          }
          --r.inflight;
          ++r.fetched;
          r.shuffle_bytes += payload;
          exec->result.shuffle_end = network_.simulator().now();
          if (r.fetched == exec->num_maps) {
            finish_reducer_shuffle(exec, reducer_index);
          } else {
            pump_fetches(exec, reducer_index);
          }
        },
        util::Rate::bps(config_.disk_read_bps));
  }
}

void JobRunner::on_fetch_failed(const ExecPtr& exec, std::size_t reducer_index,
                                std::size_t map_index) {
  auto& red = exec->reducers[reducer_index];
  auto& ms = exec->maps[map_index];
  red.claimed[map_index] = false;  // the whole map output must be refetched
  if (red.inflight > 0) --red.inflight;

  if (!ms.done) {
    // The map is already being rerun (another reducer crossed the
    // threshold, or the host failed permanently); its fresh output will be
    // re-announced to every unclaimed reducer.
    pump_fetches(exec, reducer_index);
    return;
  }

  if (++ms.fetch_failures >= config_.fetch_failure_threshold) {
    // The AM declares this map output lost and reruns the map, as real
    // MapReduce does past mapreduce.reduce.shuffle.maxfetchfailures.
    ms.fetch_failures = 0;
    ms.done = false;
    ms.host = net::kInvalidNode;
    --exec->completed_maps;
    ++faults_.fetch_failure_reruns;
    ++exec->result.fetch_failure_reruns;
    ++faults_.map_reruns;
    ++exec->result.map_reruns;
    KLOG_DEBUG << "job " << exec->result.job_id << ": fetch failures exhausted, rerunning map "
               << map_index;
    launch_map_attempt(exec, map_index);
    pump_fetches(exec, reducer_index);
    return;
  }

  // Capped exponential backoff, then requeue the fetch.
  const std::uint32_t tries = red.retry_counts[map_index]++;
  const double backoff = std::min(config_.fetch_retry_initial_s * std::pow(2.0, tries),
                                  config_.fetch_retry_cap_s);
  ++faults_.fetch_retries;
  ++exec->result.fetch_retries;
  faults_.fetch_backoff_s += backoff;
  exec->result.fetch_backoff_s += backoff;
  const std::uint32_t generation = red.generation;
  network_.simulator().schedule_in(backoff, [this, exec, reducer_index, map_index, generation] {
    auto& r = exec->reducers[reducer_index];
    if (exec->finished || r.generation != generation || r.finished) return;
    r.pending.push_back(map_index);
    pump_fetches(exec, reducer_index);
  });
  pump_fetches(exec, reducer_index);  // the freed slot can serve other maps
}

void JobRunner::finish_reducer_shuffle(const ExecPtr& exec, std::size_t reducer_index) {
  auto& red = exec->reducers[reducer_index];
  const std::uint32_t generation = red.generation;
  util::Rng task_rng = exec->task_rng();
  const double shuffle_mb = red.shuffle_bytes / kMiB;
  const double compute = exec->spec.profile.reduce_cpu_s_per_mb * shuffle_mb *
                         std::exp(task_rng.normal(0.0, config_.task_noise_sigma)) *
                         node_slowdown(red.node);
  network_.simulator().schedule_in(
      std::max(compute, 0.01), [this, exec, reducer_index, generation] {
        auto& r = exec->reducers[reducer_index];
        if (exec->finished || r.generation != generation || r.finished) return;
        const double out_bytes = exec->spec.profile.reduce_selectivity * r.shuffle_bytes;
        const std::string part = util::format("job%u_r%zu_g%u_out", exec->result.job_id,
                                              reducer_index, generation);
        hdfs_.write_file(
            part, static_cast<std::uint64_t>(out_bytes), r.node, exec->result.job_id,
            [this, exec, reducer_index, generation, out_bytes, part] {
              auto& rr = exec->reducers[reducer_index];
              if (exec->finished || rr.generation != generation || rr.finished) return;
              rr.finished = true;
              exec->result.output_bytes += static_cast<std::uint64_t>(out_bytes);
              exec->result.output_files.push_back(part);
              log_event(network_.simulator().now(), exec->result.job_id,
                        TaskEvent::Kind::kReduceFinish, rr.node,
                        static_cast<std::uint32_t>(reducer_index));
              scheduler_.release_container(rr.node);
              if (++exec->reducers_done == exec->num_reducers) finish_job(exec);
            });
      });
}

void JobRunner::check_speculation(const ExecPtr& exec) {
  exec->speculation_event = sim::kInvalidEvent;
  if (exec->finished || exec->completed_maps == exec->num_maps) return;
  if (exec->map_runtime_count > 0) {
    const double mean = exec->map_runtime_sum / static_cast<double>(exec->map_runtime_count);
    const double now = network_.simulator().now();
    for (std::size_t m = 0; m < exec->num_maps; ++m) {
      auto& ms = exec->maps[m];
      if (ms.done || ms.backup_launched || ms.attempts_started != 1) continue;
      if (now - ms.first_attempt_start > config_.speculation_threshold * mean) {
        ms.backup_launched = true;
        ++speculative_attempts_;
        KLOG_DEBUG << "job " << exec->result.job_id << ": speculating map " << m;
        launch_map_attempt(exec, m);
      }
    }
  }
  exec->speculation_event = network_.simulator().schedule_in(
      config_.speculation_check_interval_s, [this, exec] { check_speculation(exec); });
}

void JobRunner::handle_node_failure(net::NodeId node) {
  handle_node_event(node, /*outputs_lost=*/true);
}

void JobRunner::handle_node_outage(net::NodeId node) {
  // Outputs stay on the host's disk across an NM restart; the fetch-retry
  // and threshold machinery decides whether they are ever declared lost.
  handle_node_event(node, /*outputs_lost=*/false);
}

void JobRunner::handle_node_event(net::NodeId node, bool outputs_lost) {
  for (const auto& weak : active_) {
    const ExecPtr exec = weak.lock();
    if (!exec || exec->finished) continue;

    // Kill attempts running on the node. Erasing makes every in-flight
    // continuation of the attempt (startup, read, compute) a no-op via
    // attempt_valid(). Visit order is invisible: the erase set depends only
    // on the node match. detlint:allow(unordered-iter)
    for (auto it = exec->attempts.begin(); it != exec->attempts.end();) {
      if (it->second.node == node) {
        it = exec->attempts.erase(it);
        ++failed_attempts_;
      } else {
        ++it;
      }
    }
    // Rerun maps with no remaining live attempt or pending request.
    for (std::size_t m = 0; m < exec->num_maps; ++m) {
      auto& ms = exec->maps[m];
      if (ms.done || ms.pending_requests > 0) continue;
      if (exec->valid_attempts_for(m) == 0 && ms.attempts_started > 0) {
        ++faults_.map_reruns;
        ++exec->result.map_reruns;
        launch_map_attempt(exec, m);
      }
    }
    // Lost map outputs: any completed map hosted on the dead node must be
    // rerun while the shuffle still needs it (fetch failures in real
    // Hadoop trigger exactly this).
    if (outputs_lost && exec->num_reducers > 0 && exec->reducers_done < exec->num_reducers) {
      for (std::size_t m = 0; m < exec->num_maps; ++m) {
        auto& ms = exec->maps[m];
        if (!ms.done || ms.host != node) continue;
        ms.done = false;
        ms.host = net::kInvalidNode;
        ms.fetch_failures = 0;
        --exec->completed_maps;
        ++faults_.map_reruns;
        ++exec->result.map_reruns;
        launch_map_attempt(exec, m);
      }
    }
    // Restart reducers running on the node: their fetched data is gone.
    for (std::size_t r = 0; r < exec->num_reducers; ++r) {
      auto& red = exec->reducers[r];
      if (red.finished || red.node != node) continue;
      if (!exec->reducers_requested) continue;
      ++red.generation;
      red.running = false;
      red.node = net::kInvalidNode;
      red.inflight = 0;
      red.fetched = 0;
      red.shuffle_bytes = 0.0;
      red.pending.clear();
      ++faults_.reducer_restarts;
      ++exec->result.reducer_restarts;
      request_reducer(exec, r, red.generation);
    }
    // Note: the ApplicationMaster is treated as RM-side state; failing its
    // host does not abort the job (real YARN would restart the AM attempt,
    // converging to the same traffic modulo a restart burst).
  }
  // Prune dead executions.
  std::erase_if(active_, [](const std::weak_ptr<Execution>& w) { return w.expired(); });
}

void JobRunner::set_node_slowdown(net::NodeId node, double factor) {
  if (factor <= 1.0) {
    slowdown_.erase(node);
  } else {
    slowdown_[node] = factor;
  }
}

double JobRunner::node_slowdown(net::NodeId node) const {
  const auto it = slowdown_.find(node);
  return it == slowdown_.end() ? 1.0 : it->second;
}

void JobRunner::finish_job(const ExecPtr& exec) {
  exec->finished = true;
  if (exec->speculation_event != sim::kInvalidEvent) {
    network_.simulator().cancel(exec->speculation_event);
    exec->speculation_event = sim::kInvalidEvent;
  }
  // Kill any straggling speculative attempts' bookkeeping so their
  // completions become no-ops (their containers are still released by the
  // completion path via the ms.done guard).
  if (!exec->am_released) {
    exec->am_released = true;
    scheduler_.release_container(exec->am_node);
  }
  exec->result.end_time = network_.simulator().now();
  exec->result.pipeline_rebuilds = hdfs_.pipeline_rebuilds(exec->result.job_id);
  log_event(exec->result.end_time, exec->result.job_id, TaskEvent::Kind::kJobFinish);
  --running_;
  if (exec->on_complete) exec->on_complete(exec->result);
}

}  // namespace keddah::hadoop
