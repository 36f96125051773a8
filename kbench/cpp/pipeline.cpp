// paper-pipeline: the capture -> model -> reproduce toolchain the paper
// exists for, on the paper's 16-host racktree. For sort, wordcount and
// grep, and for each of two seeds: capture one run at each of 2/4/8/16 GB
// (threads = 1), train a model, then validate once at 16 GB (generate,
// replay, compare).
//
// The reproduce side is bound by the max-min solver: the open-loop sort
// replay puts ~9k flows into one sharing component, while the wordcount
// replay carries about as many flows and finishes far faster.
#include <array>
#include <cmath>

#include "bench.h"
#include "bench_common.h"
#include "gen/generator.h"
#include "gen/replay.h"
#include "keddah/compare.h"
#include "keddah/toolchain.h"
#include "util/rng.h"

namespace kbench {

namespace {

namespace kd = keddah;
using keddah::util::Json;

constexpr std::array kJobs = {kd::workloads::Workload::kSort, kd::workloads::Workload::kWordCount,
                              kd::workloads::Workload::kGrep};
constexpr std::uint64_t kGiB = kd::bench::kGiB;
// Validation fidelity is judged on classes with enough flows for a KS
// distance and a relative volume error to mean something.
constexpr std::size_t kMinClassFlows = 20;
// Each pass runs the toolchain for this many seeds derived from --seed: the
// sort replay's cost moves with its seed, and two seeds per pass halve the
// variance that seed-to-seed differences add to a run's figures.
constexpr std::size_t kSeedsPerPass = 2;

struct PassTimes {
  double pass_s = 0.0;
  double capture_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t captured = 0;
  std::uint64_t replayed = 0;
};

/// Digest of a trace's flow records in order.
std::string trace_digest(const kd::capture::Trace& trace) {
  Digest digest;
  for (const auto& r : trace.records()) {
    digest.add(r.src);
    digest.add(r.dst);
    digest.add(r.bytes);
    digest.add(r.start);
    digest.add(r.end);
    digest.add(static_cast<std::uint64_t>(r.src_port) << 16 | r.dst_port);
  }
  return digest.hex();
}

}  // namespace

Report run_paper_pipeline(const Options& options, Tracer& tracer) {
  Report report;
  std::vector<double> setups;
  std::vector<PassTimes> times;
  std::map<std::string, std::vector<double>> replay_s_by_job;
  std::vector<double> coverages;
  double ks_max = 0.0;
  double vol_err_max = 0.0;
  Json first_record;

  run_passes(options.seconds, [&](std::size_t pass) {
    PassTimes t;
    Json record = Json::object();
    const int root = tracer.open("pipeline");
    for (std::size_t seed_round = 0; seed_round < kSeedsPerPass; ++seed_round) {
      // Set-up: the cluster description and its fabric (the toolchain calls
      // build their own clusters). It takes microseconds and is timed apart
      // from the pass, once per seed, so each sample follows other work
      // instead of repeating in a hot loop.
      const auto setup_start = Clock::now();
      kd::hadoop::ClusterConfig cfg;
      kd::net::Topology topology;
      {
        Scope span(tracer, "setup");
        cfg = kd::bench::default_config();
        topology = cfg.build_topology();
      }
      setups.push_back(seconds_since(setup_start));

      const auto round_start = Clock::now();
      for (std::size_t j = 0; j < kJobs.size(); ++j) {
        const std::size_t task = seed_round * kJobs.size() + j;
        const auto workload = kJobs[j];
        const std::string name = kd::workloads::workload_name(workload);
        Json job_record = Json::object();

        kd::core::CaptureSpec capture;
        capture.workload = workload;
        capture.input_sizes = {2 * kGiB, 4 * kGiB, 8 * kGiB, 16 * kGiB};
        capture.repetitions = 1;
        capture.seed = kd::util::derive_seed(options.seed, 2 * task);
        capture.threads = 1;
        int sim_span = -1;
        if (tracer.enabled()) {
          // Serial sweep: the progress callback fires as each job finishes,
          // which splits capture_runs into per-job simulation spans.
          capture.progress = [&tracer, &sim_span](std::size_t done, std::size_t total) {
            tracer.close(sim_span);
            sim_span = done < total ? tracer.open("hadoop.sim_job") : -1;
          };
        }
        std::vector<kd::model::TrainingRun> runs;
        const auto capture_start = Clock::now();
        {
          Scope span(tracer, "keddah.capture_runs");
          sim_span = tracer.open("hadoop.sim_job");
          runs = kd::core::capture_runs(cfg, capture);
          tracer.close(sim_span);
        }
        t.capture_s += seconds_since(capture_start);
        report.attempted += capture.input_sizes.size();
        Json capture_records = Json::array();
        std::uint64_t bad_jobs = 0;
        for (const auto& run : runs) {
          const bool ok = !run.trace.empty() && run.job_end > run.job_start;
          bad_jobs += ok ? 0 : 1;
          t.captured += run.trace.size();
          capture_records.push_back(Json(static_cast<std::uint64_t>(run.trace.size())));
        }
        bad_jobs += capture.input_sizes.size() - std::min(runs.size(), capture.input_sizes.size());
        report.failed += bad_jobs;
        report.check(bad_jobs == 0, name + ": a captured job did not complete with a trace");
        job_record["capture_records"] = std::move(capture_records);
        if (runs.size() != capture.input_sizes.size()) continue;

        kd::model::KeddahModel model;
        {
          Scope span(tracer, "model.train");
          model = kd::core::train(name, runs, cfg);
        }
        const auto& reference = runs.back();
        kd::gen::Scenario scenario;
        scenario.input_bytes = reference.input_bytes;
        scenario.num_maps = reference.num_maps;
        scenario.num_reducers = reference.num_reducers;
        scenario.num_hosts = cfg.num_workers();
        kd::gen::SyntheticTrafficSchedule schedule;
        {
          Scope span(tracer, "gen.generate");
          kd::gen::TrafficGenerator generator(
              model, kd::util::Rng(kd::util::derive_seed(options.seed, 2 * task + 1)));
          schedule = generator.generate(scenario);
        }
        kd::gen::ReplayResult replay;
        const auto replay_start = Clock::now();
        {
          Scope span(tracer, "gen.replay_s." + name);
          replay = kd::gen::replay(schedule, topology);
        }
        const double replay_s = seconds_since(replay_start);
        t.replay_s += replay_s;
        t.replayed += replay.trace.size();
        report.attempted += 1;
        const bool delivered = replay.trace.size() == schedule.flows.size() &&
                               replay.flow_completion_times.size() == schedule.flows.size();
        report.failed += delivered ? 0 : 1;
        report.check(delivered, name + ": replay delivered " +
                                    std::to_string(replay.trace.size()) + " of " +
                                    std::to_string(schedule.flows.size()) + " scheduled flows");
        kd::core::ValidationReport validation;
        {
          Scope span(tracer, "keddah.compare");
          validation = kd::core::compare_traces(reference.trace, replay.trace);
        }
        Json classes = Json::object();
        for (const auto& c : validation.classes) {
          if (c.captured_flows < kMinClassFlows) continue;
          ks_max = std::max(ks_max, c.size_ks);
          vol_err_max = std::max(vol_err_max, std::fabs(c.volume_error()));
          Json entry = Json::object();
          entry["size_ks"] = Json(c.size_ks);
          entry["volume_error"] = Json(c.volume_error());
          classes[kd::net::flow_kind_name(c.kind)] = std::move(entry);
        }
        job_record["replay_flows"] = Json(static_cast<std::uint64_t>(replay.trace.size()));
        job_record["replay_makespan_s"] = Json(replay.makespan);
        job_record["replay_digest"] = Json(trace_digest(replay.trace));
        job_record["validation"] = std::move(classes);
        record[name + "." + std::to_string(seed_round)] = std::move(job_record);
        replay_s_by_job["gen.replay_s." + name].push_back(replay_s);
      }
      t.pass_s += seconds_since(round_start);
    }
    tracer.close(root);
    times.push_back(t);
    if (tracer.enabled()) coverages.push_back(tracer.coverage(root));
    if (pass == 0) {
      first_record = record;
    } else {
      check_repeat(report, first_record, record, pass);
    }
    return t.pass_s;
  });

  std::vector<double> pass_s, replay_rate, capture_rate;
  for (const auto& t : times) {
    pass_s.push_back(t.pass_s);
    replay_rate.push_back(static_cast<double>(t.replayed) / t.replay_s);
    capture_rate.push_back(static_cast<double>(t.captured) / t.capture_s);
  }
  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("pass_s", median(pass_s), "s");
  report.pass_seconds = pass_s;
  report.setup_seconds = setups;
  report.metric("flows_per_s", median(replay_rate), "1/s");
  report.metric("capture_flows_per_s", median(capture_rate), "1/s");
  report.metric("validation_ks_max", ks_max, "ratio");
  report.metric("validation_vol_err_max", vol_err_max, "ratio");
  report.record = first_record;

  if (tracer.enabled()) {
    // Per-pass means of the layers' span totals.
    const double passes = static_cast<double>(times.size());
    for (const char* layer : {"keddah.capture_runs", "hadoop.sim_job", "model.train",
                              "gen.generate", "keddah.compare"}) {
      report.metric(std::string(layer) + "_s", tracer.total(layer) / passes, "s");
    }
    for (const auto workload : kJobs) {
      const std::string key = std::string("gen.replay_s.") + kd::workloads::workload_name(workload);
      report.metric(key, median(replay_s_by_job[key]), "s");
    }
    double makespan = 0.0;
    std::uint64_t records = 0;
    for (const auto& [name, job] : first_record.as_object()) {
      makespan += job.at("replay_makespan_s").as_number();
      for (const auto& n : job.at("capture_records").as_array()) {
        records += static_cast<std::uint64_t>(n.as_number());
      }
    }
    report.metric("gen.replay_makespan_s", makespan, "s");
    report.metric("capture.records", static_cast<double>(records), "count");
    report.metric("trace.coverage", *std::min_element(coverages.begin(), coverages.end()),
                  "ratio");
  }
  return report;
}

}  // namespace kbench
