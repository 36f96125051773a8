#include "keddah/scenario.h"

#include <memory>
#include <stdexcept>

#include "hadoop/config_json.h"
#include "hadoop/faults.h"
#include "util/log.h"
#include "util/strings.h"

namespace keddah::core {

namespace {

void read_jobs(const util::Json& doc, double horizon, util::FieldReader& reader,
               ScenarioSpec& spec) {
  if (!doc.contains("jobs") || !doc.at("jobs").is_array() || doc.at("jobs").size() == 0) {
    reader.error("jobs", "a scenario needs a non-empty 'jobs' array",
                 "add at least one {\"workload\": ..., \"input\": ...} entry");
    return;
  }
  const auto& jobs = doc.at("jobs").as_array();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string prefix = util::format("jobs[%zu]", i);
    const auto& entry = jobs[i];
    if (!entry.is_object()) {
      reader.error(prefix, "must be an object");
      continue;
    }
    reader.unknown_keys(entry, prefix,
                        {"workload", "input", "reducers", "submit_at", "iterations"});
    ScenarioSpec::JobEntry job;
    if (!entry.contains("workload") || !entry.at("workload").is_string()) {
      reader.error(prefix + ".workload", "missing workload name",
                   "one of the names in workloads::all_workloads()");
    } else {
      const std::string& name = entry.at("workload").as_string();
      try {
        job.workload = workloads::workload_from_name(name);
      } catch (const std::invalid_argument&) {
        std::vector<std::string> names;
        for (const auto w : workloads::all_workloads()) {
          names.emplace_back(workloads::workload_name(w));
        }
        reader.error(prefix + ".workload", "unknown workload '" + name + "'",
                     "one of: " + util::join(names, ", "));
      }
    }
    job.input_bytes = reader.bytes(entry, prefix, "input", 0, /*required=*/true);
    job.num_reducers = reader.count(entry, prefix, "reducers", 0, 0, "must be >= 0 (0 = auto)");
    job.submit_at = reader.number(entry, prefix, "submit_at", 0.0);
    if (job.submit_at < 0.0) {
      reader.error(prefix + ".submit_at", "must be >= 0");
    } else if (horizon > 0.0 && job.submit_at >= horizon) {
      reader.error(prefix + ".submit_at",
                   util::format("submits at %g s, outside the scenario horizon of %g s",
                                job.submit_at, horizon),
                   "move the submission before the horizon or raise it");
    }
    job.iterations = reader.count(entry, prefix, "iterations", 1, 1, "must be >= 1");
    spec.jobs.push_back(job);
  }
}

}  // namespace

void read_api_tag(const util::Json& doc, util::FieldReader& reader) {
  if (doc.contains("api") &&
      !(doc.at("api").is_string() && doc.at("api").as_string() == kApiVersionString)) {
    reader.error("api", "unsupported API version",
                 std::string("this build speaks \"") + kApiVersionString + "\"");
  }
}

ScenarioSpec read_scenario(const util::Json& doc, util::FieldReader& reader) {
  ScenarioSpec spec;
  spec.cluster = hadoop::default_scenario_cluster();
  if (!doc.is_object()) {
    reader.error("$", "a scenario must be a JSON object");
    return spec;
  }
  // "api" admits Spec-API request envelopes (api/specs.h): a /v1/whatif
  // request body is a scenario document optionally tagged with its wire
  // version.
  reader.unknown_keys(
      doc, "", {"api", "seed", "threads", "cluster", "jobs", "faults", "failures", "horizon"});
  read_api_tag(doc, reader);
  spec.seed = reader.count(doc, "", "seed", spec.seed, 0, "must be >= 0");
  spec.threads = reader.count(doc, "", "threads", spec.threads, 0, "must be >= 0 (0 = serial)");
  const double horizon = reader.number(doc, "", "horizon", 0.0);
  if (doc.contains("horizon") && horizon <= 0.0) {
    reader.error("horizon", "the scenario horizon must be > 0 seconds");
  }
  // Fault workers are range-checked only against a cluster that read
  // cleanly; a broken one has no trustworthy size.
  std::size_t num_workers = spec.cluster.num_workers();
  if (doc.contains("cluster")) {
    const std::size_t errors = reader.errors();
    spec.cluster = hadoop::read_cluster_config(doc.at("cluster"), "cluster", reader);
    num_workers = reader.errors() == errors ? spec.cluster.num_workers() : 0;
  }
  read_jobs(doc, horizon, reader, spec);
  // "failures" is the legacy alias: its entries default to crash faults.
  for (const char* key : {"faults", "failures"}) {
    if (!doc.contains(key)) continue;
    const hadoop::FaultPlan plan =
        hadoop::read_fault_plan(doc.at(key), key, num_workers, horizon, reader);
    spec.faults.events.insert(spec.faults.events.end(), plan.events.begin(), plan.events.end());
  }
  return spec;
}

ScenarioSpec parse_scenario(const util::Json& doc, const std::string& context) {
  std::vector<util::Diagnostic> diagnostics;
  util::FieldReader reader(context, diagnostics);
  ScenarioSpec spec = read_scenario(doc, reader);
  reader.throw_first_error();
  return spec;
}

ScenarioSpec load_scenario(const std::string& path) {
  return parse_scenario(util::Json::load_file(path), path);
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec) {
  capture::CollectorOptions capture_options;
  capture_options.spill_dir = spec.spill_dir;
  hadoop::HadoopCluster cluster(spec.cluster, spec.seed, capture_options);
  ScenarioOutcome outcome;

  // Total completions expected = sum of iterations across entries.
  std::size_t expected = 0;
  for (const auto& job : spec.jobs) expected += job.iterations;

  cluster.schedule_fault_plan(spec.faults);

  std::size_t done = 0;
  cluster.control().enable();

  // Iterative chains submit their next round from the completion callback;
  // the chain state lives in a shared context per entry.
  struct Chain {
    workloads::Workload workload;
    std::size_t reducers;
    std::size_t remaining;
    std::size_t total;
    std::size_t index;
  };
  // submit_round is recursive through job completions; break the lambda
  // self-reference by storing it in a shared holder cleared at the end.
  auto submit_round = std::make_shared<
      std::function<void(std::shared_ptr<Chain>, std::vector<std::string>)>>();
  *submit_round = [&cluster, &outcome, &done, &expected, submit_round](
                      std::shared_ptr<Chain> chain, std::vector<std::string> inputs) {
    hadoop::JobSpec job_spec;
    job_spec.profile = workloads::profile(chain->workload);
    job_spec.profile.name =
        util::format("%s_j%zu_i%zu", workloads::workload_name(chain->workload), chain->index,
                     chain->total - chain->remaining);
    job_spec.input_file = inputs.front();
    job_spec.extra_inputs.assign(inputs.begin() + 1, inputs.end());
    job_spec.num_reducers = chain->reducers;
    cluster.runner().submit(job_spec, [&cluster, &outcome, &done, &expected, submit_round,
                                       chain](const hadoop::JobResult& result) {
      outcome.results.push_back(result);
      ++done;
      if (--chain->remaining > 0 && !result.output_files.empty()) {
        (*submit_round)(chain, result.output_files);
      }
      if (done == expected) cluster.control().disable();
    });
  };

  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    const auto& entry = spec.jobs[i];
    const std::string input = cluster.ensure_input(entry.input_bytes);
    auto chain = std::make_shared<Chain>();
    chain->workload = entry.workload;
    chain->reducers = entry.num_reducers == 0 ? workloads::default_reducers(entry.input_bytes)
                                              : entry.num_reducers;
    chain->remaining = entry.iterations;
    chain->total = entry.iterations;
    chain->index = i;
    cluster.simulator().schedule_at(entry.submit_at, [submit_round, chain, input] {
      (*submit_round)(chain, {input});
    });
  }

  cluster.simulator().run();
  if (done != expected) throw std::logic_error("scenario: not every job completed");
  *submit_round = nullptr;  // break the self-reference cycle
  if (cluster.collector().spilling()) {
    cluster.collector().finalize_spill();
    outcome.spilled_records = cluster.collector().spilled();
    outcome.spill_path = cluster.collector().spill_path();
  }
  outcome.trace = cluster.take_trace();
  outcome.history = cluster.history();
  outcome.faults = cluster.fault_stats();
  outcome.scheduler = cluster.network().scheduler_stats();
  return outcome;
}

}  // namespace keddah::core
