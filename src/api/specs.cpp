#include "api/specs.h"

#include "hadoop/config_json.h"
#include "hadoop/faults.h"
#include "util/counters.h"
#include "util/strings.h"

namespace keddah::api {

using util::FieldReader;

namespace {

/// Runs `read` over a fresh FieldReader and throws SpecError carrying its
/// first error.
template <typename Read>
auto parse_with(const std::string& file, Read read) {
  std::vector<util::Diagnostic> diagnostics;
  FieldReader reader(file, diagnostics);
  auto result = read(reader);
  if (const util::Diagnostic* first = reader.first_error()) throw SpecError(*first);
  return result;
}

/// The member object `field` of `doc`; an empty object after recording the
/// defect when it is missing or not an object.
util::Json object_field(const util::Json& doc, const std::string& field, const std::string& key,
                        FieldReader& reader) {
  const std::string path = FieldReader::path(key, field);
  if (!doc.contains(field)) {
    reader.error(path, "missing required object");
    return util::Json::object();
  }
  if (!reader.object(doc.at(field), path)) return util::Json::object();
  return doc.at(field);
}

hadoop::ClusterConfig read_cluster_field(const util::Json& doc, FieldReader& reader) {
  if (!doc.contains("cluster")) return hadoop::default_scenario_cluster();
  return hadoop::read_cluster_config(doc.at("cluster"), "cluster", reader);
}

gen::Scenario read_gen_scenario(const util::Json& doc, const std::string& key,
                                FieldReader& reader) {
  gen::Scenario scenario;
  scenario.input_bytes =
      static_cast<double>(reader.bytes(doc, key, "input", 0, /*required=*/true));
  scenario.num_hosts = reader.count(doc, key, "hosts", scenario.num_hosts);
  scenario.num_maps = reader.count(doc, key, "maps", 0);
  scenario.num_reducers = reader.count(doc, key, "reducers", 0);
  return scenario;
}

core::ReproduceSpec read_reproduce_spec(const util::Json& doc, const std::string& key,
                                        FieldReader& reader) {
  core::ReproduceSpec spec;
  if (!reader.object(doc, key)) return spec;
  spec.scenario = read_gen_scenario(object_field(doc, "scenario", key, reader),
                                    FieldReader::path(key, "scenario"), reader);
  spec.seed = reader.count(doc, key, "seed", 1);
  spec.gen_options.normalize_volume = reader.boolean(doc, key, "normalize_volume", false);
  spec.spill_dir = reader.string(doc, key, "spill_dir", "");
  return spec;
}

core::ValidateSpec read_validate_spec(const util::Json& doc, const std::string& key,
                                      FieldReader& reader) {
  core::ValidateSpec spec;
  if (!reader.object(doc, key)) return spec;
  spec.seed = reader.count(doc, key, "seed", 1);
  spec.repetitions = reader.count(doc, key, "repetitions", 1, 1, "must be >= 1");
  spec.threads = reader.count(doc, key, "threads", 0);
  spec.gen_options.normalize_volume = reader.boolean(doc, key, "normalize_volume", false);
  return spec;
}

util::Json gen_scenario_to_json(const gen::Scenario& scenario) {
  util::Json doc = util::Json::object();
  doc["input"] = util::Json(scenario.input_bytes);
  doc["hosts"] = util::Json(static_cast<std::uint64_t>(scenario.num_hosts));
  doc["maps"] = util::Json(static_cast<std::uint64_t>(scenario.num_maps));
  doc["reducers"] = util::Json(static_cast<std::uint64_t>(scenario.num_reducers));
  return doc;
}

/// Per-class {"flows", "bytes"} map over the non-empty traffic classes.
util::Json class_stats_json(const capture::Trace& trace) {
  util::Json classes = util::Json::object();
  const auto stats = trace.class_stats();
  for (std::size_t k = 0; k < net::kNumFlowKinds; ++k) {
    if (stats[k].flows == 0) continue;
    util::Json entry = util::Json::object();
    entry["flows"] = util::Json(static_cast<std::uint64_t>(stats[k].flows));
    entry["bytes"] = util::Json(stats[k].bytes);
    classes[net::flow_kind_name(static_cast<net::FlowKind>(k))] = std::move(entry);
  }
  return classes;
}

}  // namespace

SpecError::SpecError(util::Diagnostic diagnostic)
    : std::invalid_argument(diagnostic.to_string()), diagnostic_(std::move(diagnostic)) {}

SpecError::SpecError(std::string file, std::string key, std::string message, std::string hint)
    : SpecError(util::Diagnostic{util::Severity::kError, std::move(file), std::move(key),
                                 std::move(message), std::move(hint)}) {}

// ---------------------------------------------------------------- specs

core::CaptureSpec parse_capture_spec(const util::Json& doc, const std::string& file,
                                     const std::string& key) {
  return parse_with(file, [&](FieldReader& reader) {
    core::CaptureSpec spec;
    if (!reader.object(doc, key)) return spec;
    const std::string workload = reader.string(doc, key, "workload", "sort");
    try {
      spec.workload = workloads::workload_from_name(workload);
    } catch (const std::invalid_argument& e) {
      reader.error(FieldReader::path(key, "workload"), e.what());
    }
    const std::string sizes_key = FieldReader::path(key, "input_sizes");
    if (!doc.contains("input_sizes") || !doc.at("input_sizes").is_array() ||
        doc.at("input_sizes").size() == 0) {
      reader.error(sizes_key, "must be a non-empty array of byte sizes");
    } else {
      const auto& sizes = doc.at("input_sizes").as_array();
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const auto size =
            reader.byte_size(sizes[i], util::format("%s[%zu]", sizes_key.c_str(), i),
                             /*positive=*/false);
        if (size) spec.input_sizes.push_back(*size);
      }
    }
    spec.repetitions = reader.count(doc, key, "repetitions", 1, 1, "must be >= 1");
    spec.seed = reader.count(doc, key, "seed", 1);
    spec.threads = reader.count(doc, key, "threads", 0);
    if (doc.contains("faults")) {
      spec.faults = hadoop::read_fault_plan(doc.at("faults"), FieldReader::path(key, "faults"),
                                            /*num_workers=*/0, /*horizon=*/0.0, reader);
    }
    return spec;
  });
}

util::Json capture_spec_to_json(const core::CaptureSpec& spec) {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(kApiVersionString);
  doc["workload"] = util::Json(workloads::workload_name(spec.workload));
  util::Json sizes = util::Json::array();
  for (const auto size : spec.input_sizes) sizes.push_back(util::Json(size));
  doc["input_sizes"] = std::move(sizes);
  doc["repetitions"] = util::Json(static_cast<std::uint64_t>(spec.repetitions));
  doc["seed"] = util::Json(spec.seed);
  doc["threads"] = util::Json(static_cast<std::uint64_t>(spec.threads));
  if (!spec.faults.empty()) doc["faults"] = hadoop::fault_plan_to_json(spec.faults);
  return doc;
}

core::ReproduceSpec parse_reproduce_spec(const util::Json& doc, const std::string& file,
                                         const std::string& key) {
  return parse_with(file, [&](FieldReader& reader) {
    return read_reproduce_spec(doc, key, reader);
  });
}

util::Json reproduce_spec_to_json(const core::ReproduceSpec& spec) {
  util::Json doc = util::Json::object();
  doc["scenario"] = gen_scenario_to_json(spec.scenario);
  doc["seed"] = util::Json(spec.seed);
  doc["normalize_volume"] = util::Json(spec.gen_options.normalize_volume);
  // Only serialized when set, so specs without it round-trip byte-identically
  // (the serve cache and CLI<->daemon identity tests pin those bytes).
  if (!spec.spill_dir.empty()) doc["spill_dir"] = util::Json(spec.spill_dir);
  return doc;
}

core::ValidateSpec parse_validate_spec(const util::Json& doc, const std::string& file,
                                       const std::string& key) {
  return parse_with(file, [&](FieldReader& reader) {
    return read_validate_spec(doc, key, reader);
  });
}

util::Json validate_spec_to_json(const core::ValidateSpec& spec) {
  util::Json doc = util::Json::object();
  doc["seed"] = util::Json(spec.seed);
  doc["repetitions"] = util::Json(static_cast<std::uint64_t>(spec.repetitions));
  doc["threads"] = util::Json(static_cast<std::uint64_t>(spec.threads));
  doc["normalize_volume"] = util::Json(spec.gen_options.normalize_volume);
  return doc;
}

// ------------------------------------------------------------- requests

WhatIfRequest read_whatif_request(const util::Json& doc, const std::string& file,
                                 std::vector<util::Diagnostic>& out) {
  FieldReader reader(file, out);
  return WhatIfRequest{core::read_scenario(doc, reader)};
}

WhatIfRequest parse_whatif_request(const util::Json& doc, const std::string& file) {
  std::vector<util::Diagnostic> diagnostics;
  WhatIfRequest request = read_whatif_request(doc, file, diagnostics);
  for (auto& d : diagnostics) {
    if (d.severity == util::Severity::kError) throw SpecError(std::move(d));
  }
  return request;
}

ReproduceRequest parse_reproduce_request(const util::Json& doc, const std::string& file) {
  return parse_with(file, [&](FieldReader& reader) {
    ReproduceRequest request;
    core::read_api_tag(doc, reader);
    if (!reader.object(doc, "")) return request;
    request.model = reader.string(doc, "", "model", "");
    if (request.model.empty()) {
      reader.error("model", "missing required model name",
                   "name a model in the daemon's bank (see /v1/stats for the list)");
    }
    request.spec = read_reproduce_spec(doc, "", reader);
    request.cluster = read_cluster_field(doc, reader);
    // An absent host count means "every worker of the replay fabric".
    if (!doc.contains("scenario") || !doc.at("scenario").contains("hosts")) {
      request.spec.scenario.num_hosts = request.cluster.num_workers();
    }
    return request;
  });
}

util::Json reproduce_request_to_json(const ReproduceRequest& request) {
  util::Json doc = reproduce_spec_to_json(request.spec);
  doc["api"] = util::Json(kApiVersionString);
  doc["model"] = util::Json(request.model);
  doc["cluster"] = hadoop::cluster_config_to_json(request.cluster);
  return doc;
}

ValidateRequest parse_validate_request(const util::Json& doc, const std::string& file) {
  return parse_with(file, [&](FieldReader& reader) {
    ValidateRequest request;
    core::read_api_tag(doc, reader);
    if (!reader.object(doc, "")) return request;
    request.model = reader.string(doc, "", "model", "");
    if (request.model.empty()) reader.error("model", "missing required model name");
    request.run = reader.string(doc, "", "run", "");
    if (request.run.empty()) {
      reader.error("run", "missing required run basename",
                   "a run persisted by `keddah capture` (basename of .csv/.meta.json)");
    }
    request.spec = read_validate_spec(doc, "", reader);
    request.cluster = read_cluster_field(doc, reader);
    return request;
  });
}

util::Json validate_request_to_json(const ValidateRequest& request) {
  util::Json doc = validate_spec_to_json(request.spec);
  doc["api"] = util::Json(kApiVersionString);
  doc["model"] = util::Json(request.model);
  doc["run"] = util::Json(request.run);
  doc["cluster"] = hadoop::cluster_config_to_json(request.cluster);
  return doc;
}

// ------------------------------------------------------------ responses

util::Json whatif_response(const core::ScenarioOutcome& outcome) {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(kApiVersionString);
  doc["kind"] = util::Json("whatif");

  util::Json jobs = util::Json::array();
  for (const auto& r : outcome.results) {
    util::Json job = util::Json::object();
    job["name"] = util::Json(r.job_name);
    job["id"] = util::Json(static_cast<std::uint64_t>(r.job_id));
    job["submit_s"] = util::Json(r.submit_time);
    job["end_s"] = util::Json(r.end_time);
    job["maps"] = util::Json(static_cast<std::uint64_t>(r.num_maps));
    job["reducers"] = util::Json(static_cast<std::uint64_t>(r.num_reducers));
    job["input_bytes"] = util::Json(r.input_bytes);
    job["output_bytes"] = util::Json(r.output_bytes);
    jobs.push_back(std::move(job));
  }
  doc["jobs"] = std::move(jobs);

  util::Json trace = util::Json::object();
  trace["flows"] = util::Json(static_cast<std::uint64_t>(outcome.trace.size()));
  trace["total_bytes"] = util::Json(outcome.trace.total_bytes());
  trace["span_s"] = util::Json(
      outcome.trace.size() > 0 ? outcome.trace.last_end() - outcome.trace.first_start() : 0.0);
  trace["classes"] = class_stats_json(outcome.trace);
  doc["trace"] = std::move(trace);

  // Kept at the top level for existing readers; the same number as
  // faults.rereplications.
  doc["rereplications"] = util::Json(outcome.faults.rereplications);
  doc["faults"] = util::counters_json(outcome.faults);
  doc["scheduler"] = util::counters_json(outcome.scheduler);
  return doc;
}

util::Json reproduce_response(const core::ReproduceResult& result) {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(kApiVersionString);
  doc["kind"] = util::Json("reproduce");

  util::Json schedule = util::Json::object();
  schedule["flows"] = util::Json(static_cast<std::uint64_t>(result.schedule.flows.size()));
  schedule["total_bytes"] = util::Json(result.schedule.total_bytes());
  schedule["predicted_duration_s"] = util::Json(result.schedule.predicted_duration);
  util::Json classes = util::Json::object();
  for (std::size_t k = 0; k < net::kNumFlowKinds; ++k) {
    const auto kind = static_cast<net::FlowKind>(k);
    const std::size_t count = result.schedule.count(kind);
    if (count == 0) continue;
    util::Json entry = util::Json::object();
    entry["flows"] = util::Json(static_cast<std::uint64_t>(count));
    entry["bytes"] = util::Json(result.schedule.bytes_of(kind));
    classes[net::flow_kind_name(kind)] = std::move(entry);
  }
  schedule["classes"] = std::move(classes);
  doc["schedule"] = std::move(schedule);

  util::Json replay = util::Json::object();
  replay["flows"] = util::Json(static_cast<std::uint64_t>(result.replay.trace.size()));
  replay["total_bytes"] = util::Json(result.replay.trace.total_bytes());
  replay["makespan_s"] = util::Json(result.replay.makespan);
  replay["mean_fct_s"] = util::Json(result.replay.mean_fct());
  replay["p99_fct_s"] = util::Json(result.replay.p99_fct());
  doc["replay"] = std::move(replay);
  return doc;
}

util::Json validate_response(const core::ValidationReport& report) {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(kApiVersionString);
  doc["kind"] = util::Json("validate");
  util::Json classes = util::Json::object();
  for (const auto& c : report.classes) {
    if (c.captured_flows == 0 && c.generated_flows == 0) continue;
    util::Json entry = util::Json::object();
    entry["captured_flows"] = util::Json(static_cast<std::uint64_t>(c.captured_flows));
    entry["generated_flows"] = util::Json(static_cast<std::uint64_t>(c.generated_flows));
    entry["captured_bytes"] = util::Json(c.captured_bytes);
    entry["generated_bytes"] = util::Json(c.generated_bytes);
    entry["size_ks"] = util::Json(c.size_ks);
    entry["size_ks_pvalue"] = util::Json(c.size_ks_pvalue);
    classes[net::flow_kind_name(c.kind)] = std::move(entry);
  }
  doc["classes"] = std::move(classes);
  doc["captured_total_bytes"] = util::Json(report.captured_total_bytes);
  doc["generated_total_bytes"] = util::Json(report.generated_total_bytes);
  doc["captured_span_s"] = util::Json(report.captured_span_s);
  doc["generated_span_s"] = util::Json(report.generated_span_s);
  return doc;
}

std::string to_body(const util::Json& doc) { return doc.dump(2) + "\n"; }

}  // namespace keddah::api
