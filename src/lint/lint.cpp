#include "lint/lint.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <set>

#include "hadoop/faults.h"
#include "keddah/scenario.h"
#include "net/flow.h"
#include "util/strings.h"

namespace keddah::lint {

using util::FieldReader;

namespace {

// ---------------------------------------------------------------------------
// Model linting.

/// Family-specific parameter domains, from stats::Distribution's factories.
void lint_distribution(const util::Json& d, const std::string& prefix, FieldReader& r) {
  if (!d.is_object()) {
    r.error(prefix, "must be an object {family, p1, p2}");
    return;
  }
  r.unknown_keys(d, prefix, {"family", "p1", "p2"});
  const std::string family = d.get_string("family", "");
  static const std::set<std::string> kFamilies = {"exponential", "normal", "lognormal",
                                                  "weibull",     "gamma",  "pareto",
                                                  "uniform",     "constant"};
  if (kFamilies.count(family) == 0) {
    r.error(prefix + ".family", "unknown distribution family '" + family + "'",
            "one of: " + util::join({kFamilies.begin(), kFamilies.end()}, ", "));
    return;
  }
  if (!d.contains("p1") || !FieldReader::finite_number(d.at("p1"))) {
    r.error(prefix + ".p1",
            "parameter must be a finite number (NaN/inf serializes as null)",
            "refit the distribution or drop the parametric block");
    return;
  }
  if (d.contains("p2") && !FieldReader::finite_number(d.at("p2"))) {
    r.error(prefix + ".p2", "parameter must be a finite number (NaN/inf serializes as null)");
    return;
  }
  const double p1 = d.at("p1").as_number();
  const double p2 = d.contains("p2") ? d.at("p2").as_number() : 0.0;
  if (family == "exponential" && p1 <= 0.0) {
    r.error(prefix + ".p1", "exponential rate must be > 0");
  } else if ((family == "normal" || family == "lognormal") && p2 < 0.0) {
    r.error(prefix + ".p2", family + " spread must be >= 0");
  } else if ((family == "weibull" || family == "gamma" || family == "pareto") &&
             (p1 <= 0.0 || p2 <= 0.0)) {
    r.error(prefix + (p1 <= 0.0 ? ".p1" : ".p2"),
            family + " parameters must both be > 0");
  } else if (family == "uniform" && p2 < p1) {
    r.error(prefix + ".p2", "uniform upper bound is below the lower bound",
            "swap p1 and p2");
  }
}

void lint_linear_fit(const util::Json& f, const std::string& prefix, FieldReader& r) {
  if (!f.is_object()) {
    r.error(prefix, "must be an object {slope, intercept, r2, n}");
    return;
  }
  for (const char* key : {"slope", "intercept"}) {
    if (!f.contains(key) || !FieldReader::finite_number(f.at(key))) {
      r.error(prefix + "." + key,
              "must be a finite number (NaN/inf serializes as null)", "refit the regression");
    }
  }
  if (f.contains("r2") && FieldReader::finite_number(f.at("r2")) &&
      f.at("r2").as_number() > 1.0 + 1e-9) {
    r.error(prefix + ".r2", "coefficient of determination cannot exceed 1");
  }
  if (r.number(f, prefix, "n", 0.0) < 0.0) {
    r.error(prefix + ".n", "sample count must be >= 0");
  }
}

/// An ECDF serialized as its sorted sample values: every entry finite and
/// the sequence non-decreasing.
void lint_ecdf(const util::Json& arr, const std::string& prefix, FieldReader& r) {
  if (!arr.is_array()) {
    r.error(prefix, "must be an array of sorted sample values");
    return;
  }
  const auto& values = arr.as_array();
  double prev = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!FieldReader::finite_number(values[i])) {
      r.error(util::format("%s[%zu]", prefix.c_str(), i),
              "ECDF sample must be a finite number (NaN/inf serializes as null)");
      return;
    }
    const double v = values[i].as_number();
    if (v < prev) {
      r.error(util::format("%s[%zu]", prefix.c_str(), i),
              util::format("ECDF is not non-decreasing: %g after %g", v, prev),
              "re-sort the samples; quantile lookups binary-search this array");
      return;
    }
    prev = v;
  }
}

void lint_class_model(const util::Json& cls, const std::string& prefix, FieldReader& r) {
  if (!cls.is_object()) {
    r.error(prefix, "must be an object {size, count, temporal, ...}");
    return;
  }
  r.unknown_keys(cls, prefix, {"size", "count", "temporal", "training_flows", "training_bytes"});
  if (cls.contains("size")) {
    const auto& size = cls.at("size");
    const std::string sp = prefix + ".size";
    if (!size.is_object()) {
      r.error(sp, "must be an object");
    } else {
      if (size.contains("parametric")) {
        lint_distribution(size.at("parametric"), sp + ".parametric", r);
      }
      const double ks = r.number(size, sp, "ks", 0.0);
      if (ks < 0.0 || ks > 1.0) {
        r.error(sp + ".ks", "a KS distance lies in [0, 1]");
      }
      const double pvalue = r.number(size, sp, "ks_pvalue", 0.0);
      if (pvalue < 0.0 || pvalue > 1.0) {
        r.error(sp + ".ks_pvalue", "a p-value lies in [0, 1]");
      }
      const std::string kind = size.get_string("kind", "parametric");
      if (kind != "parametric" && kind != "empirical") {
        r.error(sp + ".kind", "unknown size-model kind '" + kind + "'",
                "one of: parametric, empirical");
      }
      if (kind == "parametric" && !size.contains("parametric")) {
        r.error(sp + ".parametric", "kind is \"parametric\" but no distribution is given",
                "add a {family, p1, p2} block or switch kind to \"empirical\"");
      }
      if (size.contains("empirical")) lint_ecdf(size.at("empirical"), sp + ".empirical", r);
      if (kind == "empirical" &&
          (!size.contains("empirical") || size.at("empirical").size() == 0)) {
        r.error(sp + ".empirical", "kind is \"empirical\" but the sample array is empty");
      }
    }
  }
  if (cls.contains("count")) {
    const auto& count = cls.at("count");
    const std::string cp = prefix + ".count";
    if (!count.is_object()) {
      r.error(cp, "must be an object");
    } else {
      if (count.contains("fit")) lint_linear_fit(count.at("fit"), cp + ".fit", r);
    }
  }
  if (cls.contains("temporal")) {
    const auto& temporal = cls.at("temporal");
    const std::string tp = prefix + ".temporal";
    if (!temporal.is_object()) {
      r.error(tp, "must be an object");
    } else {
      if (temporal.contains("offsets")) lint_ecdf(temporal.at("offsets"), tp + ".offsets", r);
      const double start = r.number(temporal, tp, "phase_start_frac", 0.0);
      const double end = r.number(temporal, tp, "phase_end_frac", 1.0);
      if (start < 0.0 || start > 1.0) {
        r.error(tp + ".phase_start_frac", "phase fraction must be in [0, 1]");
      }
      if (end < 0.0 || end > 1.0) {
        r.error(tp + ".phase_end_frac", "phase fraction must be in [0, 1]");
      }
      if (start > end) {
        r.error(tp + ".phase_start_frac", "phase starts after it ends",
                "swap phase_start_frac and phase_end_frac");
      }
    }
  }
  if (r.number(cls, prefix, "training_bytes", 0.0) < 0.0) {
    r.error(prefix + ".training_bytes", "must be >= 0");
  }
}

std::set<std::string> modelled_class_keys() {
  std::set<std::string> keys;
  for (std::size_t i = 0; i < net::kNumFlowKinds; ++i) {
    keys.insert(net::flow_kind_name(static_cast<net::FlowKind>(i)));
  }
  return keys;
}

}  // namespace

const char* file_kind_name(FileKind kind) {
  switch (kind) {
    case FileKind::kScenario:
      return "scenario";
    case FileKind::kFaultPlan:
      return "fault_plan";
    case FileKind::kModel:
      return "model";
    case FileKind::kModelBank:
      return "model_bank";
    case FileKind::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::size_t LintReport::num_errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

std::size_t LintReport::num_warnings() const {
  return diagnostics.size() - num_errors();
}

void lint_scenario(const util::Json& doc, const std::string& file,
                   std::vector<Diagnostic>& out) {
  FieldReader reader(file, out);
  (void)core::read_scenario(doc, reader);
}

void lint_fault_plan(const util::Json& array, const std::string& file,
                     std::vector<Diagnostic>& out) {
  // Standalone plans carry no cluster, so worker range and horizon checks
  // wait until the plan is paired with a scenario.
  FieldReader reader(file, out);
  (void)hadoop::read_fault_plan(array, "$", /*num_workers=*/0, /*horizon=*/0.0, reader);
}

void lint_model(const util::Json& doc, const std::string& file, std::vector<Diagnostic>& out) {
  FieldReader r(file, out);
  if (!doc.is_object()) {
    r.error("$", "a model must be a JSON object");
    return;
  }
  r.unknown_keys(doc, "",
                 {"job_name", "context", "duration_vs_input", "classes", "volume_vs_input"});
  if (!doc.contains("job_name") || !doc.at("job_name").is_string() ||
      doc.at("job_name").as_string().empty()) {
    r.error("job_name", "missing or empty job name",
            "name the workload the model was trained on");
  }
  if (doc.contains("context")) {
    const auto& ctx = doc.at("context");
    if (!ctx.is_object()) {
      r.error("context", "must be an object");
    } else {
      r.unknown_keys(ctx, "context",
                     {"block_size", "replication", "cluster_nodes", "num_runs",
                      "min_input_bytes", "max_input_bytes"});
      if (r.number(ctx, "context", "block_size", 1.0) <= 0.0) {
        r.error("context.block_size", "must be > 0");
      }
      const double replication = r.number(ctx, "context", "replication", 1.0);
      const double nodes = r.number(ctx, "context", "cluster_nodes", 1.0);
      if (replication < 1.0) r.error("context.replication", "must be >= 1");
      if (nodes < 1.0) r.error("context.cluster_nodes", "must be >= 1");
      if (nodes >= 1.0 && replication > nodes) {
        r.error("context.replication",
                util::format("replication %g exceeds the training cluster size (%g nodes)",
                             replication, nodes),
                "the model was trained under an impossible configuration; retrain");
      }
      const double lo = r.number(ctx, "context", "min_input_bytes", 0.0);
      const double hi = r.number(ctx, "context", "max_input_bytes", 0.0);
      if (lo > hi) {
        r.error("context.min_input_bytes", "training input range is inverted");
      }
    }
  }
  if (doc.contains("duration_vs_input")) {
    lint_linear_fit(doc.at("duration_vs_input"), "duration_vs_input", r);
  }
  const std::set<std::string> class_keys = modelled_class_keys();
  if (doc.contains("classes")) {
    const auto& classes = doc.at("classes");
    if (!classes.is_object()) {
      r.error("classes", "must map class names to class models");
    } else {
      for (const auto& [key, cls] : classes.as_object()) {
        if (class_keys.count(key) == 0) {
          r.warning("classes." + key,
                    "unknown traffic class (the loader ignores it)",
                    "one of: " + util::join({class_keys.begin(), class_keys.end()}, ", "));
          continue;
        }
        lint_class_model(cls, "classes." + key, r);
      }
    }
  }
  if (doc.contains("volume_vs_input")) {
    const auto& volumes = doc.at("volume_vs_input");
    if (!volumes.is_object()) {
      r.error("volume_vs_input", "must map class names to linear fits");
    } else {
      for (const auto& [key, fit] : volumes.as_object()) {
        if (class_keys.count(key) == 0) {
          r.warning("volume_vs_input." + key, "unknown traffic class (the loader ignores it)",
                    "");
          continue;
        }
        lint_linear_fit(fit, "volume_vs_input." + key, r);
      }
    }
  }
}

void lint_model_bank(const util::Json& doc, const std::string& file,
                     std::vector<Diagnostic>& out) {
  if (!doc.is_object() || !doc.contains("models") || !doc.at("models").is_array()) {
    FieldReader(file, out).error("models", "a model bank is an object with a 'models' array");
    return;
  }
  const auto& models = doc.at("models").as_array();
  for (std::size_t i = 0; i < models.size(); ++i) {
    std::vector<Diagnostic> entry;
    lint_model(models[i], file, entry);
    for (auto& d : entry) {
      d.key = util::format("models[%zu].%s", i, d.key.c_str());
      out.push_back(std::move(d));
    }
  }
}

LintReport lint_document(const util::Json& doc, const std::string& file) {
  LintReport report;
  if (doc.is_array()) {
    report.kind = FileKind::kFaultPlan;
    lint_fault_plan(doc, file, report.diagnostics);
  } else if (doc.is_object() && doc.contains("jobs")) {
    report.kind = FileKind::kScenario;
    lint_scenario(doc, file, report.diagnostics);
  } else if (doc.is_object() && doc.contains("models")) {
    report.kind = FileKind::kModelBank;
    lint_model_bank(doc, file, report.diagnostics);
  } else if (doc.is_object() && (doc.contains("classes") || doc.contains("job_name"))) {
    report.kind = FileKind::kModel;
    lint_model(doc, file, report.diagnostics);
  } else {
    report.kind = FileKind::kUnknown;
    FieldReader(file, report.diagnostics)
        .error("$",
        "unrecognized document: not a scenario, fault plan, model, or model bank",
        "scenarios have \"jobs\", models \"classes\", banks \"models\"; fault plans are arrays");
  }
  return report;
}

LintReport lint_file(const std::string& path) {
  util::Json doc;
  try {
    doc = util::Json::load_file(path);
  } catch (const std::exception& e) {
    // I/O and syntax failures (including duplicate object keys) are lint
    // findings like any other, so a broken file still produces a located,
    // actionable report instead of an exception.
    LintReport report;
    FieldReader(path, report.diagnostics)
        .error("$", e.what(), "fix the JSON syntax before semantic checks can run");
    return report;
  }
  return lint_document(doc, path);
}

void print_report(const LintReport& report, std::ostream& os) {
  for (const auto severity : {Severity::kError, Severity::kWarning}) {
    for (const auto& d : report.diagnostics) {
      if (d.severity != severity) continue;
      util::print_diagnostic_line(os, d.severity == Severity::kError, d.to_string());
    }
  }
}

}  // namespace keddah::lint
