#include "lint/lint.h"

#include <algorithm>
#include <ostream>

#include "hadoop/faults.h"
#include "keddah/scenario.h"
#include "model/model_bank.h"

namespace keddah::lint {

using util::FieldReader;

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
  FieldReader reader(file, out);
  (void)model::read_model(doc, reader);
}

void lint_model_bank(const util::Json& doc, const std::string& file,
                     std::vector<Diagnostic>& out) {
  FieldReader reader(file, out);
  (void)model::read_model_bank(doc, reader);
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
