// keddah-lint: static validation of the JSON artifacts the toolchain
// consumes — scenario files, standalone fault plans, fitted model files, and
// model banks. Each report lists *every* defect, each naming the file, the
// JSON key path, what is wrong, and how to fix it, so a scenario author can
// repair a file in one pass without running anything.
//
// keddah-lint has no rules of its own: each linter runs the validating read
// (util::FieldReader) that the matching loader runs, and reports every
// diagnostic where the loader throws the first. lint_scenario and
// lint_fault_plan share core::parse_scenario's and hadoop::parse_fault_plan's
// reads; lint_model and lint_model_bank share model::read_model and
// model::read_model_bank with KeddahModel::load, ModelBank::load and
// `keddah serve`. A document lints without errors exactly when its loader
// accepts it. The rules live with their schema (DESIGN.md §"Static checks"):
// cluster rules in hadoop/config_json, fault rules in hadoop/faults, job and
// top-level rules in keddah/scenario, model rules in model/ and stats/.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/diagnostic.h"
#include "util/json.h"

namespace keddah::lint {

/// What kind of document a file was recognized as.
enum class FileKind : std::uint8_t {
  kScenario = 0,   // object with "jobs"
  kFaultPlan = 1,  // top-level array of fault events
  kModel = 2,      // object with "classes"/"job_name"
  kModelBank = 3,  // object with "models"
  kUnknown = 4,
};

/// Stable kind name ("scenario", "fault_plan", "model", "model_bank").
const char* file_kind_name(FileKind kind);

// keddah-lint findings set the `key` locus (JSON key path) of the shared
// util::Diagnostic; the aliases keep the lint-namespaced names callers use.
using Diagnostic = util::Diagnostic;
using Severity = util::Severity;

/// Result of linting one document.
struct LintReport {
  FileKind kind = FileKind::kUnknown;
  std::vector<Diagnostic> diagnostics;

  bool ok() const { return num_errors() == 0; }
  std::size_t num_errors() const;
  std::size_t num_warnings() const;
};

/// Lints an already-parsed document. `file` names the source in every
/// diagnostic. The document kind is sniffed from its shape (see FileKind);
/// unrecognized documents yield a single unknown-kind error.
LintReport lint_document(const util::Json& doc, const std::string& file);

/// Loads, parses, and lints one file. I/O and JSON syntax errors (including
/// duplicate object keys) become diagnostics instead of exceptions.
LintReport lint_file(const std::string& path);

/// Individual document linters, usable when the kind is known. Each appends
/// to `out` in document order.
void lint_scenario(const util::Json& doc, const std::string& file,
                   std::vector<Diagnostic>& out);
void lint_fault_plan(const util::Json& array, const std::string& file,
                     std::vector<Diagnostic>& out);
void lint_model(const util::Json& doc, const std::string& file,
                std::vector<Diagnostic>& out);
void lint_model_bank(const util::Json& doc, const std::string& file,
                     std::vector<Diagnostic>& out);

/// Prints every diagnostic, one per line, errors first.
void print_report(const LintReport& report, std::ostream& os);

}  // namespace keddah::lint
