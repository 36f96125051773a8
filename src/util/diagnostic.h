// Shared diagnostic type + formatting for everything that reports a located
// defect: the JSON document readers (scenario, cluster, fault plan, Spec API
// requests; locus = key path) and the C++ source linters keddah-detlint and
// keddah-archlint (locus = "line N: [rule-id]"). One struct and one
// formatter keep the output uniform and greppable:
//
//   <file>: <locus>: <message> (<hint>)
//
// The hint parenthetical is omitted when empty. print_diagnostic_line adds
// the "error: " / "warning: " severity prefix the CLIs emit; diagnostic_json
// is the one wire form the serve daemon embeds in its 400 bodies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "util/json.h"

namespace keddah::util {

/// Diagnostic severity. Errors reject the document (CLI exit 1); warnings
/// flag suspicious-but-runnable constructs.
enum class Severity : std::uint8_t { kWarning = 0, kError = 1 };

/// One finding. JSON readers set `key` (the JSON key path); source checkers
/// set `line` + `rule` and leave `key` empty. to_string() picks the locus
/// accordingly.
struct Diagnostic {
  Severity severity = Severity::kError;
  /// Source file (or caller-supplied context string).
  std::string file;
  /// JSON key path of the offending value, e.g. "faults[2].at" or
  /// "classes.shuffle.size.parametric.p1". Empty for source checkers.
  std::string key;
  /// What is wrong.
  std::string message;
  /// How to fix it; empty when the message is self-explanatory.
  std::string hint;
  /// 1-based source line (detlint/archlint); 0 when the locus is `key`.
  std::size_t line = 0;
  /// Stable rule id (detlint/archlint); empty when the locus is `key`.
  std::string rule;

  /// "file: key: message (hint)" or "file: line N: [rule] message (hint)".
  std::string to_string() const;
};

/// "<file>: <locus>: <message> (<hint>)"; no parenthetical when `hint` is
/// empty.
std::string format_diagnostic(const std::string& file, const std::string& locus,
                              const std::string& message, const std::string& hint);

/// Writes "error: <formatted>\n" (or "warning: ...") to `os`.
void print_diagnostic_line(std::ostream& os, bool is_error, const std::string& formatted);

/// {"file", "key", "message", "hint"} for a key-path diagnostic; "hint" is
/// omitted when empty.
Json diagnostic_json(const Diagnostic& diagnostic);

}  // namespace keddah::util
