// Reads one document block through a fresh util::FieldReader and throws its
// first error, the way KeddahModel::from_json and parse_scenario do; the
// round-trip tests call the nested readers (read_size_model,
// read_distribution, ...) through it.
#pragma once

#include <string>
#include <vector>

#include "util/field_reader.h"

namespace keddah::testing {

template <typename Read>
auto read_or_throw(const util::Json& doc, Read read) {
  std::vector<util::Diagnostic> diagnostics;
  util::FieldReader reader("test", diagnostics);
  auto value = read(doc, std::string(), reader);
  reader.throw_first_error();
  return value;
}

}  // namespace keddah::testing
