// The scenario-document corpus shared by the verdict-parity and mutation
// suites: the drift documents (tests/fixtures/scenario_drift, one defect
// each that the CLI once accepted or crashed on while keddah-lint rejected
// it), the scenario lint fixtures, and the shipped example scenarios.
// Directory locations come from compile definitions in tests/CMakeLists.txt.
//
// Entries are "<set>/<file>.json" names, independent of the checkout
// location, so test names and seeds derived from them are stable;
// corpus_path resolves one to its file.
#pragma once

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace keddah::testing {

/// (set name, directory) for each corpus source.
inline std::vector<std::pair<std::string, std::string>> corpus_sets() {
  return {{"scenario_drift", KEDDAH_DRIFT_FIXTURES},
          {"lint", KEDDAH_LINT_FIXTURES},
          {"examples", KEDDAH_EXAMPLE_SCENARIOS}};
}

/// Every corpus entry, sorted within each set. Of the lint fixtures only the
/// scenario ones belong.
inline std::vector<std::string> scenario_corpus() {
  std::vector<std::string> names;
  for (const auto& [set, dir] : corpus_sets()) {
    std::vector<std::string> found;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string file = entry.path().filename().string();
      if (entry.path().extension() != ".json") continue;
      if (set == "lint" && file.rfind("scenario_", 0) != 0) continue;
      found.push_back(set + "/" + file);
    }
    std::sort(found.begin(), found.end());
    names.insert(names.end(), found.begin(), found.end());
  }
  return names;
}

/// The file behind a corpus entry.
inline std::string corpus_path(const std::string& name) {
  const std::string set = name.substr(0, name.find('/'));
  for (const auto& [s, dir] : corpus_sets()) {
    if (s == set) return dir + name.substr(set.size());
  }
  return name;
}

/// "scenario_drift/negative_seed.json" -> "scenario_drift_negative_seed", a
/// gtest-safe parameter name.
inline std::string corpus_test_name(const std::string& name) {
  std::string id = name.substr(0, name.size() - std::string(".json").size());
  for (char& c : id) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return id;
}

}  // namespace keddah::testing
