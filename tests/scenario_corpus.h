// The document corpora shared by the verdict-parity and mutation suites.
//
// scenario_corpus(): the scenario drift documents (tests/fixtures/
// scenario_drift, one defect each that the CLI once accepted or crashed on
// while keddah-lint rejected it), the scenario lint fixtures, and the
// shipped example scenarios.
//
// model_corpus(): the model drift documents (tests/fixtures/model_drift, one
// defect each on which keddah-lint and the model loader once disagreed), the
// model and bank lint fixtures, and kTrainedModel, a model the suite trains
// in-process.
//
// Directory locations come from compile definitions in tests/CMakeLists.txt.
// Entries are "<set>/<file>.json" names, independent of the checkout
// location, so test names and seeds derived from them are stable;
// corpus_path resolves one to its file.
#pragma once

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace keddah::testing {

/// (set name, directory) for each corpus source.
inline std::vector<std::pair<std::string, std::string>> corpus_sets() {
  return {{"scenario_drift", KEDDAH_DRIFT_FIXTURES},
          {"model_drift", KEDDAH_MODEL_DRIFT_FIXTURES},
          {"lint", KEDDAH_LINT_FIXTURES},
          {"examples", KEDDAH_EXAMPLE_SCENARIOS}};
}

/// The sorted entries of one set whose file names start with `prefix`.
inline std::vector<std::string> corpus_files(const std::string& set,
                                             const std::string& prefix = "") {
  std::vector<std::string> found;
  for (const auto& [s, dir] : corpus_sets()) {
    if (s != set) continue;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string file = entry.path().filename().string();
      if (entry.path().extension() == ".json" && file.rfind(prefix, 0) == 0) {
        found.push_back(set + "/" + file);
      }
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

/// Concatenates corpus pieces in order.
inline std::vector<std::string> concat(std::initializer_list<std::vector<std::string>> parts) {
  std::vector<std::string> names;
  for (const auto& part : parts) names.insert(names.end(), part.begin(), part.end());
  return names;
}

/// Every scenario document. Of the lint fixtures only the scenario ones
/// belong.
inline std::vector<std::string> scenario_corpus() {
  return concat({corpus_files("scenario_drift"), corpus_files("lint", "scenario_"),
                 corpus_files("examples")});
}

/// The corpus entry of the model trained in-process (no file behind it).
inline const std::string kTrainedModel = "trained/grep_model.json";

/// Every model and model-bank document.
inline std::vector<std::string> model_corpus() {
  return concat({corpus_files("model_drift"), corpus_files("lint", "model_"),
                 corpus_files("lint", "bank_"), {kTrainedModel}});
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
