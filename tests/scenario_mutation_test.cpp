// Seeded mutation property test for the one-rule-set documents: mutants of
// every corpus document (tests/scenario_corpus.h) — numbers negated or made
// fractional, values nulled or swapped between string and number, keys
// dropped, array entries duplicated — must satisfy
//
//   lint_scenario reports an error  <=>  parse_scenario throws,
//   lint_model reports an error     <=>  KeddahModel::from_json throws,
//   lint_model_bank reports an error <=> ModelBank::from_json throws,
//
// with the thrown text equal to the first error's to_string(), and neither
// side may fail any other way (a foreign exception fails the test; a crash
// fails it under ASan/UBSan in tools/check_sanitize.sh). The unmutated
// document must get its expected verdict too: fixtures are rejected, the
// example scenarios and the trained model accepted.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "keddah/scenario.h"
#include "keddah/toolchain.h"
#include "lint/lint.h"
#include "model/model_bank.h"
#include "scenario_corpus.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ku = keddah::util;

namespace {

constexpr std::size_t kMutantsPerDocument = 300;

/// One step of a key path: an object member or an array index.
struct Step {
  std::string key;
  std::size_t index = 0;
  bool is_index = false;
};
using Path = std::vector<Step>;

void collect(const ku::Json& node, Path& path, std::vector<Path>& out) {
  out.push_back(path);
  if (node.is_object()) {
    for (const auto& [key, value] : node.as_object()) {
      path.push_back({key, 0, false});
      collect(value, path, out);
      path.pop_back();
    }
  } else if (node.is_array()) {
    for (std::size_t i = 0; i < node.size(); ++i) {
      path.push_back({"", i, true});
      collect(node.as_array()[i], path, out);
      path.pop_back();
    }
  }
}

std::string describe(const Path& path) {
  std::string text = "$";
  for (const auto& step : path) {
    text += step.is_index ? ku::format("[%zu]", step.index) : "." + step.key;
  }
  return text;
}

/// An edit of the value at a path; nullopt removes it from its parent.
using Edit = std::function<std::optional<ku::Json>(const ku::Json&)>;

/// `node` with `edit` applied at `path[depth..]`. Removal needs a parent,
/// so the root is never removed.
ku::Json rewrite(const ku::Json& node, const Path& path, std::size_t depth, const Edit& edit) {
  const Step& step = path[depth];
  const bool last = depth + 1 == path.size();
  if (step.is_index) {
    ku::Json::Array items = node.as_array();
    if (!last) {
      items[step.index] = rewrite(items[step.index], path, depth + 1, edit);
    } else if (auto edited = edit(items[step.index])) {
      items[step.index] = std::move(*edited);
    } else {
      items.erase(items.begin() + static_cast<std::ptrdiff_t>(step.index));
    }
    return ku::Json(std::move(items));
  }
  ku::Json::Object members = node.as_object();
  if (!last) {
    members[step.key] = rewrite(members.at(step.key), path, depth + 1, edit);
  } else if (auto edited = edit(members.at(step.key))) {
    members[step.key] = std::move(*edited);
  } else {
    members.erase(step.key);
  }
  return ku::Json(std::move(members));
}

/// Applies one random mutation to a non-root value of `doc`; `log` gets a
/// human-readable description for failure messages.
ku::Json mutate(const ku::Json& doc, ku::Rng& rng, std::string& log) {
  std::vector<Path> paths;
  Path path;
  collect(doc, path, paths);
  paths.erase(paths.begin());  // the root itself
  if (paths.empty()) return doc;
  const Path& target = paths[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
  const auto op = rng.uniform_int(0, 5);
  Edit edit;
  std::string what;
  switch (op) {
    case 0:
      what = "negate";
      edit = [](const ku::Json& v) -> std::optional<ku::Json> {
        if (!v.is_number()) return v;
        return ku::Json(v.as_number() == 0.0 ? -1.0 : -v.as_number());
      };
      break;
    case 1:
      what = "null";
      edit = [](const ku::Json&) -> std::optional<ku::Json> { return ku::Json(); };
      break;
    case 2:
      what = "swap string/number";
      edit = [](const ku::Json& v) -> std::optional<ku::Json> {
        if (v.is_number()) return ku::Json(ku::format("%g", v.as_number()));
        if (v.is_string()) return ku::Json(static_cast<double>(v.as_string().size()));
        return v;
      };
      break;
    case 3:
      what = "drop";
      edit = [](const ku::Json&) -> std::optional<ku::Json> { return std::nullopt; };
      break;
    case 4:
      what = "duplicate an entry";
      edit = [](const ku::Json& v) -> std::optional<ku::Json> {
        if (!v.is_array() || v.size() == 0) return v;
        ku::Json copy = v;
        copy.push_back(v.as_array().back());
        return copy;
      };
      break;
    default:
      what = "fraction";
      edit = [](const ku::Json& v) -> std::optional<ku::Json> {
        return v.is_number() ? ku::Json(v.as_number() + 0.5) : v;
      };
      break;
  }
  log += what + " at " + describe(target) + "; ";
  return rewrite(doc, target, 0, edit);
}

/// The corpus documents that parse as JSON (the duplicate-key lint fixture
/// does not, so it has no values to mutate).
std::vector<std::string> json_corpus() {
  std::vector<std::string> names;
  for (const auto& name : keddah::testing::scenario_corpus()) {
    try {
      (void)ku::Json::load_file(keddah::testing::corpus_path(name));
      names.push_back(name);
    } catch (const std::runtime_error&) {
    }
  }
  return names;
}

using Lint = std::function<void(const ku::Json&, std::vector<keddah::lint::Diagnostic>&)>;
using Load = std::function<void(const ku::Json&)>;

/// The verdicts of `lint` and `load` on `doc`: asserts they agree and, on a
/// rejection, that the thrown text is the first error's. Returns whether
/// the document was rejected.
bool expect_one_verdict(const ku::Json& doc, const Lint& lint, const Load& load) {
  std::vector<keddah::lint::Diagnostic> diagnostics;
  lint(doc, diagnostics);
  const keddah::lint::Diagnostic* first_error = nullptr;
  for (const auto& d : diagnostics) {
    if (d.severity == keddah::lint::Severity::kError) {
      first_error = &d;
      break;
    }
  }
  std::optional<std::string> thrown;
  try {
    load(doc);
  } catch (const std::invalid_argument& e) {
    thrown = e.what();
  }
  EXPECT_EQ(first_error != nullptr, thrown.has_value()) << thrown.value_or("");
  if (first_error != nullptr && thrown) {
    EXPECT_EQ(*thrown, first_error->to_string());
  }
  return thrown.has_value();
}

/// Checks the corpus document `name` (already loaded as `seed_doc`) and
/// kMutantsPerDocument seeded mutants of it.
void check_document_and_mutants(const std::string& name, const ku::Json& seed_doc,
                                bool expect_rejected, const Lint& lint, const Load& load) {
  {
    SCOPED_TRACE("unmutated " + name);
    EXPECT_EQ(expect_one_verdict(seed_doc, lint, load), expect_rejected);
  }
  // Seeded from the corpus entry name, so a failing mutant reproduces in
  // any checkout.
  std::uint64_t seed = 1469598103934665603ull;
  for (const unsigned char c : name) {
    seed = (seed ^ c) * 1099511628211ull;
  }
  ku::Rng rng(seed);
  std::size_t rejected = 0;
  for (std::size_t m = 0; m < kMutantsPerDocument; ++m) {
    std::string log;
    ku::Json doc = mutate(seed_doc, rng, log);
    if (rng.chance(0.3)) doc = mutate(doc, rng, log);
    SCOPED_TRACE("mutant " + std::to_string(m) + ": " + log + doc.dump(-1));
    if (expect_one_verdict(doc, lint, load)) ++rejected;
    if (::testing::Test::HasFailure()) return;
  }
  // A harness whose mutations never reach a rule would pass vacuously.
  EXPECT_GT(rejected, 0u);
}

class ScenarioMutation : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioMutation, LintErrorIffParseThrowsTheSameFirstMessage) {
  check_document_and_mutants(
      GetParam(), ku::Json::load_file(keddah::testing::corpus_path(GetParam())),
      GetParam().rfind("examples/", 0) != 0,
      [](const ku::Json& doc, std::vector<keddah::lint::Diagnostic>& out) {
        keddah::lint::lint_scenario(doc, "mutant", out);
      },
      [](const ku::Json& doc) { (void)keddah::core::parse_scenario(doc, "mutant"); });
}

INSTANTIATE_TEST_SUITE_P(Corpus, ScenarioMutation, ::testing::ValuesIn(json_corpus()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return keddah::testing::corpus_test_name(info.param);
                         });

/// A small grep model trained in-process: the document the toolchain
/// itself writes, with every class trained.
const ku::Json& trained_model() {
  static const ku::Json doc = [] {
    keddah::hadoop::ClusterConfig cfg;
    cfg.racks = 2;
    cfg.hosts_per_rack = 2;
    cfg.block_size = 32ull << 20;
    keddah::core::CaptureSpec capture;
    capture.workload = keddah::workloads::Workload::kGrep;
    capture.input_sizes = {64ull << 20, 128ull << 20};
    capture.seed = 7;
    capture.threads = 1;
    return keddah::core::train("grep", keddah::core::capture_runs(cfg, capture), cfg).to_json();
  }();
  return doc;
}

class ModelMutation : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelMutation, LintErrorIffLoadThrowsTheSameFirstMessage) {
  const std::string& name = GetParam();
  const bool trained = name == keddah::testing::kTrainedModel;
  const ku::Json seed_doc =
      trained ? trained_model() : ku::Json::load_file(keddah::testing::corpus_path(name));
  if (name.rfind("lint/bank_", 0) == 0) {
    check_document_and_mutants(
        name, seed_doc, /*expect_rejected=*/true,
        [](const ku::Json& doc, std::vector<keddah::lint::Diagnostic>& out) {
          keddah::lint::lint_model_bank(doc, "mutant", out);
        },
        [](const ku::Json& doc) { (void)keddah::model::ModelBank::from_json(doc, "mutant"); });
    return;
  }
  check_document_and_mutants(
      name, seed_doc, /*expect_rejected=*/!trained,
      [](const ku::Json& doc, std::vector<keddah::lint::Diagnostic>& out) {
        keddah::lint::lint_model(doc, "mutant", out);
      },
      [](const ku::Json& doc) { (void)keddah::model::KeddahModel::from_json(doc, "mutant"); });
}

INSTANTIATE_TEST_SUITE_P(Corpus, ModelMutation,
                         ::testing::ValuesIn(keddah::testing::model_corpus()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return keddah::testing::corpus_test_name(info.param);
                         });

}  // namespace
