// Tests for keddah-detlint: every seeded-hazard fixture under
// tests/fixtures/detlint must produce exactly the finding its `// expect:`
// header names, the allow-comment fixture must scan clean with one recorded
// suppression, and the real sources under src/ must have zero unsuppressed
// findings. Fixture/source locations come from compile definitions set by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "lint/detlint.h"

namespace kl = keddah::lint;

namespace {

std::string fixture(const std::string& name) {
  return std::string(KEDDAH_DETLINT_FIXTURES) + "/" + name;
}

/// Scans one fixture (plus its paired header, for the member fixture) and
/// asserts every finding carries the expected rule, with at least one.
kl::DetlintReport expect_only_rule(const std::vector<std::string>& names,
                                   const std::string& rule) {
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const auto& n : names) paths.push_back(fixture(n));
  const kl::DetlintReport report = kl::detlint_paths(paths);
  EXPECT_FALSE(report.ok()) << names.front() << " should trigger " << rule;
  for (const auto& d : report.diagnostics) {
    EXPECT_EQ(d.rule, rule) << d.to_string();
    EXPECT_GT(d.line, 0u);
    EXPECT_NE(d.file.find(KEDDAH_DETLINT_FIXTURES), std::string::npos);
  }
  return report;
}

TEST(DetlintFixtures, MemberIterationAcrossHeaderPair) {
  const auto report =
      expect_only_rule({"unordered_member_iter.h", "unordered_member_iter.cpp"},
                       "unordered-iter");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  // The declaration lives in the header; the hazard is the .cpp iteration.
  EXPECT_NE(report.diagnostics[0].file.find(".cpp"), std::string::npos);
  EXPECT_NE(report.diagnostics[0].message.find("entries"), std::string::npos);
}

TEST(DetlintFixtures, LocalIteration) {
  const auto report = expect_only_rule({"unordered_local_iter.cpp"}, "unordered-iter");
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

TEST(DetlintFixtures, ReturnValueIteration) {
  const auto report = expect_only_rule({"unordered_return_iter.cpp"}, "unordered-iter");
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

TEST(DetlintFixtures, ExplicitBeginIteration) {
  expect_only_rule({"unordered_begin_iter.cpp"}, "unordered-iter");
}

TEST(DetlintFixtures, PointerKeyedMap) {
  const auto report = expect_only_rule({"pointer_key_map.cpp"}, "pointer-key");
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

TEST(DetlintFixtures, PointerKeyedSet) {
  const auto report = expect_only_rule({"pointer_key_set.cpp"}, "pointer-key");
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

TEST(DetlintFixtures, RandomDevice) {
  expect_only_rule({"random_device_seed.cpp"}, "random-device");
}

TEST(DetlintFixtures, WallClock) {
  expect_only_rule({"wall_clock_now.cpp"}, "wall-clock");
}

TEST(DetlintFixtures, BareMutexMember) {
  // The fixture suppresses its own <mutex> include; only the raw member
  // declaration should remain.
  const auto report = expect_only_rule({"bare_mutex_member.cpp"}, "bare-mutex");
  EXPECT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.suppressions_used, 1u);
}

TEST(DetlintFixtures, AllowCommentSuppresses) {
  const kl::DetlintReport report =
      kl::detlint_paths({fixture("allowed_unordered_iter.cpp")});
  EXPECT_TRUE(report.ok())
      << (report.diagnostics.empty() ? "" : report.diagnostics[0].to_string());
  EXPECT_EQ(report.suppressions_used, 1u);
}

// Naming a directory twice must not scan its files twice.
TEST(DetlintFixtures, RepeatedPathScansEachFileOnce) {
  const std::string dir = KEDDAH_DETLINT_FIXTURES;
  const kl::DetlintReport once = kl::detlint_paths({dir});
  const kl::DetlintReport twice = kl::detlint_paths({dir, dir});
  EXPECT_GT(once.files_scanned, 0u);
  EXPECT_EQ(twice.files_scanned, once.files_scanned);
  EXPECT_EQ(twice.suppressions_used, once.suppressions_used);
  ASSERT_EQ(twice.diagnostics.size(), once.diagnostics.size());
  for (std::size_t i = 0; i < once.diagnostics.size(); ++i) {
    EXPECT_EQ(twice.diagnostics[i].to_string(), once.diagnostics[i].to_string());
  }
}

// Every fixture's first line declares the rule it seeds (`// expect: <rule>`
// or `// expect: clean`), so the fixture set stays self-describing and
// tools/check_static.sh can replay the same contract from the shell.
TEST(DetlintFixtures, ExpectHeadersNameKnownRules) {
  const auto& rules = kl::detlint_rule_ids();
  const std::vector<std::string> names = {
      "unordered_member_iter.cpp", "unordered_local_iter.cpp",
      "unordered_return_iter.cpp", "unordered_begin_iter.cpp",
      "pointer_key_map.cpp",       "pointer_key_set.cpp",
      "random_device_seed.cpp",    "wall_clock_now.cpp",
      "bare_mutex_member.cpp",     "allowed_unordered_iter.cpp"};
  for (const auto& name : names) {
    std::ifstream in(fixture(name));
    ASSERT_TRUE(in.good()) << name;
    std::string first_line;
    std::getline(in, first_line);
    const std::string prefix = "// expect: ";
    ASSERT_EQ(first_line.rfind(prefix, 0), 0u) << name;
    const std::string expected = first_line.substr(prefix.size());
    const bool known =
        expected == "clean" ||
        std::find(rules.begin(), rules.end(), expected) != rules.end();
    EXPECT_TRUE(known) << name << " declares unknown rule " << expected;
  }
}

TEST(DetlintRules, RuleIdsAreSortedAndStable) {
  const auto& rules = kl::detlint_rule_ids();
  const std::vector<std::string> expected = {"bare-mutex", "pointer-key",
                                             "random-device", "unordered-iter",
                                             "wall-clock"};
  EXPECT_EQ(rules, expected);
}

TEST(DetlintSources, DiagnosticFormatMatchesLintStyle) {
  const kl::DetlintReport report = kl::detlint_sources(
      {{"demo.cpp", "#include <random>\nstd::random_device rd;\n"}});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const std::string s = report.diagnostics[0].to_string();
  EXPECT_NE(s.find("demo.cpp: line 2: [random-device]"), std::string::npos) << s;
}

// The contract the CI gate enforces: the shipped sources carry zero
// unsuppressed determinism hazards.
TEST(DetlintSources, RepoSourcesScanClean) {
  const kl::DetlintReport report = kl::detlint_paths({KEDDAH_SRC_DIR});
  for (const auto& d : report.diagnostics) ADD_FAILURE() << d.to_string();
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.files_scanned, 50u);
}

}  // namespace
