// Golden-trace regression tests: every shipped example scenario is run
// end-to-end and its capture (every flow's endpoints, ports, bytes and
// %.17g-exact timestamps) plus its fault/ledger summary are diffed against a
// checked-in golden file. The incremental scheduler is the component most
// able to silently shift a completion time, so these pin the entire
// observable output of the toolchain, flow by flow.
//
// A second suite pins each scenario's `run-scenario --json` response
// document byte for byte (<name>.whatif.json): key names, nesting and
// number formatting of the faults/scheduler counter sections included,
// which the CLI<->daemon identity check cannot see because both sides
// render through the same function.
//
// When an intentional behaviour change moves the traces, regenerate with:
//   KEDDAH_REGEN_GOLDEN=1 ctest -R Golden
// and review the golden diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/specs.h"
#include "keddah/scenario.h"
#include "util/strings.h"

namespace kc = keddah::core;
namespace ku = keddah::util;

namespace {

/// Serializes a scenario outcome as one JSON-lines record per flow plus a
/// trailing summary record. %.17g round-trips doubles exactly, so a golden
/// match is a bit-exact match on every timestamp and byte count.
std::string render(const kc::ScenarioOutcome& outcome) {
  std::ostringstream out;
  for (std::size_t i = 0; i < outcome.trace.size(); ++i) {
    const auto& r = outcome.trace[i];
    out << ku::format(
        R"({"src":"%s","dst":"%s","sport":%u,"dport":%u,"bytes":%.17g,"start":%.17g,"end":%.17g,"job":%u})",
        r.src.c_str(), r.dst.c_str(), static_cast<unsigned>(r.src_port),
        static_cast<unsigned>(r.dst_port), r.bytes, r.start, r.end, r.job_id);
    out << "\n";
  }
  const auto& f = outcome.faults;
  out << ku::format(R"({"jobs":%zu,"rereplications":%llu,"aborted_flows":%llu,"aborted_bytes":%.17g})",
                    outcome.results.size(), static_cast<unsigned long long>(f.rereplications),
                    static_cast<unsigned long long>(f.aborted_flows), f.aborted_bytes.value());
  out << "\n";
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

kc::ScenarioOutcome run_example(const std::string& name) {
  // The env switch would swap in the reference scheduler; the goldens pin
  // the incremental one.
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");
  return kc::run_scenario(
      kc::load_scenario(std::string(KEDDAH_EXAMPLE_SCENARIOS) + "/" + name + ".json"));
}

/// Diffs `got` against tests/golden/<file> (or rewrites the golden under
/// KEDDAH_REGEN_GOLDEN), reporting the first differing line.
void expect_matches_golden(const std::string& file, const std::string& got) {
  const std::string golden_path = std::string(KEDDAH_GOLDEN_DIR) + "/" + file;
  if (std::getenv("KEDDAH_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  const std::string want = read_file(golden_path);
  ASSERT_FALSE(want.empty()) << golden_path
                             << " missing — regenerate with KEDDAH_REGEN_GOLDEN=1";
  if (got == want) return;  // fast path: byte-identical
  // Mismatch: report the first differing line with context, not a 1000-line
  // string diff.
  std::istringstream got_s(got), want_s(want);
  std::string got_line, want_line;
  std::size_t line = 0;
  for (;;) {
    const bool got_more = static_cast<bool>(std::getline(got_s, got_line));
    const bool want_more = static_cast<bool>(std::getline(want_s, want_line));
    ++line;
    if (!got_more && !want_more) break;
    if (!got_more || !want_more || got_line != want_line) {
      FAIL() << file << " line " << line << " diverged\n  golden: "
             << (want_more ? want_line : "<eof>") << "\n  actual: "
             << (got_more ? got_line : "<eof>")
             << "\nIf intentional, regenerate with KEDDAH_REGEN_GOLDEN=1 and review the diff.";
    }
  }
}

class GoldenTrace : public ::testing::TestWithParam<const char*> {};
class GoldenWhatIf : public ::testing::TestWithParam<const char*> {};

}  // namespace

TEST_P(GoldenTrace, MatchesCheckedInTrace) {
  const std::string name = GetParam();
  expect_matches_golden(name + ".trace.jsonl", render(run_example(name)));
}

// The bytes `keddah run-scenario --file <name>.json --json` prints (and
// /v1/whatif answers) for one scenario.
TEST_P(GoldenWhatIf, MatchesCheckedInResponse) {
  const std::string name = GetParam();
  expect_matches_golden(name + ".whatif.json",
                        keddah::api::to_body(keddah::api::whatif_response(run_example(name))));
}

INSTANTIATE_TEST_SUITE_P(ExampleScenarios, GoldenTrace,
                         ::testing::Values("clean", "crash", "outage", "degraded_link"),
                         [](const auto& info) { return std::string(info.param); });
INSTANTIATE_TEST_SUITE_P(ExampleScenarios, GoldenWhatIf,
                         ::testing::Values("clean", "crash", "outage", "degraded_link"),
                         [](const auto& info) { return std::string(info.param); });
