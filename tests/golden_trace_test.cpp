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
// A third golden (dense_shared_paths.json) drives net::Network directly with
// a dense open-loop load: thousands of flows on the 16-host rack tree, so
// hundreds are live at once on at most 240 host-pair paths. The example
// scenarios above are mostly capped singletons on distinct paths, so they
// cannot see a solver that mishandles many flows sharing one path; this one
// pins every flow's end time and the scheduler counters under that load.
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
#include "net/network.h"
#include "util/counters.h"
#include "util/rng.h"
#include "util/strings.h"

namespace kc = keddah::core;
namespace kn = keddah::net;
namespace ks = keddah::sim;
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

namespace {

/// One run of the dense shared-path load; `flows` holds a line per resolved
/// flow in resolution order, `counters` the scheduler counters at the end.
struct DenseRun {
  std::string flows;
  std::string counters;
  std::size_t peak_live = 0;
  std::size_t total = 0;
};

/// 2,400 uncapped flows arrive open-loop on the 4x4 rack tree (1 Gb/s
/// access, 2 Gb/s ToR uplinks) faster than the fabric drains them, so
/// hundreds pile up on the 240 host-pair paths. Riding along: 240 flows
/// capped at one shared 40 Mb/s on six repeated host pairs (the HDFS-write
/// disk-cap shape), a degrade-and-restore window on one ToR uplink and on
/// one access link, and a host outage that aborts every flow touching it.
DenseRun run_dense(bool reference) {
  ks::Simulator sim;
  kn::NetworkOptions opts;
  opts.reference_scheduler = reference;
  kn::Network net(sim, kn::make_rack_tree(4, 4, 1.0e9, 2.0e9, 5e-5), opts);
  const auto& topo = net.topology();
  const auto hosts = topo.hosts();
  const auto pick = [&](ku::Rng& rng) {
    return hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
  };
  DenseRun run;
  std::ostringstream out;
  const auto record = [&out](const kn::Flow& f) {
    out << ku::format(R"({"id":%llu,"bytes":%.17g,"end":%.17g,"aborted":%d})",
                      static_cast<unsigned long long>(f.id), f.bytes.value(), f.end_time,
                      f.aborted ? 1 : 0)
        << "\n";
  };
  ku::Rng rng(20170605);
  double t = 0.0;
  for (std::size_t i = 0; i < 2400; ++i) {
    t += rng.exponential(1000.0);  // 1,000 arrivals/s, ~20 Gb/s offered
    const auto src = pick(rng);
    auto dst = pick(rng);
    if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
    const double bytes = std::min(rng.lognormal(14.0, 1.2), 64.0e6);
    sim.schedule_at(t, [&net, &record, src, dst, bytes] {
      net.start_flow(src, dst, ku::Bytes(bytes), {}, record);
    });
  }
  for (std::size_t i = 0; i < 240; ++i) {
    const std::size_t pair = i % 6;
    const auto src = hosts[pair];
    const auto dst = hosts[15 - 2 * pair];
    const double at = 0.01 * static_cast<double>(i);
    sim.schedule_at(at, [&net, &record, src, dst] {
      kn::FlowMeta meta;
      meta.kind = kn::FlowKind::kHdfsWrite;
      net.start_flow(src, dst, ku::Bytes(2.0e6), meta, record, ku::Rate::bps(40.0e6));
    });
  }
  const kn::LinkId uplink = topo.links_at(topo.find("tor1")).front();
  const kn::LinkId access = topo.links_at(topo.find("h9")).front();
  sim.schedule_at(0.6, [&net, uplink, access] {
    net.set_link_capacity(uplink, ku::Rate::bps(0.5e9));
    net.set_link_capacity(access, ku::Rate::bps(0.25e9));
  });
  sim.schedule_at(1.4, [&net, uplink, access] {
    net.set_link_capacity(uplink, ku::Rate::bps(2.0e9));
    net.set_link_capacity(access, ku::Rate::bps(1.0e9));
  });
  const kn::NodeId victim = topo.find("h5");
  sim.schedule_at(1.1, [&net, victim] {
    net.set_node_down(victim);
    net.abort_flows_touching(victim);
  });
  sim.schedule_at(1.3, [&net, victim] { net.set_node_up(victim); });
  while (sim.step()) run.peak_live = std::max(run.peak_live, net.active_flows());
  run.total = net.total_flows();
  run.flows = out.str();
  run.counters = ku::counters_json(net.scheduler_stats()).dump(-1) + "\n";
  return run;
}

}  // namespace

// Bundling-sensitive golden: the incremental scheduler's per-flow end times
// and counters under a dense shared-path load, with the reference scheduler
// required to agree on every flow.
TEST(GoldenDense, SharedPathLoadMatchesCheckedInTrace) {
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");
  const DenseRun inc = run_dense(false);
  // The load must actually be dense, or the golden pins nothing about
  // shared paths.
  EXPECT_EQ(inc.total, 2640u);
  EXPECT_GE(inc.peak_live, 300u);
  const DenseRun ref = run_dense(true);
  EXPECT_TRUE(inc.flows == ref.flows) << "reference scheduler disagrees on the dense load";
  expect_matches_golden("dense_shared_paths.json", inc.flows + inc.counters);
}
