// Verdict parity between the batch CLI and the serve daemon: every corpus
// document (tests/scenario_corpus.h) goes through the in-process
// `keddah run-scenario --json` and through Server::handle(POST /v1/whatif).
// Both must accept — with byte-identical bodies — or both must reject, and
// the CLI's error line must be the first error the daemon's 400 reports.
// Each document is its own test under a ctest TIMEOUT, so a document that
// hangs the simulator fails instead of stalling the suite.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "scenario_corpus.h"
#include "serve/server.h"
#include "util/diagnostic.h"
#include "util/json.h"

namespace ks = keddah::serve;
namespace ku = keddah::util;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// The line the CLI prints for the daemon's rejection of the same document:
/// the first diagnostic of a lint 400 (with the CLI's file name in place of
/// "request"), or the envelope message when the body was not JSON at all.
std::string expected_cli_error(const std::string& body, const std::string& path) {
  const auto error = ku::Json::parse(body).at("error");
  if (error.contains("details") && error.at("details").contains("diagnostics")) {
    const auto& first = error.at("details").at("diagnostics").at(0);
    const std::string hint = first.contains("hint") ? first.at("hint").as_string() : "";
    return "error: " +
           ku::format_diagnostic(path, first.at("key").as_string(),
                                 first.at("message").as_string(), hint) +
           "\n";
  }
  return "error: " + error.at("message").as_string() + "\n";
}

class VerdictParity : public ::testing::TestWithParam<std::string> {};

TEST_P(VerdictParity, CliAndDaemonAgree) {
  const std::string path = keddah::testing::corpus_path(GetParam());
  std::ostringstream out;
  std::ostringstream err;
  const int code = keddah::cli::run({"run-scenario", "--file", path, "--json"}, out, err);

  ks::Server server(ks::ServeOptions{});
  const auto response = server.handle(ks::HttpRequest{"POST", "/v1/whatif", read_file(path)});

  ASSERT_EQ(code == 0, response.status == 200)
      << path << "\ncli exit " << code << ": " << err.str() << "daemon " << response.status
      << ": " << response.body;
  if (code == 0) {
    EXPECT_EQ(out.str(), response.body) << path;
    return;
  }
  EXPECT_EQ(code, 1) << err.str();
  EXPECT_EQ(response.status, 400) << response.body;
  EXPECT_EQ(err.str(), expected_cli_error(response.body, path)) << response.body;
}

INSTANTIATE_TEST_SUITE_P(Corpus, VerdictParity,
                         ::testing::ValuesIn(keddah::testing::scenario_corpus()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return keddah::testing::corpus_test_name(info.param);
                         });

}  // namespace
