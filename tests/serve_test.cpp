// Integration tests for the `keddah serve` daemon: ephemeral-port boot,
// bit-identity between the batch CLI and the server for the full example
// scenario corpus, lint-style 400s with key paths, cache-hit accounting,
// and concurrent-client determinism.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "keddah/toolchain.h"
#include "serve/server.h"
#include "util/json.h"

namespace kc = keddah::core;
namespace ks = keddah::serve;
namespace ku = keddah::util;
namespace kw = keddah::workloads;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::string scenario_path(const std::string& name) {
  return std::string(KEDDAH_EXAMPLE_SCENARIOS) + "/" + name + ".json";
}

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = keddah::cli::run(tokens, out, err);
  return {code, out.str(), err.str()};
}

/// A scenario small enough to answer in well under a second.
const char* kSmallScenario = R"({
  "seed": 3,
  "cluster": {"racks": 2, "hosts_per_rack": 2, "block_size": "32 MB"},
  "jobs": [{"workload": "grep", "input": "64MB"}]
})";

ks::HttpRequest post(const std::string& path, const std::string& body) {
  return ks::HttpRequest{"POST", path, body};
}

ks::HttpRequest get(const std::string& path) { return ks::HttpRequest{"GET", path, ""}; }

/// Blocking one-shot HTTP client against 127.0.0.1:`port`; returns the raw
/// response (status line + headers + body).
std::string http_round_trip(std::uint16_t port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  std::size_t off = 0;
  while (off < request_text.size()) {
    const ssize_t n = ::write(fd, request_text.data() + off, request_text.size() - off);
    if (n <= 0) {
      ADD_FAILURE() << "write failed";
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_post(std::uint16_t port, const std::string& path, const std::string& body) {
  std::ostringstream request;
  request << "POST " << path << " HTTP/1.1\r\n"
          << "Host: 127.0.0.1\r\n"
          << "Content-Type: application/json\r\n"
          << "Content-Length: " << body.size() << "\r\n\r\n"
          << body;
  return http_round_trip(port, request.str());
}

std::string body_of(const std::string& response) {
  const auto at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

}  // namespace

TEST(Serve, HealthReportsEndpointsAndModels) {
  ks::Server server(ks::ServeOptions{});
  const auto response = server.handle(get("/v1/health"));
  EXPECT_EQ(response.status, 200);
  const auto doc = ku::Json::parse(response.body);
  EXPECT_EQ(doc.at("status").as_string(), "ok");
  EXPECT_EQ(doc.at("api").as_string(), "v1");
  EXPECT_GT(doc.at("endpoints").size(), 0u);
}

TEST(Serve, WhatIfMatchesBatchCliBitIdentically) {
  ks::Server server(ks::ServeOptions{});
  for (const std::string name : {"clean", "crash", "degraded_link", "outage"}) {
    const auto path = scenario_path(name);
    const auto cli = run_cli({"run-scenario", "--file", path, "--json"});
    ASSERT_EQ(cli.code, 0) << cli.err;
    const auto response = server.handle(post("/v1/whatif", read_file(path)));
    EXPECT_EQ(response.status, 200) << response.body;
    // The daemon's response body and the batch CLI's stdout are the same
    // bytes — the whole point of the shared Spec API layer.
    EXPECT_EQ(response.body, cli.out) << "scenario " << name;
  }
}

TEST(Serve, MalformedScenarioGets400NamingTheKeyPath) {
  ks::Server server(ks::ServeOptions{});
  const auto response = server.handle(post(
      "/v1/whatif", R"({"jobs": [{"workload": "sort"}], "cluster": {"racks": 2}})"));
  EXPECT_EQ(response.status, 400);
  // keddah-lint names the defective key, not just "bad request".
  EXPECT_NE(response.body.find("jobs[0].input"), std::string::npos) << response.body;
}

TEST(Serve, UnparsableBodyGets400) {
  ks::Server server(ks::ServeOptions{});
  const auto response = server.handle(post("/v1/whatif", "{not json"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("error"), std::string::npos);
}

TEST(Serve, UnsupportedApiVersionGets400) {
  auto doc = ku::Json::parse(kSmallScenario);
  doc["api"] = ku::Json("v9");
  ks::Server server(ks::ServeOptions{});
  const auto response = server.handle(post("/v1/whatif", doc.dump(2)));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("unsupported API version"), std::string::npos) << response.body;
}

TEST(Serve, UnknownEndpointGets404) {
  ks::Server server(ks::ServeOptions{});
  EXPECT_EQ(server.handle(post("/v1/nope", "{}")).status, 404);
  EXPECT_EQ(server.handle(get("/v2/whatif")).status, 404);
  // Wrong method on a known endpoint is 405, not 404.
  EXPECT_EQ(server.handle(get("/v1/whatif")).status, 405);
}

TEST(Serve, RepeatedWhatIfHitsTheResultCache) {
  ks::Server server(ks::ServeOptions{});
  const auto first = server.handle(post("/v1/whatif", kSmallScenario));
  ASSERT_EQ(first.status, 200) << first.body;
  const auto second = server.handle(post("/v1/whatif", kSmallScenario));
  EXPECT_EQ(second.body, first.body);
  // Whitespace-insensitive caching: the canonical form keys the cache.
  const auto reformatted = ku::Json::parse(kSmallScenario).dump(4);
  const auto third = server.handle(post("/v1/whatif", reformatted));
  EXPECT_EQ(third.body, first.body);

  const auto stats = ku::Json::parse(server.handle(get("/v1/stats")).body);
  EXPECT_EQ(stats.at("cache").at("hits").as_int(), 2);
  EXPECT_EQ(stats.at("cache").at("misses").as_int(), 1);
  EXPECT_EQ(stats.at("cache").at("entries").as_int(), 1);
}

TEST(Serve, ConcurrentClientsGetIdenticalAnswersOverHttp) {
  ks::Server server(ks::ServeOptions{});
  server.start();
  const auto reference = server.handle(post("/v1/whatif", kSmallScenario)).body;

  constexpr std::size_t kClients = 8;
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      bodies[i] = body_of(http_post(server.port(), "/v1/whatif", kSmallScenario));
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(bodies[i], reference) << "client " << i;
  }
  server.stop();
}

TEST(Serve, ShutdownEndpointUnblocksTheWaiter) {
  ks::Server server(ks::ServeOptions{});
  server.start();
  std::thread waiter([&] { server.wait_for_shutdown(); });
  const auto response = http_post(server.port(), "/v1/shutdown", "");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  waiter.join();  // returns only if the endpoint signalled shutdown
  server.stop();
}

TEST(Serve, ReproduceUsesTheModelBankAndRejectsUnknownModels) {
  // Train a tiny model and persist it where the daemon can register it.
  keddah::hadoop::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  cfg.block_size = 32ull << 20;
  kc::CaptureSpec capture;
  capture.workload = kw::Workload::kGrep;
  capture.input_sizes = {64ull << 20};
  capture.seed = 7;
  capture.threads = 1;
  const auto runs = kc::capture_runs(cfg, capture);
  const auto model = kc::train("grep", runs, cfg);
  const auto model_path = ::testing::TempDir() + "/keddah_serve_model.json";
  model.save(model_path);

  ks::ServeOptions options;
  options.model_files = {model_path};
  ks::Server server(options);
  EXPECT_EQ(server.model_names(), std::vector<std::string>{"grep"});

  const char* request = R"({"model": "grep", "scenario": {"input": "64MB", "hosts": 4},
                            "seed": 2})";
  const auto response = server.handle(post("/v1/reproduce", request));
  ASSERT_EQ(response.status, 200) << response.body;
  const auto doc = ku::Json::parse(response.body);
  EXPECT_EQ(doc.at("kind").as_string(), "reproduce");
  EXPECT_GT(doc.at("replay").at("makespan_s").as_number(), 0.0);
  EXPECT_GT(doc.at("schedule").at("flows").as_int(), 0);

  // Determinism: the same request replays to the same bytes (cache aside).
  const auto repeat = server.handle(post("/v1/reproduce", request));
  EXPECT_EQ(repeat.body, response.body);

  const auto unknown = server.handle(
      post("/v1/reproduce", R"({"model": "sort", "scenario": {"input": "64MB"}})"));
  EXPECT_EQ(unknown.status, 404);
  EXPECT_NE(unknown.body.find("unknown model"), std::string::npos);

  std::filesystem::remove(model_path);
}

TEST(Serve, DefectiveModelStopsTheBoot) {
  const std::string path =
      std::string(KEDDAH_MODEL_DRIFT_FIXTURES) + "/class_without_size.json";
  ks::ServeOptions options;
  options.model_files = {path};
  try {
    ks::Server server(options);
    FAIL() << "a model without classes.shuffle.size booted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("classes.shuffle.size"), std::string::npos) << e.what();
  }
  // `keddah serve` reports the same first diagnostic as its error line.
  const auto result = run_cli({"serve", "--port", "0", "--models", path});
  EXPECT_EQ(result.code, 1);
  EXPECT_EQ(result.err.rfind("error: " + path + ": classes.shuffle.size: ", 0), 0u)
      << result.err;
}

TEST(Serve, StatsCountBankEntriesAndStandaloneModels) {
  const std::string model_path = ::testing::TempDir() + "/keddah_serve_sort.json";
  const std::string bank_path = ::testing::TempDir() + "/keddah_serve_bank.json";
  ku::Json::parse(R"({"job_name": "sort"})").save_file(model_path);
  ku::Json::parse(R"({"models": [{"job_name": "grep"}, {"job_name": "sort"}]})")
      .save_file(bank_path);
  ks::ServeOptions options;
  options.model_files = {model_path};
  options.model_bank_file = bank_path;
  ks::Server server(options);
  // The bank's "sort" repeats the standalone file's job name.
  EXPECT_EQ(server.model_names(), (std::vector<std::string>{"grep", "sort", "sort#2"}));
  const auto stats = ku::Json::parse(server.handle(get("/v1/stats")).body);
  EXPECT_EQ(stats.at("models").at("registered").as_int(), 3);
  std::filesystem::remove(model_path);
  std::filesystem::remove(bank_path);
}

namespace {

std::string error_code_of(const std::string& body) {
  return ku::Json::parse(body).at("error").at("code").as_string();
}

struct MalformedCase {
  const char* name;
  std::string request;     ///< Raw bytes on the wire (then half-close).
  int status;              ///< Expected status line code.
  const char* code;        ///< Expected error.code in the envelope.
  const char* needle;      ///< Substring the message must name.
};

}  // namespace

TEST(Serve, MalformedHttpGetsTheExactEnvelopeNotASilentClose) {
  // Tight transport caps so the oversized cases stay small.
  ks::ServeOptions options;
  options.max_header_bytes = 1024;
  options.max_body_bytes = 1024;
  ks::Server server(options);
  server.start();

  const std::vector<MalformedCase> cases = {
      {"torn request line", "GET\r\n\r\n", 400, "bad_request", "malformed request line"},
      {"header block never terminated",
       "POST /v1/whatif HTTP/1.1\r\nContent-Length: 5\r\n", 400, "bad_request",
       "truncated request"},
      {"header block over the cap",
       "GET /v1/health HTTP/1.1\r\nX-Pad: " + std::string(2048, 'a') + "\r\n\r\n", 413,
       "payload_too_large", "header block exceeds"},
      {"body shorter than declared",
       "POST /v1/whatif HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}", 400, "bad_request",
       "shorter than the declared"},
      {"malformed Content-Length",
       "POST /v1/whatif HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400, "bad_request",
       "malformed Content-Length"},
      {"declared body over the cap",
       "POST /v1/whatif HTTP/1.1\r\nContent-Length: 4096\r\n\r\n", 413,
       "payload_too_large", "exceeds the 1024 byte cap"},
  };
  for (const auto& c : cases) {
    const auto response = http_round_trip(server.port(), c.request);
    EXPECT_NE(response.find(std::to_string(c.status)), std::string::npos)
        << c.name << ": " << response;
    const auto body = body_of(response);
    EXPECT_EQ(error_code_of(body), c.code) << c.name << ": " << body;
    EXPECT_NE(body.find(c.needle), std::string::npos) << c.name << ": " << body;
  }
  // None of the abuse above wedged the daemon.
  const auto health = http_round_trip(server.port(), "GET /v1/health HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  server.stop();
}

TEST(Serve, PaddedContentLengthFramesTheSameBody) {
  // A header value may carry whitespace on either side of the number; the
  // padded header must frame the same 12-byte body a tight one does.
  ks::Server server(ks::ServeOptions{});
  server.start();
  const std::string body = R"({"jobs": []})";
  ASSERT_EQ(body.size(), 12u);
  const auto padded = http_round_trip(
      server.port(), "POST /v1/whatif HTTP/1.1\r\nContent-Length:  12 \r\n\r\n" + body);
  const auto tight = http_post(server.port(), "/v1/whatif", body);
  EXPECT_EQ(padded.substr(0, padded.find("\r\n")), tight.substr(0, tight.find("\r\n")));
  EXPECT_EQ(body_of(padded), body_of(tight));
  EXPECT_EQ(body_of(padded).find("Content-Length"), std::string::npos) << body_of(padded);
  server.stop();
}

TEST(Serve, ErrorEnvelopeEscapesHostileText) {
  // A body whose parse error embeds quotes/backslashes must still yield a
  // well-formed JSON envelope (the 500/400 path routes through util::Json).
  ks::Server server(ks::ServeOptions{});
  const auto response = server.handle(post("/v1/whatif", "{\"a\": \"\\x\" quote \" }"));
  EXPECT_EQ(response.status, 400);
  const auto doc = ku::Json::parse(response.body);  // throws if corrupt
  EXPECT_EQ(doc.at("api").as_string(), "v1");
  EXPECT_FALSE(doc.at("error").at("message").as_string().empty());
}

TEST(Serve, ServeCommandRejectsUnknownFlagsWithSuggestion) {
  const auto result = run_cli({"serve", "--prot", "0"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--prot"), std::string::npos);
  EXPECT_NE(result.err.find("--port"), std::string::npos) << result.err;
}

namespace {

/// Every leaf of `node` as "a.b.c:type", in key order.
void collect_key_paths(const ku::Json& node, const std::string& prefix,
                       std::vector<std::string>& out) {
  if (node.is_object()) {
    for (const auto& [key, child] : node.as_object()) {
      collect_key_paths(child, prefix.empty() ? key : prefix + "." + key, out);
    }
    return;
  }
  const char* type = node.is_bool() ? "bool" : node.is_number() ? "number"
                     : node.is_string() ? "string" : "other";
  out.push_back(prefix + ":" + type);
}

}  // namespace

// The /v1/stats document is an interface: dashboards and the benchmark
// driver read keys such as cache.hits and robustness.shed by name, so a
// renamed or dropped counter must fail here, not in a consumer.
TEST(Serve, StatsDocumentKeepsItsKeyPaths) {
  ks::Server server(ks::ServeOptions{});
  ASSERT_EQ(server.handle(post("/v1/whatif", kSmallScenario)).status, 200);
  std::vector<std::string> paths;
  collect_key_paths(ku::Json::parse(server.handle(get("/v1/stats")).body), "", paths);
  const std::vector<std::string> expected = {
      "api:string",
      "cache.capacity:number",
      "cache.entries:number",
      "cache.hits:number",
      "cache.misses:number",
      "errors:number",
      "models.registered:number",
      "requests:number",
      "robustness.admitted:number",
      "robustness.deadline_expired:number",
      "robustness.overloaded:bool",
      "robustness.queue.capacity:number",
      "robustness.queue.in_flight_cost:number",
      "robustness.queue.policy:string",
      "robustness.queue.shed_threshold:number",
      "robustness.rejected:number",
      "robustness.shed:number",
      "robustness.transport.accepted:number",
      "robustness.transport.body_timeouts:number",
      "robustness.transport.early_disconnects:number",
      "robustness.transport.header_timeouts:number",
      "robustness.transport.malformed:number",
      "robustness.transport.oversized:number",
      "robustness.transport.rejected_pending:number",
      "robustness.transport.write_aborts:number",
  };
  EXPECT_EQ(paths, expected);
}
