// whatif-serve: serve::Server in process on an ephemeral loopback port with
// 2 workers, driven over real sockets by 2 closed-loop clients (one
// connection per request, as the daemon closes after each response).
//
// Each client owns its request bodies, so whether a request hits the cache
// is known in advance: every body is sent once cold (a miss: lint, then the
// hadoop + net simulation) and then 9 more times (hits: lint and a cache
// lookup). Bodies are seed-varied /v1/whatif scenarios on the 4x4 cluster,
// rotating through no fault, crash, outage and degrade_link.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <memory>
#include <thread>

#include "api/specs.h"
#include "bench.h"
#include "keddah/scenario.h"
#include "lint/lint.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/strings.h"

namespace kbench {

namespace {

namespace kd = keddah;
using keddah::util::Json;

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBodiesPerClient = 150;
constexpr std::size_t kSendsPerBody = 10;  // 1 miss + 9 hits
constexpr std::size_t kInProcessSamples = 8;
constexpr std::size_t kInProcessHits = 50;
constexpr const char* kSchedulerCounters[] = {"reshares", "solves", "links_touched",
                                              "flows_rerated", "heap_ops"};

/// The /v1/whatif body for (seed, client, index): sort 2 GB + grep 512 MB
/// on 4 racks x 4 hosts, with a fault chosen by index % 4.
std::string whatif_body(std::uint64_t seed, std::size_t client, std::size_t index) {
  kd::util::Rng rng(kd::util::derive_seed(seed, client * kBodiesPerClient + index));
  const std::uint64_t scenario_seed = rng.uniform_int(1, 1u << 30);
  const int worker = static_cast<int>(rng.uniform_int(1, 15));  // worker 0 hosts the master
  const double at = rng.uniform(2.0, 10.0);
  const double duration = rng.uniform(5.0, 15.0);
  const double factor = rng.uniform(0.1, 0.5);
  std::string fault;
  switch (index % 4) {
    case 0:
      break;
    case 1:
      fault = kd::util::format(R"({"kind": "crash", "worker": %d, "at": %.3f})", worker, at);
      break;
    case 2:
      fault = kd::util::format(
          R"({"kind": "outage", "worker": %d, "at": %.3f, "duration": %.3f})", worker, at,
          duration);
      break;
    default:
      fault = kd::util::format(
          R"({"kind": "degrade_link", "worker": %d, "at": %.3f, "duration": %.3f, "factor": %.3f})",
          worker, at, duration, factor);
      break;
  }
  return kd::util::format(
      R"({"seed": %llu, "cluster": {"racks": 4, "hosts_per_rack": 4},
 "jobs": [{"workload": "sort", "input": "2 GB"}, {"workload": "grep", "input": "512 MB"}],
 "faults": [%s]})",
      static_cast<unsigned long long>(scenario_seed), fault.c_str());
}

struct HttpResult {
  int status = 0;
  std::string body;
};

/// One request on a fresh loopback connection; status 0 on transport
/// failure.
HttpResult http_call(std::uint16_t port, const std::string& method, const std::string& path,
                     const std::string& body) {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return result;
  }
  const std::string request = method + " " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Type: application/json\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
                              body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return result;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto space = response.find(' ');
  const auto split = response.find("\r\n\r\n");
  if (space == std::string::npos || split == std::string::npos) return result;
  result.status = std::atoi(response.c_str() + space + 1);
  result.body = response.substr(split + 4);
  return result;
}

/// What one client saw in one pass.
struct ClientLog {
  std::vector<double> miss_ms;
  std::vector<double> hit_ms;
  std::vector<std::string> miss_bodies;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> requests;
  std::uint64_t non_200 = 0;
  std::uint64_t hit_mismatches = 0;
};

void run_client(std::uint16_t port, const std::vector<std::string>& bodies, ClientLog& log) {
  log.miss_bodies.reserve(bodies.size());
  log.requests.reserve(bodies.size() * kSendsPerBody);
  for (const auto& body : bodies) {
    for (std::size_t k = 0; k < kSendsPerBody; ++k) {
      const auto t0 = Clock::now();
      HttpResult response = http_call(port, "POST", "/v1/whatif", body);
      const auto t1 = Clock::now();
      log.requests.emplace_back(t0, t1);
      const double ms = 1e3 * seconds_between(t0, t1);
      if (response.status != 200) ++log.non_200;
      if (k == 0) {
        log.miss_ms.push_back(ms);
        log.miss_bodies.push_back(std::move(response.body));
      } else {
        log.hit_ms.push_back(ms);
        if (response.body != log.miss_bodies.back()) ++log.hit_mismatches;
      }
    }
  }
}

/// Times `fn` in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return 1e3 * seconds_since(t0);
}

}  // namespace

Report run_whatif_serve(const Options& options, Tracer& tracer) {
  Report report;
  std::vector<std::vector<std::string>> bodies(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < kBodiesPerClient; ++i) {
      bodies[c].push_back(whatif_body(options.seed, c, i));
    }
  }
  const std::uint64_t plan_misses = kClients * kBodiesPerClient;
  const std::uint64_t plan_hits = plan_misses * (kSendsPerBody - 1);

  std::vector<double> setups, pass_s, flow_rates, qps, miss_ms, hit_ms, coverages;
  Json first_record;
  Json first_stats;

  run_passes(options.seconds, [&](std::size_t pass) {
    kd::serve::ServeOptions serve_options;
    serve_options.port = 0;
    serve_options.threads = kWorkers;
    const auto setup_start = Clock::now();
    auto server = std::make_unique<kd::serve::Server>(serve_options);
    server->start();
    setups.push_back(seconds_since(setup_start));
    const std::uint16_t port = server->port();

    std::vector<ClientLog> logs(kClients);
    const auto pass_start = Clock::now();
    const int root = tracer.open("serve.pass");
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(run_client, port, std::cref(bodies[c]), std::ref(logs[c]));
    }
    for (auto& t : clients) t.join();
    const auto pass_end = Clock::now();
    tracer.close(root);
    const double timed = seconds_between(pass_start, pass_end);

    const HttpResult stats = http_call(port, "GET", "/v1/stats", "");
    server->stop();
    server.reset();

    // Per-request spans, one group per client (the request's identifier
    // is its client and position).
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const auto& [start, end] : logs[c].requests) {
        tracer.add_span("serve.request", start, end, root, static_cast<int>(c));
      }
    }
    if (tracer.enabled()) coverages.push_back(tracer.coverage(root));

    std::uint64_t non_200 = 0, mismatches = 0, flows = 0;
    double miss_total_s = 0.0;
    Digest digest;
    std::map<std::string, std::uint64_t> scheduler;
    for (std::size_t c = 0; c < kClients; ++c) {
      const ClientLog& log = logs[c];
      non_200 += log.non_200;
      mismatches += log.hit_mismatches;
      for (const double ms : log.miss_ms) miss_total_s += ms / 1e3;
      miss_ms.insert(miss_ms.end(), log.miss_ms.begin(), log.miss_ms.end());
      hit_ms.insert(hit_ms.end(), log.hit_ms.begin(), log.hit_ms.end());
      for (const auto& body : log.miss_bodies) {
        digest.add(body);
        try {
          const Json doc = Json::parse(body);
          flows += static_cast<std::uint64_t>(doc.at("trace").at("flows").as_number());
          for (const char* key : kSchedulerCounters) {
            scheduler[key] += static_cast<std::uint64_t>(doc.at("scheduler").at(key).as_number());
          }
        } catch (const std::exception& e) {
          report.check(false, std::string("unparseable whatif response: ") + e.what());
        }
      }
    }
    const std::uint64_t requests = plan_misses + plan_hits;
    report.attempted += requests;
    report.failed += non_200 + mismatches;
    report.check(non_200 == 0, std::to_string(non_200) + " responses were not 200");
    report.check(mismatches == 0,
                 std::to_string(mismatches) + " cache hits differ from their miss body");

    Json stats_doc;
    try {
      stats_doc = Json::parse(stats.body);
      const Json& cache = stats_doc.at("cache");
      const Json& robust = stats_doc.at("robustness");
      report.check(static_cast<std::uint64_t>(cache.at("hits").as_number()) == plan_hits &&
                       static_cast<std::uint64_t>(cache.at("misses").as_number()) == plan_misses,
                   "/v1/stats hit/miss counts differ from the client plan");
      report.check(robust.at("rejected").as_number() == 0 && robust.at("shed").as_number() == 0,
                   "admission refused work (429/503)");
    } catch (const std::exception& e) {
      report.check(false, std::string("/v1/stats unreadable: ") + e.what());
    }

    pass_s.push_back(timed);
    flow_rates.push_back(static_cast<double>(flows) / miss_total_s);
    qps.push_back(static_cast<double>(requests) / timed);

    Json record = Json::object();
    record["responses_digest"] = Json(digest.hex());
    record["capture.records"] = Json(flows);
    for (const auto& [key, total] : scheduler) record["net." + key] = Json(total);
    if (pass == 0) {
      first_record = record;
      first_stats = stats_doc;
      // CLI <-> daemon bit identity on a sample: one body of each fault
      // kind, answered in process exactly as `keddah run-scenario --json`.
      for (std::size_t i = 0; i < 4; ++i) {
        const auto whatif = kd::api::parse_whatif_request(Json::parse(bodies[0][i]), "request");
        const std::string cli =
            kd::api::to_body(kd::api::whatif_response(kd::core::run_scenario(whatif.scenario)));
        report.check(cli == logs[0].miss_bodies[i],
                     "daemon body " + std::to_string(i) + " differs from the CLI body");
      }
    } else {
      check_repeat(report, first_record, record, pass);
    }
    return timed;
  });

  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("pass_s", median(pass_s), "s");
  report.pass_seconds = pass_s;
  report.setup_seconds = setups;
  report.metric("flows_per_s", median(flow_rates), "1/s");
  report.metric("whatif_miss_p50_ms", percentile(miss_ms, 0.5), "ms");
  report.metric("whatif_miss_p90_ms", percentile(miss_ms, 0.9), "ms");
  report.metric("serve_qps", median(qps), "1/s");
  report.metric("serve.hit_p50_ms", percentile(hit_ms, 0.5), "ms");
  report.metric("serve.hit_p90_ms", percentile(hit_ms, 0.9), "ms");
  report.record = first_record;

  if (tracer.enabled()) {
    // In-process split of one request into its layers, on a sample of the
    // bodies: parse, lint and simulate directly, then Server::handle on a
    // server with no listener (cold, then warm).
    std::vector<double> parse_ms, lint_ms, run_ms, handle_miss_ms, handle_hit_ms;
    kd::serve::ServeOptions serve_options;
    serve_options.threads = kWorkers;
    kd::serve::Server server(serve_options);
    for (std::size_t i = 0; i < kInProcessSamples; ++i) {
      const std::string& body = bodies[i % kClients][i];
      Json doc;
      kd::api::WhatIfRequest whatif;
      lint_ms.push_back(time_ms([&] {
        doc = Json::parse(body);
        std::vector<kd::lint::Diagnostic> diagnostics;
        kd::lint::lint_scenario(doc, "request", diagnostics);
      }));
      parse_ms.push_back(time_ms([&] { whatif = kd::api::parse_whatif_request(doc, "request"); }));
      run_ms.push_back(time_ms([&] { kd::core::run_scenario(whatif.scenario); }));
      const kd::serve::HttpRequest request{"POST", "/v1/whatif", body};
      handle_miss_ms.push_back(time_ms([&] { server.handle(request); }));
      for (std::size_t k = 0; k < kInProcessHits; ++k) {
        handle_hit_ms.push_back(time_ms([&] { server.handle(request); }));
      }
    }
    report.metric("api.parse_ms", median(parse_ms), "ms");
    report.metric("lint.scenario_ms", median(lint_ms), "ms");
    report.metric("keddah.run_scenario_ms", median(run_ms), "ms");
    report.metric("serve.handle_ms.miss", median(handle_miss_ms), "ms");
    report.metric("serve.handle_ms.hit", median(handle_hit_ms), "ms");
    report.metric("serve.transport_ms", percentile(hit_ms, 0.5) - median(handle_hit_ms), "ms");
    const Json& cache = first_stats.at("cache");
    const Json& robust = first_stats.at("robustness");
    report.metric("serve.cache_hits", cache.at("hits").as_number(), "count");
    report.metric("serve.cache_misses", cache.at("misses").as_number(), "count");
    report.metric("serve.admission_shed", robust.at("shed").as_number(), "count");
    report.metric("serve.admission_rejected", robust.at("rejected").as_number(), "count");
    report.metric("capture.records", first_record.at("capture.records").as_number(), "count");
    for (const char* key : kSchedulerCounters) {
      const std::string name = std::string("net.") + key;
      report.metric(name, first_record.at(name).as_number(), "count");
    }
    report.metric("trace.coverage", *std::min_element(coverages.begin(), coverages.end()),
                  "ratio");
  }
  return report;
}

}  // namespace kbench
