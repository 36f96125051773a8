// perf_serve: throughput/latency of the `keddah serve` daemon under
// concurrent what-if load, plus the response-cache hit rate the interactive
// repeat-query pattern earns.
//
//   bench/perf_serve [--quick] [--clients N] [--out BENCH_serve.json]
//
// Drives serve::Server::handle() in-process (no sockets) from N client
// threads, the same entry point the HTTP front end dispatches to, so the
// numbers measure the daemon — lint, parse, run_scenario, cache — without
// kernel TCP noise. Each client cycles through a small pool of distinct
// scenarios (seed-varied copies of one template), so the load mixes cold
// misses with the warm repeats the cache exists for.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "util/json.h"
#include "util/strings.h"

namespace ks = keddah::serve;
namespace ku = keddah::util;

namespace {

/// One what-if body per distinct seed; small enough that a single answer is
/// milliseconds, so the bench finishes fast even in the sanitizer build.
std::string scenario_body(std::uint64_t seed) {
  return ku::format(
      R"({"seed": %llu,
  "cluster": {"racks": 2, "hosts_per_rack": 2, "block_size": "32 MB"},
  "jobs": [{"workload": "grep", "input": "64MB"},
           {"workload": "wordcount", "input": "32MB"}]})",
      static_cast<unsigned long long>(seed));
}

struct RunResult {
  double wall_s = 0;
  std::size_t requests = 0;
  std::vector<double> latencies_ms;  // sorted ascending after run()
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

RunResult run(std::size_t clients, std::size_t requests_per_client, std::size_t distinct) {
  ks::Server server(ks::ServeOptions{});

  // Pre-warm one scenario so the very first timed request isn't also paying
  // lazy one-time costs (thread pool spin-up inside run_scenario, etc.).
  server.handle(ks::HttpRequest{"POST", "/v1/whatif", scenario_body(0)});

  std::vector<std::string> bodies;
  bodies.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) bodies.push_back(scenario_body(i + 1));

  std::vector<std::vector<double>> per_client(clients);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& latencies = per_client[c];
      latencies.reserve(requests_per_client);
      for (std::size_t i = 0; i < requests_per_client; ++i) {
        // Clients stride through the pool from different offsets: every
        // body is first answered cold by someone, then served warm.
        const auto& body = bodies[(c + i) % bodies.size()];
        const auto t0 = std::chrono::steady_clock::now();
        const auto response = server.handle(ks::HttpRequest{"POST", "/v1/whatif", body});
        const auto t1 = std::chrono::steady_clock::now();
        if (response.status != 200) {
          std::fprintf(stderr, "request failed (%d): %s\n", response.status,
                       response.body.c_str());
          std::exit(1);
        }
        latencies.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.wall_s = std::chrono::duration<double>(end - start).count();
  for (const auto& latencies : per_client) {
    result.requests += latencies.size();
    result.latencies_ms.insert(result.latencies_ms.end(), latencies.begin(), latencies.end());
  }
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());

  const auto stats = server.stats();
  // Subtract the warm-up request's miss so the reported rate reflects the
  // timed window only.
  result.cache_hits = stats.cache_hits;
  result.cache_misses = stats.cache_misses - 1;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t clients = 8;
  std::size_t requests_per_client = 32;
  std::size_t distinct = 8;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      requests_per_client = 8;
      distinct = 4;
    }
    if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  if (clients == 0) clients = 1;

  const auto result = run(clients, requests_per_client, distinct);
  const double qps = static_cast<double>(result.requests) / result.wall_s;
  const double p50 = percentile(result.latencies_ms, 0.50);
  const double p99 = percentile(result.latencies_ms, 0.99);
  const double hit_rate =
      static_cast<double>(result.cache_hits) /
      static_cast<double>(result.cache_hits + result.cache_misses);

  std::printf("%-10s %10s %12s %12s %12s %10s\n", "clients", "requests", "qps", "p50_ms",
              "p99_ms", "hit_rate");
  std::printf("%-10zu %10zu %12.0f %12.3f %12.3f %10.3f\n", clients, result.requests, qps, p50,
              p99, hit_rate);

  const std::string json = ku::format(
      "{\n  \"clients\": %zu,\n  \"requests\": %zu,\n  \"distinct_scenarios\": %zu,\n"
      "  \"wall_s\": %.6f,\n  \"qps\": %.1f,\n  \"p50_latency_ms\": %.3f,\n"
      "  \"p99_latency_ms\": %.3f,\n  \"cache_hits\": %llu,\n  \"cache_misses\": %llu,\n"
      "  \"cache_hit_rate\": %.3f\n}\n",
      clients, result.requests, distinct, result.wall_s, qps, p50, p99,
      static_cast<unsigned long long>(result.cache_hits),
      static_cast<unsigned long long>(result.cache_misses), hit_rate);

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
