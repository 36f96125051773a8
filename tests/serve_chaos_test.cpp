// Chaos harness for the `keddah serve` overload-survival layer: hostile
// clients (slow-loris, torn framing, mid-response disconnects, stalled
// readers), admission bursts, overload shedding, deadline expiry, and
// drain-on-shutdown. Every case asserts the same contract: the daemon
// answers with the right api::ErrorCode envelope (never crashes, never
// hangs), /v1/health keeps answering, and the failure is visible in the
// stats counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos_client.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "util/json.h"

namespace kch = keddah::chaos;
namespace ks = keddah::serve;
namespace ku = keddah::util;

namespace {

/// A scenario that answers in well under a second; distinct seeds make
/// distinct cache keys, so each seed is a cold request exactly once.
std::string small_scenario(int seed, const std::string& input = "64MB") {
  std::ostringstream doc;
  doc << R"({"seed": )" << seed
      << R"(, "cluster": {"racks": 2, "hosts_per_rack": 2, "block_size": "32 MB"},)"
      << R"( "jobs": [{"workload": "grep", "input": ")" << input << R"("}]})";
  return doc.str();
}

/// A scenario whose heavy work takes long enough (hundreds of ms on this
/// hardware: a 32-host cluster pushing five 16 GB greps) that a probe
/// fired right after launch lands while it is still in flight.
std::string slow_scenario(int seed) {
  std::ostringstream doc;
  doc << R"({"seed": )" << seed
      << R"(, "cluster": {"racks": 4, "hosts_per_rack": 8, "block_size": "32 MB"},)"
      << R"( "jobs": [)";
  for (int i = 0; i < 5; ++i) {
    doc << (i == 0 ? "" : ",") << R"({"workload": "grep", "input": "16 GB"})";
  }
  doc << "]}";
  return doc.str();
}

/// A request that lints to a large 400: `jobs` entries each missing their
/// required "input", so the response carries one diagnostic row per job.
/// Computes in microseconds but serializes to hundreds of kilobytes — the
/// tool for wedging a response write without paying for simulation.
std::string lint_bomb(std::size_t jobs) {
  std::ostringstream doc;
  doc << R"({"seed": 1, "cluster": {"racks": 2, "hosts_per_rack": 2,)"
      << R"( "block_size": "32 MB"}, "jobs": [)";
  for (std::size_t i = 0; i < jobs; ++i) {
    doc << (i == 0 ? "" : ",") << R"({"workload": "grep"})";
  }
  doc << "]}";
  return doc.str();
}

ks::HttpRequest post(const std::string& path, const std::string& body) {
  return ks::HttpRequest{"POST", path, body};
}

ks::HttpRequest get(const std::string& path) { return ks::HttpRequest{"GET", path, ""}; }

std::string error_code_of(const std::string& body) {
  return ku::Json::parse(body).at("error").at("code").as_string();
}

bool error_retryable_of(const std::string& body) {
  return ku::Json::parse(body).at("error").at("retryable").as_bool();
}

/// Polls the server's counters until `pred(stats)` holds or ~5s elapse.
/// Counter ticks race the asserting thread (they land on pool workers), so
/// chaos assertions wait for them instead of reading once.
template <typename Pred>
bool eventually(const ks::Server& server, Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// The liveness probe every chaos case ends with: a fresh connection must
/// still get a 200 from /v1/health.
void expect_alive(const ks::Server& server, std::uint16_t port) {
  const auto health = kch::round_trip(port, kch::get_text("/v1/health"));
  EXPECT_EQ(kch::status_of(health), 200) << health;
  (void)server;
}

}  // namespace

// ---------------------------------------------------------------------------
// Admission verdicts are pure functions of in-flight cost — unit-level,
// no sockets, fully deterministic.

TEST(ChaosAdmission, RejectsAtCapacityAndReleasesWithTheTicket) {
  ks::AdmissionOptions options;
  options.capacity = 2;
  options.policy = ks::OverloadPolicy::kReject;
  ks::AdmissionController admission(options);

  ks::AdmissionController::Ticket first;
  EXPECT_EQ(admission.try_admit(2, &first), ks::AdmissionController::Verdict::kAdmit);
  EXPECT_TRUE(first.admitted());

  ks::AdmissionController::Ticket second;
  EXPECT_EQ(admission.try_admit(2, &second), ks::AdmissionController::Verdict::kReject);
  EXPECT_FALSE(second.admitted());

  // Zero-cost work (health, stats) is admitted even at capacity.
  ks::AdmissionController::Ticket pulse;
  EXPECT_EQ(admission.try_admit(0, &pulse), ks::AdmissionController::Verdict::kAdmit);

  { ks::AdmissionController::Ticket release = std::move(first); }
  ks::AdmissionController::Ticket third;
  EXPECT_EQ(admission.try_admit(2, &third), ks::AdmissionController::Verdict::kAdmit);

  const auto snapshot = admission.snapshot();
  EXPECT_EQ(snapshot.rejected, 1u);
  EXPECT_GE(snapshot.admitted, 2u);
}

TEST(ChaosAdmission, ShedPolicyDegradesBeforeCapacity) {
  ks::AdmissionOptions options;
  options.capacity = 8;
  options.shed_threshold = 2;
  options.policy = ks::OverloadPolicy::kShed;
  ks::AdmissionController admission(options);

  ks::AdmissionController::Ticket held;
  ASSERT_EQ(admission.try_admit(2, &held), ks::AdmissionController::Verdict::kAdmit);
  EXPECT_TRUE(admission.snapshot().overloaded);

  // Capacity remains (2 + 2 <= 8) but overload mode sheds instead.
  ks::AdmissionController::Ticket cold;
  EXPECT_EQ(admission.try_admit(2, &cold), ks::AdmissionController::Verdict::kShed);
  EXPECT_EQ(admission.snapshot().shed, 1u);

  // kNone is the escape hatch: same load, everything admitted.
  options.policy = ks::OverloadPolicy::kNone;
  ks::AdmissionController open(options);
  ks::AdmissionController::Ticket a, b, c;
  EXPECT_EQ(open.try_admit(2, &a), ks::AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(open.try_admit(2, &b), ks::AdmissionController::Verdict::kAdmit);
  EXPECT_EQ(open.try_admit(2, &c), ks::AdmissionController::Verdict::kAdmit);
}

// ---------------------------------------------------------------------------
// Socket-level abuse against a live daemon.

TEST(ChaosTransport, SlowLorisHeaderGets408NotAWedgedWorker) {
  ks::ServeOptions options;
  options.header_timeout_ms = 300;  // tight budget so the test is quick
  ks::Server server(options);
  server.start();

  const int fd = kch::connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // A reader thread holds the socket open so the 408 is captured even
  // after the server closes its end mid-dribble.
  std::string response;
  std::thread reader([&] { response = kch::recv_response(fd, 5000); });
  // Drip 2 bytes every 50 ms: each read gets fresh data, so only an
  // *overall* header deadline (not a per-read timer) can fire.
  const std::string drip =
      "POST /v1/whatif HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Pad: " + std::string(80, 'a');
  kch::send_dribble(fd, drip, 2, 50);
  reader.join();
  ::close(fd);

  EXPECT_EQ(kch::status_of(response), 408) << response;
  EXPECT_EQ(error_code_of(kch::body_of(response)), "request_timeout");
  EXPECT_TRUE(error_retryable_of(kch::body_of(response)));
  EXPECT_TRUE(kch::has_header(response, "Retry-After:"));
  EXPECT_TRUE(eventually(server, [](const ks::ServerStats& s) {
    return s.transport.header_timeouts >= 1;
  }));
  expect_alive(server, server.port());
  server.stop();
}

TEST(ChaosTransport, EarlyDisconnectsAreCountedNotFatal) {
  ks::Server server(ks::ServeOptions{});
  server.start();

  // A port-scan style probe: connect, say nothing, vanish.
  int fd = kch::connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  ::close(fd);
  EXPECT_TRUE(eventually(server, [](const ks::ServerStats& s) {
    return s.transport.early_disconnects >= 1;
  }));

  // A torn request: partial header, then a full close. The server answers
  // the framing defect (the peer may still be reading) and moves on.
  fd = kch::connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  kch::send_all(fd, "POST /v1/whatif HTTP/1.1\r\nContent-");
  ::close(fd);
  EXPECT_TRUE(eventually(server, [](const ks::ServerStats& s) {
    return s.transport.malformed >= 1;
  }));
  expect_alive(server, server.port());
  server.stop();
}

TEST(ChaosTransport, PeerClosingMidResponseIsAnEpipeNotASigpipe) {
  ks::ServeOptions options;
  options.sndbuf_bytes = 4096;  // force multiple send() calls per response
  ks::Server server(options);
  server.start();

  // The lint bomb makes the response far larger than both socket buffers;
  // closing without reading guarantees a send() fails mid-body. Without
  // MSG_NOSIGNAL that failure is a SIGPIPE and this whole test binary dies.
  const int fd = kch::connect_tiny_rcvbuf(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(kch::send_all(fd, kch::post_text("/v1/whatif", lint_bomb(4000))));
  ::close(fd);

  EXPECT_TRUE(eventually(server, [](const ks::ServerStats& s) {
    return s.transport.write_aborts >= 1;
  }));
  expect_alive(server, server.port());
  server.stop();
}

TEST(ChaosTransport, StalledReaderHitsTheWriteBudget) {
  ks::ServeOptions options;
  options.sndbuf_bytes = 4096;
  options.write_timeout_ms = 250;  // SO_SNDTIMEO: a dead reader costs <1s
  ks::Server server(options);
  server.start();

  // Send a request whose response cannot fit in the socket buffers, then
  // never read a byte. The worker must abandon the write at the budget
  // instead of blocking on send() forever.
  const int fd = kch::connect_tiny_rcvbuf(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(kch::send_all(fd, kch::post_text("/v1/whatif", lint_bomb(4000))));
  EXPECT_TRUE(eventually(server, [](const ks::ServerStats& s) {
    return s.transport.write_aborts >= 1;
  }));
  ::close(fd);
  expect_alive(server, server.port());
  server.stop();
}

TEST(ChaosTransport, ConnectionBoundAnswers429FromTheAcceptLoop) {
  ks::ServeOptions options;
  options.max_pending = 1;
  options.header_timeout_ms = 3000;
  ks::Server server(options);
  server.start();

  // Occupy the single slot with a connection that sends a partial header
  // and stalls (it holds the slot until its header budget lapses).
  const int holder = kch::connect_loopback(server.port());
  ASSERT_GE(holder, 0);
  kch::send_all(holder, "GET /v1/health HTTP/1.1\r\n");
  ASSERT_TRUE(eventually(server, [](const ks::ServerStats& s) {
    return s.transport.accepted >= 1;
  }));

  const auto rejected = kch::round_trip(server.port(), kch::get_text("/v1/health"));
  EXPECT_EQ(kch::status_of(rejected), 429) << rejected;
  EXPECT_EQ(error_code_of(kch::body_of(rejected)), "queue_full");
  EXPECT_TRUE(kch::has_header(rejected, "Retry-After:"));
  EXPECT_GE(server.stats().transport.rejected_pending, 1u);

  // Release the slot; the daemon recovers and health answers again.
  ::close(holder);
  EXPECT_TRUE(eventually(server, [](const ks::ServerStats& s) {
    return s.transport.malformed + s.transport.early_disconnects >= 1;
  }));
  expect_alive(server, server.port());
  server.stop();
}

// ---------------------------------------------------------------------------
// Policy-level overload behaviour (in-process, no sockets needed).

TEST(ChaosOverload, ShedsColdWorkButServesCacheHitsAndHealth) {
  ks::ServeOptions options;
  options.queue_depth = 8;
  options.shed_threshold = 1;  // any in-flight heavy work = overload mode
  options.overload_policy = ks::OverloadPolicy::kShed;
  ks::Server server(options);

  // Warm the cache with one scenario; overload mode must keep serving it.
  const std::string warm = small_scenario(1);
  ASSERT_EQ(server.handle(post("/v1/whatif", warm)).status, 200);

  // A background request holds in-flight cost while probes land. The slow
  // scenario runs for hundreds of ms; retry a few rounds in case a probe
  // ever misses the window on a loaded machine.
  bool saw_shed = false;
  for (int round = 0; round < 5 && !saw_shed; ++round) {
    std::atomic<bool> done{false};
    std::thread background([&, round] {
      server.handle(post("/v1/whatif", slow_scenario(100 + round)));
      done.store(true);
    });
    // Probe only once the background request holds its admission ticket;
    // otherwise a fast probe can win the admission race, get the 200, and
    // shed the *background* request instead.
    while (!done.load() && server.stats().admission.in_flight_cost == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    int cold_seed = 1000 + 100 * round;
    while (!done.load()) {
      const auto health = server.handle(get("/v1/health"));
      EXPECT_EQ(health.status, 200);
      const auto cached = server.handle(post("/v1/whatif", warm));
      EXPECT_EQ(cached.status, 200) << "cache hits must survive overload";
      const auto cold = server.handle(post("/v1/whatif", small_scenario(cold_seed++)));
      if (cold.status == 503) {
        EXPECT_EQ(error_code_of(cold.body), "overloaded");
        EXPECT_TRUE(error_retryable_of(cold.body));
        saw_shed = true;
        break;
      }
      EXPECT_EQ(cold.status, 200) << cold.body;
    }
    background.join();
  }
  EXPECT_TRUE(saw_shed) << "no probe ever landed during the slow request";
  EXPECT_GE(server.stats().admission.shed, 1u);

  // Load gone: the same cold work is admitted again.
  EXPECT_EQ(server.handle(post("/v1/whatif", small_scenario(9999))).status, 200);
}

TEST(ChaosOverload, ExpiredDeadlineIsShedBeforeExecution) {
  ks::Server server(ks::ServeOptions{});
  const std::string warm = small_scenario(1);
  ASSERT_EQ(server.handle(post("/v1/whatif", warm)).status, 200);

  ks::HttpRequest late = post("/v1/whatif", small_scenario(2));
  late.deadline = ku::Deadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(late.deadline.expired());

  const auto shed = server.handle(late);
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(error_code_of(shed.body), "deadline_exceeded");
  EXPECT_EQ(server.stats().deadline_expired, 1u);

  // A cache hit is served even past the budget: answering costs less than
  // rejecting.
  ks::HttpRequest late_hit = post("/v1/whatif", warm);
  late_hit.deadline = ku::Deadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.handle(late_hit).status, 200);
}

TEST(ChaosOverload, BurstOfColdWorkNeverCrashesOrHangs) {
  ks::ServeOptions options;
  options.queue_depth = 4;  // 2 cost units per whatif: ~2 admitted at once
  options.threads = 4;
  options.overload_policy = ks::OverloadPolicy::kShed;
  ks::Server server(options);
  server.start();

  // A 4x-overload burst: 16 distinct cold requests against a queue that
  // admits ~2. Every client must get a definitive answer — 200, 429, or a
  // 503 envelope — and the daemon must still be standing.
  constexpr int kClients = 16;
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const auto response = kch::round_trip(
          server.port(), kch::post_text("/v1/whatif", small_scenario(5000 + i)), 30000);
      statuses[i] = kch::status_of(response);
    });
  }
  for (auto& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(statuses[i] == 200 || statuses[i] == 429 || statuses[i] == 503)
        << "client " << i << " got " << statuses[i];
  }
  const auto stats = server.stats();
  EXPECT_GE(stats.requests, static_cast<std::uint64_t>(kClients));
  expect_alive(server, server.port());
  server.stop();
}

// ---------------------------------------------------------------------------
// Shutdown drains in-flight work.

TEST(ChaosShutdown, StopDrainsAnInFlightRequestToCompletion) {
  ks::ServeOptions options;
  options.drain_timeout_ms = 10000;
  ks::Server server(options);
  server.start();

  // The client fires a cold (slow) request; stop() lands while it is in
  // flight and must wait for the response to be written, not cut it off.
  std::string response;
  std::thread client([&] {
    response = kch::round_trip(server.port(),
                               kch::post_text("/v1/whatif", slow_scenario(42)), 30000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.stop();
  client.join();

  EXPECT_EQ(kch::status_of(response), 200) << response;
  // The body survived the shutdown intact (parses as a whatif outcome).
  const auto doc = ku::Json::parse(kch::body_of(response));
  EXPECT_TRUE(doc.contains("makespan_s") || doc.contains("kind")) << kch::body_of(response);
}
