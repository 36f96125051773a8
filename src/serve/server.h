// `keddah serve`: a resident what-if query daemon.
//
// The batch CLI pays scenario parsing, model loading, and process startup
// on every question. The daemon parses its bank of trained models once at
// boot, answers Spec-API (api/specs.h) requests over embedded HTTP,
// and memoizes whole responses keyed by a content hash of (endpoint,
// canonical request, model), so repeated what-ifs — the common interactive
// pattern — return cached bytes.
//
// Endpoints (all JSON, wire format v1):
//   GET  /v1/health    liveness + the registered model names
//   GET  /v1/stats     request/cache/model-bank counters
//   POST /v1/whatif    scenario document -> core::run_scenario outcome
//   POST /v1/reproduce model sample + fabric replay (api::ReproduceRequest)
//   POST /v1/validate  model vs saved capture    (api::ValidateRequest)
//   POST /v1/shutdown  clean stop
//
// Determinism contract: a /v1/whatif response body is byte-identical to
// `keddah run-scenario --file X --json` for the same document — both sides
// are api::to_body(api::whatif_response(core::run_scenario(...))) and the
// daemon adds no request-dependent state to the body. The contract covers
// rejections too: a request body gets one validating read
// (api::read_whatif_request, the rule set keddah-lint and the CLI share),
// so a malformed scenario gets a 400 naming every defective key path, and
// its first diagnostic is the CLI's error line.
//
// Caching assumes the daemon's inputs are immutable for its lifetime: each
// model document is parsed and hashed once at boot (model::read_model, the
// loaders' and keddah-lint's rule set; a defective document stops the boot
// with its first diagnostic), and /v1/validate run files are re-read per
// miss but never invalidate earlier cache entries. Restart the daemon after
// retraining.
//
// Overload survival (DESIGN.md "Serving robustness"): the transport
// budgets every socket phase (408 on slow clients, 413 on oversized
// input, 429 past the connection bound), and this layer adds work-level
// admission — cold heavy requests pay endpoint cost units into a bounded
// budget (429 when full), overload mode sheds cold /v1/whatif-class work
// with 503 while health, stats, and cache hits keep answering, and a
// request that outlives its wall-clock budget is shed before its heavy
// work starts. Every non-200 is an api::ErrorCode envelope.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/keddah_model.h"
#include "serve/admission.h"
#include "serve/http.h"
#include "util/counters.h"
#include "util/json.h"
#include "util/mutex.h"

namespace keddah::util {
class Args;
}

namespace keddah::serve {

struct ServeOptions {
  /// Listen port; 0 asks the kernel for an ephemeral port.
  std::uint16_t port = 0;
  /// Connection/handler worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Standalone model files (each a KeddahModel JSON document).
  std::vector<std::string> model_files;
  /// Optional model-bank file ({"models": [...]}); every entry registers.
  std::string model_bank_file;
  /// Whole-response cache capacity (entries, LRU-evicted).
  std::size_t max_cache_entries = 128;

  // Robustness knobs (see DESIGN.md "Serving robustness"). Non-positive
  // timeouts disable that budget.
  /// Handler wall-clock budget per request (--request-timeout); a request
  /// that outlives it before its heavy work starts is shed with a 503.
  std::int64_t request_timeout_ms = 30000;
  /// Budget to receive the full header block (--header-timeout; 408).
  std::int64_t header_timeout_ms = 5000;
  /// Budget to receive the declared body (408).
  std::int64_t body_timeout_ms = 10000;
  /// SO_SNDTIMEO while writing a response (stalled readers).
  std::int64_t write_timeout_ms = 10000;
  /// How long stop() waits for in-flight requests (--drain-timeout).
  std::int64_t drain_timeout_ms = 5000;
  /// Accepted-but-unfinished connection bound (--max-pending; 429 beyond).
  std::size_t max_pending = 256;
  /// Admission budget in endpoint cost units (--queue-depth; 429 beyond).
  std::size_t queue_depth = 64;
  /// In-flight cost where overload mode starts; 0 = (3*queue_depth)/4.
  std::size_t shed_threshold = 0;
  /// What overload mode does to cold heavy work (--overload-policy).
  OverloadPolicy overload_policy = OverloadPolicy::kShed;
  /// Transport caps (413 beyond; not CLI-exposed, tests tighten them).
  std::size_t max_header_bytes = 1u << 20;
  std::size_t max_body_bytes = 64u << 20;
  /// SO_SNDBUF for accepted sockets; 0 = kernel default (chaos-test knob).
  std::size_t sndbuf_bytes = 0;
};

/// Point-in-time counters; /v1/stats is one of these rendered whole plus
/// its "api" tag. Totals are monotonic since construction; occupancy
/// (cache entries, queue) is instantaneous.
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t cache_entries = 0;
  std::size_t cache_capacity = 0;
  std::size_t models_registered = 0;
  /// Requests shed because they outlived their wall-clock budget (503).
  std::uint64_t deadline_expired = 0;
  /// Admission verdict counters and occupancy (429/503 sources).
  AdmissionController::Snapshot admission;
  /// Transport-level failures (408/413/429/400 before the handler).
  TransportStats transport;

  /// The /v1/stats layout; overload counters go under "robustness".
  template <typename Fn>
  void visit(Fn&& fn) const {
    fn("requests", requests);
    fn("errors", errors);
    fn("cache", util::CounterGroup{[this](auto&& group) {
      group("hits", cache_hits);
      group("misses", cache_misses);
      group("entries", cache_entries);
      group("capacity", cache_capacity);
    }});
    fn("models", util::CounterGroup{[this](auto&& group) {
      group("registered", models_registered);
    }});
    fn("robustness", util::CounterGroup{[this](auto&& group) {
      admission.visit(group);
      group("deadline_expired", deadline_expired);
      group("transport", transport);
    }});
  }
};

/// The daemon. Construction parses every model (throwing the first
/// diagnostic of a defective one); start()/stop() manage the HTTP front
/// end; handle() is the transport-free entry point tests and benches drive
/// in-process.
class Server {
 public:
  explicit Server(ServeOptions options);

  /// Answers one request. Thread-safe; usable without start().
  HttpResponse handle(const HttpRequest& request);

  /// Boots the HTTP listener.
  void start();
  /// The bound port (valid after construction).
  std::uint16_t port() const { return http_.port(); }

  /// Blocks until a /v1/shutdown request (or request_shutdown()) arrives.
  void wait_for_shutdown();
  /// Unblocks wait_for_shutdown().
  void request_shutdown();
  /// Stops the HTTP listener and drains in-flight requests. Idempotent.
  void stop();

  /// Registered model names, sorted.
  std::vector<std::string> model_names() const;

  /// Counter snapshot; /v1/stats renders exactly one of these.
  ServerStats stats() const EXCLUDES(stats_mutex_, cache_mutex_);

 private:
  /// A model parsed at boot, with the FNV-1a hash of the JSON document it
  /// was parsed from: part of every cache key that involves the model.
  struct RegisteredModel {
    model::KeddahModel model;
    std::uint64_t content_hash = 0;
  };
  using ModelRegistry = std::map<std::string, RegisteredModel>;

  /// Parses every --models file and --model-bank entry; throws
  /// std::invalid_argument with the first diagnostic of a defective one.
  static ModelRegistry load_models(const ServeOptions& options);
  /// The registered model called `name`, or nullptr.
  const RegisteredModel* find_model(const std::string& name) const;
  /// 404 for a request naming an unregistered model.
  HttpResponse unknown_model(const std::string& name) const;

  std::shared_ptr<const std::string> cache_lookup(std::uint64_t key) EXCLUDES(cache_mutex_);
  void cache_store(std::uint64_t key, const std::string& body) EXCLUDES(cache_mutex_);

  HttpResponse handle_whatif(const HttpRequest& request);
  HttpResponse handle_reproduce(const HttpRequest& request);
  HttpResponse handle_validate(const HttpRequest& request);
  /// The admission/deadline gate every cold heavy request passes after its
  /// cache lookup missed: queue-full -> 429, overload shed -> 503, expired
  /// wall-clock budget -> 503. Returns nullopt when the request may run
  /// (with `*ticket` holding its cost units).
  std::optional<HttpResponse> admit_cold_work(const HttpRequest& request,
                                              AdmissionController::Ticket* ticket);
  util::Json health_json() const;
  util::Json stats_json() const EXCLUDES(stats_mutex_, cache_mutex_);

  ServeOptions options_;
  /// Immutable after construction, so request threads read it unlocked.
  /// Parsed before the listener binds, so a defective model stops the boot.
  const ModelRegistry models_;
  HttpServer http_;
  AdmissionController admission_;

  // Capability map (see DESIGN.md "Concurrency model"): cache_mutex_
  // guards the response cache, stats_mutex_ the counters, shutdown_mutex_
  // the shutdown flag. stats_mutex_ is a leaf: it is acquired inside
  // cache_mutex_ (cache_lookup) and never the other way around.
  mutable util::Mutex cache_mutex_;
  std::list<std::uint64_t> cache_lru_ GUARDED_BY(cache_mutex_);  // front = MRU
  struct CacheEntry {
    // Shared so a cache hit hands out a refcount bump under cache_mutex_
    // instead of copying a multi-kilobyte response body while holding it.
    std::shared_ptr<const std::string> body;
    std::list<std::uint64_t>::iterator lru_it;
  };
  std::map<std::uint64_t, CacheEntry> cache_ GUARDED_BY(cache_mutex_);

  mutable util::Mutex stats_mutex_;
  /// The request/cache/model/deadline counters; the admission, transport
  /// and occupancy fields are filled in by stats() from their owners.
  ServerStats stats_ GUARDED_BY(stats_mutex_);

  util::Mutex shutdown_mutex_;
  util::CondVar shutdown_cv_;
  bool shutdown_requested_ GUARDED_BY(shutdown_mutex_) = false;
};

/// The `keddah serve` subcommand: builds ServeOptions from flags, boots the
/// daemon, prints the listen line ("keddah serve listening on
/// http://127.0.0.1:PORT"), and blocks until shutdown.
int run_serve_command(const util::Args& args, std::ostream& out, std::ostream& err);

}  // namespace keddah::serve
