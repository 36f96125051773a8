#include "serve/server.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "api/error.h"
#include "api/specs.h"
#include "keddah/scenario.h"
#include "keddah/toolchain.h"
#include "model/model_bank.h"
#include "util/args.h"
#include "util/diagnostic.h"
#include "util/field_reader.h"
#include "util/strings.h"

namespace keddah::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash = kFnvOffset) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Cache key: endpoint, canonical (compact, key-sorted) request, and the
/// content hash of any model involved. NUL separators keep field
/// boundaries unambiguous.
std::uint64_t cache_key(std::string_view endpoint, std::string_view canonical,
                        std::uint64_t model_hash) {
  std::uint64_t hash = fnv1a(endpoint);
  hash = fnv1a(std::string_view("\0", 1), hash);
  hash = fnv1a(canonical, hash);
  hash = fnv1a(std::string_view("\0", 1), hash);
  for (int i = 0; i < 8; ++i) {
    const char byte = static_cast<char>((model_hash >> (8 * i)) & 0xff);
    hash = fnv1a(std::string_view(&byte, 1), hash);
  }
  return hash;
}

HttpResponse json_response(int status, const util::Json& doc) {
  return HttpResponse{status, "application/json", api::to_body(doc), 0};
}

/// An api::ErrorCode envelope response; retryable codes carry a fixed
/// Retry-After so response bytes stay deterministic.
HttpResponse error_response(api::ErrorCode code, const std::string& message,
                            util::Json details = util::Json()) {
  HttpResponse response;
  response.status = api::error_http_status(code);
  response.body = api::error_body(code, message, std::move(details));
  if (api::error_retryable(code)) response.retry_after_s = 1;
  return response;
}

/// A details object with just a hint string.
util::Json hint_details(const std::string& hint) {
  util::Json details = util::Json::object();
  details["hint"] = util::Json(hint);
  return details;
}

HttpResponse spec_error_response(const api::SpecError& error) {
  return error_response(api::ErrorCode::kSpecInvalid, error.what(),
                        util::diagnostic_json(error.diagnostic()));
}

/// 400 listing every error of a request's validating read with its key
/// path, keddah-lint style.
HttpResponse lint_error_response(const std::vector<util::Diagnostic>& diagnostics) {
  util::Json rows = util::Json::array();
  for (const auto& d : diagnostics) {
    if (d.severity == util::Severity::kError) rows.push_back(util::diagnostic_json(d));
  }
  util::Json details = util::Json::object();
  details["diagnostics"] = std::move(rows);
  return error_response(api::ErrorCode::kLintRejected, "request failed lint",
                        std::move(details));
}

bool has_errors(const std::vector<util::Diagnostic>& diagnostics) {
  return std::any_of(diagnostics.begin(), diagnostics.end(), [](const util::Diagnostic& d) {
    return d.severity == util::Severity::kError;
  });
}

HttpOptions http_options_from(const ServeOptions& options) {
  HttpOptions http;
  http.port = options.port;
  http.threads = options.threads;
  http.header_timeout_ms = options.header_timeout_ms;
  http.body_timeout_ms = options.body_timeout_ms;
  http.write_timeout_ms = options.write_timeout_ms;
  http.handler_budget_ms = options.request_timeout_ms;
  http.max_header_bytes = options.max_header_bytes;
  http.max_body_bytes = options.max_body_bytes;
  http.max_pending = options.max_pending;
  http.drain_timeout_ms = options.drain_timeout_ms;
  http.sndbuf_bytes = options.sndbuf_bytes;
  return http;
}

AdmissionOptions admission_options_from(const ServeOptions& options) {
  AdmissionOptions admission;
  admission.capacity = options.queue_depth;
  admission.shed_threshold = options.shed_threshold;
  admission.policy = options.overload_policy;
  return admission;
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      models_(load_models(options_)),
      http_(http_options_from(options_)),
      admission_(admission_options_from(options_)) {
  if (options_.max_cache_entries == 0) options_.max_cache_entries = 1;
}

Server::ModelRegistry Server::load_models(const ServeOptions& options) {
  ModelRegistry models;
  const auto add = [&](const model::KeddahModel& model, const util::Json& doc) {
    // Distinct models sharing a job name stay addressable via "#2", "#3", ...
    std::string name = model.job_name();
    for (std::size_t n = 2; models.count(name) != 0; ++n) {
      name = util::format("%s#%zu", model.job_name().c_str(), n);
    }
    models.emplace(std::move(name), RegisteredModel{model, fnv1a(doc.dump(-1))});
  };
  // A file holding {"models": [...]} registers every bank entry.
  const auto load = [&](const std::string& path, bool bank) {
    const util::Json doc = util::Json::load_file(path);
    std::vector<util::Diagnostic> diagnostics;
    util::FieldReader reader(path, diagnostics);
    if (bank || doc.contains("models")) {
      const model::ModelBank entries = model::read_model_bank(doc, reader);
      reader.throw_first_error();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        add(entries.at(i), doc.at("models").at(i));
      }
    } else {
      const model::KeddahModel model = model::read_model(doc, reader);
      reader.throw_first_error();
      add(model, doc);
    }
  };
  for (const auto& path : options.model_files) load(path, /*bank=*/false);
  if (!options.model_bank_file.empty()) load(options.model_bank_file, /*bank=*/true);
  return models;
}

const Server::RegisteredModel* Server::find_model(const std::string& name) const {
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : &it->second;
}

HttpResponse Server::unknown_model(const std::string& name) const {
  return error_response(api::ErrorCode::kNotFound, "unknown model '" + name + "'",
                        hint_details("registered models: " + util::join(model_names(), ", ")));
}

std::vector<std::string> Server::model_names() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, entry] : models_) names.push_back(name);
  return names;
}

ServerStats Server::stats() const {
  ServerStats stats;
  {
    util::MutexLock lock(&stats_mutex_);
    stats = stats_;
  }
  stats.admission = admission_.snapshot();
  stats.transport = http_.transport_stats();
  {
    util::MutexLock lock(&cache_mutex_);
    stats.cache_entries = cache_.size();
  }
  stats.cache_capacity = options_.max_cache_entries;
  stats.models_registered = models_.size();
  return stats;
}

// keddah:hot(cache-hit)
std::shared_ptr<const std::string> Server::cache_lookup(std::uint64_t key) {
  util::MutexLock lock(&cache_mutex_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    util::MutexLock stats_lock(&stats_mutex_);
    ++stats_.cache_misses;
    return nullptr;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
  {
    util::MutexLock stats_lock(&stats_mutex_);
    ++stats_.cache_hits;
  }
  // A hit hands out the stored body by refcount bump; the byte copy into
  // the HTTP response happens outside cache_mutex_.
  return it->second.body;
}

void Server::cache_store(std::uint64_t key, const std::string& body) {
  // The miss path allocates once per distinct response; eviction keeps the
  // map bounded at max_cache_entries.
  auto shared = std::make_shared<const std::string>(body);
  util::MutexLock lock(&cache_mutex_);
  if (cache_.count(key) != 0) return;  // a concurrent miss computed it first
  cache_lru_.push_front(key);
  cache_[key] = CacheEntry{std::move(shared), cache_lru_.begin()};
  while (cache_.size() > options_.max_cache_entries) {
    cache_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
}

std::optional<HttpResponse> Server::admit_cold_work(const HttpRequest& request,
                                                    AdmissionController::Ticket* ticket) {
  const std::size_t cost = AdmissionController::endpoint_cost(request.path);
  switch (admission_.try_admit(cost, ticket)) {
    case AdmissionController::Verdict::kReject: {
      const auto snapshot = admission_.snapshot();
      util::Json details = util::Json::object();
      details["queue_capacity"] = util::Json(static_cast<std::uint64_t>(snapshot.capacity));
      details["in_flight_cost"] =
          util::Json(static_cast<std::uint64_t>(snapshot.in_flight_cost));
      return error_response(api::ErrorCode::kQueueFull,
                            "admission queue at capacity; retry after backoff",
                            std::move(details));
    }
    case AdmissionController::Verdict::kShed:
      return error_response(api::ErrorCode::kOverloaded,
                            "overloaded: shedding cold " + request.path +
                                " work (cache hits, /v1/health and /v1/stats "
                                "still answer)");
    case AdmissionController::Verdict::kAdmit: break;
  }
  // Deadline-aware shedding: a request that already sat past its
  // wall-clock budget (typically queue time under overload) is turned
  // away before its heavy work starts — the client has likely given up,
  // and running it anyway would only deepen the overload.
  if (request.deadline.expired()) {
    {
      util::MutexLock lock(&stats_mutex_);
      ++stats_.deadline_expired;
    }
    return error_response(api::ErrorCode::kDeadlineExceeded,
                          "request outlived its wall-clock budget before "
                          "execution started");
  }
  return std::nullopt;
}

HttpResponse Server::handle(const HttpRequest& request) {
  {
    util::MutexLock lock(&stats_mutex_);
    ++stats_.requests;
  }
  HttpResponse response;
  try {
    if (request.path == "/v1/health") {
      response = request.method == "GET"
                     ? json_response(200, health_json())
                     : error_response(api::ErrorCode::kMethodNotAllowed,
                                      "use GET " + request.path);
    } else if (request.path == "/v1/stats") {
      response = request.method == "GET"
                     ? json_response(200, stats_json())
                     : error_response(api::ErrorCode::kMethodNotAllowed,
                                      "use GET " + request.path);
    } else if (request.path == "/v1/whatif") {
      response = request.method == "POST" ? handle_whatif(request)
                                          : error_response(api::ErrorCode::kMethodNotAllowed,
                                                           "use POST " + request.path);
    } else if (request.path == "/v1/reproduce") {
      response = request.method == "POST" ? handle_reproduce(request)
                                          : error_response(api::ErrorCode::kMethodNotAllowed,
                                                           "use POST " + request.path);
    } else if (request.path == "/v1/validate") {
      response = request.method == "POST" ? handle_validate(request)
                                          : error_response(api::ErrorCode::kMethodNotAllowed,
                                                           "use POST " + request.path);
    } else if (request.path == "/v1/shutdown") {
      if (request.method != "POST") {
        response = error_response(api::ErrorCode::kMethodNotAllowed,
                                  "use POST " + request.path);
      } else {
        util::Json doc = util::Json::object();
        doc["api"] = util::Json(api::kApiVersionString);
        doc["status"] = util::Json("shutting down");
        response = json_response(200, doc);
        // Only flag + notify here: stop() would join the pool this handler
        // runs on. The waiter in run_serve_command performs the stop.
        request_shutdown();
      }
    } else {
      response = error_response(
          api::ErrorCode::kNotFound, "unknown endpoint " + request.path,
          hint_details("endpoints: /v1/health /v1/stats /v1/whatif /v1/reproduce "
                       "/v1/validate /v1/shutdown"));
    }
  } catch (const api::SpecError& e) {
    response = spec_error_response(e);
  } catch (const std::invalid_argument& e) {
    response = error_response(api::ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    response = error_response(api::ErrorCode::kInternal, e.what());
  }
  if (response.status != 200) {
    util::MutexLock lock(&stats_mutex_);
    ++stats_.errors;
  }
  return response;
}

HttpResponse Server::handle_whatif(const HttpRequest& request) {
  util::Json doc;
  try {
    doc = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return error_response(api::ErrorCode::kBadRequest, e.what(),
                          hint_details("the request body must be a JSON scenario document"));
  }
  // One validating read: the scenario rules keddah-lint and the CLI run,
  // reporting every defective key path in one pass.
  std::vector<util::Diagnostic> diagnostics;
  const auto whatif = api::read_whatif_request(doc, "request", diagnostics);
  if (has_errors(diagnostics)) return lint_error_response(diagnostics);

  const std::string canonical = doc.dump(-1);
  const std::uint64_t key = cache_key("whatif", canonical, 0);
  // Cache hits are answered before admission: they cost microseconds and
  // are exactly the interactive traffic overload mode exists to protect.
  if (const auto cached = cache_lookup(key)) {
    return HttpResponse{200, "application/json", *cached, 0};
  }
  AdmissionController::Ticket ticket;
  if (auto refused = admit_cold_work(request, &ticket)) return std::move(*refused);
  const auto outcome = core::run_scenario(whatif.scenario);
  const std::string response_body = api::to_body(api::whatif_response(outcome));
  cache_store(key, response_body);
  return HttpResponse{200, "application/json", response_body, 0};
}

HttpResponse Server::handle_reproduce(const HttpRequest& request) {
  util::Json doc;
  try {
    doc = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return error_response(api::ErrorCode::kBadRequest, e.what(),
                          hint_details("the request body must be a JSON reproduce request"));
  }
  const auto reproduce = api::parse_reproduce_request(doc, "request");
  const RegisteredModel* entry = find_model(reproduce.model);
  if (entry == nullptr) return unknown_model(reproduce.model);
  const std::string canonical = doc.dump(-1);
  const std::uint64_t key = cache_key("reproduce", canonical, entry->content_hash);
  if (const auto cached = cache_lookup(key)) {
    return HttpResponse{200, "application/json", *cached, 0};
  }
  AdmissionController::Ticket ticket;
  if (auto refused = admit_cold_work(request, &ticket)) return std::move(*refused);
  const auto result = core::generate_and_replay(entry->model, reproduce.spec,
                                                reproduce.cluster.build_topology());
  const std::string response_body = api::to_body(api::reproduce_response(result));
  cache_store(key, response_body);
  return HttpResponse{200, "application/json", response_body, 0};
}

HttpResponse Server::handle_validate(const HttpRequest& request) {
  util::Json doc;
  try {
    doc = util::Json::parse(request.body);
  } catch (const std::exception& e) {
    return error_response(api::ErrorCode::kBadRequest, e.what(),
                          hint_details("the request body must be a JSON validate request"));
  }
  const auto validate = api::parse_validate_request(doc, "request");
  const RegisteredModel* entry = find_model(validate.model);
  if (entry == nullptr) return unknown_model(validate.model);
  const std::string canonical = doc.dump(-1);
  const std::uint64_t key = cache_key("validate", canonical, entry->content_hash);
  if (const auto cached = cache_lookup(key)) {
    return HttpResponse{200, "application/json", *cached, 0};
  }
  AdmissionController::Ticket ticket;
  if (auto refused = admit_cold_work(request, &ticket)) return std::move(*refused);
  model::TrainingRun reference;
  try {
    reference = core::load_run(validate.run);
  } catch (const std::exception& e) {
    return error_response(api::ErrorCode::kNotFound,
                          std::string("cannot load run: ") + e.what(),
                          hint_details("`run` names the basename of a `keddah capture` output"));
  }
  const auto report =
      core::validate_model(entry->model, reference, validate.cluster, validate.spec);
  const std::string response_body = api::to_body(api::validate_response(report));
  cache_store(key, response_body);
  return HttpResponse{200, "application/json", response_body, 0};
}

util::Json Server::health_json() const {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(api::kApiVersionString);
  doc["status"] = util::Json("ok");
  // Overload is reported but never blocks this endpoint: health is the
  // daemon's pulse and the graceful-degradation story depends on it.
  doc["overloaded"] = util::Json(admission_.snapshot().overloaded);
  util::Json endpoints = util::Json::array();
  for (const char* e : {"/v1/health", "/v1/reproduce", "/v1/shutdown", "/v1/stats",
                        "/v1/validate", "/v1/whatif"}) {
    endpoints.push_back(util::Json(e));
  }
  doc["endpoints"] = std::move(endpoints);
  util::Json models = util::Json::array();
  for (const auto& name : model_names()) models.push_back(util::Json(name));
  doc["models"] = std::move(models);
  return doc;
}

util::Json Server::stats_json() const {
  util::Json doc = util::counters_json(stats());
  doc["api"] = util::Json(api::kApiVersionString);
  return doc;
}

void Server::start() {
  http_.start([this](const HttpRequest& request) { return handle(request); });
}

void Server::wait_for_shutdown() {
  util::MutexLock lock(&shutdown_mutex_);
  while (!shutdown_requested_) shutdown_cv_.wait(shutdown_mutex_);
}

void Server::request_shutdown() {
  {
    util::MutexLock lock(&shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::stop() { http_.stop(); }

int run_serve_command(const util::Args& args, std::ostream& out, std::ostream& err) {
  ServeOptions options;
  options.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  options.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  options.model_bank_file = args.get("model-bank", "");
  options.max_cache_entries = static_cast<std::size_t>(args.get_int("cache-entries", 128));
  options.request_timeout_ms = args.get_int("request-timeout", options.request_timeout_ms);
  options.header_timeout_ms = args.get_int("header-timeout", options.header_timeout_ms);
  options.drain_timeout_ms = args.get_int("drain-timeout", options.drain_timeout_ms);
  options.queue_depth = static_cast<std::size_t>(
      args.get_int("queue-depth", static_cast<std::int64_t>(options.queue_depth)));
  options.max_pending = static_cast<std::size_t>(
      args.get_int("max-pending", static_cast<std::int64_t>(options.max_pending)));
  const std::string policy = args.get("overload-policy", "shed");
  for (const auto& path : util::split(args.get("models", ""), ',')) {
    if (!path.empty()) options.model_files.push_back(path);
  }
  args.reject_unknown();
  try {
    options.overload_policy = parse_overload_policy(policy);
  } catch (const std::invalid_argument& e) {
    throw util::UsageError(std::string("--overload-policy: ") + e.what());
  }

  Server server(std::move(options));
  server.start();
  out << "keddah serve listening on http://127.0.0.1:" << server.port() << "\n";
  const auto models = server.model_names();
  if (!models.empty()) out << "models: " << util::join(models, ", ") << "\n";
  out.flush();
  server.wait_for_shutdown();
  server.stop();
  out << "keddah serve: shutdown complete\n";
  (void)err;
  return 0;
}

}  // namespace keddah::serve
