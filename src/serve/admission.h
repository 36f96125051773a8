// Admission control for the `keddah serve` policy layer.
//
// The transport bounds *connections* (HttpOptions::max_pending); this
// class bounds *work*. Every endpoint has a cost class: light endpoints
// (/v1/health, /v1/stats, /v1/shutdown) cost 0 and are always admitted —
// they are the daemon's pulse and must keep answering under any load —
// while the heavy endpoints (/v1/whatif, /v1/reproduce, /v1/validate) pay
// their cost into a bounded budget of in-flight units. Response-cache hits
// never reach admission at all: the server answers them before asking.
//
// Three verdicts:
//   kAdmit   the ticket holds `cost` units until released (RAII).
//   kReject  admitting would exceed `capacity` — the caller answers 429
//            with Retry-After; the client should back off and retry.
//   kShed    capacity remains, but the controller is in overload mode
//            (in-flight cost >= shed_threshold) and the policy is kShed —
//            cold heavy work is turned away with a 503 so that health,
//            stats, and cache hits stay fast. Graceful degradation, not
//            failure.
//
// Determinism: verdicts depend only on the instantaneous in-flight cost,
// never on wall time or randomness, and 200-response bodies are identical
// whether or not a request ever waited.
#pragma once

#include <cstdint>
#include <string>

#include "util/counters.h"
#include "util/mutex.h"

namespace keddah::serve {

/// What to do when heavy load approaches capacity.
enum class OverloadPolicy {
  kShed,    ///< Degrade: shed cold heavy work at shed_threshold (503).
  kReject,  ///< Hard bound only: 429 at capacity, no early shedding.
  kNone,    ///< Admit everything (benchmark/debug escape hatch).
};

/// Parses "shed" | "reject" | "none"; throws std::invalid_argument
/// naming the valid spellings otherwise.
OverloadPolicy parse_overload_policy(const std::string& text);
const char* overload_policy_name(OverloadPolicy policy);

struct AdmissionOptions {
  /// Cost units that may be in flight at once (the bounded pending-work
  /// queue in front of the pool, measured in endpoint cost units).
  std::size_t capacity = 64;
  /// In-flight cost at which overload mode begins; 0 = (3*capacity)/4.
  std::size_t shed_threshold = 0;
  OverloadPolicy policy = OverloadPolicy::kShed;
};

class AdmissionController {
 public:
  enum class Verdict { kAdmit, kReject, kShed };

  /// Cost units an endpoint pays. Light endpoints (and unknown paths,
  /// which terminate in cheap 404s) cost 0; /v1/validate costs more than
  /// /v1/whatif and /v1/reproduce because it also re-reads a capture run
  /// from disk.
  static std::size_t endpoint_cost(const std::string& path);

  explicit AdmissionController(AdmissionOptions options);

  /// RAII hold on admitted cost units; releases on destruction. An empty
  /// ticket (default-constructed or from a non-admit verdict) holds
  /// nothing.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept;
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket();

    bool admitted() const { return controller_ != nullptr; }

   private:
    friend class AdmissionController;
    Ticket(AdmissionController* controller, std::size_t cost)
        : controller_(controller), cost_(cost) {}

    AdmissionController* controller_ = nullptr;
    std::size_t cost_ = 0;
  };

  /// Decides one request. On kAdmit, `*ticket` holds the cost until it is
  /// destroyed; on kReject/kShed the ticket is left empty. A zero cost is
  /// always admitted without touching the budget.
  Verdict try_admit(std::size_t cost, Ticket* ticket) EXCLUDES(mutex_);

  struct Snapshot {
    std::size_t capacity = 0;
    std::size_t shed_threshold = 0;
    std::size_t in_flight_cost = 0;
    /// in_flight_cost >= shed_threshold (any policy; reported even when
    /// the policy never sheds).
    bool overloaded = false;
    const char* policy = "";
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;

    /// The /v1/stats robustness layout: queue fields under "queue".
    template <typename Fn>
    void visit(Fn&& fn) const {
      fn("overloaded", overloaded);
      fn("admitted", admitted);
      fn("rejected", rejected);
      fn("shed", shed);
      fn("queue", util::CounterGroup{[this](auto&& group) {
        group("capacity", capacity);
        group("shed_threshold", shed_threshold);
        group("in_flight_cost", in_flight_cost);
        group("policy", policy);
      }});
    }
  };
  Snapshot snapshot() const EXCLUDES(mutex_);

 private:
  void release(std::size_t cost) EXCLUDES(mutex_);

  AdmissionOptions options_;
  mutable util::Mutex mutex_;
  /// The live counters; the settings fields are fixed at construction and
  /// `overloaded` is derived in snapshot().
  Snapshot state_ GUARDED_BY(mutex_);
};

}  // namespace keddah::serve
