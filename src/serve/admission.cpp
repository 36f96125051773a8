#include "serve/admission.h"

#include <stdexcept>
#include <utility>

namespace keddah::serve {

OverloadPolicy parse_overload_policy(const std::string& text) {
  if (text == "shed") return OverloadPolicy::kShed;
  if (text == "reject") return OverloadPolicy::kReject;
  if (text == "none") return OverloadPolicy::kNone;
  throw std::invalid_argument("unknown overload policy '" + text +
                              "' (want shed, reject, or none)");
}

const char* overload_policy_name(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kShed: return "shed";
    case OverloadPolicy::kReject: return "reject";
    case OverloadPolicy::kNone: return "none";
  }
  return "shed";
}

std::size_t AdmissionController::endpoint_cost(const std::string& path) {
  if (path == "/v1/whatif") return 2;
  if (path == "/v1/reproduce") return 2;
  if (path == "/v1/validate") return 3;
  return 0;  // health/stats/shutdown and 404-bound paths are always served
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.shed_threshold == 0) options_.shed_threshold = (3 * options_.capacity) / 4;
  if (options_.shed_threshold == 0) options_.shed_threshold = 1;
  if (options_.shed_threshold > options_.capacity) {
    options_.shed_threshold = options_.capacity;
  }
  state_.capacity = options_.capacity;
  state_.shed_threshold = options_.shed_threshold;
  state_.policy = overload_policy_name(options_.policy);
}

AdmissionController::Ticket::Ticket(Ticket&& other) noexcept
    : controller_(other.controller_), cost_(other.cost_) {
  other.controller_ = nullptr;
  other.cost_ = 0;
}

AdmissionController::Ticket& AdmissionController::Ticket::operator=(Ticket&& other) noexcept {
  if (this != &other) {
    if (controller_ != nullptr) controller_->release(cost_);
    controller_ = other.controller_;
    cost_ = other.cost_;
    other.controller_ = nullptr;
    other.cost_ = 0;
  }
  return *this;
}

AdmissionController::Ticket::~Ticket() {
  if (controller_ != nullptr) controller_->release(cost_);
}

AdmissionController::Verdict AdmissionController::try_admit(std::size_t cost,
                                                            Ticket* ticket) {
  util::MutexLock lock(&mutex_);
  if (cost == 0 || options_.policy == OverloadPolicy::kNone) {
    ++state_.admitted;
    if (cost > 0) {
      state_.in_flight_cost += cost;
      *ticket = Ticket(this, cost);
    }
    return Verdict::kAdmit;
  }
  if (state_.in_flight_cost + cost > options_.capacity) {
    ++state_.rejected;
    return Verdict::kReject;
  }
  if (options_.policy == OverloadPolicy::kShed &&
      state_.in_flight_cost >= options_.shed_threshold) {
    ++state_.shed;
    return Verdict::kShed;
  }
  state_.in_flight_cost += cost;
  ++state_.admitted;
  *ticket = Ticket(this, cost);
  return Verdict::kAdmit;
}

AdmissionController::Snapshot AdmissionController::snapshot() const {
  util::MutexLock lock(&mutex_);
  Snapshot snapshot = state_;
  snapshot.overloaded = state_.in_flight_cost >= options_.shed_threshold;
  return snapshot;
}

void AdmissionController::release(std::size_t cost) {
  util::MutexLock lock(&mutex_);
  state_.in_flight_cost -= cost;
}

}  // namespace keddah::serve
