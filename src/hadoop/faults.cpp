#include "hadoop/faults.h"

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/check.h"
#include "util/strings.h"

namespace keddah::hadoop {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kOutage:
      return "outage";
    case FaultKind::kDegradeLink:
      return "degrade_link";
    case FaultKind::kSlowNode:
      return "slow_node";
  }
  return "unknown";
}

FaultKind fault_kind_from_name(const std::string& name) {
  if (name == "crash") return FaultKind::kCrash;
  if (name == "outage") return FaultKind::kOutage;
  if (name == "degrade_link") return FaultKind::kDegradeLink;
  if (name == "slow_node") return FaultKind::kSlowNode;
  throw std::invalid_argument("faults: unknown kind '" + name +
                              "' (want crash|outage|degrade_link|slow_node)");
}

void check_fault_event(const FaultEvent& event, std::size_t num_workers, const std::string& key,
                       util::FieldReader& reader) {
  if (event.worker == 0) {
    reader.error(key + ".worker", "worker 0 co-hosts the master and cannot be faulted",
                 "fault a worker index >= 1");
  } else if (num_workers != 0 && event.worker >= num_workers) {
    reader.error(key + ".worker",
                 util::format("worker %zu does not exist (cluster has workers 0..%zu)",
                              event.worker, num_workers - 1),
                 "use an index below the cluster size or grow the cluster");
  }
  if (!std::isfinite(event.at) || event.at < 0.0) {
    reader.error(key + ".at", "injection time must be >= 0");
  }
  if (event.kind == FaultKind::kCrash) {
    if (!std::isfinite(event.duration) || event.duration < 0.0) {
      reader.error(key + ".duration", "must be a finite time >= 0");
    } else if (event.duration != 0.0) {
      reader.warning(key + ".duration", "crashes are permanent; 'duration' is ignored",
                     "use kind \"outage\" for a transient failure");
    }
    return;
  }
  if (!std::isfinite(event.duration) || event.duration <= 0.0) {
    reader.error(key + ".duration", "transient faults need a window length > 0");
  }
  if (event.kind == FaultKind::kDegradeLink && !(event.factor > 0.0 && event.factor < 1.0)) {
    reader.error(key + ".factor", "degrade_link factor must be in (0, 1)",
                 "it multiplies the access-link capacity");
  }
  if (event.kind == FaultKind::kSlowNode && !(event.factor > 1.0 && std::isfinite(event.factor))) {
    reader.error(key + ".factor", "slow_node factor must be > 1", "it multiplies compute time");
  }
}

void validate_fault_plan(const FaultPlan& plan, std::size_t num_workers,
                         const std::string& context) {
  std::vector<util::Diagnostic> diagnostics;
  util::FieldReader reader(context, diagnostics);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    check_fault_event(plan.events[i], num_workers, util::format("faults[%zu]", i), reader);
  }
  reader.throw_first_error();
}

FaultPlan read_fault_plan(const util::Json& array, const std::string& key,
                          std::size_t num_workers, double horizon, util::FieldReader& reader) {
  FaultPlan plan;
  if (!array.is_array()) {
    reader.error(key, key == "$" ? "a fault plan must be a JSON array of events"
                                 : "must be an array of fault events");
    return plan;
  }
  std::vector<std::size_t> entry_of;  // array index of each event in `plan`
  std::set<std::string> seen;
  const auto& entries = array.as_array();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string p = util::format("%s[%zu]", key.c_str(), i);
    const auto& entry = entries[i];
    if (!entry.is_object()) {
      reader.error(p, "must be an object");
      continue;
    }
    reader.unknown_keys(entry, p, {"kind", "worker", "at", "duration", "factor"});
    const std::size_t errors = reader.errors();
    // Entries without "kind" are legacy {"worker", "at"} crash entries.
    const std::string kind = reader.string(entry, p, "kind", "crash");
    if (reader.errors() != errors) continue;
    FaultEvent event;
    try {
      event.kind = fault_kind_from_name(kind);
    } catch (const std::invalid_argument&) {
      reader.error(p + ".kind", "unknown fault kind '" + kind + "'",
                   "one of: crash, outage, degrade_link, slow_node");
      continue;
    }
    if (!entry.contains("worker")) {
      reader.error(p + ".worker", "missing required key", "index into the cluster's worker list");
      continue;
    }
    event.worker = reader.count(entry, p, "worker", 0);
    if (reader.errors() != errors) continue;
    event.at = reader.number(entry, p, "at", 0.0);
    event.duration = reader.number(entry, p, "duration", 0.0);
    event.factor = reader.number(entry, p, "factor", 0.0);
    check_fault_event(event, num_workers, p, reader);
    if (horizon > 0.0 && event.at + event.duration > horizon) {
      reader.error(p,
                   util::format("fault window [%g, %g] extends past the scenario horizon of %g s",
                                event.at, event.at + event.duration, horizon),
                   "shorten the window or raise the horizon");
    }
    if (!seen.insert(util::format("%s w%zu at%g", kind.c_str(), event.worker, event.at)).second) {
      reader.error(p,
                   util::format("duplicate fault: %s on worker %zu at %g s already scheduled",
                                kind.c_str(), event.worker, event.at),
                   "remove the repeated entry");
    }
    plan.events.push_back(event);
    entry_of.push_back(i);
  }
  // Nothing can be injected into a permanently crashed node: a crash at t
  // followed by any event on the same worker at a later time never fires
  // (and a "recovery" the author expected silently does not happen).
  for (std::size_t j = 0; j < plan.events.size(); ++j) {
    const FaultEvent& event = plan.events[j];
    for (std::size_t c = 0; c < plan.events.size(); ++c) {
      const FaultEvent& crash = plan.events[c];
      if (c != j && crash.kind == FaultKind::kCrash && crash.worker == event.worker &&
          crash.at <= event.at) {
        reader.error(util::format("%s[%zu]", key.c_str(), entry_of[j]),
                     util::format("worker %zu is permanently crashed by %s[%zu] at %g s; this "
                                  "event never takes effect",
                                  event.worker, key.c_str(), entry_of[c], crash.at),
                     "use kind \"outage\" for a recoverable failure, or retarget the event");
        break;
      }
    }
  }
  return plan;
}

FaultPlan parse_fault_plan(const util::Json& array, const std::string& context,
                           std::size_t num_workers) {
  std::vector<util::Diagnostic> diagnostics;
  util::FieldReader reader(context, diagnostics);
  FaultPlan plan = read_fault_plan(array, "$", num_workers, /*horizon=*/0.0, reader);
  reader.throw_first_error();
  return plan;
}

void audit_fault_stats(const FaultStats& stats) {
  if (stats.aborted_bytes.value() > 0.0 && stats.aborted_flows == 0) {
    throw util::AuditError("fault stats: aborted bytes without any aborted flow");
  }
  if (!(stats.fetch_backoff_s >= 0.0) || !std::isfinite(stats.fetch_backoff_s)) {
    throw util::AuditError("fault stats: fetch backoff must be finite and >= 0, got " +
                           std::to_string(stats.fetch_backoff_s));
  }
  if (stats.injections() == 0) {
    // Recovery work can only be caused by an injected fault; a clean run
    // must report an all-zero recovery ledger.
    if (stats.aborted_flows != 0 || stats.fetch_retries != 0 ||
        stats.fetch_failure_reruns != 0 || stats.map_reruns != 0 ||
        stats.reducer_restarts != 0 || stats.pipeline_rebuilds != 0 ||
        stats.hdfs_read_retries != 0 || stats.rereplications != 0) {
      throw util::AuditError("fault stats: recovery counters nonzero without any injected fault");
    }
  }
}

}  // namespace keddah::hadoop
