#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace kbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image alone; getrusage's
  // ru_maxrss would also carry the RSS of the process that exec'd us.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(status);
  return kb / 1024.0;
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(double value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  add(std::string_view(bytes, sizeof bytes));
}

void Digest::add(std::uint64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  add(std::string_view(bytes, sizeof bytes));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const double now = offset(Clock::now());
  spans_.push_back(Span{name, now, now, parent, 0});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = offset(Clock::now());
  // Spans close in LIFO order; tolerate an early close of an outer span.
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

void Tracer::add_span(const std::string& name, Clock::time_point start, Clock::time_point end,
                      int parent, int group) {
  if (!enabled_) return;
  spans_.push_back(Span{name, offset(start), offset(end), parent, group});
}

void Tracer::accumulate(const std::string& name, double seconds, std::uint64_t calls) {
  if (!enabled_) return;
  Accumulator& acc = accumulators_[name];
  acc.seconds += seconds;
  acc.calls += calls;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) sum += span.end - span.start;
  }
  return sum;
}

double Tracer::coverage(int root) const {
  if (root < 0) return 0.0;
  const Span& parent = spans_[static_cast<std::size_t>(root)];
  std::vector<std::pair<double, double>> children;
  for (const Span& span : spans_) {
    if (span.parent == root) children.emplace_back(span.start, span.end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = parent.start;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  const double length = parent.end - parent.start;
  return length > 0.0 ? covered / length : 0.0;
}

double Tracer::accumulated_seconds(const std::string& name) const {
  const auto it = accumulators_.find(name);
  return it == accumulators_.end() ? 0.0 : it->second.seconds;
}

std::uint64_t Tracer::accumulated_calls(const std::string& name) const {
  const auto it = accumulators_.find(name);
  return it == accumulators_.end() ? 0 : it->second.calls;
}

keddah::util::Json Tracer::to_json() const {
  using keddah::util::Json;
  Json spans = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json span = Json::object();
    span["id"] = Json(static_cast<std::uint64_t>(i));
    span["name"] = Json(s.name);
    span["start_s"] = Json(s.start);
    span["end_s"] = Json(s.end);
    span["parent"] = Json(s.parent);
    span["group"] = Json(s.group);
    spans.push_back(std::move(span));
  }
  Json accumulators = Json::object();
  for (const auto& [name, acc] : accumulators_) {
    Json entry = Json::object();
    entry["seconds"] = Json(acc.seconds);
    entry["calls"] = Json(acc.calls);
    accumulators[name] = std::move(entry);
  }
  Json doc = Json::object();
  doc["spans"] = std::move(spans);
  doc["accumulators"] = std::move(accumulators);
  return doc;
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics[name] = {value, unit};
}

void check_repeat(Report& report, const keddah::util::Json& first,
                  const keddah::util::Json& again, std::size_t pass) {
  report.check(first.dump(-1) == again.dump(-1),
               "determinism record of pass " + std::to_string(pass) +
                   " differs from pass 0");
}

}  // namespace kbench
