// Shared plumbing of the keddah benchmark program: run options, the report a
// workload hands back (metrics, operation counts, failed checks and the
// determinism record), timing helpers, and the span tracer that times the
// benchmark's own calls into each src/ module.
//
// The tracer is the only instrumentation: nothing inside the program under
// test is timed, so a traced run measures the same code an untraced run
// does, plus the cost of its spans (the tracing overhead).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace kbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1] (0 when empty).
double percentile(std::vector<double> values, double p);
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// FNV-1a over the bytes fed to it: the output digests of the determinism
/// record.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(double value);
  void add(std::uint64_t value);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

struct Options {
  std::uint64_t seed = 1;
  /// Measurement budget: passes repeat until their timed spans add up to it.
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (spill files, traces).
  std::string work_dir;
};

/// Spans (name, start, end, parent, group) kept in memory and written when
/// the run ends, plus count-and-total accumulators for per-call layers that
/// run about a million times per pass. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int open(const std::string& name);
  void close(int index);
  /// Appends a finished span (client threads record their own and the
  /// main thread merges them after joining).
  void add_span(const std::string& name, Clock::time_point start, Clock::time_point end,
                int parent, int group);
  /// Adds `calls` calls taking `seconds` in total to accumulator `name`.
  void accumulate(const std::string& name, double seconds, std::uint64_t calls = 1);

  /// Total duration of spans named `name` (all occurrences).
  double total(const std::string& name) const;
  /// Share of span `root` covered by the union of its direct children
  /// (overlapping children of concurrent clients count once).
  double coverage(int root) const;
  double accumulated_seconds(const std::string& name) const;
  std::uint64_t accumulated_calls(const std::string& name) const;

  keddah::util::Json to_json() const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int group = 0;
  };
  struct Accumulator {
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };

  double offset(Clock::time_point t) const { return seconds_between(origin_, t); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, Accumulator> accumulators_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name) : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// What one workload run produces.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Messages of failed correctness checks; any entry fails the run.
  std::vector<std::string> failures;
  /// name -> (value, unit). Span-derived layer metrics appear only in a
  /// traced run.
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Timed seconds of every pass and every set-up, in order (for the log).
  std::vector<double> pass_seconds;
  std::vector<double> setup_seconds;
  /// Simulated counters and output digests; must repeat exactly for a seed.
  keddah::util::Json record = keddah::util::Json::object();

  /// Records `what` as a failed check unless `ok`.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
};

/// Runs passes until their timed spans use up `seconds`: at least one, and
/// another only while half a pass (the last one's length) still fits, so a
/// run's timed total lands within half a pass of `seconds`. `pass` returns
/// the timed seconds of the pass it ran.
template <typename Pass>
std::size_t run_passes(double seconds, Pass&& pass) {
  double timed = 0.0;
  double last = 0.0;
  std::size_t passes = 0;
  do {
    last = pass(passes);
    timed += last;
    ++passes;
  } while (timed + last / 2 < seconds);
  return passes;
}

/// Compares a pass's determinism record against the first pass's.
void check_repeat(Report& report, const keddah::util::Json& first,
                  const keddah::util::Json& again, std::size_t pass);

Report run_paper_pipeline(const Options& options, Tracer& tracer);
Report run_fattree_wave(const Options& options, Tracer& tracer);
Report run_whatif_serve(const Options& options, Tracer& tracer);

}  // namespace kbench
