// Per-traffic-class component models: how many flows, how big, and when.
//
// A ClassModel is Keddah's statistical abstraction of one traffic class of
// one job type. It is trained from captured traces (model/builder.h) and
// sampled by the generator (gen/generator.h). Size models keep both the
// best parametric fit and the empirical CDF so generation can use either.
//
// Each block serializes with to_json and reads back with its read_*
// function, which records every defect in a util::FieldReader under the
// block's key path (`prefix`) instead of throwing; KeddahModel::from_json
// and keddah-lint both run these reads.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "stats/distributions.h"
#include "stats/ecdf.h"
#include "stats/regression.h"
#include "util/json.h"
#include "util/rng.h"

namespace keddah::util {
class FieldReader;
}

namespace keddah::model {

/// How flow sizes are drawn at generation time.
enum class SizeModelKind { kParametric, kEmpirical };

/// Flow-size model: best-fit parametric distribution + empirical fallback.
struct SizeModel {
  /// Winning family (by KS distance) and its goodness of fit.
  std::optional<stats::Distribution> parametric;
  double ks = 1.0;
  double ks_pvalue = 0.0;
  /// Empirical CDF of the training sizes (always present when trained).
  stats::Ecdf empirical;
  /// Which representation sample() uses.
  SizeModelKind kind = SizeModelKind::kParametric;

  /// Draws one flow size (bytes, clamped non-negative).
  double sample(util::Rng& rng) const;

  /// Mean flow size under the active representation.
  double mean() const;

  bool trained() const { return !empirical.empty(); }

  util::Json to_json() const;
};

/// Flow-count model: a structural law calibrated by regression.
///
/// The regressor x depends on the class:
///   HDFS read  : number of map tasks          (locality-miss fraction)
///   Shuffle    : maps x reducers              (off-host fetch fraction)
///   HDFS write : output bytes estimate        (pipeline stages per block)
///   Control    : job wall-clock seconds       (heartbeat rates)
/// Counts are fit through the origin: zero work means zero flows.
struct CountModel {
  stats::LinearFit fit;
  /// Human-readable regressor description (for reports).
  std::string regressor = "x";

  /// Expected flow count at regressor value x (>= 0, rounded).
  std::size_t predict(double x) const;

  util::Json to_json() const;
};

/// Flow arrival model. Each traffic class is active during a phase of the
/// job (reads during maps, shuffle between slow-start and last fetch, writes
/// at the tail). The model stores where that phase sits as a fraction of
/// job wall-clock, plus the empirical distribution of "fraction through the
/// phase at which a flow starts".
struct TemporalModel {
  /// Normalized flow-start offsets within the class phase, in [0, 1].
  stats::Ecdf normalized_offsets;
  /// Phase boundaries as fractions of job duration (means over training).
  double phase_start_frac = 0.0;
  double phase_end_frac = 1.0;

  /// Draws an absolute start time for a job lasting `job_duration_s`.
  double sample_start(util::Rng& rng, double job_duration_s) const;

  bool trained() const { return !normalized_offsets.empty(); }

  util::Json to_json() const;
};

/// The full per-class model.
struct ClassModel {
  SizeModel size;
  CountModel count;
  TemporalModel temporal;
  /// Training metadata.
  std::size_t training_flows = 0;
  double training_bytes = 0.0;

  util::Json to_json() const;
};

/// {parametric?, ks, ks_pvalue, kind, empirical}: KS values in [0, 1], a
/// known kind, and a sorted finite ECDF; kind "empirical" needs samples. A
/// "parametric" block without a distribution samples its ECDF (sample()).
SizeModel read_size_model(const util::Json& doc, const std::string& prefix,
                          util::FieldReader& reader);
/// {fit, regressor}; the fit is required.
CountModel read_count_model(const util::Json& doc, const std::string& prefix,
                            util::FieldReader& reader);
/// {offsets, phase_start_frac, phase_end_frac}: a sorted finite ECDF and
/// an ordered phase inside [0, 1].
TemporalModel read_temporal_model(const util::Json& doc, const std::string& prefix,
                                  util::FieldReader& reader);
/// {size, count, temporal, training_flows, training_bytes}; the three
/// component blocks are required.
ClassModel read_class_model(const util::Json& doc, const std::string& prefix,
                            util::FieldReader& reader);

}  // namespace keddah::model
