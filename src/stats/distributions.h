// Parametric distribution families used by Keddah flow-size models.
//
// A Distribution is a small value type (family tag + two parameters) with
// pdf/cdf/quantile/sampling and JSON round-tripping (to_json, and
// read_distribution back), so trained models can be persisted and replayed.
#pragma once

#include <span>
#include <string>

#include "util/json.h"
#include "util/rng.h"

namespace keddah::util {
class FieldReader;
}

namespace keddah::stats {

/// Candidate families Keddah considers when fitting flow sizes.
enum class DistFamily {
  kExponential,  // p1 = rate lambda
  kNormal,       // p1 = mean, p2 = stddev
  kLognormal,    // p1 = mu, p2 = sigma (parameters of log X)
  kWeibull,      // p1 = shape k, p2 = scale lambda
  kGamma,        // p1 = shape k, p2 = scale theta
  kPareto,       // p1 = minimum xm, p2 = tail index alpha
  kUniform,      // p1 = lo, p2 = hi
  kConstant,     // p1 = value (degenerate; exact-size flows e.g. full blocks)
};

/// All fittable families, in fitting order.
std::span<const DistFamily> all_families();

/// "exponential", "lognormal", ... (stable identifiers used in JSON).
const char* family_name(DistFamily family);

/// Inverse of family_name; throws std::invalid_argument on unknown names.
DistFamily family_from_name(const std::string& name);

/// A parameterized distribution.
class Distribution {
 public:
  /// Constructs a constant-zero distribution (useful default).
  Distribution() : family_(DistFamily::kConstant), p1_(0.0), p2_(0.0) {}

  static Distribution exponential(double lambda);
  static Distribution normal(double mean, double stddev);
  static Distribution lognormal(double mu, double sigma);
  static Distribution weibull(double shape, double scale);
  static Distribution gamma_dist(double shape, double scale);
  static Distribution pareto(double xm, double alpha);
  static Distribution uniform(double lo, double hi);
  static Distribution constant(double value);

  DistFamily family() const { return family_; }
  double param1() const { return p1_; }
  double param2() const { return p2_; }

  /// Probability density at x (mass 1 at the point for kConstant).
  double pdf(double x) const;

  /// Cumulative distribution function.
  double cdf(double x) const;

  /// Inverse CDF, q in [0, 1]; clamps at support boundaries.
  double quantile(double q) const;

  /// Theoretical mean (may be infinite for heavy-tailed Pareto).
  double mean() const;

  /// Draws one sample.
  double sample(util::Rng& rng) const;

  /// Sum of log pdf over the data; -inf when any point has zero density.
  double log_likelihood(std::span<const double> xs) const;

  /// Number of free parameters (for AIC).
  int num_params() const;

  /// Human-readable description, e.g. "lognormal(mu=13.2, sigma=0.8)".
  std::string describe() const;

  util::Json to_json() const;

 private:
  Distribution(DistFamily family, double p1, double p2) : family_(family), p1_(p1), p2_(p2) {}

  DistFamily family_;
  double p1_;
  double p2_;
};

/// Reads a {family, p1, p2} block at key path `prefix`, recording an
/// unknown family or a non-finite or out-of-domain parameter in `reader`;
/// the default distribution after an error.
Distribution read_distribution(const util::Json& doc, const std::string& prefix,
                               util::FieldReader& reader);

}  // namespace keddah::stats
