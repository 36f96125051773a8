// Unit and property tests for the statistics library: special functions,
// summaries, ECDF, histograms, distribution objects, MLE fitting, KS tests,
// regression. Parameterized suites sweep distribution families to check the
// fit-recovers-parameters property.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/distributions.h"
#include "stats/ecdf.h"
#include "stats/fitting.h"
#include "stats/histogram.h"
#include "stats/kstest.h"
#include "stats/regression.h"
#include "stats/special.h"
#include "stats/summary.h"
#include "read_or_throw.h"
#include "util/rng.h"

namespace kst = keddah::stats;
namespace ku = keddah::util;

// ---------------------------------------------------------------- special

TEST(Special, DigammaKnownValues) {
  // psi(1) = -gamma_E, psi(2) = 1 - gamma_E.
  const double euler = 0.5772156649015329;
  EXPECT_NEAR(kst::digamma(1.0), -euler, 1e-10);
  EXPECT_NEAR(kst::digamma(2.0), 1.0 - euler, 1e-10);
  EXPECT_NEAR(kst::digamma(0.5), -euler - 2.0 * std::log(2.0), 1e-10);
}

TEST(Special, DigammaRecurrence) {
  // psi(x+1) = psi(x) + 1/x.
  for (const double x : {0.3, 1.7, 4.2, 11.0}) {
    EXPECT_NEAR(kst::digamma(x + 1.0), kst::digamma(x) + 1.0 / x, 1e-10);
  }
}

TEST(Special, TrigammaKnownValues) {
  EXPECT_NEAR(kst::trigamma(1.0), M_PI * M_PI / 6.0, 1e-9);
  for (const double x : {0.4, 2.3, 7.7}) {
    EXPECT_NEAR(kst::trigamma(x + 1.0), kst::trigamma(x) - 1.0 / (x * x), 1e-9);
  }
}

TEST(Special, DigammaDomain) {
  EXPECT_THROW(kst::digamma(0.0), std::domain_error);
  EXPECT_THROW(kst::trigamma(-1.0), std::domain_error);
}

TEST(Special, IncompleteGammaMatchesExponential) {
  // P(1, x) = 1 - e^{-x}.
  for (const double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(kst::reg_lower_incomplete_gamma(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(Special, IncompleteGammaMatchesChiSquared) {
  // Chi^2_2 CDF at x is P(1, x/2); chi^2_4 CDF is P(2, x/2).
  EXPECT_NEAR(kst::reg_lower_incomplete_gamma(2.0, 1.0), 1.0 - 2.0 * std::exp(-1.0), 1e-12);
}

TEST(Special, IncompleteGammaEdges) {
  EXPECT_DOUBLE_EQ(kst::reg_lower_incomplete_gamma(2.0, 0.0), 0.0);
  EXPECT_NEAR(kst::reg_lower_incomplete_gamma(2.0, 1e3), 1.0, 1e-12);
  EXPECT_THROW(kst::reg_lower_incomplete_gamma(0.0, 1.0), std::domain_error);
  EXPECT_THROW(kst::reg_lower_incomplete_gamma(1.0, -1.0), std::domain_error);
}

TEST(Special, KolmogorovQBehaviour) {
  EXPECT_DOUBLE_EQ(kst::kolmogorov_q(0.0), 1.0);
  EXPECT_NEAR(kst::kolmogorov_q(1.36), 0.05, 0.002);  // classic 5% critical value
  EXPECT_LT(kst::kolmogorov_q(3.0), 1e-6);
  EXPECT_GT(kst::kolmogorov_q(0.5), 0.95);
}

TEST(Special, NormalCdfQuantileInverse) {
  for (const double p : {0.001, 0.05, 0.3, 0.5, 0.77, 0.999}) {
    EXPECT_NEAR(kst::normal_cdf(kst::normal_quantile(p)), p, 1e-9);
  }
  EXPECT_THROW(kst::normal_quantile(0.0), std::domain_error);
  EXPECT_THROW(kst::normal_quantile(1.0), std::domain_error);
}

// ---------------------------------------------------------------- summary

TEST(Summary, BasicMoments) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const auto s = kst::summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.variance, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
}

TEST(Summary, EmptyIsZeroed) {
  const auto s = kst::summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summary, QuantileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(kst::quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(kst::quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(kst::quantile(xs, 1.0), 10.0);
}

TEST(Summary, QuantileEmptyThrows) {
  EXPECT_THROW(kst::quantile_sorted({}, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------- ecdf

TEST(Ecdf, StepFunction) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  kst::Ecdf e(xs);
  EXPECT_DOUBLE_EQ(e.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e.cdf(99.0), 1.0);
}

TEST(Ecdf, QuantileRoundTrip) {
  ku::Rng rng(1);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.normal(50.0, 10.0);
  kst::Ecdf e(xs);
  EXPECT_NEAR(e.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(e.cdf(e.quantile(0.9)), 0.9, 0.01);
}

TEST(Ecdf, SampleMatchesSource) {
  ku::Rng rng(2);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.exponential(0.1);
  kst::Ecdf e(xs);
  ku::Rng rng2(3);
  std::vector<double> resampled(2000);
  for (auto& x : resampled) x = e.sample(rng2);
  EXPECT_LT(kst::ks_statistic_two_sample(xs, resampled), 0.05);
}

TEST(Ecdf, EmptyThrows) {
  kst::Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_THROW(e.cdf(1.0), std::logic_error);
  EXPECT_THROW(e.quantile(0.5), std::logic_error);
}

TEST(Ecdf, CurveIsMonotone) {
  ku::Rng rng(4);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.lognormal(10.0, 2.0);
  kst::Ecdf e(xs);
  const auto curve = e.curve(40);
  ASSERT_EQ(curve.size(), 40u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, LinearBinning) {
  const std::vector<double> xs = {0.5, 1.5, 1.6, 2.5, 9.9};
  const auto h = kst::Histogram::linear(xs, 0.0, 10.0, 10);
  EXPECT_EQ(h.num_bins(), 10u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.4);
}

TEST(Histogram, OutOfRangeClamps) {
  const std::vector<double> xs = {-5.0, 100.0};
  const auto h = kst::Histogram::linear(xs, 0.0, 10.0, 2);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(Histogram, LogBinsSpanDecades) {
  const std::vector<double> xs = {10.0, 100.0, 1000.0, 150.0};
  const auto h = kst::Histogram::log10(xs, 10.0, 10000.0, 3);
  EXPECT_EQ(h.count(0), 1u);   // [10, 100)
  EXPECT_EQ(h.count(1), 2u);   // [100, 1000)
  EXPECT_EQ(h.count(2), 1u);   // [1000, 10000)
  EXPECT_NEAR(h.edge(1), 100.0, 1e-9);
}

TEST(Histogram, BadSpecsThrow) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(kst::Histogram::linear(xs, 5.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(kst::Histogram::linear(xs, 0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(kst::Histogram::log10(xs, 0.0, 10.0, 2), std::invalid_argument);
}

TEST(Histogram, AsciiRenders) {
  const std::vector<double> xs = {1.0, 1.0, 2.0};
  const auto h = kst::Histogram::linear(xs, 0.0, 4.0, 4);
  EXPECT_NE(h.ascii().find('#'), std::string::npos);
}

// ---------------------------------------------------------------- distributions

TEST(Distribution, ExponentialBasics) {
  const auto d = kst::Distribution::exponential(2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.5);
  EXPECT_NEAR(d.cdf(d.quantile(0.3)), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(d.cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.pdf(0.0), 2.0);
}

TEST(Distribution, LognormalQuantileCdfInverse) {
  const auto d = kst::Distribution::lognormal(12.0, 1.5);
  for (const double q : {0.05, 0.3, 0.5, 0.95}) {
    EXPECT_NEAR(d.cdf(d.quantile(q)), q, 1e-8);
  }
  EXPECT_DOUBLE_EQ(d.cdf(0.0), 0.0);
}

TEST(Distribution, WeibullMedian) {
  const auto d = kst::Distribution::weibull(2.0, 3.0);
  EXPECT_NEAR(d.quantile(0.5), 3.0 * std::pow(std::log(2.0), 0.5), 1e-10);
}

TEST(Distribution, GammaQuantileInvertsCdf) {
  const auto d = kst::Distribution::gamma_dist(3.5, 2.0);
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(d.cdf(d.quantile(q)), q, 1e-9);
  }
}

TEST(Distribution, ParetoSupportAndMean) {
  const auto d = kst::Distribution::pareto(5.0, 3.0);
  EXPECT_DOUBLE_EQ(d.cdf(4.0), 0.0);
  EXPECT_DOUBLE_EQ(d.mean(), 7.5);
  const auto heavy = kst::Distribution::pareto(5.0, 0.9);
  EXPECT_TRUE(std::isinf(heavy.mean()));
}

TEST(Distribution, UniformAndConstant) {
  const auto u = kst::Distribution::uniform(2.0, 6.0);
  EXPECT_DOUBLE_EQ(u.mean(), 4.0);
  EXPECT_DOUBLE_EQ(u.cdf(4.0), 0.5);
  EXPECT_DOUBLE_EQ(u.quantile(0.25), 3.0);
  const auto c = kst::Distribution::constant(7.0);
  EXPECT_DOUBLE_EQ(c.mean(), 7.0);
  EXPECT_DOUBLE_EQ(c.cdf(6.9), 0.0);
  EXPECT_DOUBLE_EQ(c.cdf(7.0), 1.0);
  ku::Rng rng(1);
  EXPECT_DOUBLE_EQ(c.sample(rng), 7.0);
}

TEST(Distribution, InvalidParamsThrow) {
  EXPECT_THROW(kst::Distribution::exponential(0.0), std::invalid_argument);
  EXPECT_THROW(kst::Distribution::weibull(-1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(kst::Distribution::pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(kst::Distribution::uniform(3.0, 1.0), std::invalid_argument);
}

TEST(Distribution, JsonRoundTrip) {
  const auto d = kst::Distribution::lognormal(13.25, 0.75);
  const auto restored = keddah::testing::read_or_throw(d.to_json(), kst::read_distribution);
  EXPECT_EQ(restored.family(), kst::DistFamily::kLognormal);
  EXPECT_DOUBLE_EQ(restored.param1(), 13.25);
  EXPECT_DOUBLE_EQ(restored.param2(), 0.75);
}

TEST(Distribution, FamilyNamesRoundTrip) {
  for (const auto f : kst::all_families()) {
    EXPECT_EQ(kst::family_from_name(kst::family_name(f)), f);
  }
  EXPECT_THROW(kst::family_from_name("cauchy"), std::invalid_argument);
}

TEST(Distribution, DescribeMentionsFamily) {
  EXPECT_NE(kst::Distribution::weibull(1.0, 2.0).describe().find("weibull"), std::string::npos);
}

// Property: sampling N draws from each family and computing the one-sample
// KS statistic against the same distribution should be small.
class DistributionSampling : public ::testing::TestWithParam<kst::DistFamily> {};

TEST_P(DistributionSampling, SamplesMatchCdf) {
  const auto family = GetParam();
  kst::Distribution d;
  switch (family) {
    case kst::DistFamily::kExponential:
      d = kst::Distribution::exponential(0.01);
      break;
    case kst::DistFamily::kNormal:
      d = kst::Distribution::normal(100.0, 15.0);
      break;
    case kst::DistFamily::kLognormal:
      d = kst::Distribution::lognormal(10.0, 1.0);
      break;
    case kst::DistFamily::kWeibull:
      d = kst::Distribution::weibull(1.5, 200.0);
      break;
    case kst::DistFamily::kGamma:
      d = kst::Distribution::gamma_dist(2.5, 40.0);
      break;
    case kst::DistFamily::kPareto:
      d = kst::Distribution::pareto(10.0, 2.5);
      break;
    case kst::DistFamily::kUniform:
      d = kst::Distribution::uniform(5.0, 25.0);
      break;
    case kst::DistFamily::kConstant:
      GTEST_SKIP() << "degenerate family";
  }
  ku::Rng rng(99);
  std::vector<double> xs(4000);
  for (auto& x : xs) x = d.sample(rng);
  const double ks = kst::ks_statistic(xs, d);
  // 1% critical value for n=4000 is ~0.0258.
  EXPECT_LT(ks, 0.026) << d.describe();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, DistributionSampling,
                         ::testing::Values(kst::DistFamily::kExponential,
                                           kst::DistFamily::kNormal,
                                           kst::DistFamily::kLognormal,
                                           kst::DistFamily::kWeibull, kst::DistFamily::kGamma,
                                           kst::DistFamily::kPareto, kst::DistFamily::kUniform),
                         [](const auto& info) { return kst::family_name(info.param); });

// ---------------------------------------------------------------- fitting

// Property: MLE applied to samples of a known distribution recovers its
// parameters to a few percent.
class FitRecovery : public ::testing::TestWithParam<kst::DistFamily> {};

TEST_P(FitRecovery, RecoverParameters) {
  const auto family = GetParam();
  kst::Distribution truth;
  switch (family) {
    case kst::DistFamily::kExponential:
      truth = kst::Distribution::exponential(0.02);
      break;
    case kst::DistFamily::kNormal:
      truth = kst::Distribution::normal(500.0, 60.0);
      break;
    case kst::DistFamily::kLognormal:
      truth = kst::Distribution::lognormal(11.0, 0.7);
      break;
    case kst::DistFamily::kWeibull:
      truth = kst::Distribution::weibull(1.8, 300.0);
      break;
    case kst::DistFamily::kGamma:
      truth = kst::Distribution::gamma_dist(3.0, 50.0);
      break;
    case kst::DistFamily::kPareto:
      truth = kst::Distribution::pareto(100.0, 2.2);
      break;
    case kst::DistFamily::kUniform:
      truth = kst::Distribution::uniform(10.0, 90.0);
      break;
    case kst::DistFamily::kConstant:
      GTEST_SKIP();
  }
  ku::Rng rng(7);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = truth.sample(rng);
  const auto fit = kst::fit_family(family, xs);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->dist.param1() / truth.param1(), 1.0, 0.05) << fit->dist.describe();
  if (truth.num_params() > 1) {
    EXPECT_NEAR(fit->dist.param2() / truth.param2(), 1.0, 0.05) << fit->dist.describe();
  }
  EXPECT_LT(fit->ks, 0.02);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FitRecovery,
                         ::testing::Values(kst::DistFamily::kExponential,
                                           kst::DistFamily::kNormal,
                                           kst::DistFamily::kLognormal,
                                           kst::DistFamily::kWeibull, kst::DistFamily::kGamma,
                                           kst::DistFamily::kPareto, kst::DistFamily::kUniform),
                         [](const auto& info) { return kst::family_name(info.param); });

TEST(Fitting, SelectsGeneratingFamilyLognormal) {
  ku::Rng rng(11);
  std::vector<double> xs(8000);
  const auto truth = kst::Distribution::lognormal(12.0, 1.2);
  for (auto& x : xs) x = truth.sample(rng);
  const auto best = kst::fit_best(xs, kst::SelectBy::kKs);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->dist.family(), kst::DistFamily::kLognormal) << best->dist.describe();
}

TEST(Fitting, SelectsConstantForDegenerateSample) {
  const std::vector<double> xs(50, 128.0 * 1024 * 1024);
  const auto best = kst::fit_best(xs);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->dist.family(), kst::DistFamily::kConstant);
  EXPECT_DOUBLE_EQ(best->dist.param1(), 128.0 * 1024 * 1024);
}

TEST(Fitting, LognormalRejectsNonPositive) {
  const std::vector<double> xs = {1.0, -2.0, 3.0};
  EXPECT_FALSE(kst::fit_family(kst::DistFamily::kLognormal, xs).has_value());
  EXPECT_FALSE(kst::fit_family(kst::DistFamily::kPareto, xs).has_value());
  // Normal still applies.
  EXPECT_TRUE(kst::fit_family(kst::DistFamily::kNormal, xs).has_value());
}

TEST(Fitting, EmptySampleYieldsNothing) {
  EXPECT_FALSE(kst::fit_best({}).has_value());
  EXPECT_TRUE(kst::fit_all({}).empty());
}

TEST(Fitting, FitAllSortedByCriterion) {
  ku::Rng rng(13);
  std::vector<double> xs(3000);
  for (auto& x : xs) x = rng.exponential(0.005);
  const auto results = kst::fit_all(xs, kst::SelectBy::kKs);
  ASSERT_GE(results.size(), 3u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].ks, results[i].ks);
  }
}

TEST(Fitting, AicPenalizesParameters) {
  ku::Rng rng(17);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.exponential(0.1);
  const auto exp_fit = kst::fit_family(kst::DistFamily::kExponential, xs);
  const auto gamma_fit = kst::fit_family(kst::DistFamily::kGamma, xs);
  ASSERT_TRUE(exp_fit && gamma_fit);
  // Gamma nests exponential, so its likelihood is >= but AIC should not be
  // much better; exponential should win or nearly tie on AIC.
  EXPECT_LT(exp_fit->aic, gamma_fit->aic + 4.0);
}

// ---------------------------------------------------------------- KS tests

TEST(KsTest, ZeroDistanceForPerfectMatch) {
  std::vector<double> xs(1000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i + 1) / static_cast<double>(xs.size() + 1);
  }
  const double d = kst::ks_statistic(xs, [](double x) { return std::clamp(x, 0.0, 1.0); });
  EXPECT_LT(d, 0.01);
}

TEST(KsTest, DetectsMismatch) {
  ku::Rng rng(19);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.exponential(1.0);
  const auto wrong = kst::Distribution::normal(1.0, 1.0);
  EXPECT_GT(kst::ks_statistic(xs, wrong), 0.1);
}

TEST(KsTest, TwoSampleSameSourceSmall) {
  ku::Rng rng(23);
  std::vector<double> a(3000);
  std::vector<double> b(3000);
  for (auto& x : a) x = rng.lognormal(10.0, 1.0);
  for (auto& x : b) x = rng.lognormal(10.0, 1.0);
  const double d = kst::ks_statistic_two_sample(a, b);
  EXPECT_LT(d, 0.05);
  EXPECT_GT(kst::ks_pvalue_two_sample(d, a.size(), b.size()), 0.01);
}

TEST(KsTest, TwoSampleDifferentSourcesLarge) {
  ku::Rng rng(29);
  std::vector<double> a(2000);
  std::vector<double> b(2000);
  for (auto& x : a) x = rng.lognormal(10.0, 1.0);
  for (auto& x : b) x = rng.lognormal(11.0, 1.0);
  const double d = kst::ks_statistic_two_sample(a, b);
  EXPECT_GT(d, 0.2);
  EXPECT_LT(kst::ks_pvalue_two_sample(d, a.size(), b.size()), 1e-6);
}

TEST(KsTest, EmptyThrows) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(kst::ks_statistic({}, [](double) { return 0.5; }), std::invalid_argument);
  EXPECT_THROW(kst::ks_statistic_two_sample(xs, {}), std::invalid_argument);
  EXPECT_THROW(kst::ks_pvalue(0.1, 0), std::invalid_argument);
}

TEST(KsTest, PValueMonotoneInD) {
  EXPECT_GT(kst::ks_pvalue(0.01, 100), kst::ks_pvalue(0.2, 100));
  EXPECT_GT(kst::ks_pvalue(0.1, 10), kst::ks_pvalue(0.1, 10000));
}

// ---------------------------------------------------------------- regression

TEST(Regression, ExactLine) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {3, 5, 7, 9};  // y = 2x + 1
  const auto fit = kst::fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict(10.0), 21.0, 1e-12);
}

TEST(Regression, NoisyLineHighR2) {
  ku::Rng rng(31);
  std::vector<double> xs(200);
  std::vector<double> ys(200);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i);
    ys[i] = 4.0 * xs[i] + 100.0 + rng.normal(0.0, 5.0);
  }
  const auto fit = kst::fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 4.0, 0.05);
  EXPECT_NEAR(fit.intercept, 100.0, 5.0);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(Regression, ThroughOrigin) {
  const std::vector<double> xs = {1, 2, 4};
  const std::vector<double> ys = {3, 6, 12};
  const auto fit = kst::fit_linear_through_origin(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(fit.intercept, 0.0);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Regression, PowerLaw) {
  // y = 5 x^1.5
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 1.0; x <= 64.0; x *= 2.0) {
    xs.push_back(x);
    ys.push_back(5.0 * std::pow(x, 1.5));
  }
  const auto fit = kst::fit_power_law(xs, ys);
  EXPECT_NEAR(fit.slope, 1.5, 1e-10);
  EXPECT_NEAR(kst::predict_power(fit, 100.0), 5.0 * std::pow(100.0, 1.5), 1e-6);
}

TEST(Regression, DegenerateInputsThrow) {
  const std::vector<double> xs = {2.0, 2.0};
  const std::vector<double> ys = {1.0, 3.0};
  EXPECT_THROW(kst::fit_linear(xs, ys), std::invalid_argument);
  const std::vector<double> one = {1.0};
  const std::vector<double> two = {1.0, 2.0};
  const std::vector<double> zero = {0.0};
  const std::vector<double> mixed = {1.0, -1.0};
  const std::vector<double> ones = {1.0, 1.0};
  EXPECT_THROW(kst::fit_linear(one, two), std::invalid_argument);
  EXPECT_THROW(kst::fit_linear_through_origin(zero, one), std::invalid_argument);
  EXPECT_THROW(kst::fit_power_law(mixed, ones), std::invalid_argument);
  EXPECT_THROW(kst::predict_power(kst::LinearFit{}, -1.0), std::invalid_argument);
}

TEST(Regression, JsonRoundTrip) {
  kst::LinearFit fit;
  fit.slope = 1.25;
  fit.intercept = -3.0;
  fit.r2 = 0.87;
  fit.n = 12;
  const auto restored = keddah::testing::read_or_throw(fit.to_json(), kst::read_linear_fit);
  EXPECT_DOUBLE_EQ(restored.slope, 1.25);
  EXPECT_DOUBLE_EQ(restored.intercept, -3.0);
  EXPECT_DOUBLE_EQ(restored.r2, 0.87);
  EXPECT_EQ(restored.n, 12u);
}

// ---------------------------------------------------------------- bootstrap

TEST(Bootstrap, CiCoversTrueMean) {
  ku::Rng rng(101);
  std::vector<double> xs(400);
  for (auto& x : xs) x = rng.normal(10.0, 2.0);
  ku::Rng boot_rng(102);
  const auto ci = kst::bootstrap_ci(xs, [](std::span<const double> s) { return kst::mean(s); },
                                    boot_rng, 500);
  EXPECT_LT(ci.lo, 10.0);
  EXPECT_GT(ci.hi, 10.0);
  EXPECT_NEAR(ci.point, 10.0, 0.5);
  // Width ~ 2 * 1.96 * sigma/sqrt(n) = 0.39.
  EXPECT_NEAR(ci.hi - ci.lo, 0.39, 0.15);
}

TEST(Bootstrap, WorksForQuantiles) {
  ku::Rng rng(103);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.exponential(1.0);
  ku::Rng boot_rng(104);
  const auto ci = kst::bootstrap_ci(
      xs, [](std::span<const double> s) { return kst::quantile(s, 0.5); }, boot_rng, 300);
  const double true_median = std::log(2.0);
  EXPECT_LT(ci.lo, true_median + 0.1);
  EXPECT_GT(ci.hi, true_median - 0.1);
}

TEST(Bootstrap, DeterministicGivenRng) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8};
  ku::Rng r1(7);
  ku::Rng r2(7);
  const auto a = kst::bootstrap_ci(xs, [](std::span<const double> s) { return kst::mean(s); },
                                   r1, 100);
  const auto b = kst::bootstrap_ci(xs, [](std::span<const double> s) { return kst::mean(s); },
                                   r2, 100);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(Bootstrap, InvalidInputsThrow) {
  ku::Rng rng(1);
  const auto stat = [](std::span<const double> s) { return kst::mean(s); };
  EXPECT_THROW(kst::bootstrap_ci({}, stat, rng), std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(kst::bootstrap_ci(xs, stat, rng, 10, 0.0), std::invalid_argument);
  EXPECT_THROW(kst::bootstrap_ci(xs, stat, rng, 10, 1.0), std::invalid_argument);
}
