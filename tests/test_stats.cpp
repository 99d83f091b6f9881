// Unit and property tests for the stats foundation: RNG determinism,
// distribution sanity, summaries, ECDFs, regression, bootstrap.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/bootstrap.hpp"
#include "stats/distributions.hpp"
#include "stats/ecdf.hpp"
#include "stats/regression.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace shears::stats {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BoundedRespectsBound) {
  Xoshiro256 rng(99);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Rng, BoundedZeroReturnsZero) {
  Xoshiro256 rng(5);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, BoundedRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr std::uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.bounded(kBound)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBound, kDraws / kBound * 0.1);
  }
}

TEST(Rng, ForkedStreamsIndependent) {
  Xoshiro256 root(42);
  Xoshiro256 a = root.fork(1);
  Xoshiro256 b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic) {
  Xoshiro256 root1(42);
  Xoshiro256 root2(42);
  Xoshiro256 a = root1.fork(17);
  Xoshiro256 b = root2.fork(17);
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BernoulliEdgeCases) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, Fnv1aStableAndDistinct) {
  constexpr auto h1 = fnv1a64("DE", 2);
  constexpr auto h2 = fnv1a64("FR", 2);
  static_assert(h1 != h2);
  EXPECT_EQ(h1, fnv1a64("DE", 2));
}

TEST(Distributions, NormalMoments) {
  Xoshiro256 rng(21);
  Summary s;
  for (int i = 0; i < 200000; ++i) s.add(sample_normal(rng, 5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Distributions, LognormalMedianParameterisation) {
  Xoshiro256 rng(22);
  std::vector<double> draws;
  draws.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    draws.push_back(sample_lognormal_median(rng, 30.0, 1.5));
  }
  EXPECT_NEAR(Ecdf(std::move(draws)).median(), 30.0, 0.7);
}

TEST(Distributions, LognormalSpreadOneIsDegenerate) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(sample_lognormal_median(rng, 12.0, 1.0), 12.0);
  }
}

TEST(Distributions, ExponentialMean) {
  Xoshiro256 rng(24);
  Summary s;
  for (int i = 0; i < 200000; ++i) s.add(sample_exponential(rng, 7.0));
  EXPECT_NEAR(s.mean(), 7.0, 0.1);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Distributions, WeibullPositiveAndScales) {
  Xoshiro256 rng(25);
  Summary s;
  for (int i = 0; i < 50000; ++i) s.add(sample_weibull(rng, 0.8, 100.0));
  EXPECT_GT(s.min(), 0.0);
  // Mean of Weibull(k=0.8, lambda=100) = 100 * Gamma(1 + 1/0.8) ~ 113.3.
  EXPECT_NEAR(s.mean(), 113.3, 5.0);
}

TEST(Distributions, ParetoSupport) {
  Xoshiro256 rng(26);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(sample_pareto(rng, 5.0, 1.5), 5.0);
  }
}

TEST(Distributions, WeightedSamplingFollowsWeights) {
  Xoshiro256 rng(27);
  const double weights[3] = {1.0, 2.0, 7.0};
  std::vector<int> counts(3, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[sample_weighted(rng, weights, 3)];
  EXPECT_NEAR(counts[0], kDraws * 0.1, kDraws * 0.01);
  EXPECT_NEAR(counts[1], kDraws * 0.2, kDraws * 0.015);
  EXPECT_NEAR(counts[2], kDraws * 0.7, kDraws * 0.02);
}

TEST(Distributions, WeightedSamplingIgnoresNegativeWeights) {
  Xoshiro256 rng(28);
  const double weights[3] = {-5.0, 0.0, 1.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sample_weighted(rng, weights, 3), 2u);
  }
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_NEAR(s.sample_variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, EmptyIsSafe) {
  const Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesSequential) {
  Xoshiro256 rng(31);
  Summary whole;
  Summary left;
  Summary right;
  for (int i = 0; i < 1000; ++i) {
    const double x = sample_normal(rng, 3.0, 1.5);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a;
  a.add(2.0);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Ecdf, FractionsAndQuantiles) {
  const Ecdf ecdf({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_or_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(ecdf.fraction_below(2.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_or_below(9.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(ecdf.median(), 2.5);
}

TEST(Ecdf, EmptyIsSafe) {
  const Ecdf ecdf;
  EXPECT_TRUE(ecdf.empty());
  // Empty quantiles/extremes are NaN, not 0.0 — a sentinel 0.0 would be
  // indistinguishable from a genuine 0 ms RTT sample.
  EXPECT_TRUE(std::isnan(ecdf.quantile(0.5)));
  EXPECT_TRUE(std::isnan(ecdf.min()));
  EXPECT_TRUE(std::isnan(ecdf.max()));
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_or_below(1.0), 0.0);
}

TEST(Ecdf, QuantileInterpolates) {
  const Ecdf ecdf({0.0, 10.0});
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(ecdf.percentile(75.0), 7.5);
}

TEST(Ecdf, CurveIsMonotone) {
  Xoshiro256 rng(41);
  std::vector<double> sample;
  for (int i = 0; i < 1000; ++i) sample.push_back(rng.uniform(0.0, 50.0));
  const Ecdf ecdf(std::move(sample));
  const auto curve = ecdf.curve(std::size_t{64});
  ASSERT_EQ(curve.size(), 64u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GE(curve[i].first, curve[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

// Property: for any sample, the interpolated (type-7) quantile satisfies
// F(quantile(q)) >= q - 1/n (an interpolated value can sit strictly below
// the next order statistic, costing at most one sample of mass).
class EcdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdfProperty, QuantileFractionRoundTrip) {
  Xoshiro256 rng(GetParam());
  std::vector<double> sample;
  const std::size_t n = 1 + rng.bounded(500);
  for (std::size_t i = 0; i < n; ++i) {
    sample.push_back(sample_lognormal_median(rng, 20.0, 1.8));
  }
  const Ecdf ecdf(std::move(sample));
  const double slack = 1.0 / static_cast<double>(ecdf.size()) + 1e-9;
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_GE(ecdf.fraction_at_or_below(ecdf.quantile(q)), q - slack);
    // And the quantile always lies within the sample range.
    EXPECT_GE(ecdf.quantile(q), ecdf.min());
    EXPECT_LE(ecdf.quantile(q), ecdf.max());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Regression, RecoversLine) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict(100.0), 203.0, 1e-9);
}

TEST(Regression, HandlesDegenerateInput) {
  EXPECT_THROW(fit_linear({1.0}, {}), std::invalid_argument);
  const LinearFit constant = fit_linear({1.0, 1.0}, {2.0, 4.0});
  EXPECT_DOUBLE_EQ(constant.slope, 0.0);
  EXPECT_DOUBLE_EQ(constant.intercept, 3.0);
}

TEST(Regression, PearsonSignAndRange) {
  std::vector<double> x;
  std::vector<double> up;
  std::vector<double> down;
  Xoshiro256 rng(55);
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    up.push_back(i + sample_normal(rng, 0.0, 5.0));
    down.push_back(-2.0 * i + sample_normal(rng, 0.0, 5.0));
  }
  EXPECT_GT(pearson(x, up), 0.9);
  EXPECT_LT(pearson(x, down), -0.9);
  EXPECT_DOUBLE_EQ(pearson({1.0, 1.0}, {2.0, 3.0}), 0.0);
}

TEST(Regression, SpearmanHandlesMonotoneNonlinearity) {
  std::vector<double> x;
  std::vector<double> cubed;
  for (int i = 1; i <= 100; ++i) {
    x.push_back(i);
    cubed.push_back(static_cast<double>(i) * i * i);
  }
  // Perfect rank agreement even though the relation is nonlinear.
  EXPECT_NEAR(spearman(x, cubed), 1.0, 1e-12);
  std::vector<double> reversed(cubed.rbegin(), cubed.rend());
  EXPECT_NEAR(spearman(x, reversed), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(spearman({1.0}, {2.0}), 0.0);
}

TEST(Regression, SpearmanWithTies) {
  const std::vector<double> x = {1, 2, 2, 3};
  const std::vector<double> y = {10, 20, 20, 30};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Bootstrap, MedianIntervalCoversTruth) {
  Xoshiro256 rng(61);
  std::vector<double> sample;
  for (int i = 0; i < 400; ++i) {
    sample.push_back(sample_lognormal_median(rng, 25.0, 1.4));
  }
  const auto median = [](const std::vector<double>& v) {
    return Ecdf(v).median();
  };
  const BootstrapInterval ci = bootstrap_ci(sample, median, 0.95, 500, rng);
  EXPECT_LE(ci.lower, ci.point);
  EXPECT_GE(ci.upper, ci.point);
  EXPECT_LT(ci.lower, 25.0);
  EXPECT_GT(ci.upper, 23.0);
}

TEST(Bootstrap, RatioIntervalNearTruth) {
  Xoshiro256 rng(62);
  std::vector<double> num;
  std::vector<double> den;
  for (int i = 0; i < 300; ++i) {
    num.push_back(sample_lognormal_median(rng, 50.0, 1.3));
    den.push_back(sample_lognormal_median(rng, 20.0, 1.3));
  }
  const auto median = [](const std::vector<double>& v) {
    return Ecdf(v).median();
  };
  const BootstrapInterval ci =
      bootstrap_ratio_ci(num, den, median, 0.95, 400, rng);
  EXPECT_NEAR(ci.point, 2.5, 0.3);
  EXPECT_LT(ci.lower, ci.upper);
}

TEST(Bootstrap, RejectsEmpty) {
  Xoshiro256 rng(63);
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  EXPECT_THROW(bootstrap_ci({}, mean, 0.95, 10, rng), std::invalid_argument);
  EXPECT_THROW(bootstrap_ci({1.0}, mean, 0.95, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace shears::stats
