// Tests for the statistical triplet algebra and triangular-CDF feasibility
// analysis (paper §2.6).
#include "util/statval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "testing/properties.hpp"
#include "util/rng.hpp"

namespace chop {
namespace {

/// Deterministic random triplet with occasional degenerate shapes (exact
/// values, mode pinned to a bound) so the property checks cover the edge
/// branches of the triangular CDF.
StatVal random_triplet(Rng& rng) {
  const double lo = static_cast<double>(rng.uniform(-50, 200));
  const double spread = static_cast<double>(rng.uniform(0, 80));
  const double hi = lo + spread;
  double likely = lo + static_cast<double>(rng.uniform01()) * spread;
  if (rng.chance(0.15)) likely = lo;
  if (rng.chance(0.15)) likely = hi;
  return StatVal(lo, likely, hi);
}

TEST(StatVal, DefaultIsZero) {
  const StatVal v;
  EXPECT_EQ(v.lo(), 0.0);
  EXPECT_EQ(v.likely(), 0.0);
  EXPECT_EQ(v.hi(), 0.0);
  EXPECT_TRUE(v.exact());
}

TEST(StatVal, ExactConstructor) {
  const StatVal v(42.0);
  EXPECT_TRUE(v.exact());
  EXPECT_EQ(v.mean(), 42.0);
  EXPECT_EQ(v.spread(), 0.0);
}

TEST(StatVal, RejectsUnorderedTriplet) {
  EXPECT_THROW(StatVal(2.0, 1.0, 3.0), Error);
  EXPECT_THROW(StatVal(1.0, 3.0, 2.0), Error);
}

TEST(StatVal, MeanOfTriangular) {
  const StatVal v(0.0, 3.0, 6.0);
  EXPECT_DOUBLE_EQ(v.mean(), 3.0);
  EXPECT_DOUBLE_EQ(v.spread(), 3.0);
}

TEST(StatVal, CdfAtBounds) {
  const StatVal v(10.0, 20.0, 40.0);
  EXPECT_DOUBLE_EQ(v.cdf(10.0), 0.0);
  EXPECT_DOUBLE_EQ(v.cdf(40.0), 1.0);
  EXPECT_DOUBLE_EQ(v.cdf(5.0), 0.0);
  EXPECT_DOUBLE_EQ(v.cdf(100.0), 1.0);
}

TEST(StatVal, CdfAtMode) {
  // At the mode the CDF equals (mode-lo)/(hi-lo).
  const StatVal v(0.0, 10.0, 40.0);
  EXPECT_NEAR(v.cdf(10.0), 0.25, 1e-12);
}

TEST(StatVal, CdfSymmetricTriangle) {
  const StatVal v(0.0, 5.0, 10.0);
  EXPECT_NEAR(v.cdf(5.0), 0.5, 1e-12);
  EXPECT_NEAR(v.cdf(2.5), 0.125, 1e-12);
  EXPECT_NEAR(v.cdf(7.5), 0.875, 1e-12);
}

TEST(StatVal, CdfDegenerateExact) {
  const StatVal v(7.0);
  EXPECT_DOUBLE_EQ(v.cdf(6.999), 0.0);
  EXPECT_DOUBLE_EQ(v.cdf(7.0), 1.0);
  EXPECT_DOUBLE_EQ(v.cdf(7.001), 1.0);
}

TEST(StatVal, CdfModeAtLowerBound) {
  // Mode at lo: pure descending leg.
  const StatVal v(0.0, 0.0, 10.0);
  EXPECT_NEAR(v.cdf(5.0), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(v.cdf(10.0), 1.0);
}

TEST(StatVal, CdfModeAtUpperBound) {
  // Mode at hi: pure ascending leg.
  const StatVal v(0.0, 10.0, 10.0);
  EXPECT_NEAR(v.cdf(5.0), 0.25, 1e-12);
}

TEST(StatVal, SatisfiesFullProbabilityNeedsUpperBound) {
  const StatVal v(10.0, 20.0, 30.0);
  EXPECT_TRUE(v.satisfies(30.0, 1.0));
  EXPECT_FALSE(v.satisfies(29.99, 1.0));
}

TEST(StatVal, SatisfiesEightyPercent) {
  const StatVal v(0.0, 5.0, 10.0);
  // CDF(7.5) = 0.875 >= 0.8; CDF(6) = 1 - 16/100... compute: 1-(4*4)/(10*5)=0.68.
  EXPECT_TRUE(v.satisfies(7.5, 0.8));
  EXPECT_FALSE(v.satisfies(6.0, 0.8));
}

TEST(StatVal, SatisfiesRejectsBadProbability) {
  const StatVal v(1.0);
  EXPECT_THROW(v.satisfies(1.0, -0.1), Error);
  EXPECT_THROW(v.satisfies(1.0, 1.5), Error);
}

TEST(StatVal, AdditionIsComponentwise) {
  const StatVal a(1.0, 2.0, 3.0);
  const StatVal b(10.0, 20.0, 30.0);
  const StatVal sum = a + b;
  EXPECT_EQ(sum, StatVal(11.0, 22.0, 33.0));
}

TEST(StatVal, PlusEqualsAccumulates) {
  StatVal acc;
  acc += StatVal(1.0, 2.0, 3.0);
  acc += StatVal(1.0, 2.0, 3.0);
  EXPECT_EQ(acc, StatVal(2.0, 4.0, 6.0));
}

TEST(StatVal, ScalingByNonnegativeFactor) {
  const StatVal v(1.0, 2.0, 3.0);
  EXPECT_EQ(v * 2.0, StatVal(2.0, 4.0, 6.0));
  EXPECT_EQ(v * 0.0, StatVal(0.0, 0.0, 0.0));
  EXPECT_THROW(v * -1.0, Error);
}

TEST(StatVal, MaxIsComponentwise) {
  const StatVal a(1.0, 5.0, 6.0);
  const StatVal b(2.0, 3.0, 7.0);
  EXPECT_EQ(StatVal::max(a, b), StatVal(2.0, 5.0, 7.0));
}

TEST(StatVal, ScalarSubtraction) {
  const StatVal v(10.0, 20.0, 30.0);
  EXPECT_EQ(v - 5.0, StatVal(5.0, 15.0, 25.0));
}

// ---- property sweep: CDF is a valid, monotone CDF for many triplets ----

struct TripletCase {
  double lo, likely, hi;
};

class CdfProperty : public ::testing::TestWithParam<TripletCase> {};

TEST_P(CdfProperty, MonotoneNondecreasingAndBounded) {
  const auto& p = GetParam();
  const StatVal v(p.lo, p.likely, p.hi);
  double prev = -1.0;
  for (int i = -5; i <= 55; ++i) {
    const double x = p.lo + (p.hi - p.lo) * (static_cast<double>(i) / 50.0);
    const double c = v.cdf(x);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    EXPECT_GE(c, prev - 1e-12) << "CDF must be nondecreasing at x=" << x;
    prev = c;
  }
  EXPECT_DOUBLE_EQ(v.cdf(p.hi + 1.0), 1.0);
}

TEST_P(CdfProperty, SatisfiesConsistentWithCdf) {
  const auto& p = GetParam();
  const StatVal v(p.lo, p.likely, p.hi);
  const double mid = (p.lo + p.hi) / 2.0;
  EXPECT_EQ(v.satisfies(mid, 0.5), v.cdf(mid) >= 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Triplets, CdfProperty,
    ::testing::Values(TripletCase{0.0, 1.0, 2.0}, TripletCase{0.0, 0.0, 2.0},
                      TripletCase{0.0, 2.0, 2.0}, TripletCase{-5.0, 0.0, 5.0},
                      TripletCase{100.0, 250.0, 300.0},
                      TripletCase{1e6, 1.5e6, 4e6},
                      TripletCase{0.0, 0.1, 10.0}));

// --- Randomized algebra properties, via the reusable checks shared with
// the chop_fuzz statval oracle (src/testing/properties.hpp). Each check
// returns nullopt on success or a description of the first violation.

TEST(StatValProperty, SumCommutativeAndAssociative) {
  Rng rng(2026);
  for (int i = 0; i < 500; ++i) {
    const StatVal a = random_triplet(rng);
    const StatVal b = random_triplet(rng);
    const StatVal c = random_triplet(rng);
    EXPECT_EQ(testing::check_sum_commutative(a, b), std::nullopt);
    EXPECT_EQ(testing::check_sum_associative(a, b, c), std::nullopt);
  }
}

TEST(StatValProperty, MaxDominatesAndCommutes) {
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const StatVal a = random_triplet(rng);
    const StatVal b = random_triplet(rng);
    EXPECT_EQ(testing::check_max_monotone(a, b), std::nullopt);
  }
}

TEST(StatValProperty, CdfIsAProperDistribution) {
  Rng rng(57);
  for (int i = 0; i < 500; ++i) {
    const StatVal v = random_triplet(rng);
    EXPECT_EQ(testing::check_cdf_bounds(v), std::nullopt)
        << "triplet (" << v.lo() << ", " << v.likely() << ", " << v.hi()
        << ")";
  }
}

TEST(StatValProperty, SatisfiesMonotoneInTheBound) {
  Rng rng(91);
  for (int i = 0; i < 300; ++i) {
    const StatVal v = random_triplet(rng);
    for (const double prob : {0.5, 0.8, 1.0}) {
      EXPECT_EQ(testing::check_satisfies_monotone(v, prob), std::nullopt)
          << "triplet (" << v.lo() << ", " << v.likely() << ", " << v.hi()
          << ") prob " << prob;
    }
  }
}

TEST(StatValProperty, SumsCloseUnderTheAlgebra) {
  // Sums of valid triplets stay valid (lo <= likely <= hi), so chained
  // accumulation in the integrator can never produce an unordered triplet.
  Rng rng(113);
  StatVal acc;
  for (int i = 0; i < 200; ++i) {
    acc += random_triplet(rng);
    EXPECT_LE(acc.lo(), acc.likely());
    EXPECT_LE(acc.likely(), acc.hi());
  }
}

// ---- monotonicity in the triangle: the premise of level 1 inside BAD's
// ---- sweep, which tests lower bounds of a point's area triangle (t) in
// ---- place of the triangle it would build (t' >= t componentwise).

/// `t` moved up componentwise: each component by zero, a few ulps, or a
/// real step, re-ordered so the result is a valid triplet >= t.
StatVal moved_up(Rng& rng, const StatVal& t) {
  double c[3] = {t.lo(), t.likely(), t.hi()};
  for (double& v : c) {
    switch (rng.uniform(0, 3)) {
      case 0:
        break;
      case 1:
        for (std::int64_t k = rng.uniform(1, 3); k > 0; --k) {
          v = std::nextafter(v, HUGE_VAL);
        }
        break;
      case 2:
        v += rng.uniform01() * 1e-6;
        break;
      default:
        v += rng.uniform01() * 40.0;
    }
  }
  c[1] = std::max(c[0], c[1]);
  c[2] = std::max(c[1], c[2]);
  return StatVal(c[0], c[1], c[2]);
}

/// Limits at, beside and between every component of both triangles.
std::vector<double> limits_around(Rng& rng, const StatVal& t,
                                  const StatVal& u) {
  std::vector<double> out;
  for (const double v :
       {t.lo(), t.likely(), t.hi(), u.lo(), u.likely(), u.hi()}) {
    out.push_back(v);
    out.push_back(std::nextafter(v, -HUGE_VAL));
    out.push_back(std::nextafter(v, HUGE_VAL));
  }
  out.push_back(t.lo() - 1.0);
  out.push_back(u.hi() + 1.0);
  for (int i = 0; i < 4; ++i) {
    out.push_back(t.lo() + rng.uniform01() * (u.hi() - t.lo()));
  }
  return out;
}

bool satisfies(const StatVal& v, double limit, double prob) {
  return triangular_satisfies(v.lo(), v.likely(), v.hi(), limit, prob);
}

TEST(StatValProperty, SatisfiesMonotoneInTheTriangle) {
  // Exact in floating point for p = 1 (hi <= limit), for a point mass t
  // (lo == hi: it passes every limit at or above lo, and t' cannot pass a
  // limit below its own lo), and for limits at or outside the support
  // edges, with any probability, including one equal to t''s own CDF.
  Rng rng(4099);
  std::size_t checked = 0;
  for (int i = 0; i < 3000; ++i) {
    StatVal t = random_triplet(rng);
    if (rng.chance(0.25)) t = StatVal(t.lo());  // point mass
    const StatVal u = moved_up(rng, t);
    ASSERT_TRUE(t.lo() <= u.lo() && t.likely() <= u.likely() &&
                t.hi() <= u.hi());
    for (const double limit : limits_around(rng, t, u)) {
      const bool edge = limit <= u.lo() || limit >= t.hi();
      std::vector<double> probs = {1.0};
      if (t.exact() || edge) {
        probs.insert(probs.end(), {1e-12, 0.3, 0.8, rng.uniform01()});
        const double at = triangular_cdf(u.lo(), u.likely(), u.hi(), limit);
        if (at > 0.0) probs.push_back(at);
      }
      for (const double prob : probs) {
        ++checked;
        if (satisfies(u, limit, prob)) {
          EXPECT_TRUE(satisfies(t, limit, prob))
              << "t=" << t << " t'=" << u << " limit " << limit << " prob "
              << prob;
        }
      }
    }
  }
  EXPECT_GT(checked, 100000u);
}

TEST(StatValProperty, SatisfiesMonotoneInSeparatedTriangles) {
  // Interior limits with p < 1: exact arithmetic gives the implication for
  // any t <= t', and it survives rounding once t' sits above t by a real
  // margin in every component — as a built area triangle sits above the
  // sweep's lower bound by at least the controller's area.
  Rng rng(8191);
  for (int i = 0; i < 20000; ++i) {
    const StatVal t = random_triplet(rng);
    const double margin = 1e-6 * std::max(1.0, std::fabs(t.hi()) + 40.0);
    double c[3];
    c[0] = t.lo() + margin * (1.0 + rng.uniform01() * 1e6);
    c[1] = std::max(c[0], t.likely() + margin * (1.0 + rng.uniform01() * 1e6));
    c[2] = std::max(c[1], t.hi() + margin * (1.0 + rng.uniform01() * 1e6));
    const StatVal u(c[0], c[1], c[2]);
    const double limit = u.lo() + rng.uniform01() * (t.hi() - u.lo());
    const double at = triangular_cdf(u.lo(), u.likely(), u.hi(), limit);
    for (const double prob : {0.1, 0.5, 0.8, 0.95, rng.uniform01(), at}) {
      if (prob <= 0.0 || !satisfies(u, limit, prob)) continue;
      EXPECT_TRUE(satisfies(t, limit, prob))
          << "t=" << t << " t'=" << u << " limit " << limit << " prob "
          << prob;
    }
  }
}

TEST(StatValProperty, CdfMonotoneInTheTriangleUpToRounding) {
  // Without a margin, rounding can invert the computed CDFs of two
  // triangles a few ulps apart at an interior limit — by a few ulps of the
  // CDF, never more. (This is why the sweep's bound relies on a margin.)
  Rng rng(131071);
  for (int i = 0; i < 20000; ++i) {
    const StatVal t = random_triplet(rng);
    const StatVal u = moved_up(rng, t);
    const double limit = t.lo() + rng.uniform01() * (u.hi() - t.lo());
    EXPECT_GE(triangular_cdf(t.lo(), t.likely(), t.hi(), limit),
              triangular_cdf(u.lo(), u.likely(), u.hi(), limit) - 4e-15)
        << "t=" << t << " t'=" << u << " limit " << limit;
  }
}

// ---- the branch-lean scalar path and the SoA bank must be bit-identical
// ---- to the StatVal member functions they replace on the hot path

TEST(StatValProperty, FreeTriangularFunctionsMatchMemberGrid) {
  Rng rng(20260808);
  for (int t = 0; t < 200; ++t) {
    const StatVal sv = random_triplet(rng);
    // Probe well outside, at, and between every interesting point of the
    // support, plus random interior points.
    std::vector<double> grid = {sv.lo() - 1.0,
                                sv.lo(),
                                (sv.lo() + sv.likely()) / 2.0,
                                sv.likely(),
                                (sv.likely() + sv.hi()) / 2.0,
                                sv.hi(),
                                sv.hi() + 1.0};
    for (int i = 0; i < 5; ++i) {
      grid.push_back(sv.lo() + rng.uniform01() * (sv.hi() - sv.lo() + 2.0) -
                     1.0);
    }
    for (const double x : grid) {
      EXPECT_EQ(triangular_cdf(sv.lo(), sv.likely(), sv.hi(), x), sv.cdf(x))
          << sv << " at " << x;
      for (const double prob : {0.5, 0.8, 1.0}) {
        EXPECT_EQ(triangular_satisfies(sv.lo(), sv.likely(), sv.hi(), x, prob),
                  sv.satisfies(x, prob))
            << sv << " limit " << x << " prob " << prob;
      }
    }
  }
}

TEST(StatBank, AccumulatesBitIdenticalToStatVal) {
  Rng rng(777);
  constexpr std::size_t kSlots = 7;
  StatBank bank;
  bank.assign(kSlots);
  std::vector<StatVal> reference(kSlots);
  for (int round = 0; round < 50; ++round) {
    const std::size_t slot = static_cast<std::size_t>(rng.uniform(0, 6));
    const StatVal v = random_triplet(rng);
    if (round % 3 == 0) {
      bank.add(slot, v);
    } else if (round % 3 == 1) {
      bank.add(slot, v.lo(), v.likely(), v.hi());
    } else {
      const double exact = v.likely();
      bank.add_exact(slot, exact);
      reference[slot] += StatVal(exact);
      continue;
    }
    reference[slot] += v;
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    // Same additions in the same order: exactly equal, not just close.
    EXPECT_EQ(bank.get(i), reference[i]) << "slot " << i;
    EXPECT_EQ(bank.lo(i), reference[i].lo());
    EXPECT_EQ(bank.likely(i), reference[i].likely());
    EXPECT_EQ(bank.hi(i), reference[i].hi());
    for (const double prob : {0.5, 0.8, 1.0}) {
      const double limit = reference[i].likely() + 1.0;
      EXPECT_EQ(bank.satisfies(i, limit, prob),
                reference[i].satisfies(limit, prob));
    }
  }
}

TEST(StatBank, AssignResetsToZero) {
  StatBank bank;
  bank.assign(2);
  bank.add(1, StatVal(1.0, 2.0, 3.0));
  bank.assign(3);
  EXPECT_EQ(bank.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bank.get(i), StatVal());
  }
}

}  // namespace
}  // namespace chop
