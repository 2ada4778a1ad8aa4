#include "support/rational.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>

#include "support/prng.hpp"

namespace sts {
namespace {

TEST(Rational, DefaultsToZero) {
  const Rational r;
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, NormalizesSignAndGcd) {
  const Rational r(6, -8);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 4);
}

TEST(Rational, ThrowsOnZeroDenominator) {
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, ArithmeticStaysCanonical) {
  const Rational a(1, 3);
  const Rational b(1, 6);
  EXPECT_EQ(a + b, Rational(1, 2));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 18));
  EXPECT_EQ(a / b, Rational(2));
}

TEST(Rational, CompoundAssignment) {
  Rational r(3, 4);
  r += Rational(1, 4);
  EXPECT_EQ(r, Rational(1));
  r *= Rational(2, 3);
  EXPECT_EQ(r, Rational(2, 3));
  r -= Rational(2, 3);
  EXPECT_EQ(r, Rational(0));
}

TEST(Rational, ComparisonTotalOrder) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(5, 2), Rational(2));
  EXPECT_GE(Rational(-1, 2), Rational(-1));
  EXPECT_NE(Rational(1, 3), Rational(1, 4));
}

TEST(Rational, FloorCeilPositive) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(8, 2).floor(), 4);
  EXPECT_EQ(Rational(8, 2).ceil(), 4);
}

TEST(Rational, FloorCeilNegative) {
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(-8, 2).ceil(), -4);
}

TEST(Rational, ReciprocalAndDivisionByZero) {
  EXPECT_EQ(Rational(3, 5).reciprocal(), Rational(5, 3));
  EXPECT_THROW((void)Rational(0).reciprocal(), std::domain_error);
  EXPECT_THROW((void)(Rational(1) / Rational(0)), std::domain_error);
}

TEST(Rational, CeilMulMatchesScheduleUse) {
  // ceil((O-1) * S_o) terms from Section 5.1.
  EXPECT_EQ(ceil_mul(15, Rational(2)), 30);
  EXPECT_EQ(ceil_mul(3, Rational(8)), 24);
  EXPECT_EQ(ceil_mul(3, Rational(3, 2)), 5);  // 4.5 -> 5
  EXPECT_EQ(ceil_mul(0, Rational(7, 3)), 0);
}

TEST(Rational, ToStringForms) {
  EXPECT_EQ(Rational(4, 2).to_string(), "2");
  EXPECT_EQ(Rational(3, 2).to_string(), "3/2");
  EXPECT_EQ((-Rational(3, 2)).to_string(), "-3/2");
}

TEST(Rational, IsIntegerAndToDouble) {
  EXPECT_TRUE(Rational(10, 5).is_integer());
  EXPECT_FALSE(Rational(1, 3).is_integer());
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
}

// ---------------------------------------------------- overflow regressions
//
// Deep-chain interval products with volumes up to 2^20 produce rationals
// whose comparison cross-products and un-reduced sum intermediates exceed
// 2^63. The old int64 arithmetic silently wrapped; everything now runs
// through 128-bit intermediates.

TEST(RationalOverflow, ComparisonSurvivesCrossProductOverflow) {
  const std::int64_t big = std::int64_t{1} << 40;
  const Rational a(big + 1, big);  // 1 + 1/2^40
  const Rational b(big, big - 1);  // 1 + 1/(2^40 - 1), strictly larger
  // Cross-products are ~2^80: the int64 comparison wrapped and misordered.
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, b);
  EXPECT_FALSE(b <= a);
  EXPECT_FALSE(a > b);
}

TEST(RationalOverflow, OrderingExactAtIntervalMagnitudes) {
  // S_o-style intervals after ~3 compounded 2^20 volume ratios.
  const std::int64_t v20 = std::int64_t{1} << 20;
  const Rational s1 = Rational(v20, 3) * Rational(v20, 5);   // 2^40 / 15
  const Rational s2 = Rational(v20, 5) * Rational(v20, 3);   // equal
  const Rational s3 = s1 * Rational(v20, v20 - 1);           // slightly larger
  EXPECT_EQ(s1, s2);
  EXPECT_LE(s1, s2);
  EXPECT_GE(s2, s1);
  EXPECT_LT(s1, s3);
  EXPECT_GT(s3, s2);
}

TEST(RationalOverflow, AdditionReducesThroughWideIntermediates) {
  // Both numerators are near 2^62; the un-reduced sum numerator is 2^63 + 4,
  // which wraps in int64 — but gcd reduction brings the true result back in
  // range, so this must succeed exactly.
  const std::int64_t n1 = (std::int64_t{1} << 62) + 3;
  const std::int64_t n2 = (std::int64_t{1} << 62) + 1;
  const Rational sum = Rational(n1, 2) + Rational(n2, 2);
  EXPECT_EQ(sum, Rational((std::int64_t{1} << 62) + 2));
  EXPECT_EQ(sum.den(), 1);
  // Same shape through subtraction of a negative.
  EXPECT_EQ(Rational(n1, 2) - Rational(-n2, 2), sum);
}

TEST(RationalOverflow, ThrowsWhenCanonicalResultExceedsInt64) {
  const std::int64_t half = std::int64_t{1} << 62;
  EXPECT_THROW((void)(Rational(half) + Rational(half)), std::overflow_error);
  EXPECT_THROW((void)(Rational(-half) - Rational(half + 1)), std::overflow_error);
  // -2^63 itself is representable: the check is exact, not conservative.
  EXPECT_EQ((Rational(-half) - Rational(half)).num(), std::numeric_limits<std::int64_t>::min());
  const std::int64_t v20 = std::int64_t{1} << 20;
  // 1/2^20 compounded four times: denominator 2^80 cannot be represented.
  const Rational step(1, v20);
  EXPECT_THROW((void)(step * step * step * step), std::overflow_error);
  // Coprime odd denominators whose lcm 2^64 - 1 exceeds int64 and cannot
  // reduce (the sum numerator 2^33 shares no factor with it).
  EXPECT_THROW((void)(Rational(1, (std::int64_t{1} << 32) + 1) +
                      Rational(1, (std::int64_t{1} << 32) - 1)),
               std::overflow_error);
}

TEST(RationalOverflow, Int64MinIsRepresentableButItsNegationThrows) {
  const std::int64_t half = std::int64_t{1} << 62;
  const Rational min_val = Rational(-half) - Rational(half);
  ASSERT_EQ(min_val.num(), std::numeric_limits<std::int64_t>::min());
  // Every negation path is checked instead of UB: -INT64_MIN and a 2^63
  // denominator are unrepresentable.
  EXPECT_THROW((void)(-min_val), std::overflow_error);
  EXPECT_THROW((void)min_val.reciprocal(), std::overflow_error);
  EXPECT_THROW((void)(Rational(0) - min_val), std::overflow_error);
  EXPECT_THROW((void)Rational(std::numeric_limits<std::int64_t>::min(), -1),
               std::overflow_error);
  // Non-negating operations on the extreme value stay exact.
  EXPECT_EQ(min_val.floor(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(min_val.ceil(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ((min_val / Rational(2)).num(), -half);
  EXPECT_LT(min_val, Rational(-half));
}

TEST(RationalOverflow, CeilMulExactAtPaperVolumeExtremes) {
  // ceil((O-1) * S_o) with 2^20 volumes: exact, no wrap.
  const std::int64_t v20 = std::int64_t{1} << 20;
  EXPECT_EQ(ceil_mul(v20 - 1, Rational(v20, 3)), ((v20 - 1) * v20 + 2) / 3);
  EXPECT_EQ(ceil_mul(v20, Rational(v20, v20 - 1)), v20 + 2);  // ceil(2^40/(2^40-2^20))
}

class RationalRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RationalRoundTrip, MulDivRoundTrips) {
  const auto [num, den] = GetParam();
  const Rational r(num, den);
  EXPECT_EQ(r * r.reciprocal(), Rational(1));
  EXPECT_EQ(r + (-r), Rational(0));
  EXPECT_EQ((r / Rational(7, 3)) * Rational(7, 3), r);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RationalRoundTrip,
                         ::testing::Values(std::make_tuple(1, 1), std::make_tuple(3, 7),
                                           std::make_tuple(-5, 9), std::make_tuple(16, 4),
                                           std::make_tuple(1024, 3), std::make_tuple(-7, 2)));

// ------------------------------------------- the former 128-bit arithmetic
//
// Rational reduces in 64-bit whenever the values fit and adds, subtracts and
// multiplies integers with 64-bit overflow checks. The arithmetic it
// replaced, which reduced every result through 128-bit Euclid, is kept here
// as the reference: on every operand pair, both must give the same num/den
// or throw the same exception type.

namespace former {

using Int128 = __int128;

struct Value {
  std::int64_t num = 0;
  std::int64_t den = 1;
};

Int128 abs128(Int128 x) { return x < 0 ? -x : x; }

Int128 gcd128(Int128 a, Int128 b) {
  a = abs128(a);
  b = abs128(b);
  while (b != 0) {
    const Int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

Value from_int128(Int128 num, Int128 den) {
  if (den == 0) throw std::invalid_argument("Rational: zero denominator");
  if (den < 0) {
    num = -num;
    den = -den;
  }
  const Int128 g = gcd128(num, den);
  if (g > 1) {
    num /= g;
    den /= g;
  }
  constexpr Int128 kMax = std::numeric_limits<std::int64_t>::max();
  constexpr Int128 kMin = std::numeric_limits<std::int64_t>::min();
  if (num > kMax || num < kMin || den > kMax) {
    throw std::overflow_error("Rational: result exceeds 64-bit range");
  }
  return {static_cast<std::int64_t>(num), static_cast<std::int64_t>(den)};
}

Value make(std::int64_t num, std::int64_t den) { return from_int128(num, den); }

Value add(Value a, Value b) {
  const std::int64_t g = std::gcd(a.den, b.den);
  const std::int64_t bd = b.den / g;
  return from_int128(Int128(a.num) * bd + Int128(b.num) * (a.den / g), Int128(a.den) * bd);
}

Value sub(Value a, Value b) {
  const std::int64_t g = std::gcd(a.den, b.den);
  const std::int64_t bd = b.den / g;
  return from_int128(Int128(a.num) * bd - Int128(b.num) * (a.den / g), Int128(a.den) * bd);
}

Value mul(Value a, Value b) {
  const auto g1 = static_cast<std::int64_t>(gcd128(a.num, b.den));
  const auto g2 = static_cast<std::int64_t>(gcd128(b.num, a.den));
  return from_int128((Int128(a.num) / g1) * (b.num / g2), Int128(a.den / g2) * (b.den / g1));
}

Value reciprocal(Value a) {
  if (a.num == 0) throw std::domain_error("Rational: reciprocal of zero");
  return from_int128(a.den, a.num);
}

Value div(Value a, Value b) {
  if (b.num == 0) throw std::domain_error("Rational: division by zero");
  return mul(a, reciprocal(b));
}

Value neg(Value a) { return from_int128(-Int128(a.num), Int128(a.den)); }

std::int64_t floor(Value a) {
  if (a.num >= 0) return a.num / a.den;
  const Int128 n = a.num;
  return static_cast<std::int64_t>(-((-n + a.den - 1) / a.den));
}

std::int64_t ceil(Value a) {
  const Int128 n = a.num;
  if (a.num >= 0) return static_cast<std::int64_t>((n + a.den - 1) / a.den);
  return static_cast<std::int64_t>(-((-n) / a.den));
}

std::int64_t ceil_mul(std::int64_t scale, Value r) { return ceil(mul(Value{scale, 1}, r)); }

bool less(Value a, Value b) { return Int128(a.num) * b.den < Int128(b.num) * a.den; }
bool less_equal(Value a, Value b) { return Int128(a.num) * b.den <= Int128(b.num) * a.den; }

}  // namespace former

/// What one operation produced: a canonical pair or integer, or the type of
/// the exception it threw.
struct Outcome {
  std::int64_t num = 0;
  std::int64_t den = 0;
  std::string thrown;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const std::function<Outcome()>& op) {
  try {
    return op();
  } catch (const std::invalid_argument&) {
    return {0, 0, "invalid_argument"};
  } catch (const std::domain_error&) {
    return {0, 0, "domain_error"};
  } catch (const std::overflow_error&) {
    return {0, 0, "overflow_error"};
  }
}

Outcome value(const Rational& r) { return {r.num(), r.den(), {}}; }
Outcome value(const former::Value& r) { return {r.num, r.den, {}}; }
Outcome integer(std::int64_t x) { return {x, 1, {}}; }

std::string describe(const Outcome& o) {
  return o.thrown.empty() ? std::to_string(o.num) + "/" + std::to_string(o.den) : o.thrown;
}

/// Operands from the ranges where 64-bit and 128-bit handling differ: small
/// integers, powers of two, values around +-2^31, +-2^62, INT64_MAX and
/// INT64_MIN, and uniformly random 64-bit values.
std::int64_t draw_operand(Prng& rng) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t sign = rng.uniform_int(0, 1) == 0 ? 1 : -1;
  switch (rng.uniform_int(0, 6)) {
    case 0: return rng.uniform_int(-16, 16);
    case 1: {
      const auto shift = rng.uniform_int(0, 63);
      return shift == 63 ? kMin : sign * (std::int64_t{1} << shift);
    }
    case 2: return sign * ((std::int64_t{1} << 31) + rng.uniform_int(-3, 3));
    case 3: return sign * ((std::int64_t{1} << 62) + rng.uniform_int(-3, 3));
    case 4: return kMax - rng.uniform_int(0, 3);
    case 5: return kMin + rng.uniform_int(0, 3);
    default: return static_cast<std::int64_t>(rng());
  }
}

TEST(RationalReference, MatchesTheFormer128BitArithmetic) {
  Prng rng(20261020);
  constexpr int kPairs = 100'000;
  int compared = 0;
  int thrown = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    std::int64_t raw[4];
    for (std::int64_t& x : raw) x = draw_operand(rng);
    // A quarter of the operands are integers, for the 64-bit fast paths.
    if (rng.uniform_int(0, 3) == 0) raw[1] = 1;
    if (rng.uniform_int(0, 3) == 0) raw[3] = 1;
    const auto check = [&](const char* op, const Outcome& got, const Outcome& want) {
      ++compared;
      thrown += want.thrown.empty() ? 0 : 1;
      ASSERT_EQ(got, want) << op << " on (" << raw[0] << "/" << raw[1] << ", " << raw[2] << "/"
                           << raw[3] << "): got " << describe(got) << ", want "
                           << describe(want);
    };

    const Outcome made_a = outcome_of([&] { return value(Rational(raw[0], raw[1])); });
    const Outcome made_b = outcome_of([&] { return value(Rational(raw[2], raw[3])); });
    check("construction", made_a, outcome_of([&] { return value(former::make(raw[0], raw[1])); }));
    check("construction", made_b, outcome_of([&] { return value(former::make(raw[2], raw[3])); }));
    if (!made_a.thrown.empty() || !made_b.thrown.empty()) continue;

    const Rational a(raw[0], raw[1]);
    const Rational b(raw[2], raw[3]);
    const former::Value fa = former::make(raw[0], raw[1]);
    const former::Value fb = former::make(raw[2], raw[3]);
    check("+", outcome_of([&] { return value(a + b); }),
          outcome_of([&] { return value(former::add(fa, fb)); }));
    check("-", outcome_of([&] { return value(a - b); }),
          outcome_of([&] { return value(former::sub(fa, fb)); }));
    check("*", outcome_of([&] { return value(a * b); }),
          outcome_of([&] { return value(former::mul(fa, fb)); }));
    check("/", outcome_of([&] { return value(a / b); }),
          outcome_of([&] { return value(former::div(fa, fb)); }));
    check("unary -", outcome_of([&] { return value(-a); }),
          outcome_of([&] { return value(former::neg(fa)); }));
    check("reciprocal", outcome_of([&] { return value(a.reciprocal()); }),
          outcome_of([&] { return value(former::reciprocal(fa)); }));
    check("floor", integer(a.floor()), integer(former::floor(fa)));
    check("ceil", integer(a.ceil()), integer(former::ceil(fa)));
    check("ceil_mul", outcome_of([&] { return integer(ceil_mul(raw[2], a)); }),
          outcome_of([&] { return integer(former::ceil_mul(raw[2], fa)); }));
    const bool lt = former::less(fa, fb);
    const bool le = former::less_equal(fa, fb);
    const bool eq = fa.num == fb.num && fa.den == fb.den;
    check("<", integer(a < b), integer(lt));
    check("<=", integer(a <= b), integer(le));
    check(">", integer(a > b), integer(former::less(fb, fa)));
    check(">=", integer(a >= b), integer(former::less_equal(fb, fa)));
    check("==", integer(a == b), integer(eq));
    check("!=", integer(a != b), integer(!eq));
  }
  // Every operation ran on most pairs, and the overflow paths were reached.
  EXPECT_GE(compared, 15 * kPairs);
  EXPECT_GE(thrown, kPairs);
}

}  // namespace
}  // namespace sts
