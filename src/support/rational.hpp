#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

namespace sts {

namespace detail {

// Intermediates of rational arithmetic (cross-products, un-reduced sums)
// exceed 64 bits long before the canonical results do: deep-chain interval
// products over volumes up to 2^20 produce comparisons whose cross-products
// pass 2^63. Intermediates are therefore formed in 128-bit and range-checked
// on the way back to the 64-bit representation. Reduction, though, runs in
// 64-bit whenever the intermediate fits there, which is nearly always: a
// 128-bit division or remainder is a runtime-library call, a 64-bit one a
// single instruction. __int128 is not std::integral under -std=c++20 (no GNU
// extensions), so the 128-bit gcd is hand-rolled.
using Int128 = __int128;

constexpr Int128 abs128(Int128 x) noexcept { return x < 0 ? -x : x; }

constexpr Int128 gcd128(Int128 a, Int128 b) noexcept {
  a = abs128(a);
  b = abs128(b);
  while (b != 0) {
    const Int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// |x| as an unsigned 64-bit value: exact for INT64_MIN, whose magnitude 2^63
/// has no int64 representation.
constexpr std::uint64_t magnitude(std::int64_t x) noexcept {
  return x < 0 ? 0 - static_cast<std::uint64_t>(x) : static_cast<std::uint64_t>(x);
}

constexpr bool fits_int64(Int128 x) noexcept {
  return x >= std::numeric_limits<std::int64_t>::min() &&
         x <= std::numeric_limits<std::int64_t>::max();
}

}  // namespace detail

/// Exact rational arithmetic over 64-bit integers.
///
/// Streaming intervals (Theorem 4.1) are ratios of data volumes and are not
/// integers in general; schedule times, however, must be exact integers
/// (clock cycles).  Rational keeps the analysis exact and provides the
/// ceiling operations the schedule recurrences of Section 5.1 need.
///
/// Arithmetic and comparisons evaluate intermediates in 128-bit: comparisons
/// are always exact, and +,-,*,/ throw std::overflow_error only when the
/// *canonical* result no longer fits in int64 (silent wraparound is never
/// possible). Integer operands add, subtract and multiply with 64-bit
/// overflow checks, and an intermediate that fits int64 reduces by a 64-bit
/// binary gcd; only values that may not fit take the 128-bit reduction. The
/// canonical form is unique, so every path yields the same num/den.
///
/// Invariants: den > 0 and gcd(|num|, den) == 1 (canonical form).
class Rational {
 public:
  constexpr Rational() noexcept : num_(0), den_(1) {}
  constexpr Rational(std::int64_t value) noexcept : num_(value), den_(1) {}  // NOLINT(google-explicit-constructor)

  /// Constructs num/den in canonical form. Throws on zero denominator, and
  /// std::overflow_error when canonicalization cannot represent the value
  /// (only possible for INT64_MIN inputs whose negation leaves int64).
  constexpr Rational(std::int64_t num, std::int64_t den) : num_(0), den_(1) {
    *this = from_int128(num, den);
  }

  [[nodiscard]] constexpr std::int64_t num() const noexcept { return num_; }
  [[nodiscard]] constexpr std::int64_t den() const noexcept { return den_; }

  [[nodiscard]] constexpr bool is_integer() const noexcept { return den_ == 1; }

  // floor and ceil correct the truncated quotient by the remainder's sign.
  // den_ > 0, so num_ / den_ cannot overflow (not even for INT64_MIN), and a
  // nonzero remainder needs den_ >= 2, which keeps the quotient +/- 1 in
  // range.

  /// Largest integer <= this.
  [[nodiscard]] constexpr std::int64_t floor() const noexcept {
    return num_ / den_ - (num_ % den_ < 0 ? 1 : 0);
  }

  /// Smallest integer >= this.
  [[nodiscard]] constexpr std::int64_t ceil() const noexcept {
    return num_ / den_ + (num_ % den_ > 0 ? 1 : 0);
  }

  [[nodiscard]] double to_double() const noexcept {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

  [[nodiscard]] constexpr Rational reciprocal() const {
    if (num_ == 0) throw std::domain_error("Rational: reciprocal of zero");
    // 128-bit: num_ == INT64_MIN would otherwise negate with UB, and its
    // reciprocal's denominator 2^63 is genuinely unrepresentable (throws).
    return from_int128(den_, num_);
  }

  friend constexpr Rational operator+(const Rational& a, const Rational& b) {
    if (a.den_ == 1 && b.den_ == 1) {
      std::int64_t sum = 0;
      if (!__builtin_add_overflow(a.num_, b.num_, &sum)) return Rational(sum);
    }
    // Cross-reduce to limit intermediate magnitude, then form the sum in
    // 128-bit: the un-reduced sum can pass 2^63 even when the canonical
    // result fits.
    const std::int64_t g = std::gcd(a.den_, b.den_);
    const std::int64_t bd = b.den_ / g;
    return from_int128(detail::Int128(a.num_) * bd + detail::Int128(b.num_) * (a.den_ / g),
                       detail::Int128(a.den_) * bd);
  }
  friend constexpr Rational operator-(const Rational& a, const Rational& b) {
    if (a.den_ == 1 && b.den_ == 1) {
      std::int64_t difference = 0;
      if (!__builtin_sub_overflow(a.num_, b.num_, &difference)) return Rational(difference);
    }
    const std::int64_t g = std::gcd(a.den_, b.den_);
    const std::int64_t bd = b.den_ / g;
    return from_int128(detail::Int128(a.num_) * bd - detail::Int128(b.num_) * (a.den_ / g),
                       detail::Int128(a.den_) * bd);
  }
  friend constexpr Rational operator*(const Rational& a, const Rational& b) {
    if (a.den_ == 1 && b.den_ == 1) {
      std::int64_t product = 0;
      if (!__builtin_mul_overflow(a.num_, b.num_, &product)) return Rational(product);
    }
    // Cross-reduce first. Each gcd divides a positive denominator, so it lies
    // in [1, INT64_MAX] and the 64-bit quotients below cannot overflow, not
    // even for INT64_MIN (whose magnitude is taken unsigned). Both operands
    // are canonical, so the cross-reduced product is too: every prime of a
    // numerator factor was divided out of both denominator factors. Only its
    // range is left to check.
    const auto g1 = static_cast<std::int64_t>(
        std::gcd(detail::magnitude(a.num_), static_cast<std::uint64_t>(b.den_)));
    const auto g2 = static_cast<std::int64_t>(
        std::gcd(detail::magnitude(b.num_), static_cast<std::uint64_t>(a.den_)));
    return narrow(detail::Int128(a.num_ / g1) * (b.num_ / g2),
                  detail::Int128(a.den_ / g2) * (b.den_ / g1));
  }
  friend constexpr Rational operator/(const Rational& a, const Rational& b) {
    if (b.num_ == 0) throw std::domain_error("Rational: division by zero");
    return a * b.reciprocal();
  }
  constexpr Rational operator-() const {
    // Negation keeps the canonical form. Throws only for num_ == INT64_MIN,
    // whose negation leaves int64.
    return narrow(-detail::Int128(num_), detail::Int128(den_));
  }

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  friend constexpr bool operator==(const Rational& a, const Rational& b) noexcept {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend constexpr bool operator!=(const Rational& a, const Rational& b) noexcept {
    return !(a == b);
  }
  friend constexpr bool operator<(const Rational& a, const Rational& b) noexcept {
    // 128-bit cross-products: the int64 products silently overflow for
    // operands built from deep-chain interval products (e.g. volumes up to
    // 2^20 compounded along a pipeline), flipping comparison results.
    return detail::Int128(a.num_) * b.den_ < detail::Int128(b.num_) * a.den_;
  }
  friend constexpr bool operator<=(const Rational& a, const Rational& b) noexcept {
    return detail::Int128(a.num_) * b.den_ <= detail::Int128(b.num_) * a.den_;
  }
  friend constexpr bool operator>(const Rational& a, const Rational& b) noexcept { return b < a; }
  friend constexpr bool operator>=(const Rational& a, const Rational& b) noexcept { return b <= a; }

  [[nodiscard]] std::string to_string() const {
    if (den_ == 1) return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
  }

  friend std::ostream& operator<<(std::ostream& os, const Rational& r) {
    return os << r.to_string();
  }

 private:
  /// Canonicalizes a 128-bit num/den pair and narrows it to the 64-bit
  /// representation; throws std::overflow_error when the reduced result does
  /// not fit (the closest exact analogue of arbitrary precision without
  /// dragging in a bignum dependency). A pair that fits int64 reduces in
  /// 64-bit (from_int64).
  static constexpr Rational from_int128(detail::Int128 num, detail::Int128 den) {
    if (detail::fits_int64(num) && detail::fits_int64(den)) {
      return from_int64(static_cast<std::int64_t>(num), static_cast<std::int64_t>(den));
    }
    if (den == 0) throw std::invalid_argument("Rational: zero denominator");
    if (den < 0) {
      num = -num;
      den = -den;
    }
    const detail::Int128 g = detail::gcd128(num, den);
    if (g > 1) {
      num /= g;
      den /= g;
    }
    return narrow(num, den);
  }

  /// Narrows an already canonical 128-bit num/den pair (den > 0, coprime);
  /// throws std::overflow_error when either leaves int64.
  static constexpr Rational narrow(detail::Int128 num, detail::Int128 den) {
    if (!detail::fits_int64(num) || !detail::fits_int64(den)) {
      throw std::overflow_error("Rational: result exceeds 64-bit range");
    }
    Rational r;
    r.num_ = static_cast<std::int64_t>(num);
    r.den_ = static_cast<std::int64_t>(den);
    return r;
  }

  /// from_int128 for a pair that fits int64: a binary gcd over the unsigned
  /// magnitudes (exact for INT64_MIN), with the sign applied last. The
  /// reduced magnitudes fit int64 unless they are 2^63, which only a
  /// negative numerator may carry; anything else throws as from_int128 does.
  static constexpr Rational from_int64(std::int64_t num, std::int64_t den) {
    if (den == 0) throw std::invalid_argument("Rational: zero denominator");
    std::uint64_t n = detail::magnitude(num);
    std::uint64_t d = detail::magnitude(den);
    const std::uint64_t g = std::gcd(n, d);  // >= 1: d != 0
    if (g > 1) {
      n /= g;
      d /= g;
    }
    const bool negative = (num < 0) != (den < 0);
    constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    if (d > kMax || n > kMax + (negative ? 1 : 0)) {
      throw std::overflow_error("Rational: result exceeds 64-bit range");
    }
    Rational r;
    r.num_ = static_cast<std::int64_t>(negative ? 0 - n : n);
    r.den_ = static_cast<std::int64_t>(d);
    return r;
  }

  std::int64_t num_;
  std::int64_t den_;
};

/// ceil(a * b) for an integer scale and a rational interval; the common
/// operation in the ST/FO/LO recurrences, e.g. ceil((O(v)-1) * S_o(v)).
[[nodiscard]] constexpr std::int64_t ceil_mul(std::int64_t scale, const Rational& r) {
  return (Rational(scale) * r).ceil();
}

}  // namespace sts
