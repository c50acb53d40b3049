//! `i128`-backed exact rational numbers.

use crate::gcd;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0` and `gcd(num, den) == 1`.
///
/// All arithmetic is overflow-checked; the polyhedral problems in this
/// project are small enough that `i128` never overflows in practice, and if
/// it ever does we want a loud panic, not a silently wrong loop transform.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Create `num/den`, normalizing sign and gcd.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    #[must_use]
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat: zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g > 1 {
            (num / g, den / g)
        } else {
            (num, den)
        };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// The integer `n` as a rational.
    #[must_use]
    pub const fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    #[must_use]
    pub const fn num(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    #[must_use]
    pub const fn den(self) -> i128 {
        self.den
    }

    /// True iff the value is an integer.
    #[must_use]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// True iff the value is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Sign: -1, 0 or 1.
    #[must_use]
    pub const fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Largest integer `<= self`.
    #[must_use]
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    #[must_use]
    pub fn ceil(self) -> i128 {
        -(-self.num).div_euclid(self.den)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    #[must_use]
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "Rat: reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The value as an `i128`, if it is an integer.
    #[must_use]
    pub fn to_integer(self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Lossy conversion to `f64` (for reporting only — never for decisions).
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `self - f * b` — the simplex cell update — as one fused operation.
    ///
    /// Always equal to the two-operator expression, including when and how
    /// it panics: all-integer operands take one checked multiply and one
    /// checked add; otherwise the unreduced numerator and denominator are
    /// formed and normalised once (one gcd instead of five). Only if an
    /// unreduced intermediate leaves `i128` does the operator path, which
    /// reduces as it goes, decide the outcome.
    #[must_use]
    pub fn sub_mul(self, f: Rat, b: Rat) -> Rat {
        self.sub_mul_fused(f, b).unwrap_or_else(|| self - f * b)
    }

    fn sub_mul_fused(self, f: Rat, b: Rat) -> Option<Rat> {
        // -(f * b) as the unreduced `pn / pd`.
        let pn = f.num.checked_mul(b.num)?.checked_neg()?;
        let pd = f.den.checked_mul(b.den)?;
        if self.den == 1 && pd == 1 {
            return Some(Rat::int(self.num.checked_add(pn)?));
        }
        let num = self
            .num
            .checked_mul(pd)?
            .checked_add(pn.checked_mul(self.den)?)?;
        let den = self.den.checked_mul(pd)?;
        let g = gcd(num, den);
        Some(Rat {
            num: num / g,
            den: den / g,
        })
    }

    fn checked_mul_i(a: i128, b: i128) -> i128 {
        a.checked_mul(b).expect("Rat: multiplication overflow")
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::int(n as i128)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            let num = self.num.checked_add(rhs.num);
            return Rat::int(num.expect("Rat: addition overflow"));
        }
        // Cross-reduce first to tame intermediate growth.
        let g = gcd(self.den, rhs.den);
        let (d1, d2) = (self.den / g, rhs.den / g);
        let num = Rat::checked_mul_i(self.num, d2)
            .checked_add(Rat::checked_mul_i(rhs.num, d1))
            .expect("Rat: addition overflow");
        let den = Rat::checked_mul_i(self.den, d2);
        // `den` is the lcm of two denominators coprime to their numerators,
        // so any factor `num` shares with it already divides `g`
        // (Knuth 4.5.1): normalise against `g`, not the much larger `den`.
        let g = if g == 1 { 1 } else { gcd(num, g) };
        Rat {
            num: num / g,
            den: den / g,
        }
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            return Rat::int(Rat::checked_mul_i(self.num, rhs.num));
        }
        // Cross-cancel before multiplying; both operands are in lowest
        // terms, so the product then is too and needs no further gcd.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        Rat {
            num: Rat::checked_mul_i(self.num / g1, rhs.num / g2),
            den: Rat::checked_mul_i(self.den / g2, rhs.den / g1),
        }
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}
impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}
impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}
impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // den > 0 invariant makes cross-multiplication order-preserving.
        let l = Rat::checked_mul_i(self.num, other.den);
        let r = Rat::checked_mul_i(other.num, self.den);
        l.cmp(&r)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl std::iter::Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_harness::prelude::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::new(7, 7) == Rat::ONE);
        assert!(Rat::new(-3, 2) < Rat::new(-1, 1));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
        assert_eq!(Rat::new(-1, 3).floor(), -1);
        assert_eq!(Rat::new(-1, 3).ceil(), 0);
    }

    #[test]
    fn recip_and_integrality() {
        assert_eq!(Rat::new(2, 3).recip(), Rat::new(3, 2));
        assert!(Rat::int(4).is_integer());
        assert!(!Rat::new(1, 2).is_integer());
        assert_eq!(Rat::new(8, 4).to_integer(), Some(2));
        assert_eq!(Rat::new(1, 2).to_integer(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 1).to_string(), "3");
        assert_eq!(Rat::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn sum_iterator() {
        let s: Rat = [Rat::new(1, 2), Rat::new(1, 3), Rat::new(1, 6)]
            .into_iter()
            .sum();
        assert_eq!(s, Rat::ONE);
    }

    /// `+` as it was before the integer fast path and the reduced final
    /// gcd: cross-reduce, then `Rat::new` on the full numerator/denominator.
    fn textbook_add(a: Rat, b: Rat) -> Rat {
        let g = gcd(a.den, b.den);
        let (d1, d2) = (a.den / g, b.den / g);
        let num = Rat::checked_mul_i(a.num, d2)
            .checked_add(Rat::checked_mul_i(b.num, d1))
            .expect("Rat: addition overflow");
        Rat::new(num, Rat::checked_mul_i(a.den, d2))
    }

    /// `*` as it was: cross-cancel, multiply, `Rat::new`.
    fn textbook_mul(a: Rat, b: Rat) -> Rat {
        let g1 = gcd(a.num, b.den);
        let g2 = gcd(b.num, a.den);
        Rat::new(
            Rat::checked_mul_i(a.num / g1, b.num / g2),
            Rat::checked_mul_i(a.den / g2, b.den / g1),
        )
    }

    /// Operands that hit every branch: integers and fractions, zero, and
    /// magnitudes from a few bits to ~2^46 — past the `u64` gcd path, and
    /// as far as three-operand products stay inside `i128` on every path.
    fn arb_mixed_rat() -> impl Strategy<Value = Rat> {
        (-1000i128..1000, 1i128..1000, 0usize..4, 0u32..37).prop_map(|(n, d, shape, shift)| {
            match shape {
                0 => Rat::int(n),
                1 => Rat::new(n, d),
                2 => Rat::int(n << shift),
                _ => Rat::new((n << shift) + 1, d << (shift / 2)),
            }
        })
    }

    #[test]
    fn fast_paths_keep_the_overflow_boundary() {
        let max = Rat::int(i128::MAX);
        assert_eq!(max + Rat::ZERO, max);
        assert_eq!(Rat::int(i128::MAX - 1) + Rat::ONE, max);
        assert_eq!(max * Rat::ONE, max);
        assert_eq!(
            Rat::int(i128::MAX / 2) * Rat::int(2),
            Rat::int(i128::MAX - 1)
        );
        assert_eq!(max.sub_mul(Rat::ONE, Rat::ONE), Rat::int(i128::MAX - 1));
        assert_eq!(Rat::int(i128::MAX - 1).sub_mul(-Rat::ONE, Rat::ONE), max);
        // Fused intermediates overflow, the reduced ones do not.
        let big = Rat::new(1i128 << 100, 3);
        assert_eq!(
            big.sub_mul(Rat::new(1i128 << 90, 3), Rat::new(3, 1i128 << 80)),
            big - Rat::int(1 << 10)
        );
    }

    #[test]
    #[should_panic(expected = "Rat: addition overflow")]
    fn integer_add_overflow_message_unchanged() {
        let _ = Rat::int(i128::MAX) + Rat::ONE;
    }

    #[test]
    #[should_panic(expected = "Rat: addition overflow")]
    fn fractional_add_overflow_message_unchanged() {
        let _ = Rat::new(i128::MAX, 2) + Rat::new(i128::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "Rat: multiplication overflow")]
    fn integer_mul_overflow_message_unchanged() {
        let _ = Rat::int(i128::MAX / 2 + 1) * Rat::int(2);
    }

    #[test]
    #[should_panic(expected = "Rat: addition overflow")]
    fn sub_mul_add_overflow_message_unchanged() {
        let _ = Rat::int(i128::MAX).sub_mul(-Rat::ONE, Rat::ONE);
    }

    #[test]
    #[should_panic(expected = "Rat: multiplication overflow")]
    fn sub_mul_mul_overflow_message_unchanged() {
        let _ = Rat::ZERO.sub_mul(Rat::int(i128::MAX), Rat::int(2));
    }

    fn arb_rat() -> impl Strategy<Value = Rat> {
        (-1000i128..1000, 1i128..1000).prop_map(|(n, d)| Rat::new(n, d))
    }

    props! {
        #[test]
        fn prop_fast_paths_equal_textbook(
            a in arb_mixed_rat(),
            f in arb_mixed_rat(),
            b in arb_mixed_rat(),
        ) {
            prop_assert_eq!(a + b, textbook_add(a, b));
            prop_assert_eq!(a - b, textbook_add(a, -b));
            prop_assert_eq!(f * b, textbook_mul(f, b));
            let want = textbook_add(a, -textbook_mul(f, b));
            prop_assert_eq!(a.sub_mul(f, b), want);
            prop_assert_eq!(want.den() > 0, true);
            prop_assert_eq!(crate::gcd(want.num(), want.den()), 1);
        }

        #[test]
        fn prop_add_commutative(a in arb_rat(), b in arb_rat()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_add_associative(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_mul_distributes(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_inverse(a in arb_rat(), b in arb_rat()) {
            prop_assert_eq!(a + b - b, a);
        }

        #[test]
        fn prop_div_inverse(a in arb_rat(), b in arb_rat()) {
            prop_assume!(!b.is_zero());
            prop_assert_eq!(a * b / b, a);
        }

        #[test]
        fn prop_normalized(a in arb_rat()) {
            prop_assert!(a.den() > 0);
            prop_assert_eq!(crate::gcd(a.num(), a.den()), if a.is_zero() { a.den() } else { 1 });
        }

        #[test]
        fn prop_floor_ceil_bracket(a in arb_rat()) {
            prop_assert!(Rat::int(a.floor()) <= a);
            prop_assert!(a <= Rat::int(a.ceil()));
            prop_assert!(a.ceil() - a.floor() <= 1);
        }

        #[test]
        fn prop_order_total(a in arb_rat(), b in arb_rat()) {
            let by_sub = (a - b).signum();
            let by_cmp = match a.cmp(&b) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            };
            prop_assert_eq!(by_sub, by_cmp);
        }
    }
}
