//! Exact rational arithmetic and dense linear algebra.
//!
//! This crate is the numeric foundation of the wisefuse polyhedral stack.
//! Every computation in the stack — Fourier–Motzkin elimination, the simplex
//! method, Farkas-multiplier elimination, schedule inversion — must be exact:
//! floating point is never acceptable because legality of a loop transform
//! hinges on exact sign tests. We therefore provide
//!
//! * [`Rat`], an `i128`-backed rational with overflow-checked, always
//!   gcd-normalized arithmetic,
//! * integer helpers ([`gcd`], [`lcm`], [`normalize_row`]) used to keep
//!   constraint rows primitive,
//! * [`RatMat`], a dense rational matrix with Gaussian elimination, rank,
//!   reduced row echelon form, inversion, linear solving and integer-scaled
//!   kernel (null-space) bases.
//!
//! The polyhedra themselves are small (loop depths ≤ 4), but the Farkas
//! systems the scheduler builds from them reach hundreds of rows by over a
//! thousand columns, and exact simplex on those is where a cold compile
//! spends its time: `Rat`'s integer fast paths, [`Rat::sub_mul`] and the
//! 64-bit [`gcd`] path exist for that loop. Tableau entries stay far inside
//! `i128`; all arithmetic panics loudly on overflow rather than silently
//! wrapping.

#![allow(clippy::needless_range_loop)] // index-style is clearer for matrix/tableau code
#![warn(missing_docs)]

pub mod mat;
pub mod rat;

pub use mat::RatMat;
pub use rat::Rat;

/// Greatest common divisor of two integers; `gcd(0, 0) == 0`.
///
/// Always returns a non-negative value. Euclid's remainders never exceed
/// the smaller operand, so as soon as both magnitudes fit in 64 bits —
/// immediately for essentially every tableau entry, after one step when
/// only one operand is wide — the loop continues on hardware `u64`
/// division instead of the software `u128` remainder.
///
/// # Panics
/// Panics if the result is `2^127` (only `gcd(i128::MIN, 0)` and
/// `gcd(i128::MIN, i128::MIN)`), which `i128` cannot hold.
#[must_use]
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        if let (Ok(x), Ok(y)) = (u64::try_from(a), u64::try_from(b)) {
            return i128::from(gcd_u64(x, y));
        }
        (a, b) = (b, a % b);
    }
    i128::try_from(a).expect("gcd overflow")
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Least common multiple; `lcm(0, x) == 0`.
#[must_use]
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).checked_mul(b).expect("lcm overflow").abs()
}

/// GCD of a slice; 0 for an all-zero (or empty) slice.
#[must_use]
pub fn gcd_slice(xs: &[i128]) -> i128 {
    xs.iter().fold(0, |g, &x| gcd(g, x))
}

/// Divide a constraint row by the gcd of its entries, making it primitive.
///
/// A row of all zeros is left untouched. This keeps Fourier–Motzkin
/// coefficient growth polynomial rather than exponential in practice.
pub fn normalize_row(row: &mut [i128]) {
    let g = gcd_slice(row);
    if g > 1 {
        for x in row.iter_mut() {
            *x /= g;
        }
    }
}

/// Exact dot product of two equally-long integer vectors.
///
/// # Panics
/// Panics if the lengths differ or the result overflows `i128`.
#[must_use]
pub fn dot(a: &[i128], b: &[i128]) -> i128 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc: i128 = 0;
    for (&x, &y) in a.iter().zip(b) {
        acc = acc
            .checked_add(x.checked_mul(y).expect("dot overflow"))
            .expect("dot overflow");
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(1, 1), 1);
        assert_eq!(gcd(i128::MIN + 1, 1), 1);
    }

    /// The plain `u128` Euclid loop `gcd` was before it gained the 64-bit
    /// path; the reference the fast path must agree with.
    fn gcd_u128_only(a: i128, b: i128) -> i128 {
        let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
        while b != 0 {
            (a, b) = (b, a % b);
        }
        i128::try_from(a).expect("gcd overflow")
    }

    #[test]
    fn gcd_paths_agree_at_the_width_boundaries() {
        let edges = [
            0,
            1,
            2,
            6,
            i128::from(u32::MAX),
            i128::from(u64::MAX) - 1,
            i128::from(u64::MAX),
            i128::from(u64::MAX) + 1,
            (i128::from(u64::MAX) + 1) * 6,
            3 * (1i128 << 100),
            (1i128 << 126) + 2,
            i128::MAX - 1,
            i128::MAX,
            i128::MIN + 2,
            i128::MIN + 1,
        ];
        for &a in &edges {
            for &b in &edges {
                for (x, y) in [(a, b), (-a, b), (a, -b), (-a, -b)] {
                    assert_eq!(gcd(x, y), gcd_u128_only(x, y), "gcd({x}, {y})");
                }
            }
            // 2^127 itself is fine as an operand whenever the result fits.
            if a != 0 {
                assert_eq!(gcd(i128::MIN, a), gcd_u128_only(i128::MIN, a));
                assert_eq!(gcd(a, i128::MIN), gcd_u128_only(a, i128::MIN));
            }
        }
        assert_eq!(gcd(i128::MIN, 6), 2);
        assert_eq!(gcd(i128::from(u64::MAX) + 1, 1 << 20), 1 << 20);
    }

    #[test]
    #[should_panic(expected = "gcd overflow")]
    fn gcd_of_min_and_zero_still_overflows() {
        let _ = gcd(i128::MIN, 0);
    }

    wf_harness::props! {
        /// Operands built as `g * x`, `g * y` across every width mix: both
        /// narrow (pure `u64` path), one wide (one `u128` step, then
        /// `u64`), both wide (`u128` steps first).
        #[test]
        fn prop_gcd_paths_agree(
            g in 1i128..1_000_000,
            x in 0i128..(1i128 << 100),
            y in 0i128..(1i128 << 100),
            shifts in (0u32..101, 0u32..101),
        ) {
            let (a, b) = (g * (x >> shifts.0), -g * (y >> shifts.1));
            let got = gcd(a, b);
            wf_harness::prop_assert_eq!(got, gcd_u128_only(a, b));
            wf_harness::prop_assert_eq!(got % g, 0);
        }
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(-4, 6), 12);
        assert_eq!(lcm(7, 13), 91);
    }

    #[test]
    fn gcd_slice_basic() {
        assert_eq!(gcd_slice(&[6, 9, 15]), 3);
        assert_eq!(gcd_slice(&[0, 0]), 0);
        assert_eq!(gcd_slice(&[]), 0);
        assert_eq!(gcd_slice(&[-4, 8, 12]), 4);
    }

    #[test]
    fn normalize_row_divides_by_gcd() {
        let mut r = vec![6, -9, 15];
        normalize_row(&mut r);
        assert_eq!(r, vec![2, -3, 5]);
        let mut z = vec![0, 0];
        normalize_row(&mut z);
        assert_eq!(z, vec![0, 0]);
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1, 2, 3], &[4, 5, 6]), 32);
        assert_eq!(dot(&[], &[]), 0);
        assert_eq!(dot(&[-1, 1], &[1, 1]), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1], &[1, 2]);
    }
}
