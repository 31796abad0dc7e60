//! `push_fixed` writes every `f64` byte for byte as `format!("{x:.N}")`
//! does, for `N` from 0 to 3: std's formatter is the oracle.
//!
//! The long sweep is `#[ignore]`d; run it in release with
//! `cargo test --release -p telemetry --test fixed -- --ignored`.

use std::fmt::Write as _;
use telemetry::push_fixed;
use testkit::{sweep, Gen};

/// The precisions the reports print at.
const DIGITS: [usize; 4] = [0, 1, 2, 3];

/// Our spelling of `x` and std's at every precision, into buffers reused
/// across checks.
#[derive(Default)]
struct Checker {
    ours: String,
    oracle: String,
}

impl Checker {
    fn check(&mut self, x: f64) {
        for digits in DIGITS {
            self.oracle.clear();
            let _ = write!(self.oracle, "{x:.digits$}");
            // The writer appends: start non-empty.
            self.ours.clear();
            self.ours.push('|');
            push_fixed(&mut self.ours, x, digits);
            assert_eq!(&self.ours[1..], self.oracle, "bits {:#018x} at {digits}", x.to_bits());
        }
    }
}

/// A double of random sign and significand whose binary exponent is drawn
/// from -80 to 140: the digits a report prints, values that round to
/// zero, and the values around 2^128 where the exact path hands over to
/// std. (Past that std's own digits are all there is to compare, and a
/// debug build takes microseconds a value to print them.)
fn pattern(g: &mut Gen) -> f64 {
    let exponent = g.int_in(1023 - 80..1023 + 141u64);
    f64::from_bits(g.u64() & 0x800F_FFFF_FFFF_FFFF | exponent << 52)
}

/// `cases` sweep cases of `per_case` drawn patterns each.
fn random_patterns(cases: usize, per_case: usize, seed: u64) {
    let mut checker = Checker::default();
    sweep(cases, seed, |g| {
        for _ in 0..per_case {
            checker.check(pattern(g));
        }
    });
}

#[test]
fn random_bit_patterns_match_std() {
    random_patterns(1_000, 1_000, 0x000F_1CED);
}

#[test]
#[ignore = "long: 5·10^7 patterns, run in release with --ignored"]
fn long_random_sweep_matches_std() {
    random_patterns(5_000, 10_000, 0xF1ED_5EED);
}

#[test]
fn near_ties_match_std() {
    // k · 10^-N / 2 and its neighbours one ulp away, both signs: where the
    // exact binary value decides the rounding.
    let mut checker = Checker::default();
    for digits in DIGITS {
        for k in 0..20_000u32 {
            // The double nearest (2k + 1) · 5 · 10^-(N + 1).
            let tie: f64 = format!("{}e-{}", 5 * (2 * k + 1), digits + 1).parse().unwrap();
            for x in [tie, f64::from_bits(tie.to_bits() + 1), f64::from_bits(tie.to_bits() - 1)] {
                checker.check(x);
                checker.check(-x);
            }
        }
    }
    // Ties the binary value holds exactly: (2k + 1) / 2^(N + 1) is one at
    // N places, to be rounded to the even digit.
    for k in 0..4_096u32 {
        for j in 1..=4 {
            let x = f64::from(2 * k + 1) / f64::from(1u32 << j);
            checker.check(x);
            checker.check(-x);
        }
    }
}

#[test]
fn the_extremes_match_std() {
    let mut checker = Checker::default();
    for x in [
        0.0,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        f64::EPSILON,
        0.5,
        0.05,
        0.005,
        0.0005,
        1e-300,
        1e19,
        1.8446744073709552e19,
        1e20,
        1e22,
        1e23,
        2f64.powi(125),
        2f64.powi(127),
        2f64.powi(128),
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
    ] {
        checker.check(x);
        checker.check(-x);
    }
    // Every subnormal exponent's neighbours and each power of two.
    for e in -1074..=1023i64 {
        let bits = if e < -1022 { 1 << (e + 1074) } else { ((e + 1023) as u64) << 52 };
        for b in [bits - 1, bits, bits + 1] {
            checker.check(f64::from_bits(b));
            checker.check(-f64::from_bits(b));
        }
    }
}
