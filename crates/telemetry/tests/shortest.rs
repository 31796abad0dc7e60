//! `push_shortest` writes every `f64` byte for byte as `format!("{x}")`
//! does: std's `Display` is the oracle.
//!
//! The long sweep is `#[ignore]`d; run it in release with
//! `cargo test --release -p telemetry --test shortest -- --ignored`.

use std::fmt::Write as _;
use telemetry::push_shortest;
use testkit::{sweep, Gen};

/// Our spelling of `x` and std's, into buffers reused across checks.
#[derive(Default)]
struct Checker {
    ours: String,
    oracle: String,
}

impl Checker {
    fn check(&mut self, x: f64) {
        self.oracle.clear();
        let _ = write!(self.oracle, "{x}");
        // The writer appends: start non-empty.
        self.ours.clear();
        self.ours.push('|');
        push_shortest(&mut self.ours, x);
        assert_eq!(&self.ours[1..], self.oracle, "bits {:#018x}", x.to_bits());
    }
}

fn check(x: f64) {
    Checker::default().check(x);
}

/// A finite double with uniformly drawn bits.
fn finite(g: &mut Gen) -> f64 {
    loop {
        let x = f64::from_bits(g.u64());
        if x.is_finite() {
            return x;
        }
    }
}

/// `cases` sweep cases of `per_case` random finite bit patterns each.
fn random_patterns(cases: usize, per_case: usize, seed: u64) {
    let mut checker = Checker::default();
    sweep(cases, seed, |g| {
        for _ in 0..per_case {
            checker.check(finite(g));
        }
    });
}

#[test]
fn random_bit_patterns_match_display() {
    random_patterns(1_000, 1_000, 0x540E7);
}

#[test]
#[ignore = "long: 5·10^7 patterns, run in release with --ignored"]
fn long_random_sweep_matches_display() {
    random_patterns(5_000, 10_000, 0x106C_5EED);
}

#[test]
fn the_extremes_match_display() {
    let smallest_subnormal = f64::from_bits(1);
    let largest_subnormal = f64::from_bits((1 << 52) - 1);
    for x in [
        0.0,
        -0.0,
        smallest_subnormal,
        largest_subnormal,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        check(x);
        check(-x);
    }
}

#[test]
fn the_smallest_and_largest_subnormals_match_display() {
    // At the bottom only a digit or two are left, and the shorter
    // candidate is not always the closer one.
    let mut checker = Checker::default();
    for bits in (1..20_000).chain((1 << 52) - 20_000..(1 << 52) + 20_000) {
        checker.check(f64::from_bits(bits));
    }
}

#[test]
fn powers_of_two_and_ten_match_display() {
    for e in -1074..=1023i64 {
        let bits = if e < -1022 { 1 << (e + 1074) } else { ((e + 1023) as u64) << 52 };
        let x = f64::from_bits(bits);
        check(x);
        check(-x);
        // The neighbours of each power of two, where the gap below halves.
        check(f64::from_bits(bits - 1));
        check(f64::from_bits(bits + 1));
    }
    for e in -323..=308 {
        let x: f64 = format!("1e{e}").parse().unwrap();
        check(x);
        check(f64::from_bits(x.to_bits() - 1));
        check(f64::from_bits(x.to_bits() + 1));
    }
}

#[test]
fn integers_around_2_pow_53_match_display() {
    let two53 = 1u64 << 53;
    for i in two53 - 2_000..two53 + 2_000 {
        check(i as f64);
        check(-(i as f64));
    }
    for i in 0..10_000u64 {
        check(i as f64);
    }
}

#[test]
fn seventeen_significant_digits_match_display() {
    sweep(100, 0x17D161, |g| {
        for _ in 0..1_000 {
            // A 17-digit mantissa at a drawn decimal exponent.
            let mantissa = g.int_in(10_000_000_000_000_000u64..100_000_000_000_000_000);
            let exp = g.int_in(-340i32..292);
            let x: f64 = format!("{mantissa}e{exp}").parse().unwrap();
            check(x);
        }
    });
}

#[test]
fn layout_boundaries_match_display() {
    // Around 1e16 (17-digit integers), 1e21 (where other languages switch
    // to an exponent) and 1e-7 (likewise, below).
    for base in [1e15, 1e16, 1e17, 1e20, 1e21, 1e22, 1e-6, 1e-7, 1e-8] {
        let bits = f64::to_bits(base);
        for d in 0..200 {
            for x in [f64::from_bits(bits + d), f64::from_bits(bits - d)] {
                check(x);
                check(-x);
            }
        }
        for k in 1..100 {
            check(base * k as f64);
            check(base / k as f64);
        }
    }
}
