//! The in-tree transcendentals against `libm`, at their edges, and across
//! tiers.
//!
//! `libm` (the `f64` methods) is the oracle here and nowhere else. The
//! accuracy tests print the largest distance they saw, in units in the
//! last place, next to the bound they enforce. The known-answer tests pin
//! result *bits*: nothing in `mathf64` depends on the host, so these are
//! absolute values the repository can promise.

use simd_kernels::mathf64::{exp, exp_inplace, ln, tanh, tanh_inplace};
use simd_kernels::Isa;
use testkit::sweep;

const SEED: u64 = 0x7A4;

/// A scalar function under test, its in-place slice form, and eight
/// `(argument, result bits)` known answers for one.
type Scalar = fn(f64) -> f64;
type InPlace = fn(Isa, &mut [f64]);
type KnownAnswers = [(f64, u64); 8];

/// Position of `x` on the line of all doubles: adjacent values differ by
/// one, and `−0` and `+0` coincide.
fn ordinal(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    if b < 0 {
        i64::MIN - b
    } else {
        b
    }
}

/// Distance in units in the last place; two NaNs are at distance 0.
fn ulps(a: f64, b: f64) -> u64 {
    if a.is_nan() && b.is_nan() {
        return 0;
    }
    ordinal(a).abs_diff(ordinal(b))
}

/// `0.75·2^e`, `2^e` and `1.75·2^e` with both signs, over every binade.
fn ladder() -> impl Iterator<Item = f64> {
    (-1074..=1023).flat_map(|e| {
        let b = 2f64.powi(e);
        [0.75 * b, b, 1.75 * b, -0.75 * b, -b, -1.75 * b]
    })
}

/// The largest distance between `ours` and `libm`'s over a uniform grid
/// of `n` points on `[lo, hi]`, a seeded random draw of as many, and those
/// ladder rungs for which `keep` holds.
fn max_ulps(
    name: &str,
    ours: fn(f64) -> f64,
    libm: fn(f64) -> f64,
    (lo, hi): (f64, f64),
    n: usize,
    keep: fn(f64) -> bool,
) -> u64 {
    let mut worst = (0, 0.0);
    let mut see = |x: f64| {
        let d = ulps(ours(x), libm(x));
        if d > worst.0 {
            worst = (d, x);
        }
    };
    (0..=n).for_each(|i| see(lo + (hi - lo) * i as f64 / n as f64));
    sweep(n / 1000, SEED, |g| (0..1000).for_each(|_| see(g.f64_in(lo..hi))));
    ladder().filter(|&x| keep(x)).for_each(&mut see);
    println!("{name}: max {} ulp from libm (at {:e})", worst.0, worst.1);
    worst.0
}

#[test]
fn tanh_is_within_four_ulp_of_libm() {
    let wide = max_ulps("tanh on [-22, 22]", tanh, f64::tanh, (-22.0, 22.0), 120_000, |_| true);
    // Where a trained network's pre-activations actually fall.
    let near = max_ulps("tanh on [-1.5, 1.5]", tanh, f64::tanh, (-1.5, 1.5), 120_000, |_| false);
    assert!(wide.max(near) <= 4);
}

#[test]
fn exp_is_within_two_ulp_of_libm() {
    let wide = max_ulps("exp on [-746, 710]", exp, f64::exp, (-746.0, 710.0), 120_000, |_| true);
    let near = max_ulps("exp on [-3, 3]", exp, f64::exp, (-3.0, 3.0), 120_000, |_| false);
    assert!(wide.max(near) <= 2);
}

#[test]
fn ln_is_within_two_ulp_of_libm() {
    let wide = max_ulps("ln on (0, 1e6]", ln, f64::ln, (1e-9, 1e6), 120_000, |x| x > 0.0);
    // Around 1, where the result loses its leading digits.
    let near = max_ulps("ln on [0.5, 2]", ln, f64::ln, (0.5, 2.0), 120_000, |_| false);
    assert!(wide.max(near) <= 2);
}

#[test]
fn special_values_are_libms() {
    let (inf, nan, tiny) = (f64::INFINITY, f64::NAN, 5e-324);

    assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
    assert_eq!(tanh(tiny), tiny);
    assert_eq!(tanh(-tiny), -tiny);
    assert_eq!((tanh(inf), tanh(-inf)), (1.0, -1.0));
    assert!(tanh(nan).is_nan() && tanh(-nan).is_nan());
    for x in [20.0, 20.000000000000004, 22.0, 710.0, 1e300, f64::MAX] {
        assert_eq!((tanh(x), tanh(-x)), (1.0, -1.0), "saturation at ±{x}");
    }
    assert!(tanh(18.0) < 1.0);

    assert_eq!((exp(0.0), exp(-0.0)), (1.0, 1.0));
    assert_eq!((exp(inf), exp(-inf)), (inf, 0.0));
    assert!(exp(nan).is_nan());
    // The largest finite result and the first overflow.
    assert!(ulps(exp(709.782712893384), f64::MAX) <= 1 << 12);
    assert_eq!(exp(709.7827128933841), inf);
    assert_eq!(exp(f64::MAX), inf);
    // Through the subnormals to zero.
    assert_eq!(exp(-745.1332191019411), tiny);
    assert_eq!(exp(-745.1332191019412), 0.0);
    assert_eq!(exp(f64::MIN), 0.0);
    assert_eq!(exp(tiny), 1.0);

    assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
    assert_eq!((ln(0.0), ln(-0.0)), (-inf, -inf));
    assert_eq!(ln(inf), inf);
    assert!(ln(nan).is_nan() && ln(-1.0).is_nan() && ln(-inf).is_nan() && ln(-tiny).is_nan());
    for x in [tiny, f64::MIN_POSITIVE, f64::MAX] {
        assert!(ulps(ln(x), x.ln()) <= 1, "ln({x:e})");
    }
}

#[test]
fn tanh_is_odd_bounded_and_its_derivative_is_never_negative() {
    let check = |x: f64| {
        let y = tanh(x);
        assert_eq!(y.to_bits(), (-tanh(-x)).to_bits(), "odd symmetry at {x:e}");
        assert!(y.abs() <= 1.0, "|tanh({x:e})| = {y:e}");
        // `Activation::deriv_from_output`.
        assert!(1.0 - y * y >= 0.0, "1 − y² at {x:e}");
    };
    sweep(200, SEED, |g| {
        for _ in 0..500 {
            check(g.f64_in(-25.0..25.0));
            check(g.f64_in(-1.0..1.0));
        }
    });
    ladder().for_each(check);
}

/// Walks `4·reach` adjacent doubles centred on `seam` and asserts `f`
/// never steps down.
fn assert_monotone_across(f: fn(f64) -> f64, seam: f64, reach: u64) {
    let mut x = f64::from_bits(seam.to_bits() - 2 * reach);
    let mut prev = f(x);
    for _ in 0..4 * reach {
        x = f64::from_bits(x.to_bits() + 1);
        let y = f(x);
        assert!(y >= prev, "step down at {x:e} (seam {seam:e}): {prev:e} then {y:e}");
        prev = y;
    }
}

#[test]
fn tanh_is_monotone_across_every_branch_seam() {
    // The reduction's integer changes where 2|x| = (j + ½)·ln 2, for
    // j = 0..=57, and the clamp starts at 20: those are all the places
    // where neighbouring arguments take different paths.
    let half_ln2 = std::f64::consts::LN_2 / 2.0;
    for j in 0..=57 {
        assert_monotone_across(tanh, (j as f64 + 0.5) * half_ln2, 500);
    }
    assert_monotone_across(tanh, 20.0, 500);
    // The same seams, mirrored.
    for j in 0..=57 {
        assert_monotone_across(|x| -tanh(-x), (j as f64 + 0.5) * half_ln2, 500);
    }
}

#[test]
fn slices_return_the_scalar_functions_bits_on_every_tier() {
    // Lengths 0..=17 cover an empty slice, every 4-lane and 8-lane tail,
    // and two full vectors; the values cover every reduction bucket.
    sweep(64, SEED, |g| {
        for len in 0..=17 {
            let xs: Vec<f64> = (0..len)
                .map(|_| match g.below(4) {
                    0 => g.f64_in(-1.0..1.0),
                    1 => g.f64_in(-25.0..25.0),
                    2 => g.f64_in(-750.0..720.0),
                    _ => *g.pick(&[0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, 20.0]),
                })
                .collect();
            let inplace: [(InPlace, Scalar); 2] = [(tanh_inplace, tanh), (exp_inplace, exp)];
            for (slice_fn, f) in inplace {
                let want: Vec<u64> = xs.iter().map(|&x| f(x).to_bits()).collect();
                for isa in Isa::ALL {
                    let mut got = xs.clone();
                    slice_fn(isa, &mut got);
                    let got: Vec<u64> = got.iter().map(|y| y.to_bits()).collect();
                    assert_eq!(got, want, "{isa} len {len}");
                }
            }
        }
    });
}

/// Result bits, each within 1.4 ulp of the true value (checked with
/// 200-bit arithmetic when they were recorded). A change to a constant, an
/// operation order or a reduction shows up here first.
#[test]
fn known_answers_are_pinned_bit_for_bit() {
    let pinned: [(&str, Scalar, KnownAnswers); 3] = [
        (
            "tanh",
            tanh,
            [
                (0.1, 0x3fb983d7795f413a),
                (0.5, 0x3fdd9353d7568af3),
                (-1.0, 0xbfe85efab514f395),
                (2.5, 0x3fef9258260a71c3),
                (1e-5, 0x3ee4f8b588e06854),
                // The first reduction seam, ln 2 / 4.
                (0.17328679513998632, 0x3fc5f619980c4337),
                (-7.3, 0xbfeffffe15feccb4),
                (19.0, 0x3ff0000000000000),
            ],
        ),
        (
            "exp",
            exp,
            [
                (1.0, 0x4005bf0a8b14576a),
                (-1.0, 0x3fd78b56362cef38),
                (0.1, 0x3ff1aec7b35a00d4),
                // −ln 2 / 2, a reduction seam.
                (-0.34657359027997264, 0x3fe6a09e667f3bcc),
                (10.5, 0x40e1bb7015e84d3b),
                (-40.0, 0x3c539792499b1a24),
                (700.0, 0x7f0d945df4f8ec8e),
                // A subnormal result.
                (-720.0, 0x0000000993b4dc95),
            ],
        ),
        (
            "ln",
            ln,
            [
                (2.0, 0x3fe62e42fefa39ef),
                (0.5, 0xbfe62e42fefa39ef),
                (10.0, 0x40026bb1bbb55516),
                (1.0000000000000002, 0x3cafffffffffffff),
                (0.1, 0xc0026bb1bbb55515),
                // A subnormal argument.
                (1e-310, 0xc0864e69394d9508),
                (1e300, 0x4085963447f87fb5),
                // The mantissa split, √2.
                (std::f64::consts::SQRT_2, 0x3fd62e42fefa39f0),
            ],
        ),
    ];
    for (name, f, cases) in pinned {
        for (x, bits) in cases {
            assert_eq!(f(x).to_bits(), bits, "{name}({x:?}) = {:e}", f(x));
        }
    }
}
