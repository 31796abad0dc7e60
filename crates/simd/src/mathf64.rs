//! The workspace's transcendentals: `sin_cos`, `exp`, `ln` and `tanh` as
//! deterministic straight-line arithmetic.
//!
//! The `f64` methods of the same names go through the host's `libm`, which
//! costs twice: an opaque call per element stops the compiler from
//! vectorizing the loop around it (the derivative evaluation of the
//! batched integrator, the activation sweep of every MLP layer), and the
//! result bits belong to whichever `libm` the machine ships, so "same
//! seed, same policy" would stop at the machine boundary. Each function
//! here is one `#[inline(always)]` body of multiplies, adds, subtracts,
//! divides, compares that select a value, and bit moves: argument
//! reduction by magic-number rounding plus a two-term Cody–Waite split,
//! a polynomial on the reduced interval, and a reconstruction done with
//! bit masks. There is no table, no start-up state and no branch on data.
//!
//! Every operation involved is IEEE-754 exact-rounded and nothing is
//! fused, so a function returns bitwise-identical results whether it is
//! compiled scalar, SSE2, AVX2 or wider. The slice entry points
//! ([`tanh_inplace`], [`exp_inplace`]) compile that *one* body per tier
//! (the crate's `tiered!` idiom); the scalar/vector parity contract
//! therefore reduces to "every path calls this function", for the
//! network as it already did for the airdrop fast path.
//!
//! Accuracy against `libm` (`tests/mathf64.rs` prints the measured
//! maxima): [`exp`] and [`ln`] within 1 ulp, [`tanh`] within 3 ulp over
//! their whole domains; [`sin_cos`] within a couple of ulp for
//! |x| ≲ 1e6 (the two-term reduction needs `k·π/2` head products to stay
//! exact), far more range than a heading angle ever uses, and garbage —
//! not a panic — on non-finite input. `exp`, `ln` and `tanh` treat ±0,
//! ±∞ and NaN as `libm` does.

// The constants below keep fdlibm's canonical decimal forms digit for
// digit, a few digits past what f64 parsing needs.
#![allow(clippy::excessive_precision)]

use crate::tiered;

/// 1.5 · 2^52: adding this to a `f64` in ±2^51 rounds it to the nearest
/// integer (ties to even) while the low mantissa bits of the sum hold
/// that integer in two's complement.
const SHIFT: f64 = 6_755_399_441_055_744.0;

const ABS_MASK: u64 = 0x7FFF_FFFF_FFFF_FFFF;
const MANTISSA_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;

/// First 33 bits of π/2 — `k * PIO2_1` is exact for |k| < 2^20.
const PIO2_1: f64 = 1.570_796_326_734_125_614_17;
/// π/2 − `PIO2_1`, rounded (the fdlibm split).
const PIO2_1T: f64 = 6.077_100_506_506_192_249_32e-11;

// Minimax coefficients for sin(r)/r − 1 and cos(r) on |r| ≤ π/4 (the
// classic fdlibm kernels).
const S1: f64 = -1.666_666_666_666_663_243_48e-01;
const S2: f64 = 8.333_333_333_322_489_461_24e-03;
const S3: f64 = -1.984_126_982_985_794_931_34e-04;
const S4: f64 = 2.755_731_370_707_006_767_89e-06;
const S5: f64 = -2.505_076_025_340_686_341_95e-08;
const S6: f64 = 1.589_690_995_211_550_102_21e-10;

const C1: f64 = 4.166_666_666_666_660_190_37e-02;
const C2: f64 = -1.388_888_888_887_410_957_49e-03;
const C3: f64 = 2.480_158_728_947_672_941_78e-05;
const C4: f64 = -2.755_731_435_139_066_330_35e-07;
const C5: f64 = 2.087_572_321_298_174_827_90e-09;
const C6: f64 = -1.135_964_755_778_819_482_65e-11;

/// Simultaneous `(sin x, cos x)`, branch-free and vectorizable.
///
/// Deterministic across platforms and SIMD widths; see the module docs
/// for the accuracy/domain contract.
#[inline(always)]
pub fn sin_cos(x: f64) -> (f64, f64) {
    // k = round(x · 2/π); the quadrant k mod 4 sits in the low two bits
    // of the shifted sum's mantissa.
    let kd = x * core::f64::consts::FRAC_2_PI + SHIFT;
    let q = kd.to_bits();
    let k = kd - SHIFT;

    // Cody–Waite reduction: r = x − k·π/2 with an exact head product.
    let r = (x - k * PIO2_1) - k * PIO2_1T;
    let r2 = r * r;

    // sin(r) = r + r³·P(r²), cos(r) = 1 − r²/2 + r⁴·Q(r²).
    let ps = S1 + r2 * (S2 + r2 * (S3 + r2 * (S4 + r2 * (S5 + r2 * S6))));
    let sin_r = r + r * r2 * ps;
    let pc = C1 + r2 * (C2 + r2 * (C3 + r2 * (C4 + r2 * (C5 + r2 * C6))));
    let cos_r = (1.0 - 0.5 * r2) + r2 * r2 * pc;

    // Quadrant fix-up: odd quadrants swap sin/cos, quadrants 2 and 3
    // negate the sine, quadrants 1 and 2 negate the cosine.
    let swap = 0u64.wrapping_sub(q & 1);
    let sb = sin_r.to_bits();
    let cb = cos_r.to_bits();
    let s_bits = (sb & !swap) | (cb & swap);
    let c_bits = (cb & !swap) | (sb & swap);
    let s_sign = ((q >> 1) & 1) << 63;
    let c_sign = ((q.wrapping_add(1) >> 1) & 1) << 63;
    (f64::from_bits(s_bits ^ s_sign), f64::from_bits(c_bits ^ c_sign))
}

/// First 32 bits of ln 2 — `k * LN2_HI` is exact for |k| < 2^21.
const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
/// ln 2 − `LN2_HI`, rounded (the fdlibm split).
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;

// Chebyshev-fitted coefficients of (eʳ − 1 − r)/r² on |r| ≤ 0.3467, just
// past ln 2 / 2; the fit is within 1.5e-18 of the function.
const E2: f64 = 0.5;
const E3: f64 = 1.666_666_666_666_667_100_21e-01;
const E4: f64 = 4.166_666_666_666_666_976_28e-02;
const E5: f64 = 8.333_333_333_326_119_861_97e-03;
const E6: f64 = 1.388_888_888_888_373_740_45e-03;
const E7: f64 = 1.984_126_987_487_397_507_57e-04;
const E8: f64 = 2.480_158_732_558_583_887_69e-05;
const E9: f64 = 2.755_725_533_255_440_910_49e-06;
const E10: f64 = 2.755_727_359_479_941_318_66e-07;
const E11: f64 = 2.510_524_515_390_136_985_47e-08;
const E12: f64 = 2.091_470_706_961_235_337_20e-09;

/// `x = k·ln 2 + r` with `k` the nearest integer, so |r| ≤ ln 2 / 2, for
/// |x| < 2^20. Returns the shifted sum, whose low mantissa bits hold `k`,
/// and `r`.
#[inline(always)]
fn reduce_ln2(x: f64) -> (f64, f64) {
    let kd = x * core::f64::consts::LOG2_E + SHIFT;
    let k = kd - SHIFT;
    (kd, (x - k * LN2_HI) - k * LN2_LO)
}

/// `eʳ − 1` on the reduced interval: `r + r²·Q(r)`, `Q` evaluated as a
/// shallow tree (Estrin) so its eleven terms do not form one dependency
/// chain.
#[inline(always)]
fn expm1_reduced(r: f64) -> f64 {
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let q = ((E2 + r * E3) + r2 * (E4 + r * E5))
        + r4 * ((E6 + r * E7) + r2 * (E8 + r * E9))
        + r8 * ((E10 + r * E11) + r2 * E12);
    r + r2 * q
}

/// `eˣ`, branch-free and vectorizable; within 1 ulp of `libm`.
///
/// Overflows to `+∞` above 709.78 and underflows through the subnormals
/// to `+0` below −745.13; `exp(±0) = 1` exactly; NaN propagates.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    // Past these the result is ∞ or 0 anyway, and k stays in the range the
    // scale factors below can encode. A NaN fails both comparisons.
    let x = if x > 710.0 { 710.0 } else { x };
    let x = if x < -746.0 { -746.0 } else { x };
    let (kd, r) = reduce_ln2(x);
    let q = 1.0 + expm1_reduced(r);
    // 2^k as two factors 2^⌊k/2⌋ · 2^⌈k/2⌉, each a normal number, built in
    // the exponent field: one factor cannot hold k = 1024 or k < −1022.
    let kb = kd.to_bits().wrapping_add(2048) & 0xFFF; // k + 2048
    let half = kb >> 1;
    let s1 = f64::from_bits((half - 1) << 52);
    let s2 = f64::from_bits((kb - half - 1) << 52);
    q * s1 * s2
}

/// `tanh x`, branch-free and vectorizable; within 3 ulp of `libm` (and
/// about 2 of the true value).
///
/// Computed as `−m / (m + 2)` with `m = e^(−2|x|) − 1`, which needs no
/// case split: near zero `m ≈ −2|x|` carries full relative precision, and
/// past |x| ≈ 18.8 `m` rounds to −1 and the quotient is exactly 1. The
/// sign is copied from `x`, so the function is odd bit for bit and
/// `tanh(±0) = ±0`; `tanh(±∞) = ±1`; NaN propagates. Every operation
/// after the polynomial is monotone in its argument, and |y| ≤ 1 always,
/// so backward's `1 − y²` is never negative.
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let bits = x.to_bits();
    let a = f64::from_bits(bits & ABS_MASK);
    // Keeps k in −58..=0. A NaN fails the comparison and flows through.
    let a = if a > 20.0 { 20.0 } else { a };
    let (kd, r) = reduce_ln2(-2.0 * a);
    let p = expm1_reduced(r);
    // 2^k, exact, as is 2^k·p; m = 2^k·(p + 1) − 1 and m + 2 each take
    // one rounding, with the cancellation against ∓1 done exactly first.
    let s = f64::from_bits(kd.to_bits().wrapping_add(1023) << 52);
    let sp = s * p;
    let y = -(sp + (s - 1.0)) / (sp + (s + 1.0));
    f64::from_bits((y.to_bits() & ABS_MASK) | (bits & !ABS_MASK))
}

// fdlibm's minimax coefficients for the `ln` kernel below.
const LG1: f64 = 6.666_666_666_666_735_130e-01;
const LG2: f64 = 3.999_999_999_940_941_908e-01;
const LG3: f64 = 2.857_142_874_366_239_149e-01;
const LG4: f64 = 2.222_219_843_214_978_396e-01;
const LG5: f64 = 1.818_357_216_161_805_012e-01;
const LG6: f64 = 1.531_383_769_920_937_332e-01;
const LG7: f64 = 1.479_819_860_511_658_591e-01;

/// Natural logarithm, branch-free and vectorizable; within 1 ulp of
/// `libm`.
///
/// `ln(±0) = −∞`, `ln(x < 0) = NaN`, `ln(+∞) = +∞`, NaN propagates, and
/// `ln 1 = 0` exactly; subnormal arguments are handled. This is fdlibm's
/// kernel: `x = 2^k·(1 + f)` with `1 + f` in `[√2/2, √2)`, then
/// `ln(1 + f) = f − f²/2 + s·(f²/2 + R(s²))` for `s = f/(2 + f)`.
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    /// The high word of √2/2, as fdlibm splits there.
    const SQRT_HALF: u64 = 0x3FE6_A09E_0000_0000;
    const TWO_54: f64 = 18_014_398_509_481_984.0;
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let tiny = x < f64::MIN_POSITIVE;
    let scaled = if tiny { x * TWO_54 } else { x };
    let bias = if tiny { 1023.0 + 54.0 } else { 1023.0 };
    // Adding 1 − √2/2 in the exponent's units carries into the exponent
    // field exactly when the mantissa is past √2.
    let t = scaled.to_bits().wrapping_add(0x3FF0_0000_0000_0000 - SQRT_HALF);
    // The biased exponent as a float: OR it under 2^52's exponent.
    let k = f64::from_bits(TWO_52.to_bits() | (t >> 52)) - TWO_52 - bias;
    let f = f64::from_bits((t & MANTISSA_MASK) + SQRT_HALF) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let y = s * (hfsq + (t2 + t1)) + k * LN2_LO - hfsq + f + k * LN2_HI;
    // +∞ and NaN fail the first comparison and are their own logarithm.
    let y = if x < f64::INFINITY { y } else { x };
    let y = if x < 0.0 { f64::NAN } else { y };
    if x == 0.0 {
        f64::NEG_INFINITY
    } else {
        y
    }
}

// The slice forms: the one loop over the one scalar body, compiled per
// tier and vectorised at that tier's width.

tiered! {
    /// `xs[i] = tanh(xs[i])` — the activation sweep of a tanh layer.
    pub fn tanh_inplace(isa, xs: &mut [f64]) {
        for v in xs {
            *v = tanh(*v);
        }
    }
}

tiered! {
    /// `xs[i] = exp(xs[i])` — the numerators of a softmax row.
    pub fn exp_inplace(isa, xs: &mut [f64]) {
        for v in xs {
            *v = exp(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_libm_over_the_heading_range() {
        // Dense sweep over ±600 rad (far beyond any episode's heading
        // excursion), including quadrant boundaries.
        for i in -60_000..=60_000i64 {
            let x = i as f64 * 0.01 + 1e-4;
            let (s, c) = sin_cos(x);
            assert!((s - x.sin()).abs() < 1e-13, "sin({x}) = {s} vs {}", x.sin());
            assert!((c - x.cos()).abs() < 1e-13, "cos({x}) = {c} vs {}", x.cos());
        }
    }

    #[test]
    fn stays_accurate_for_large_arguments() {
        for i in 1..2_000i64 {
            let x = i as f64 * 523.1 + 0.37;
            let (s, c) = sin_cos(x);
            assert!((s - x.sin()).abs() < 1e-11, "sin({x})");
            assert!((c - x.cos()).abs() < 1e-11, "cos({x})");
            let (s, c) = sin_cos(-x);
            assert!((s + x.sin()).abs() < 1e-11, "sin(-{x})");
            assert!((c - x.cos()).abs() < 1e-11, "cos(-{x})");
        }
    }

    #[test]
    fn exact_at_zero_and_odd_even_symmetric() {
        assert_eq!(sin_cos(0.0), (0.0, 1.0));
        // x = 0 is excluded below: `r + r·r²·P` turns −0.0 into +0.0,
        // which is the one (sign-of-zero) place odd symmetry bends.
        for i in 1..10_000i64 {
            let x = i as f64 * 0.037;
            let (sp, cp) = sin_cos(x);
            let (sn, cn) = sin_cos(-x);
            assert_eq!(sp.to_bits(), (-sn).to_bits(), "sine must be odd at {x}");
            assert_eq!(cp.to_bits(), cn.to_bits(), "cosine must be even at {x}");
        }
    }

    #[test]
    fn pythagorean_identity_holds() {
        for i in -5_000..5_000i64 {
            let x = i as f64 * 0.113;
            let (s, c) = sin_cos(x);
            assert!((s * s + c * c - 1.0).abs() < 1e-14, "s²+c² at {x}");
        }
    }
}
