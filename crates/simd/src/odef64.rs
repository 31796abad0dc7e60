//! `f64` microkernels for the batched SoA Runge–Kutta / GBS stage math.
//!
//! Layout contract: a "stage buffer" `k` packs `coeffs.len()` blocks of
//! `len` contiguous elements — block `j` holds stage `j`'s value for every
//! (component, lane) pair, exactly the `rk-ode` SoA layout with stride
//! `lane_len = dim × n_lanes`.
//!
//! Every kernel is one safe body behind the crate's `tiered!` macro,
//! compiled per tier: there is no intrinsic and no second copy of any
//! formula here. Bitwise contract: weighted sums seed each element's
//! accumulator with `0.0` and add `coeff * k` terms in ascending stage
//! order, elements never share a sum, and nothing is fused. All
//! operations are IEEE-754 exact-rounded, so the AVX2 and AVX-512
//! compilations return the scalar one's bits; the tests at the bottom
//! compare all three with an oracle written the other way round
//! (element-outer, stage-inner), and the cross-ISA sweeps in
//! `tests/parity.rs` do so on random shapes.

use crate::tiered;

// ---------------------------------------------------------------------------
// Weighted stage sums: acc_e = 0 + Σ_j coeffs[j] · k[j·len + e]
// ---------------------------------------------------------------------------

/// The sums of the `W` elements from `e`: one accumulator per element,
/// all of them in registers across the stage sweep (`W = 16` is two
/// 512-bit or four 256-bit vectors — independent add chains that hide the
/// add latency without FMA).
///
/// Stage `j`'s block is sliced as `chunks_exact(len)` then `[e..][..W]`:
/// indexing `k[j * len + e..]` instead leaves two bounds checks per stage
/// in the inner loop (+21–26 % at 384 elements).
#[inline(always)]
fn stage_sums<const W: usize>(coeffs: &[f64], k: &[f64], len: usize, e: usize) -> [f64; W] {
    let mut acc = [0.0; W];
    for (&c, kj) in coeffs.iter().zip(k.chunks_exact(len)) {
        for (a, &x) in acc.iter_mut().zip(&kj[e..][..W]) {
            *a += c * x;
        }
    }
    acc
}

/// Every element's stage sum, handed to `write(block, sums)` in blocks of
/// 16 elements, then at most one each of 8 and 4, then single elements.
/// `write` is the kernel's epilogue and sees each element exactly once;
/// slicing its operands by `block` gives them `sums`' length, so the
/// epilogue compiles to whole vectors like the sweep before it.
#[inline(always)]
fn weighted_sums(
    coeffs: &[f64],
    k: &[f64],
    len: usize,
    mut write: impl FnMut(core::ops::Range<usize>, &[f64]),
) {
    assert!(k.len() >= coeffs.len() * len, "stage buffer too short");
    let mut e = 0;
    while e + 16 <= len {
        write(e..e + 16, &stage_sums::<16>(coeffs, k, len, e));
        e += 16;
    }
    if e + 8 <= len {
        write(e..e + 8, &stage_sums::<8>(coeffs, k, len, e));
        e += 8;
    }
    if e + 4 <= len {
        write(e..e + 4, &stage_sums::<4>(coeffs, k, len, e));
        e += 4;
    }
    while e < len {
        write(e..e + 1, &stage_sums::<1>(coeffs, k, len, e));
        e += 1;
    }
}

tiered! {
    /// Fused RK stage state: `out[e] = y[e] + h · Σ_j coeffs[j] · k[j·len+e]`
    /// with the accumulator seeded at `0.0` and stages added in ascending
    /// order (`len = out.len()`, the SoA stride).
    pub fn stage_update(isa, coeffs: &[f64], k: &[f64], y: &[f64], h: f64, out: &mut [f64]) {
        assert_eq!(y.len(), out.len(), "stage_update: y/out length mismatch");
        weighted_sums(coeffs, k, out.len(), |block, sums| {
            for ((o, &y), &acc) in out[block.clone()].iter_mut().zip(&y[block]).zip(sums) {
                *o = y + h * acc;
            }
        });
    }
}

tiered! {
    /// Fused RK combination, all lanes active:
    /// `y[e] += h · Σ_j coeffs[j] · k[j·len+e]` (`len = y.len()`).
    pub fn combine_inplace(isa, coeffs: &[f64], k: &[f64], h: f64, y: &mut [f64]) {
        weighted_sums(coeffs, k, y.len(), |block, sums| {
            for (y, &acc) in y[block].iter_mut().zip(sums) {
                *y += h * acc;
            }
        });
    }
}

tiered! {
    /// RK combination update for the masked path:
    /// `upd[e] = h · Σ_j coeffs[j] · k[j·len+e]` — the caller then applies
    /// `y[e] += upd[e]` to active lanes only, which is bit-identical to the
    /// unmasked [`combine_inplace`] for those lanes. (Not [`stage_update`]
    /// on a zero base: `0.0 + h·acc` turns a `-0.0` product into `+0.0`.)
    pub fn combine_scaled(isa, coeffs: &[f64], k: &[f64], h: f64, upd: &mut [f64]) {
        weighted_sums(coeffs, k, upd.len(), |block, sums| {
            for (u, &acc) in upd[block].iter_mut().zip(sums) {
                *u = h * acc;
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Elementwise GBS kernels
// ---------------------------------------------------------------------------

tiered! {
    /// Midpoint triad: `out[e] = a[e] + s · b[e]` (no FMA). Covers the GBS
    /// sub-step updates `z₁ = y + h·f₀` and `z_{m+1} = z_{m-1} + (2h)·f_m`.
    pub fn axpy_const(isa, a: &[f64], s: f64, b: &[f64], out: &mut [f64]) {
        assert!(a.len() == out.len() && b.len() == out.len(), "axpy_const: length mismatch");
        for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
            *o = a + s * b;
        }
    }
}

tiered! {
    /// Gragg smoothing: `out[e] = 0.5 · ((zc[e] + zp[e]) + h · s[e])` — the
    /// left-associated sum order of the scalar GBS stepper.
    pub fn gragg_smooth(isa, zc: &[f64], zp: &[f64], h: f64, s: &[f64], out: &mut [f64]) {
        let len = out.len();
        assert!(
            zc.len() == len && zp.len() == len && s.len() == len,
            "gragg_smooth: length mismatch"
        );
        for (((o, &c), &p), &s) in out.iter_mut().zip(zc).zip(zp).zip(s) {
            *o = 0.5 * (c + p + h * s);
        }
    }
}

tiered! {
    /// Aitken–Neville column update:
    /// `cur[e] += (cur[e] − prev[e]) / denom`. The per-element division is
    /// kept (no reciprocal-multiply): `vdivpd` rounds exactly like `divsd`,
    /// so all tiers agree bitwise.
    pub fn neville_update(isa, cur: &mut [f64], prev: &[f64], denom: f64) {
        assert_eq!(cur.len(), prev.len(), "neville_update: length mismatch");
        for (c, &p) in cur.iter_mut().zip(prev) {
            *c += (*c - p) / denom;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Isa;

    /// Deterministic pseudo-random data (no `rand` dependency).
    fn lcg(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    fn tiers() -> Vec<Isa> {
        Isa::ALL.into_iter().filter(|t| t.available()).collect()
    }

    /// Lengths on both sides of every step of the 16 / 8 / 4 / 1 cascade.
    const LENS: [usize; 15] = [0, 1, 3, 4, 5, 7, 8, 15, 16, 17, 28, 29, 31, 33, 96];
    /// DOP853 has 12 stages; 0 leaves the bare epilogue.
    const STAGES: core::ops::RangeInclusive<usize> = 0..=13;

    /// The oracle, written the other way round from the body: one element
    /// at a time, its stages innermost, no blocks.
    fn oracle_sum(coeffs: &[f64], k: &[f64], len: usize, e: usize) -> f64 {
        let mut acc = 0.0;
        for (j, &c) in coeffs.iter().enumerate() {
            acc += c * k[j * len + e];
        }
        acc
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (e, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} element {e}");
        }
    }

    #[test]
    fn stage_update_is_bitwise_identical_across_tiers() {
        for &len in &LENS {
            for stages in STAGES {
                let coeffs = lcg(stages as u64, stages);
                let k = lcg(99 + len as u64, stages * len);
                let y = lcg(7 + len as u64, len);
                let reference: Vec<f64> =
                    (0..len).map(|e| y[e] + 0.125 * oracle_sum(&coeffs, &k, len, e)).collect();
                for isa in tiers() {
                    let mut out = vec![f64::NAN; len];
                    stage_update(isa, &coeffs, &k, &y, 0.125, &mut out);
                    assert_bits(&out, &reference, &format!("{isa} len={len} stages={stages}"));
                }
            }
        }
    }

    #[test]
    fn combine_kernels_are_bitwise_identical_across_tiers() {
        for &len in &LENS {
            for stages in STAGES {
                let coeffs = lcg(5 + stages as u64, stages);
                let k = lcg(13 + len as u64, stages * len);
                let y0 = lcg(31 + len as u64, len);
                let upd_ref: Vec<f64> =
                    (0..len).map(|e| 0.05 * oracle_sum(&coeffs, &k, len, e)).collect();
                let reference: Vec<f64> = y0.iter().zip(&upd_ref).map(|(y, u)| y + u).collect();
                for isa in tiers() {
                    let what = format!("{isa} len={len} stages={stages}");
                    let mut y = y0.clone();
                    combine_inplace(isa, &coeffs, &k, 0.05, &mut y);
                    assert_bits(&y, &reference, &format!("combine_inplace {what}"));
                    let mut upd = vec![f64::NAN; len];
                    combine_scaled(isa, &coeffs, &k, 0.05, &mut upd);
                    assert_bits(&upd, &upd_ref, &format!("combine_scaled {what}"));
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_are_bitwise_identical_across_tiers() {
        for &len in &LENS {
            let a = lcg(1 + len as u64, len);
            let b = lcg(2 + len as u64, len);
            let c = lcg(3 + len as u64, len);
            let axpy_ref: Vec<f64> = (0..len).map(|e| a[e] + 0.37 * b[e]).collect();
            let gragg_ref: Vec<f64> = (0..len).map(|e| 0.5 * (a[e] + b[e] + 0.11 * c[e])).collect();
            let nev_ref: Vec<f64> = (0..len).map(|e| a[e] + (a[e] - b[e]) / 3.2).collect();
            for isa in tiers() {
                let mut out = vec![f64::NAN; len];
                axpy_const(isa, &a, 0.37, &b, &mut out);
                assert_bits(&out, &axpy_ref, &format!("axpy_const {isa} len={len}"));
                let mut out = vec![f64::NAN; len];
                gragg_smooth(isa, &a, &b, 0.11, &c, &mut out);
                assert_bits(&out, &gragg_ref, &format!("gragg_smooth {isa} len={len}"));
                let mut cur = a.clone();
                neville_update(isa, &mut cur, &b, 3.2);
                assert_bits(&cur, &nev_ref, &format!("neville_update {isa} len={len}"));
            }
        }
    }

    #[test]
    fn masked_combine_equals_unmasked_for_active_lanes() {
        // The masked path computes upd then adds it; both must agree with
        // the fused in-place combine bit for bit.
        let len = 33;
        let coeffs = lcg(4, 7);
        let k = lcg(44, 7 * len);
        let y0 = lcg(55, len);
        for isa in tiers() {
            let mut fused = y0.clone();
            combine_inplace(isa, &coeffs, &k, 0.2, &mut fused);
            let mut upd = vec![0.0; len];
            combine_scaled(isa, &coeffs, &k, 0.2, &mut upd);
            let mut masked = y0.clone();
            for e in 0..len {
                masked[e] += upd[e];
            }
            assert!(
                masked.iter().zip(&fused).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{isa}: masked add diverged from fused combine"
            );
        }
    }

    #[test]
    fn stage_update_handles_empty_and_degenerate_shapes() {
        for isa in tiers() {
            let mut out: Vec<f64> = vec![];
            stage_update(isa, &[], &[], &[], 0.1, &mut out);
            let mut out = vec![0.0];
            stage_update(isa, &[], &[], &[2.0], 0.1, &mut out);
            assert_eq!(out[0], 2.0, "zero stages leaves y + h·0");
        }
    }
}
