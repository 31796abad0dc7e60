//! `f64` microkernels for the batched SoA Runge–Kutta / GBS stage math.
//!
//! Layout contract: a "stage buffer" `k` packs `coeffs.len()` blocks of
//! `out.len()` contiguous elements — block `j` holds stage `j`'s value
//! for every (component, lane) pair, exactly the `rk-ode` SoA layout with
//! stride `lane_len = dim × n_lanes`.
//!
//! Bitwise contract: for every element, each kernel performs the exact
//! operation sequence of its scalar reference (the `_scalar` body that
//! also serves as the tail loop) — weighted sums seed the accumulator
//! with `0.0` and add `coeff * k` terms in ascending stage order, and no
//! kernel uses FMA. All operations are IEEE-754 exact-rounded, so the
//! AVX2 and AVX-512 tiers return bit-identical results to the scalar
//! tier; the tests at the bottom and the cross-ISA sweeps pin this
//! down.

use crate::Isa;

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Clamp a requested tier to what the CPU supports, so the dispatchers
/// below stay sound even for a forged [`Isa`] value. `Isa::detect`'s
/// feature queries are cached atomics — two loads per kernel call.
#[inline]
fn clamp(isa: Isa) -> Isa {
    isa.min(Isa::detect())
}

// ---------------------------------------------------------------------------
// Weighted stage sums: acc_e = 0 + Σ_j coeffs[j] · k[j·len + e]
// ---------------------------------------------------------------------------

#[inline(always)]
fn stage_update_tail(coeffs: &[f64], k: &[f64], y: &[f64], h: f64, out: &mut [f64], from: usize) {
    let len = out.len();
    for e in from..len {
        let mut acc = 0.0;
        for (j, &c) in coeffs.iter().enumerate() {
            acc += c * k[j * len + e];
        }
        out[e] = y[e] + h * acc;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_update_avx2(coeffs: &[f64], k: &[f64], y: &[f64], h: f64, out: &mut [f64]) {
    let len = out.len();
    let (kp, yp, op) = (k.as_ptr(), y.as_ptr(), out.as_mut_ptr());
    let hv = _mm256_set1_pd(h);
    let mut e = 0usize;
    // Two independent accumulator vectors per iteration hide the 4-cycle
    // add latency of the per-stage chains.
    while e + 8 <= len {
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        for (j, &c) in coeffs.iter().enumerate() {
            let cv = _mm256_set1_pd(c);
            // SAFETY: j·len + e + 7 < coeffs.len()·len ≤ k.len() (checked
            // by the dispatcher), and e + 7 < len for y/out.
            let k0 = unsafe { _mm256_loadu_pd(kp.add(j * len + e)) };
            let k1 = unsafe { _mm256_loadu_pd(kp.add(j * len + e + 4)) };
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(cv, k0));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(cv, k1));
        }
        // SAFETY: e + 7 < len.
        unsafe {
            let y0 = _mm256_loadu_pd(yp.add(e));
            let y1 = _mm256_loadu_pd(yp.add(e + 4));
            _mm256_storeu_pd(op.add(e), _mm256_add_pd(y0, _mm256_mul_pd(hv, a0)));
            _mm256_storeu_pd(op.add(e + 4), _mm256_add_pd(y1, _mm256_mul_pd(hv, a1)));
        }
        e += 8;
    }
    if e + 4 <= len {
        let mut a0 = _mm256_setzero_pd();
        for (j, &c) in coeffs.iter().enumerate() {
            let cv = _mm256_set1_pd(c);
            // SAFETY: j·len + e + 3 < k.len(); e + 3 < len.
            let k0 = unsafe { _mm256_loadu_pd(kp.add(j * len + e)) };
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(cv, k0));
        }
        // SAFETY: e + 3 < len.
        unsafe {
            let y0 = _mm256_loadu_pd(yp.add(e));
            _mm256_storeu_pd(op.add(e), _mm256_add_pd(y0, _mm256_mul_pd(hv, a0)));
        }
        e += 4;
    }
    stage_update_tail(coeffs, k, y, h, out, e);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn stage_update_avx512(coeffs: &[f64], k: &[f64], y: &[f64], h: f64, out: &mut [f64]) {
    let len = out.len();
    let (kp, yp, op) = (k.as_ptr(), y.as_ptr(), out.as_mut_ptr());
    let hv = _mm512_set1_pd(h);
    let mut e = 0usize;
    while e + 16 <= len {
        let mut a0 = _mm512_setzero_pd();
        let mut a1 = _mm512_setzero_pd();
        for (j, &c) in coeffs.iter().enumerate() {
            let cv = _mm512_set1_pd(c);
            // SAFETY: j·len + e + 15 < coeffs.len()·len ≤ k.len().
            let k0 = unsafe { _mm512_loadu_pd(kp.add(j * len + e)) };
            let k1 = unsafe { _mm512_loadu_pd(kp.add(j * len + e + 8)) };
            a0 = _mm512_add_pd(a0, _mm512_mul_pd(cv, k0));
            a1 = _mm512_add_pd(a1, _mm512_mul_pd(cv, k1));
        }
        // SAFETY: e + 15 < len.
        unsafe {
            let y0 = _mm512_loadu_pd(yp.add(e));
            let y1 = _mm512_loadu_pd(yp.add(e + 8));
            _mm512_storeu_pd(op.add(e), _mm512_add_pd(y0, _mm512_mul_pd(hv, a0)));
            _mm512_storeu_pd(op.add(e + 8), _mm512_add_pd(y1, _mm512_mul_pd(hv, a1)));
        }
        e += 16;
    }
    if e + 8 <= len {
        let mut a0 = _mm512_setzero_pd();
        for (j, &c) in coeffs.iter().enumerate() {
            let cv = _mm512_set1_pd(c);
            // SAFETY: j·len + e + 7 < k.len().
            let k0 = unsafe { _mm512_loadu_pd(kp.add(j * len + e)) };
            a0 = _mm512_add_pd(a0, _mm512_mul_pd(cv, k0));
        }
        // SAFETY: e + 7 < len.
        unsafe {
            let y0 = _mm512_loadu_pd(yp.add(e));
            _mm512_storeu_pd(op.add(e), _mm512_add_pd(y0, _mm512_mul_pd(hv, a0)));
        }
        e += 8;
    }
    stage_update_tail(coeffs, k, y, h, out, e);
}

/// Fused RK stage state: `out[e] = y[e] + h · Σ_j coeffs[j] · k[j·len+e]`
/// with the accumulator seeded at `0.0` and stages added in ascending
/// order (`len = out.len()`, the SoA stride).
#[inline]
pub fn stage_update(isa: Isa, coeffs: &[f64], k: &[f64], y: &[f64], h: f64, out: &mut [f64]) {
    let len = out.len();
    assert_eq!(y.len(), len, "stage_update: y/out length mismatch");
    assert!(k.len() >= coeffs.len() * len, "stage_update: stage buffer too short");
    match clamp(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { stage_update_avx512(coeffs, k, y, h, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { stage_update_avx2(coeffs, k, y, h, out) },
        _ => stage_update_tail(coeffs, k, y, h, out, 0),
    }
}

#[inline(always)]
fn combine_tail(coeffs: &[f64], k: &[f64], h: f64, y: &mut [f64], from: usize) {
    let len = y.len();
    for e in from..len {
        let mut acc = 0.0;
        for (j, &c) in coeffs.iter().enumerate() {
            acc += c * k[j * len + e];
        }
        y[e] += h * acc;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn combine_avx2(coeffs: &[f64], k: &[f64], h: f64, y: &mut [f64]) {
    let len = y.len();
    let (kp, yp) = (k.as_ptr(), y.as_mut_ptr());
    let hv = _mm256_set1_pd(h);
    let mut e = 0usize;
    while e + 4 <= len {
        let mut a0 = _mm256_setzero_pd();
        for (j, &c) in coeffs.iter().enumerate() {
            let cv = _mm256_set1_pd(c);
            // SAFETY: j·len + e + 3 < coeffs.len()·len ≤ k.len().
            let k0 = unsafe { _mm256_loadu_pd(kp.add(j * len + e)) };
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(cv, k0));
        }
        // SAFETY: e + 3 < len.
        unsafe {
            let y0 = _mm256_loadu_pd(yp.add(e));
            _mm256_storeu_pd(yp.add(e), _mm256_add_pd(y0, _mm256_mul_pd(hv, a0)));
        }
        e += 4;
    }
    combine_tail(coeffs, k, h, y, e);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn combine_avx512(coeffs: &[f64], k: &[f64], h: f64, y: &mut [f64]) {
    let len = y.len();
    let (kp, yp) = (k.as_ptr(), y.as_mut_ptr());
    let hv = _mm512_set1_pd(h);
    let mut e = 0usize;
    while e + 8 <= len {
        let mut a0 = _mm512_setzero_pd();
        for (j, &c) in coeffs.iter().enumerate() {
            let cv = _mm512_set1_pd(c);
            // SAFETY: j·len + e + 7 < coeffs.len()·len ≤ k.len().
            let k0 = unsafe { _mm512_loadu_pd(kp.add(j * len + e)) };
            a0 = _mm512_add_pd(a0, _mm512_mul_pd(cv, k0));
        }
        // SAFETY: e + 7 < len.
        unsafe {
            let y0 = _mm512_loadu_pd(yp.add(e));
            _mm512_storeu_pd(yp.add(e), _mm512_add_pd(y0, _mm512_mul_pd(hv, a0)));
        }
        e += 8;
    }
    combine_tail(coeffs, k, h, y, e);
}

/// Fused RK combination, all lanes active:
/// `y[e] += h · Σ_j coeffs[j] · k[j·len+e]` (`len = y.len()`).
#[inline]
pub fn combine_inplace(isa: Isa, coeffs: &[f64], k: &[f64], h: f64, y: &mut [f64]) {
    let len = y.len();
    assert!(k.len() >= coeffs.len() * len, "combine_inplace: stage buffer too short");
    match clamp(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { combine_avx512(coeffs, k, h, y) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { combine_avx2(coeffs, k, h, y) },
        _ => combine_tail(coeffs, k, h, y, 0),
    }
}

/// RK combination update for the masked path:
/// `upd[e] = h · Σ_j coeffs[j] · k[j·len+e]` — the caller then applies
/// `y[e] += upd[e]` to active lanes only, which is bit-identical to the
/// unmasked [`combine_inplace`] for those lanes.
#[inline]
pub fn combine_scaled(isa: Isa, coeffs: &[f64], k: &[f64], h: f64, upd: &mut [f64]) {
    let len = upd.len();
    assert!(k.len() >= coeffs.len() * len, "combine_scaled: stage buffer too short");
    // `upd = 0 + h·Σ` reuses the stage kernel with a zero base: for every
    // element, `0.0 + h·acc` is bitwise `h·acc` unless `h·acc` is `-0.0`,
    // in which case the masked add `y += 0.0` and `y += -0.0` coincide
    // for every y except `-0.0 + (-0.0)`. To keep exact equality we run
    // the dedicated body below instead of reusing stage_update.
    combine_scaled_dispatch(isa, coeffs, k, h, upd)
}

#[inline(always)]
fn combine_scaled_tail(coeffs: &[f64], k: &[f64], h: f64, upd: &mut [f64], from: usize) {
    let len = upd.len();
    for e in from..len {
        let mut acc = 0.0;
        for (j, &c) in coeffs.iter().enumerate() {
            acc += c * k[j * len + e];
        }
        upd[e] = h * acc;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn combine_scaled_avx2(coeffs: &[f64], k: &[f64], h: f64, upd: &mut [f64]) {
    let len = upd.len();
    let (kp, up) = (k.as_ptr(), upd.as_mut_ptr());
    let hv = _mm256_set1_pd(h);
    let mut e = 0usize;
    while e + 4 <= len {
        let mut a0 = _mm256_setzero_pd();
        for (j, &c) in coeffs.iter().enumerate() {
            let cv = _mm256_set1_pd(c);
            // SAFETY: j·len + e + 3 < coeffs.len()·len ≤ k.len().
            let k0 = unsafe { _mm256_loadu_pd(kp.add(j * len + e)) };
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(cv, k0));
        }
        // SAFETY: e + 3 < len.
        unsafe { _mm256_storeu_pd(up.add(e), _mm256_mul_pd(hv, a0)) };
        e += 4;
    }
    combine_scaled_tail(coeffs, k, h, upd, e);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn combine_scaled_avx512(coeffs: &[f64], k: &[f64], h: f64, upd: &mut [f64]) {
    let len = upd.len();
    let (kp, up) = (k.as_ptr(), upd.as_mut_ptr());
    let hv = _mm512_set1_pd(h);
    let mut e = 0usize;
    while e + 8 <= len {
        let mut a0 = _mm512_setzero_pd();
        for (j, &c) in coeffs.iter().enumerate() {
            let cv = _mm512_set1_pd(c);
            // SAFETY: j·len + e + 7 < coeffs.len()·len ≤ k.len().
            let k0 = unsafe { _mm512_loadu_pd(kp.add(j * len + e)) };
            a0 = _mm512_add_pd(a0, _mm512_mul_pd(cv, k0));
        }
        // SAFETY: e + 7 < len.
        unsafe { _mm512_storeu_pd(up.add(e), _mm512_mul_pd(hv, a0)) };
        e += 8;
    }
    combine_scaled_tail(coeffs, k, h, upd, e);
}

fn combine_scaled_dispatch(isa: Isa, coeffs: &[f64], k: &[f64], h: f64, upd: &mut [f64]) {
    match clamp(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { combine_scaled_avx512(coeffs, k, h, upd) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { combine_scaled_avx2(coeffs, k, h, upd) },
        _ => combine_scaled_tail(coeffs, k, h, upd, 0),
    }
}

// ---------------------------------------------------------------------------
// Elementwise GBS kernels
// ---------------------------------------------------------------------------

#[inline(always)]
fn axpy_const_tail(a: &[f64], s: f64, b: &[f64], out: &mut [f64], from: usize) {
    for e in from..out.len() {
        out[e] = a[e] + s * b[e];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_const_avx2(a: &[f64], s: f64, b: &[f64], out: &mut [f64]) {
    let len = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let sv = _mm256_set1_pd(s);
    let mut e = 0usize;
    while e + 4 <= len {
        // SAFETY: e + 3 < len for all three slices (dispatcher asserts).
        unsafe {
            let av = _mm256_loadu_pd(ap.add(e));
            let bv = _mm256_loadu_pd(bp.add(e));
            _mm256_storeu_pd(op.add(e), _mm256_add_pd(av, _mm256_mul_pd(sv, bv)));
        }
        e += 4;
    }
    axpy_const_tail(a, s, b, out, e);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_const_avx512(a: &[f64], s: f64, b: &[f64], out: &mut [f64]) {
    let len = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let sv = _mm512_set1_pd(s);
    let mut e = 0usize;
    while e + 8 <= len {
        // SAFETY: e + 7 < len for all three slices (dispatcher asserts).
        unsafe {
            let av = _mm512_loadu_pd(ap.add(e));
            let bv = _mm512_loadu_pd(bp.add(e));
            _mm512_storeu_pd(op.add(e), _mm512_add_pd(av, _mm512_mul_pd(sv, bv)));
        }
        e += 8;
    }
    axpy_const_tail(a, s, b, out, e);
}

/// Midpoint triad: `out[e] = a[e] + s · b[e]` (no FMA). Covers the GBS
/// sub-step updates `z₁ = y + h·f₀` and `z_{m+1} = z_{m-1} + (2h)·f_m`.
#[inline]
pub fn axpy_const(isa: Isa, a: &[f64], s: f64, b: &[f64], out: &mut [f64]) {
    assert!(a.len() == out.len() && b.len() == out.len(), "axpy_const: length mismatch");
    match clamp(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { axpy_const_avx512(a, s, b, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { axpy_const_avx2(a, s, b, out) },
        _ => axpy_const_tail(a, s, b, out, 0),
    }
}

#[inline(always)]
fn gragg_smooth_tail(zc: &[f64], zp: &[f64], h: f64, s: &[f64], out: &mut [f64], from: usize) {
    for e in from..out.len() {
        out[e] = 0.5 * (zc[e] + zp[e] + h * s[e]);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gragg_smooth_avx2(zc: &[f64], zp: &[f64], h: f64, s: &[f64], out: &mut [f64]) {
    let len = out.len();
    let (cp, pp, sp, op) = (zc.as_ptr(), zp.as_ptr(), s.as_ptr(), out.as_mut_ptr());
    let hv = _mm256_set1_pd(h);
    let half = _mm256_set1_pd(0.5);
    let mut e = 0usize;
    while e + 4 <= len {
        // SAFETY: e + 3 < len for all four slices (dispatcher asserts).
        unsafe {
            let c = _mm256_loadu_pd(cp.add(e));
            let p = _mm256_loadu_pd(pp.add(e));
            let f = _mm256_loadu_pd(sp.add(e));
            let sum = _mm256_add_pd(_mm256_add_pd(c, p), _mm256_mul_pd(hv, f));
            _mm256_storeu_pd(op.add(e), _mm256_mul_pd(half, sum));
        }
        e += 4;
    }
    gragg_smooth_tail(zc, zp, h, s, out, e);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gragg_smooth_avx512(zc: &[f64], zp: &[f64], h: f64, s: &[f64], out: &mut [f64]) {
    let len = out.len();
    let (cp, pp, sp, op) = (zc.as_ptr(), zp.as_ptr(), s.as_ptr(), out.as_mut_ptr());
    let hv = _mm512_set1_pd(h);
    let half = _mm512_set1_pd(0.5);
    let mut e = 0usize;
    while e + 8 <= len {
        // SAFETY: e + 7 < len for all four slices (dispatcher asserts).
        unsafe {
            let c = _mm512_loadu_pd(cp.add(e));
            let p = _mm512_loadu_pd(pp.add(e));
            let f = _mm512_loadu_pd(sp.add(e));
            let sum = _mm512_add_pd(_mm512_add_pd(c, p), _mm512_mul_pd(hv, f));
            _mm512_storeu_pd(op.add(e), _mm512_mul_pd(half, sum));
        }
        e += 8;
    }
    gragg_smooth_tail(zc, zp, h, s, out, e);
}

/// Gragg smoothing: `out[e] = 0.5 · ((zc[e] + zp[e]) + h · s[e])` — the
/// left-associated sum order of the scalar GBS stepper.
#[inline]
pub fn gragg_smooth(isa: Isa, zc: &[f64], zp: &[f64], h: f64, s: &[f64], out: &mut [f64]) {
    let len = out.len();
    assert!(zc.len() == len && zp.len() == len && s.len() == len, "gragg_smooth: length mismatch");
    match clamp(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { gragg_smooth_avx512(zc, zp, h, s, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { gragg_smooth_avx2(zc, zp, h, s, out) },
        _ => gragg_smooth_tail(zc, zp, h, s, out, 0),
    }
}

#[inline(always)]
fn neville_update_tail(cur: &mut [f64], prev: &[f64], denom: f64, from: usize) {
    for e in from..cur.len() {
        cur[e] += (cur[e] - prev[e]) / denom;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn neville_update_avx2(cur: &mut [f64], prev: &[f64], denom: f64) {
    let len = cur.len();
    let (cp, pp) = (cur.as_mut_ptr(), prev.as_ptr());
    let dv = _mm256_set1_pd(denom);
    let mut e = 0usize;
    while e + 4 <= len {
        // SAFETY: e + 3 < len for both slices (dispatcher asserts).
        unsafe {
            let c = _mm256_loadu_pd(cp.add(e));
            let p = _mm256_loadu_pd(pp.add(e));
            let q = _mm256_div_pd(_mm256_sub_pd(c, p), dv);
            _mm256_storeu_pd(cp.add(e), _mm256_add_pd(c, q));
        }
        e += 4;
    }
    neville_update_tail(cur, prev, denom, e);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn neville_update_avx512(cur: &mut [f64], prev: &[f64], denom: f64) {
    let len = cur.len();
    let (cp, pp) = (cur.as_mut_ptr(), prev.as_ptr());
    let dv = _mm512_set1_pd(denom);
    let mut e = 0usize;
    while e + 8 <= len {
        // SAFETY: e + 7 < len for both slices (dispatcher asserts).
        unsafe {
            let c = _mm512_loadu_pd(cp.add(e));
            let p = _mm512_loadu_pd(pp.add(e));
            let q = _mm512_div_pd(_mm512_sub_pd(c, p), dv);
            _mm512_storeu_pd(cp.add(e), _mm512_add_pd(c, q));
        }
        e += 8;
    }
    neville_update_tail(cur, prev, denom, e);
}

/// Aitken–Neville column update:
/// `cur[e] += (cur[e] − prev[e]) / denom`. The per-element division is
/// kept (no reciprocal-multiply): `vdivpd` rounds exactly like `divsd`,
/// so all tiers agree bitwise.
#[inline]
pub fn neville_update(isa: Isa, cur: &mut [f64], prev: &[f64], denom: f64) {
    assert_eq!(cur.len(), prev.len(), "neville_update: length mismatch");
    match clamp(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx512 => unsafe { neville_update_avx512(cur, prev, denom) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamp() verified the CPU supports this tier.
        Isa::Avx2 => unsafe { neville_update_avx2(cur, prev, denom) },
        _ => neville_update_tail(cur, prev, denom, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Awkward lengths cover full vectors, half vectors and scalar tails.
    const LENS: [usize; 6] = [1, 3, 7, 8, 19, 96];

    #[test]
    fn stage_update_is_bitwise_identical_across_tiers() {
        for &len in &LENS {
            for stages in [1usize, 2, 5, 7] {
                let coeffs = lcg(stages as u64, stages);
                let k = lcg(99 + len as u64, stages * len);
                let y = lcg(7 + len as u64, len);
                let mut reference = vec![0.0; len];
                stage_update_tail(&coeffs, &k, &y, 0.125, &mut reference, 0);
                for isa in tiers() {
                    let mut out = vec![f64::NAN; len];
                    stage_update(isa, &coeffs, &k, &y, 0.125, &mut out);
                    for (a, b) in out.iter().zip(&reference) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{isa} len={len} stages={stages}");
                    }
                }
            }
        }
    }

    #[test]
    fn combine_kernels_are_bitwise_identical_across_tiers() {
        for &len in &LENS {
            let stages = 6usize;
            let coeffs = lcg(5, stages);
            let k = lcg(13 + len as u64, stages * len);
            let y0 = lcg(31 + len as u64, len);
            let mut reference = y0.clone();
            combine_tail(&coeffs, &k, 0.05, &mut reference, 0);
            let mut upd_ref = vec![0.0; len];
            combine_scaled_tail(&coeffs, &k, 0.05, &mut upd_ref, 0);
            for isa in tiers() {
                let mut y = y0.clone();
                combine_inplace(isa, &coeffs, &k, 0.05, &mut y);
                assert!(
                    y.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "combine_inplace {isa} len={len}"
                );
                let mut upd = vec![f64::NAN; len];
                combine_scaled(isa, &coeffs, &k, 0.05, &mut upd);
                assert!(
                    upd.iter().zip(&upd_ref).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "combine_scaled {isa} len={len}"
                );
            }
        }
    }

    #[test]
    fn elementwise_kernels_are_bitwise_identical_across_tiers() {
        for &len in &LENS {
            let a = lcg(1 + len as u64, len);
            let b = lcg(2 + len as u64, len);
            let c = lcg(3 + len as u64, len);
            let mut axpy_ref = vec![0.0; len];
            axpy_const_tail(&a, 0.37, &b, &mut axpy_ref, 0);
            let mut gragg_ref = vec![0.0; len];
            gragg_smooth_tail(&a, &b, 0.11, &c, &mut gragg_ref, 0);
            let mut nev_ref = a.clone();
            neville_update_tail(&mut nev_ref, &b, 3.2, 0);
            for isa in tiers() {
                let mut out = vec![f64::NAN; len];
                axpy_const(isa, &a, 0.37, &b, &mut out);
                assert!(
                    out.iter().zip(&axpy_ref).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "axpy_const {isa} len={len}"
                );
                let mut out = vec![f64::NAN; len];
                gragg_smooth(isa, &a, &b, 0.11, &c, &mut out);
                assert!(
                    out.iter().zip(&gragg_ref).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "gragg_smooth {isa} len={len}"
                );
                let mut cur = a.clone();
                neville_update(isa, &mut cur, &b, 3.2);
                assert!(
                    cur.iter().zip(&nev_ref).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "neville_update {isa} len={len}"
                );
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
