//! Runtime ISA detection, the process-wide dispatch decision, and the
//! `tiered!` macro through which a kernel body enters a tier.

use std::sync::OnceLock;

/// The instruction-set tier a kernel dispatches to.
///
/// Tiers are ordered: `Scalar < Avx2 < Avx512`. Every `f64` kernel in
/// this crate returns bitwise-identical results on all three tiers, so
/// the choice is purely a throughput decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// Portable scalar fallback — the reference implementation.
    Scalar,
    /// 256-bit vectors: 4 × f64 lanes (requires AVX2).
    Avx2,
    /// 512-bit vectors: 8 × f64 lanes (requires AVX-512F).
    Avx512,
}

impl Isa {
    /// Every tier, weakest first (test iteration convenience).
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Avx512];

    /// Detect the best tier the CPU supports, ignoring any override.
    ///
    /// The probe result is memoized: the kernel dispatchers clamp their
    /// requested tier against this on *every* call for soundness, so the
    /// fast path must be one atomic load, not three feature queries.
    pub fn detect() -> Isa {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(Isa::probe)
    }

    /// Uncached CPU feature probe backing [`Isa::detect`].
    fn probe() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    }

    /// Whether the running CPU can execute this tier's kernels.
    pub fn available(self) -> bool {
        self <= Isa::detect()
    }

    /// The process-wide dispatch decision, made once on first use:
    /// [`Isa::detect`] clamped by the `RLDT_SIMD` environment variable
    /// (`scalar` | `avx2` | `avx512`, case-insensitive). The override can
    /// only *lower* the tier — requesting an ISA the CPU lacks falls back
    /// to the best supported one, and unknown values are ignored — so a
    /// cached `Isa` is always safe to execute.
    pub fn cached() -> Isa {
        static CACHED: OnceLock<Isa> = OnceLock::new();
        *CACHED.get_or_init(|| {
            let detected = Isa::detect();
            match std::env::var("RLDT_SIMD") {
                Ok(v) => Isa::parse(&v).map_or(detected, |req| req.min(detected)),
                Err(_) => detected,
            }
        })
    }

    /// Parse an `RLDT_SIMD` value; `None` for unrecognized strings.
    pub(crate) fn parse(s: &str) -> Option<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" | "avx512f" => Some(Isa::Avx512),
            _ => None,
        }
    }

    /// Stable lowercase name (telemetry fields, bench reports).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Number of `f64` lanes one vector register holds on this tier.
    pub fn f64_lanes(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 4,
            Isa::Avx512 => 8,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The one way any crate's kernel enters a tier: the body is written
/// once, safe, and compiled three times — as it stands for the scalar
/// tier, and inlined into an `avx2` and an `avx512f` `#[target_feature]`
/// wrapper, where the compiler vectorises it at that tier's width. The
/// generated `fn name(isa, args…)` (with the visibility written before
/// `fn`) clamps `isa` to what the CPU supports, so it is sound for any
/// [`Isa`] value, and calls the matching compilation. A caller that wants
/// a narrower build than the machine's best clamps the `isa` it passes.
///
/// A body may use only IEEE exact-rounded operations (`+ − × ÷ √`,
/// compares, bit moves), which round alike at every width — so every tier
/// returns the scalar tier's bits and there is no second body to compare.
///
/// The wrappers are named functions and the body is `#[inline(always)]`:
/// a closure handed to a generic `run(isa, || …)` is not certain to be
/// compiled with the wrapper's features (measured 1.5–2.3× slower).
#[macro_export]
macro_rules! tiered {
    ($(#[$attr:meta])* $vis:vis fn $name:ident(isa $(, $arg:ident: $ty:ty)* $(,)?) $body:block) => {
        $(#[$attr])*
        #[inline]
        $vis fn $name(isa: $crate::Isa $(, $arg: $ty)*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            fn avx512($($arg: $ty),*) {
                body($($arg),*)
            }

            match isa.min($crate::Isa::detect()) {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the clamp verified the CPU supports this tier.
                $crate::Isa::Avx512 => unsafe { avx512($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the clamp verified the CPU supports this tier.
                $crate::Isa::Avx2 => unsafe { avx2($($arg),*) },
                _ => body($($arg),*),
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_ordered() {
        assert!(Isa::Scalar < Isa::Avx2 && Isa::Avx2 < Isa::Avx512);
        assert!(Isa::Scalar.available(), "scalar is always available");
    }

    #[test]
    fn parse_accepts_known_names_only() {
        assert_eq!(Isa::parse("scalar"), Some(Isa::Scalar));
        assert_eq!(Isa::parse(" AVX2 "), Some(Isa::Avx2));
        assert_eq!(Isa::parse("avx512"), Some(Isa::Avx512));
        assert_eq!(Isa::parse("avx512f"), Some(Isa::Avx512));
        assert_eq!(Isa::parse("neon"), None);
        assert_eq!(Isa::parse(""), None);
    }

    #[test]
    fn cached_never_exceeds_detected() {
        assert!(Isa::cached() <= Isa::detect());
    }

    #[test]
    fn lane_widths_match_register_sizes() {
        assert_eq!(Isa::Scalar.f64_lanes(), 1);
        assert_eq!(Isa::Avx2.f64_lanes(), 4);
        assert_eq!(Isa::Avx512.f64_lanes(), 8);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
    }
}
