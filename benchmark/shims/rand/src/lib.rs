//! Offline stand-in for `rand` 0.8.
//!
//! The container has no registry, so the benchmark workspace patches
//! `rand` to this crate. It keeps the algorithms that set the cost of a
//! draw — `StdRng` is the ChaCha12 block function, four blocks per refill
//! like `rand_chacha`; integers come from a widening multiply with
//! rejection, floats from the top 53 bits — so timings taken against it
//! are representative. Bit-for-bit stream equality with the published
//! crate is not promised.

pub mod rngs;
pub mod seq;

pub use rngs::StdRng;

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed with PCG32, as `rand_core` does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty => $via:ident),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}
standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
    usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32, i64 => next_u64,
    isize => next_u64);

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform over `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        low: Self,
        high: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

/// Unbiased integer in `[0, span)`; `span == 0` means the full 64 bits.
/// Widening multiply with rejection of the biased low zone (Lemire), the
/// method `rand` uses.
fn below_u64<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let zone = (span << span.leading_zeros()).wrapping_sub(1);
    loop {
        let wide = rng.next_u64() as u128 * span as u128;
        if (wide as u64) <= zone {
            return (wide >> 64) as u64;
        }
    }
}

fn below_u32<R: RngCore + ?Sized>(span: u32, rng: &mut R) -> u32 {
    if span == 0 {
        return rng.next_u32();
    }
    let zone = (span << span.leading_zeros()).wrapping_sub(1);
    loop {
        let wide = rng.next_u32() as u64 * span as u64;
        if (wide as u32) <= zone {
            return (wide >> 32) as u32;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty => $u:ty, $below:ident);*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                if inclusive {
                    assert!(low <= high, "gen_range: empty range");
                } else {
                    assert!(low < high, "gen_range: empty range");
                }
                // The span wraps to 0 exactly when the range is the whole type.
                let span = ((high as i128 - low as i128) as $u).wrapping_add(inclusive as $u);
                low.wrapping_add($below(span, rng) as $t)
            }
        }
    )*};
}
uniform_int!(u8 => u32, below_u32; u16 => u32, below_u32; u32 => u32, below_u32;
    i8 => u32, below_u32; i16 => u32, below_u32; i32 => u32, below_u32;
    u64 => u64, below_u64; i64 => u64, below_u64; usize => u64, below_u64;
    isize => u64, below_u64);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                assert!(low.is_finite() && high.is_finite(), "gen_range: non-finite bound");
                if inclusive {
                    assert!(low <= high, "gen_range: empty range");
                    let v = low + (high - low) * <$t as Standard>::draw(rng);
                    return if v > high { high } else { v };
                }
                assert!(low < high, "gen_range: empty range");
                loop {
                    // Rounding can land exactly on `high`; draw again.
                    let v = low + (high - low) * <$t as Standard>::draw(rng);
                    if v < high {
                        return v;
                    }
                }
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Range expressions `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_between(low, high, true, rng)
    }
}

/// Convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} outside [0, 1]");
        if p >= 1.0 {
            return true;
        }
        // p * 2^64 as an integer threshold, as `rand`'s Bernoulli does.
        let threshold = (p * (1u128 << 64) as f64) as u64;
        self.next_u64() < threshold
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
