//! The tree's one test-input generator, a dev-dependency only.
//!
//! A property is a plain `#[test]` that calls [`sweep`] with a case count
//! and a seed and draws its inputs from the [`Gen`] it is handed, so it
//! runs wherever the crate compiles and fails the same way everywhere.
//! There is no shrinking: a failure names its case and seed, and
//! [`Gen::case`] replays that one case alone.
//!
//! [`alloc`] holds the counting allocator the allocation-budget tests
//! install.

pub mod alloc;

use std::ops::Range;

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 stream (Steele, Lea & Flood 2014).
pub struct Gen(u64);

/// The integer types [`Gen::int_in`] draws.
pub trait Int: Copy {
    #[doc(hidden)]
    fn widen(self) -> i128;
    #[doc(hidden)]
    fn narrow(wide: i128) -> Self;
}

macro_rules! int {
    ($($t:ty)*) => {$(impl Int for $t {
        fn widen(self) -> i128 {
            self as i128
        }
        fn narrow(wide: i128) -> Self {
            wide as $t
        }
    })*};
}
int!(u8 u32 u64 usize i32 i64);

impl Gen {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Gen(seed)
    }

    /// The stream [`sweep`] hands to case number `case` of `seed`: seeded
    /// with the `case`-th output of the seed's own stream.
    pub fn case(seed: u64, case: usize) -> Self {
        Gen(Gen(seed.wrapping_add((case as u64).wrapping_mul(GAMMA))).u64())
    }

    /// The next 64 bits.
    pub fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must not be zero.
    pub fn below(&mut self, n: usize) -> usize {
        self.int_in(0..n)
    }

    /// Uniform in the half-open integer range.
    pub fn int_in<T: Int>(&mut self, range: Range<T>) -> T {
        let (lo, hi) = (range.start.widen(), range.end.widen());
        assert!(lo < hi, "empty range {lo}..{hi}");
        T::narrow(lo + ((self.u64() as u128 * (hi - lo) as u128) >> 64) as i128)
    }

    /// Uniform in the half-open range, on the 2⁻⁵³ grid.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        let v = range.start + unit * (range.end - range.start);
        // The product can round up onto the excluded end.
        if v < range.end {
            v
        } else {
            range.start
        }
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// One of `items`, which must not be empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// A vector whose length is drawn from `len` and whose items come
    /// from `item`, in order.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.int_in(len)).map(|_| item(self)).collect()
    }

    /// `len` floats, each uniform in `range`.
    pub fn f64s(&mut self, len: usize, range: Range<f64>) -> Vec<f64> {
        (0..len).map(|_| self.f64_in(range.clone())).collect()
    }
}

/// Run `property` on `cases` independent streams derived from `seed`. A
/// panicking case is named on stderr with the call that replays it.
pub fn sweep(cases: usize, seed: u64, mut property: impl FnMut(&mut Gen)) {
    struct Named(u64, usize);
    impl Drop for Named {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let Named(seed, case) = *self;
                eprintln!("sweep: case {case} of seed {seed:#x} failed; `Gen::case({seed:#x}, {case})` replays it");
            }
        }
    }
    for case in 0..cases {
        let _named = Named(seed, case);
        property(&mut Gen::case(seed, case));
    }
}
