//! 64-byte-aligned `f64` buffers for the SoA kernel operands.
//!
//! `Vec<f64>` gives 8–16-byte alignment, so most 256/512-bit loads in the
//! stage kernels straddle a cache-line boundary and pay a split penalty —
//! measured ~25% of the whole kernel on the DOPRI5 stage shapes. The SoA
//! stride (`dim × n_lanes × 8` bytes) is a multiple of 64 for the batch
//! sizes the crossover dispatches to the wide kernels, so aligning the
//! *base* of each buffer makes every vector load/store in every stage
//! block aligned. Alignment never changes a value, so this is invisible
//! to the bitwise-parity contract.

use std::ops::{Deref, DerefMut};

/// A heap `[f64]` whose base address is 64-byte aligned. Fixed length —
/// the kernels never grow buffers mid-flight (that is what keeps the
/// steady-state tick allocation-free).
///
/// It is a `Vec<f64>` of `len + PAD` elements viewed from the first
/// element on a cache line: the allocation is at least 8-byte aligned,
/// so that element is at most `PAD` elements in. The heap block does not
/// move when the value does, so the offset stays valid.
pub struct AlignedF64 {
    buf: Vec<f64>,
    start: usize,
}

impl AlignedF64 {
    /// Cache-line alignment of the buffer base.
    pub(crate) const ALIGN: usize = 64;

    /// Elements that may precede the aligned base.
    const PAD: usize = Self::ALIGN / std::mem::size_of::<f64>() - 1;

    /// An all-zero buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        let buf = vec![0.0; len + Self::PAD];
        let misalign = buf.as_ptr() as usize % Self::ALIGN;
        let start = (Self::ALIGN - misalign) % Self::ALIGN / std::mem::size_of::<f64>();
        Self { buf, start }
    }

    /// An aligned copy of `src`.
    pub(crate) fn from_slice(src: &[f64]) -> Self {
        let mut buf = Self::zeroed(src.len());
        buf.copy_from_slice(src);
        buf
    }
}

impl Deref for AlignedF64 {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        let len = self.buf.len() - Self::PAD;
        &self.buf[self.start..][..len]
    }
}

impl DerefMut for AlignedF64 {
    fn deref_mut(&mut self) -> &mut [f64] {
        let len = self.buf.len() - Self::PAD;
        &mut self.buf[self.start..][..len]
    }
}

impl Clone for AlignedF64 {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl std::fmt::Debug for AlignedF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_cache_line_aligned() {
        let lens = (0usize..=17).chain([36, 288, 4096]);
        for len in lens {
            let src: Vec<f64> = (0..len).map(|i| i as f64 + 0.5).collect();
            let zeroed = AlignedF64::zeroed(len);
            assert!(zeroed.iter().all(|&x| x == 0.0));
            let copied = AlignedF64::from_slice(&src);
            assert_eq!(&copied[..], &src[..]);
            let cloned = copied.clone();
            assert_eq!(&cloned[..], &src[..]);
            for (how, buf) in [("zeroed", &zeroed), ("from_slice", &copied), ("clone", &cloned)] {
                assert_eq!(buf.as_ptr() as usize % AlignedF64::ALIGN, 0, "{how} len {len}");
                assert_eq!(buf.len(), len, "{how}");
            }
        }
    }

    #[test]
    fn empty_buffer_is_valid() {
        let buf = AlignedF64::zeroed(0);
        assert!(buf.is_empty());
        let _ = buf.clone();
    }

    #[test]
    fn round_trips_and_clones_contents() {
        let src: Vec<f64> = (0..100).map(|i| i as f64 * 0.5 - 3.0).collect();
        let mut buf = AlignedF64::from_slice(&src);
        assert_eq!(&buf[..], &src[..]);
        buf[7] = 42.0;
        let copy = buf.clone();
        assert_eq!(copy[7], 42.0);
        assert_eq!(copy.as_ptr() as usize % 64, 0);
        assert_ne!(copy.as_ptr(), buf.as_ptr());
    }
}
