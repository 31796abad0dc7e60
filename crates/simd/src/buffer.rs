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

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// A heap `[f64]` whose base address is 64-byte aligned. Fixed length —
/// the kernels never grow buffers mid-flight (that is what keeps the
/// steady-state tick allocation-free).
pub struct AlignedF64 {
    ptr: NonNull<f64>,
    len: usize,
}

// SAFETY: AlignedF64 owns its allocation exclusively, exactly like
// Vec<f64>; sharing &AlignedF64 only shares &[f64].
unsafe impl Send for AlignedF64 {}
unsafe impl Sync for AlignedF64 {}

impl AlignedF64 {
    /// Cache-line alignment of the buffer base.
    pub(crate) const ALIGN: usize = 64;

    /// An all-zero buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self { ptr: NonNull::dangling(), len: 0 };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0).
        let raw = unsafe { alloc_zeroed(layout) }.cast::<f64>();
        let Some(ptr) = NonNull::new(raw) else { handle_alloc_error(layout) };
        Self { ptr, len }
    }

    /// An aligned copy of `src`.
    pub(crate) fn from_slice(src: &[f64]) -> Self {
        let mut buf = Self::zeroed(src.len());
        buf.copy_from_slice(src);
        buf
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * std::mem::size_of::<f64>(), Self::ALIGN)
            .expect("aligned buffer size overflows")
    }
}

impl Drop for AlignedF64 {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: allocated in `zeroed` with this exact layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
        }
    }
}

impl Deref for AlignedF64 {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        // SAFETY: ptr/len describe the live allocation (or a dangling
        // pointer with len 0, which is a valid empty slice).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedF64 {
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: as above, plus &mut self guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
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
        for len in [1usize, 7, 36, 288, 4096] {
            let buf = AlignedF64::zeroed(len);
            assert_eq!(buf.as_ptr() as usize % AlignedF64::ALIGN, 0, "len {len}");
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&x| x == 0.0));
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
