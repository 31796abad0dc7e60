//! Serializable RNG streams for the wire protocol.
//!
//! The channel transport moves `StdRng` values between driver and worker
//! threads by ownership, so determinism is free. A process transport has
//! to put the generator on the wire. `StdRng` exposes no state accessors,
//! so we serialize a stream as its *history*: the seed it was created from
//! plus the number of `next_u64` draws consumed since. The receiving side
//! replays that history to materialize a bitwise-identical generator.
//!
//! Counting draws without wrapping the generator (the `RngCore` trait has
//! different required methods across rand versions, so a counting adapter
//! cannot be written portably) relies on `StdRng: PartialEq`: a retained
//! checkpoint clone is stepped forward until it equals the live generator,
//! and the number of steps taken is the number of draws. Every draw site
//! on the protocol path consumes whole `next_u64` units (verified for both
//! the test stub and rand 0.8's ChaCha12), so equality-stepping always
//! converges.
//!
//! The in-process transport never serializes, so `RngStream::sync` is
//! never called there and the live generator behaves exactly like the bare
//! `StdRng` it replaces — bitwise-identical results, zero overhead.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Hard ceiling on equality-stepping during [`RngStream::sync`]. A round
/// draws a few per env step; 16M draws without convergence means the live
/// generator was replaced rather than advanced — a protocol bug.
const SYNC_STEP_CAP: u64 = 1 << 24;

/// An `StdRng` plus enough provenance to reconstruct it on another process.
#[derive(Debug, Clone)]
pub struct RngStream {
    seed: u64,
    draws: u64,
    checkpoint: StdRng,
    live: StdRng,
}

impl RngStream {
    /// A stream freshly seeded via `StdRng::seed_from_u64`.
    pub fn fresh(seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        Self { seed, draws: 0, checkpoint: rng.clone(), live: rng }
    }

    /// Rebuild a stream whose live generator was materialized elsewhere
    /// (decode side). `rng` must equal `seed` advanced by `draws` draws.
    pub(crate) fn restored(seed: u64, draws: u64, rng: StdRng) -> Self {
        Self { seed, draws, checkpoint: rng.clone(), live: rng }
    }

    /// The live generator. All randomness flows through this; the stream
    /// only observes how far it advances.
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.live
    }

    /// Measure how far the live generator has advanced and return the wire
    /// form `(seed, total_draws)`. Steps the checkpoint forward until it
    /// equals the live generator; afterwards the two are in lockstep again,
    /// so repeated syncs are incremental (already-synced streams cost one
    /// comparison).
    ///
    /// Panics if the live generator cannot be reached within
    /// [`SYNC_STEP_CAP`] steps — that means it was replaced wholesale
    /// instead of advanced by draws, which the wire format cannot express.
    pub(crate) fn sync(&mut self) -> (u64, u64) {
        let mut steps = 0u64;
        while self.checkpoint != self.live {
            self.checkpoint.next_u64();
            steps += 1;
            assert!(
                steps <= SYNC_STEP_CAP,
                "rng stream diverged: live generator is not reachable from its checkpoint"
            );
        }
        self.draws += steps;
        (self.seed, self.draws)
    }

    /// Wire identity without re-measuring (valid right after `sync` or for
    /// a fresh/restored stream that has not drawn since).
    #[cfg(test)]
    pub(crate) fn identity(&self) -> (u64, u64) {
        (self.seed, self.draws)
    }
}

/// Decode-side cache that materializes `(seed, draws)` wire identities
/// into generators without replaying the full history every frame.
///
/// Consecutive frames from the same logical stream share a seed and have
/// monotonically increasing draw counts, so the cache usually advances by
/// the gap. A seed change (fresh per-round streams) or a rewind (crash
/// recovery re-dispatching a saved pre-fault stream) rebuilds from the
/// seed — unbounded on purpose: catch-up after a crash can be long and a
/// replayed draw is a single `next_u64`.
#[derive(Debug, Clone)]
pub struct RngCache {
    seed: u64,
    draws: u64,
    rng: StdRng,
}

impl Default for RngCache {
    fn default() -> Self {
        Self::new()
    }
}

impl RngCache {
    pub fn new() -> Self {
        Self { seed: 0, draws: 0, rng: StdRng::seed_from_u64(0) }
    }

    /// Produce the generator equal to `seed` advanced by `draws` draws,
    /// and remember it so the next frame only pays the delta.
    pub(crate) fn materialize(&mut self, seed: u64, draws: u64) -> StdRng {
        if self.seed != seed || self.draws > draws {
            self.seed = seed;
            self.draws = 0;
            self.rng = StdRng::seed_from_u64(seed);
        }
        for _ in self.draws..draws {
            self.rng.next_u64();
        }
        self.draws = draws;
        self.rng.clone()
    }

    /// Seed the cache from an encode-side stream that was just synced, so
    /// a later round-trip of the same stream is a no-op materialization.
    pub(crate) fn adopt(&mut self, stream: &RngStream) {
        self.seed = stream.seed;
        self.draws = stream.draws;
        self.rng = stream.live.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn fresh_stream_syncs_to_zero_draws() {
        let mut s = RngStream::fresh(42);
        assert_eq!(s.sync(), (42, 0));
        // Repeated sync stays put.
        assert_eq!(s.sync(), (42, 0));
    }

    #[test]
    fn sync_counts_every_kind_of_draw() {
        let mut s = RngStream::fresh(7);
        let r = s.rng_mut();
        let _: f64 = r.gen();
        let _ = r.gen_range(0..10usize);
        let _ = r.gen_bool(0.5);
        let (seed, draws) = s.sync();
        assert_eq!(seed, 7);
        assert!(draws >= 3, "three draws must be visible, got {draws}");

        // Incremental: more draws add to the running count.
        let before = draws;
        let _: u64 = s.rng_mut().gen();
        let (_, after) = s.sync();
        assert!(after > before);
    }

    #[test]
    fn materialized_stream_is_bitwise_identical() {
        let mut s = RngStream::fresh(123);
        for _ in 0..257 {
            let _: f64 = s.rng_mut().gen();
        }
        let (seed, draws) = s.sync();

        let mut cache = RngCache::new();
        let mut replica = cache.materialize(seed, draws);
        // Same next draws on both sides.
        for _ in 0..16 {
            assert_eq!(s.rng_mut().next_u64(), replica.next_u64());
        }
    }

    #[test]
    fn cache_advances_incrementally_and_rebuilds_on_rewind() {
        let mut cache = RngCache::new();
        let a = cache.materialize(5, 10);
        let b = cache.materialize(5, 12); // gap advance
        let mut fresh = StdRng::seed_from_u64(5);
        for _ in 0..12 {
            fresh.next_u64();
        }
        assert_eq!(b, fresh);
        assert_ne!(a, b);

        // Rewind (crash retry re-dispatches an earlier stream state).
        let c = cache.materialize(5, 10);
        assert_eq!(c, a);

        // Seed change rebuilds.
        let d = cache.materialize(9, 0);
        assert_eq!(d, StdRng::seed_from_u64(9));
    }

    #[test]
    fn adopt_makes_round_trip_free() {
        let mut s = RngStream::fresh(77);
        let _: f64 = s.rng_mut().gen();
        let (seed, draws) = s.sync();
        let mut cache = RngCache::new();
        cache.adopt(&s);
        let got = cache.materialize(seed, draws);
        assert_eq!(&got, &s.live);
    }

    #[test]
    fn restored_stream_continues_in_lockstep() {
        let mut origin = RngStream::fresh(31);
        let _: f64 = origin.rng_mut().gen();
        let (seed, draws) = origin.sync();
        let mut cache = RngCache::new();
        let rng = cache.materialize(seed, draws);
        let mut twin = RngStream::restored(seed, draws, rng);
        assert_eq!(twin.identity(), (seed, draws));
        let _: f64 = twin.rng_mut().gen();
        let _: f64 = origin.rng_mut().gen();
        assert_eq!(origin.sync(), twin.sync());
    }
}
