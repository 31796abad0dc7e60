//! `StdRng`: ChaCha with 12 rounds, as in `rand` 0.8.

use crate::{RngCore, SeedableRng};

const BLOCKS: usize = 4;
const BUF_WORDS: usize = 16 * BLOCKS;
/// "expand 32-byte k"
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One state word of the four blocks computed side by side, so the
/// compiler can keep each word in one 128-bit register.
type Lanes = [u32; BLOCKS];

// The lane loops index several rows of the state at once.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn quarter_round(x: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
    for l in 0..BLOCKS {
        x[a][l] = x[a][l].wrapping_add(x[b][l]);
        x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(16);
        x[c][l] = x[c][l].wrapping_add(x[d][l]);
        x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(12);
        x[a][l] = x[a][l].wrapping_add(x[b][l]);
        x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(8);
        x[c][l] = x[c][l].wrapping_add(x[d][l]);
        x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(7);
    }
}

/// `BLOCKS` consecutive ChaCha blocks of `rounds` rounds, starting at
/// block `counter`, with a 64-bit counter and a zero stream id (the
/// `rand_chacha` layout).
#[allow(clippy::needless_range_loop)]
pub fn chacha_blocks(key: &[u32; 8], counter: u64, rounds: usize, out: &mut [u32; BUF_WORDS]) {
    let mut x = [[0u32; BLOCKS]; 16];
    for w in 0..4 {
        x[w] = [SIGMA[w]; BLOCKS];
    }
    for w in 0..8 {
        x[4 + w] = [key[w]; BLOCKS];
    }
    for l in 0..BLOCKS {
        let c = counter.wrapping_add(l as u64);
        x[12][l] = c as u32;
        x[13][l] = (c >> 32) as u32;
    }
    let init = x;
    for _ in 0..rounds / 2 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for w in 0..16 {
        for l in 0..BLOCKS {
            out[l * 16 + w] = x[w][l].wrapping_add(init[w][l]);
        }
    }
}

/// The standard generator: ChaCha12, refilled four blocks at a time.
#[derive(Clone, Debug)]
pub struct StdRng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

impl StdRng {
    /// Words drawn since seeding.
    fn word_pos(&self) -> u128 {
        // `counter` is one refill ahead of the words still buffered.
        (self.counter as u128 * 16).wrapping_sub((BUF_WORDS - self.index) as u128)
    }

    fn refill(&mut self) {
        chacha_blocks(&self.key, self.counter, 12, &mut self.buf);
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
    }
}

/// Two generators are equal when they will produce the same stream: same
/// key, same position. `dist-exec` counts draws by stepping a clone until
/// it equals the live generator.
impl PartialEq for StdRng {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.word_pos() == other.word_pos()
    }
}

impl Eq for StdRng {}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        StdRng { key, counter: 0, buf: [0; BUF_WORDS], index: BUF_WORDS }
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
            self.index = 0;
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let join = |lo: u32, hi: u32| (hi as u64) << 32 | lo as u64;
        let i = self.index;
        if i + 1 < BUF_WORDS {
            self.index = i + 2;
            join(self.buf[i], self.buf[i + 1])
        } else if i >= BUF_WORDS {
            self.refill();
            self.index = 2;
            join(self.buf[0], self.buf[1])
        } else {
            // One word left: it is the low half, the next buffer gives the high.
            let lo = self.buf[BUF_WORDS - 1];
            self.refill();
            self.index = 1;
            join(lo, self.buf[0])
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let word = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}
