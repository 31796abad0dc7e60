//! Shortest round-trip `f64` text, laid out exactly as `Display` lays it
//! out.
//!
//! The digits come from Schubfach (Giulietti, "The Schubfach way to render
//! doubles", 2020), the Ryu class of algorithms: the value and the ends of
//! its rounding interval are scaled into a decimal power by one 64×128-bit
//! multiply each against a 126-bit power of ten, rounded to odd. The
//! interval is then narrower than the next decimal power, so at most two
//! digit lengths can hold a candidate, and two comparisons pick the
//! shortest digits that parse back to the same bits; of two at the same
//! length, the one closest to the value, the larger on an exact tie. Those
//! are the digits std's `{}` prints. The power-of-ten table is computed
//! once, from exact integer arithmetic, on first use.
//!
//! The layout is std's `Display` without a precision: positional, never an
//! exponent (`1e21` is `1000000000000000000000`, `5e-324` is `0.` followed
//! by 323 zeros and a `5`), `-0` for negative zero, and `NaN`, `inf`,
//! `-inf` for the non-finite values.

use std::ops::Range;
use std::sync::OnceLock;

/// Stored bits of the significand.
const MANTISSA_BITS: u32 = 52;
/// The binary exponent of the smallest subnormal's unit.
const Q_MIN: i32 = -1074;
/// The decimal exponents `k` the scaling can ask for, `10^-k` each.
const K_MIN: i32 = -324;
const K_MAX: i32 = 292;

/// Append `x` to `out` as `format!("{x}")` would write it.
pub fn push_shortest(out: &mut String, x: f64) {
    let negative = x.is_sign_negative();
    if x.is_nan() {
        out.push_str("NaN");
    } else if x.is_infinite() {
        out.push_str(if negative { "-inf" } else { "inf" });
    } else if x == 0.0 {
        out.push_str(if negative { "-0" } else { "0" });
    } else {
        let (digits, exp10) = shortest(x.to_bits());
        let mut text = Text::new(digits, exp10);
        match text.lay_out() {
            Some(range) => {
                // The buffer keeps one byte ahead of every layout for it.
                let start = range.start - usize::from(negative);
                if negative {
                    text.bytes[start] = b'-';
                }
                push_ascii(out, &text.bytes[start..range.end]);
            }
            None => {
                if negative {
                    out.push('-');
                }
                text.push_long(out);
            }
        }
    }
}

pub(crate) fn push_ascii(out: &mut String, bytes: &[u8]) {
    // Digits, '.' and '-': valid UTF-8, which is all this checks.
    if let Ok(s) = std::str::from_utf8(bytes) {
        out.push_str(s);
    }
}

// ---------------------------------------------------------------- digits

/// The shortest, closest decimal `digits × 10^exp10` that reads back as the
/// finite, non-zero double with these bits (the sign bit is ignored).
/// `digits` is below 10^17 and may end in zeros: the layout drops them.
fn shortest(bits: u64) -> (u64, i32) {
    let t = bits & ((1 << MANTISSA_BITS) - 1);
    let biased = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    let (c, q) = if biased == 0 { (t, Q_MIN) } else { (t | 1 << MANTISSA_BITS, biased - 1075) };
    // An integer below 2^53 is its own shortest spelling: the gap to its
    // neighbours is at most 1, so no shorter decimal lies between them.
    if (-52..0).contains(&q) && c.trailing_zeros() >= q.unsigned_abs() {
        return (c >> q.unsigned_abs(), 0);
    }
    scaled(c, q)
}

/// Schubfach on `c · 2^q`, `c > 0`: the chosen digits, possibly with
/// trailing zeros, and their decimal exponent.
fn scaled(c: u64, q: i32) -> (u64, i32) {
    // Round-half-even parsing reads the interval's ends back as this
    // value when `c` is even; an odd `c` excludes them.
    let out = c & 1;
    // The value and its interval, in units of 2^q / 4. At a power of two
    // the gap below is half the gap above (except at the bottom of the
    // exponent range).
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if c != 1 << MANTISSA_BITS || q == Q_MIN {
        (cb - 2, flog10_pow2(q))
    } else {
        (cb - 1, flog10_three_quarters_pow2(q))
    };
    // 10^-k · 2^q fits the 126-bit table entry times 2^(h - 127).
    let h = (q + flog2_pow10(-k) + 2) as u32;
    let g = tables().g[(-k - (-K_MAX)) as usize];
    let vb = round_to_odd(g, cb << h);
    let vbl = round_to_odd(g, cbl << h);
    let vbr = round_to_odd(g, cbr << h);

    // s · 10^k is the value truncated to the precision the interval's
    // width allows: one of s and s + 1 lies in it. One digit fewer, at
    // most one candidate does; if it does, it is the shortest. The
    // choices are selects, not branches: on real data they are coin flips.
    let s = vb >> 2;
    let sp = s / 10;
    let up_in = vbl + out <= 40 * sp;
    let wp_in = 40 * sp + 40 + out <= vbr;
    let shorter = s >= 10 && up_in != wp_in;
    // Of s and s + 1, the one in the interval; if both are, the closer,
    // the larger on a tie (std's shortest mode rounds a half up, not to
    // even). vb - (4s + 2) compares the value with their midpoint.
    let u_in = vbl + out <= 4 * s;
    let w_in = 4 * s + 4 + out <= vbr;
    let long = s + u64::from(!u_in || (w_in && vb >= 4 * s + 2));
    let short = sp + u64::from(!up_in);
    let mask = u64::from(shorter).wrapping_neg();
    ((short & mask) | (long & !mask), k + i32::from(shorter))
}

/// `cp · g / 2^127` rounded to odd (truncated, the lowest bit set when
/// something was cut off), as the paper's proof has it: the product's
/// bits below 2^64 of `g`'s low 63-bit half count neither to the value
/// nor to the sticky bit, so the one that ends every table entry drops out
/// where the scaling is exact.
fn round_to_odd(g: u128, cp: u64) -> u64 {
    const LOW63: u64 = (1 << 63) - 1;
    let (g1, g0) = ((g >> 63) as u64, g as u64 & LOW63);
    let x1 = ((u128::from(g0) * u128::from(cp)) >> 64) as u64;
    let y = u128::from(g1) * u128::from(cp);
    let z = (y as u64 >> 1) + x1;
    let value = (y >> 64) as u64 + (z >> 63);
    value | ((z & LOW63) + LOW63) >> 63
}

/// `floor(log10(2^q))`.
fn flog10_pow2(q: i32) -> i32 {
    ((i64::from(q) * 661_971_961_083) >> 41) as i32
}

/// `floor(log10(3/4 · 2^q))`.
fn flog10_three_quarters_pow2(q: i32) -> i32 {
    ((i64::from(q) * 661_971_961_083 - 274_743_187_321) >> 41) as i32
}

/// `floor(log2(10^e))`.
fn flog2_pow10(e: i32) -> i32 {
    ((i64::from(e) * 913_124_641_741) >> 38) as i32
}

// ---------------------------------------------------------------- tables

/// `g[e + K_MAX]`, for `e = -k` from `-K_MAX` to `-K_MIN`: `10^e` scaled
/// by `2^(125 - floor(log2(10^e)))` into `[2^125, 2^126)`, rounded down,
/// plus one.
struct Tables {
    g: [u128; (K_MAX - K_MIN + 1) as usize],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = Tables { g: [0; (K_MAX - K_MIN + 1) as usize] };
        let mut pow = Big::one();
        for e in 0..=-K_MIN {
            let bits = pow.bit_len();
            debug_assert_eq!(bits as i32 - 1, flog2_pow10(e));
            // 10^e has `bits` bits: its top 126, or all of it shifted up.
            let top = if bits > 126 {
                pow.shr_low128(bits - 126)
            } else {
                pow.shr_low128(0) << (126 - bits)
            };
            tables.g[(e + K_MAX) as usize] = top + 1;
            if e > 0 && e <= K_MAX {
                // 2^(125 - floor(log2(10^-e))) / 10^e = 2^(125 + bits) / 10^e.
                tables.g[(K_MAX - e) as usize] = pow.pow2_quotient(bits - 1, 126) + 1;
            }
            pow.mul_small(10);
        }
        tables
    })
}

/// Limbs of [`Big`]: `10^324` has 1 077 bits.
const LIMBS: usize = 17;
/// An unsigned integer, little-endian 64-bit limbs, just wide enough to
/// build the tables exactly.
struct Big([u64; LIMBS]);

impl Big {
    fn one() -> Self {
        let mut limbs = [0; LIMBS];
        limbs[0] = 1;
        Big(limbs)
    }

    fn pow2(e: u32) -> Self {
        let mut limbs = [0; LIMBS];
        limbs[(e / 64) as usize] = 1 << (e % 64);
        Big(limbs)
    }

    fn bit_len(&self) -> u32 {
        match self.0.iter().rposition(|&l| l != 0) {
            Some(i) => 64 * i as u32 + 64 - self.0[i].leading_zeros(),
            None => 0,
        }
    }

    fn mul_small(&mut self, k: u64) {
        let mut carry = 0u128;
        for limb in &mut self.0 {
            let t = u128::from(*limb) * u128::from(k) + carry;
            *limb = t as u64;
            carry = t >> 64;
        }
        debug_assert_eq!(carry, 0, "Big overflow");
    }

    /// The low 128 bits of `self >> shift`.
    fn shr_low128(&self, shift: u32) -> u128 {
        let bit = |b: u32| {
            let (limb, offset) = ((b / 64) as usize, b % 64);
            self.0.get(limb).map_or(0, |l| (l >> offset) & 1)
        };
        (0..128).fold(0, |acc, k| acc | (u128::from(bit(shift + k)) << k))
    }

    /// `floor(2^(start + steps) / self)` by restoring binary long division,
    /// for `2^start <= self`, so that the quotient has at most `steps + 1`
    /// bits. Only the limbs the remainder (below twice `self`) can reach
    /// take part.
    fn pow2_quotient(&self, start: u32, steps: u32) -> u128 {
        let used = self.bit_len() as usize / 64 + 2;
        let divisor = &self.0[..used];
        let mut rem = Big::pow2(start);
        let rem = &mut rem.0[..used];
        let mut quotient = 0u128;
        for step in 0..=steps {
            if step > 0 {
                let mut carry = 0;
                for limb in rem.iter_mut() {
                    (*limb, carry) = (*limb << 1 | carry, *limb >> 63);
                }
                quotient <<= 1;
            }
            if rem.iter().rev().cmp(divisor.iter().rev()).is_ge() {
                let mut borrow = false;
                for (a, &b) in rem.iter_mut().zip(divisor) {
                    let (d, o1) = a.overflowing_sub(b);
                    let (d, o2) = d.overflowing_sub(u64::from(borrow));
                    (*a, borrow) = (d, o1 || o2);
                }
                quotient |= 1;
            }
        }
        quotient
    }
}

// ---------------------------------------------------------------- layout

/// `10^i`, for scaling digits to seventeen.
const POW10: [u64; 18] = {
    let mut pow = [1; 18];
    let mut i = 1;
    while i < 18 {
        pow[i] = 10 * pow[i - 1];
        i += 1;
    }
    pow
};

/// Eight ASCII zeros, as [`eight_digits`] lays them out.
const ZEROS8: u64 = 0x3030_3030_3030_3030;

/// The text buffer. A layout that fits takes one pass and one push: up to
/// 28 zeros after the point, or an integer of up to 46 digits.
const TEXT: usize = 48;

/// A value's seventeen digits `0.d1 d2 … d17 × 10^point`, ready to lay
/// out in a zero-filled buffer.
struct Text {
    /// `d1`.
    first: u8,
    /// `d2 … d9` and `d10 … d17`, as [`eight_digits`] words.
    words: [u64; 2],
    /// Significant digits: seventeen less the trailing zeros.
    n: usize,
    point: i32,
    bytes: [u8; TEXT],
}

impl Text {
    fn new(digits: u64, exp10: i32) -> Self {
        // The digit count, from the bit length: at most one off.
        let log = flog10_pow2(64 - digits.leading_zeros() as i32) as usize;
        let len = log + usize::from(digits >= POW10[log]);
        let digits = digits * POW10[17 - len];
        let (high, low) = (digits / 100_000_000, (digits % 100_000_000) as u32);
        let (first, mid) = ((high / 100_000_000) as u8, (high % 100_000_000) as u32);
        let words = [eight_digits(mid), eight_digits(low)];
        // The last digit sits in a word's top byte: trailing zeros are
        // leading zero bytes once the ASCII offset is gone.
        let trailing = match words.map(|w| (w ^ ZEROS8).leading_zeros() as usize / 8) {
            [mid, 8] => 8 + mid,
            [_, low] => low,
        };
        Text { first, words, n: 17 - trailing, point: exp10 + len as i32, bytes: [b'0'; TEXT] }
    }

    /// Write `d1 … d17` from `at`.
    fn put_digits(&mut self, at: usize) {
        self.bytes[at] = b'0' + self.first;
        self.bytes[at + 1..at + 9].copy_from_slice(&self.words[0].to_le_bytes());
        self.bytes[at + 9..at + 17].copy_from_slice(&self.words[1].to_le_bytes());
    }

    /// Lay the text out positionally, with no exponent (`Display` without
    /// a precision), one byte after the buffer's start: `Some(range)` of
    /// it, or `None` when it does not fit.
    fn lay_out(&mut self) -> Option<Range<usize>> {
        let (n, point) = (self.n, self.point);
        if point <= 0 {
            // `0.`, the zeros (pre-filled), then the digits.
            let zeros = point.unsigned_abs() as usize;
            if 3 + zeros + 17 > TEXT {
                return None;
            }
            self.bytes[2] = b'.';
            self.put_digits(3 + zeros);
            Some(1..3 + zeros + n)
        } else if (point as usize) < n {
            // The point falls among the digits: write them one byte on,
            // then move the integer part back over the gap.
            let point = point as usize;
            self.put_digits(2);
            self.bytes.copy_within(2..2 + point, 1);
            self.bytes[1 + point] = b'.';
            Some(1..2 + n)
        } else {
            // An integer: the digits, then zeros (trailing digits of the
            // seventeen, then pre-filled).
            let point = point as usize;
            if 1 + point.max(17) > TEXT {
                return None;
            }
            self.put_digits(1);
            Some(1..1 + point)
        }
    }

    /// Append a layout [`Text::lay_out`] found too long: its digits, and
    /// the zeros in runs.
    fn push_long(mut self, out: &mut String) {
        self.put_digits(0);
        if self.point <= 0 {
            out.push_str("0.");
            push_zeros(out, self.point.unsigned_abs() as usize);
            push_ascii(out, &self.bytes[..self.n]);
        } else {
            push_ascii(out, &self.bytes[..17]);
            push_zeros(out, self.point as usize - 17);
        }
    }
}

fn push_zeros(out: &mut String, mut count: usize) {
    const RUN: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while count > 0 {
        let run = count.min(RUN.len());
        out.push_str(&RUN[..run]);
        count -= run;
    }
}

/// The eight ASCII digits of `x < 10^8`, most significant in the lowest
/// byte, worked out in the lanes of one `u64`: two 32-bit halves of four
/// digits, then four 16-bit lanes of two, then eight bytes of one.
fn eight_digits(x: u32) -> u64 {
    let merged = u64::from(x / 10_000) | u64::from(x % 10_000) << 32;
    // Each lane below 10^4: times 10 486 / 2^20 is its quotient by 100.
    let hundreds = ((merged * 10_486) >> 20) & 0x0000_007F_0000_007F;
    let pairs = hundreds | (merged - 100 * hundreds) << 16;
    // Each lane below 100: times 103 / 2^10 is its quotient by 10.
    let tens = ((pairs * 103) >> 10) & 0x000F_000F_000F_000F;
    tens | (pairs - 10 * tens) << 8 | ZEROS8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shortest_text(x: f64) -> String {
        let mut s = String::new();
        push_shortest(&mut s, x);
        s
    }

    #[test]
    fn tables_match_known_entries() {
        let g = &tables().g;
        // 10^0 and 10^1 scaled into [2^125, 2^126) are exact: plus one.
        assert_eq!(g[K_MAX as usize], (1 << 125) + 1);
        assert_eq!(g[K_MAX as usize + 1], (10 << 122) + 1);
        // 2^129 / 10 = 2^128 / 5, rounded down, plus one.
        assert_eq!(g[K_MAX as usize - 1], u128::MAX / 5 + 1);
        assert!(g.iter().all(|&x| x >> 125 == 1));
    }

    #[test]
    fn layout_follows_display() {
        for (x, want) in [
            (1.0, "1"),
            (-1.5, "-1.5"),
            (0.1, "0.1"),
            (-0.0, "-0"),
            (0.0, "0"),
            (1e21, "1000000000000000000000"),
            (1e-7, "0.0000001"),
            (123456.789, "123456.789"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            assert_eq!(shortest_text(x), want, "{x:?}");
        }
        let tiny = shortest_text(5e-324);
        assert_eq!(tiny.len(), 2 + 323 + 1);
        assert!(tiny.starts_with("0.000") && tiny.ends_with("05"));
    }
}
