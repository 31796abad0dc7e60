//! Fixed-precision `f64` text, byte for byte as std's `{:.N}` writes it.
//!
//! `{:.N}` prints the exact binary value rounded to `N` places, a tie going
//! to the even last digit, with the sign of the value kept (`-0.001` at two
//! places is `-0.00`). Scaled by `10^N`, a double is a 53-bit integer times
//! `10^N` times a power of two, so where that product fits a `u128` the
//! rounding is one shift and one comparison with the bits shifted out:
//! every value a report prints. The rest — a precision past 22 places,
//! a scaled value of 2^128 or more, and the non-finite values — goes to
//! std's formatter.

use crate::shortest::push_ascii;
use std::fmt::Write as _;

/// The largest precision computed here: a 53-bit significand times
/// `10^22` (73 bits) still fits a `u128`.
const MAX_DIGITS: usize = 22;

/// `10^i` for `i ≤ MAX_DIGITS`.
const POW10: [u128; MAX_DIGITS + 1] = {
    let mut pow = [1; MAX_DIGITS + 1];
    let mut i = 1;
    while i <= MAX_DIGITS {
        pow[i] = 10 * pow[i - 1];
        i += 1;
    }
    pow
};

/// Append `x` to `out` as `format!("{x:.digits$}")` would write it.
pub fn push_fixed(out: &mut String, x: f64, digits: usize) {
    match scaled(x, digits) {
        Some(q) => {
            if x.is_sign_negative() {
                out.push('-');
            }
            push_scaled(out, q, digits);
        }
        None => {
            let _ = write!(out, "{x:.digits$}");
        }
    }
}

/// `|x| · 10^digits` rounded to an integer, a tie to the even one, when
/// `x` is finite, `digits ≤ MAX_DIGITS` and the result fits a `u128`.
fn scaled(x: f64, digits: usize) -> Option<u128> {
    if !x.is_finite() || digits > MAX_DIGITS {
        return None;
    }
    let bits = x.to_bits();
    let t = bits & ((1 << 52) - 1);
    let biased = ((bits >> 52) & 0x7ff) as i32;
    // |x| = m · 2^e.
    let (m, e) = if biased == 0 { (t, -1074) } else { (t | 1 << 52, biased - 1075) };
    let p = u128::from(m) * POW10[digits];
    if e >= 0 {
        // An integer: exact while the shift loses no bit.
        let e = e as u32;
        return (e < 128 && p.leading_zeros() >= e).then(|| p << e);
    }
    let s = e.unsigned_abs();
    if s >= 128 {
        // p < 2^127 ≤ 2^(s-1): below half a unit, so it rounds to zero.
        return Some(0);
    }
    let (q, r, half) = (p >> s, p & ((1 << s) - 1), 1 << (s - 1));
    Some(q + u128::from(r > half || (r == half && q & 1 == 1)))
}

/// Append the integer `q` with a point before its last `digits` digits,
/// and at least one digit before the point.
fn push_scaled(out: &mut String, mut q: u128, digits: usize) {
    // u128::MAX has 39 digits.
    let mut buf = [b'0'; 39];
    let mut at = buf.len();
    // Whole 19-digit blocks while `q` is past `u64`, then `u64` digits.
    const BLOCK: u128 = 10_000_000_000_000_000_000;
    while q > u128::from(u64::MAX) {
        let mut block = (q % BLOCK) as u64;
        q /= BLOCK;
        for slot in buf[at - 19..at].iter_mut().rev() {
            *slot = b'0' + (block % 10) as u8;
            block /= 10;
        }
        at -= 19;
    }
    let mut low = q as u64;
    loop {
        at -= 1;
        buf[at] = b'0' + (low % 10) as u8;
        low /= 10;
        if low == 0 {
            break;
        }
    }
    let text = &buf[at..];
    if text.len() > digits {
        let (int, frac) = text.split_at(text.len() - digits);
        push_ascii(out, int);
        if digits > 0 {
            out.push('.');
            push_ascii(out, frac);
        }
    } else {
        // Below one: `0.`, zeros, then the digits.
        out.push_str("0.");
        for _ in text.len()..digits {
            out.push('0');
        }
        push_ascii(out, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(x: f64, digits: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, x, digits);
        s
    }

    #[test]
    fn layout_follows_std() {
        for (x, digits, want) in [
            (0.0, 2, "0.00"),
            (-0.0, 2, "-0.00"),
            (-0.001, 2, "-0.00"),
            (0.125, 2, "0.12"),
            (0.375, 2, "0.38"),
            (0.5, 0, "0"),
            (1.5, 0, "2"),
            (2.5, 0, "2"),
            (-46.0, 2, "-46.00"),
            (123456.789, 1, "123456.8"),
            (1e20, 2, "100000000000000000000.00"),
            (f64::NAN, 2, "NaN"),
            (f64::NEG_INFINITY, 1, "-inf"),
        ] {
            assert_eq!(fixed(x, digits), want, "{x:?} at {digits}");
            assert_eq!(fixed(x, digits), format!("{x:.digits$}"), "{x:?} at {digits}");
        }
    }

    #[test]
    fn the_u128_edge_and_past_it_follow_std() {
        // 2^127 · 10^0 fits, 2^128 does not; at 22 places 1e16 scales to
        // about 2^126.2, 1e17 past 2^128.
        for (x, digits) in
            [(2f64.powi(127), 0), (2f64.powi(128), 0), (1e16, 22), (1e17, 22), (1.0, 23)]
        {
            assert_eq!(fixed(x, digits), format!("{x:.digits$}"), "{x:?} at {digits}");
            assert_eq!(fixed(-x, digits), format!("{:.digits$}", -x), "{x:?} at {digits}");
        }
    }
}
