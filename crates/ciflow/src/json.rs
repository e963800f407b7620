//! A small streaming JSON writer shared by the serve, resilience, lint and
//! serving-gallery documents: each piece appends to one caller-owned
//! `String`. Floats keep their `{}` [`Display`](std::fmt::Display)
//! rendering, so streamed output is byte-identical to the same fields put
//! through `format!`.
//!
//! [`write_f64`] produces those bytes without `core::fmt`. Its digits come
//! from Ryū (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018):
//! the shortest decimal that parses back to the same `f64`, and of those
//! the one nearest the exact binary value. Where two shortest candidates
//! are equally near, `{}` takes the larger one, so this writer rounds such
//! ties up where reference Ryū rounds them to even (2^-25 prints
//! `0.000000029802322387695313`, not `…695312`). The layout is `{}`'s: no
//! exponent, `-0`, `NaN`, `inf`, and integers without a `.0`. Ryū's
//! 128-bit power-of-five multipliers are derived from 5^i at compile time.

use std::fmt::Write as _;

/// Appends `raw` escaped for the inside of a JSON string literal: `"` and
/// `\` get a backslash, control characters their `\n`/`\r`/`\t`/`\u00XX` form.
/// Every byte that needs escaping is ASCII, so the runs between them are
/// copied whole.
fn escape_into(out: &mut String, raw: &str) {
    let mut copied = 0;
    for (at, &byte) in raw.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&raw[copied..at]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        copied = at + 1;
    }
    out.push_str(&raw[copied..]);
}

/// Appends `raw` as a quoted, escaped JSON string literal.
pub fn write_str(out: &mut String, raw: &str) {
    out.push('"');
    escape_into(out, raw);
    out.push('"');
}

/// Appends the decimal digits of `value` without going through `core::fmt`.
pub fn write_uint(out: &mut String, value: usize) {
    if value >= 10 {
        write_uint(out, value / 10);
    }
    out.push(char::from(b'0' + (value % 10) as u8));
}

/// Appends `items` as a JSON array, rendering each with `write_item`.
pub fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
    out.push(']');
}

/// The `{}` rendering of the last `f64` written through this slot, keyed by
/// its bit pattern: a repeat replays the cached bytes instead of formatting
/// again, so the output cannot change (`-0.0` and `0.0` are different keys).
#[derive(Debug, Clone, Default)]
pub struct F64Memo {
    bits: Option<u64>,
    text: String,
}

impl F64Memo {
    /// Appends `value` exactly as `write!(out, "{value}")` would.
    pub fn write(&mut self, out: &mut String, value: f64) {
        if self.bits != Some(value.to_bits()) {
            self.bits = Some(value.to_bits());
            self.text.clear();
            write_f64(&mut self.text, value);
        }
        out.push_str(&self.text);
    }
}

/// Appends `value` exactly as `write!(out, "{value}")` would: the shortest
/// round-trip digits (ties between two nearest candidates rounded up), laid
/// out without an exponent.
pub fn write_f64(out: &mut String, value: f64) {
    if value.is_nan() {
        out.push_str("NaN");
        return;
    }
    if value.is_sign_negative() {
        out.push('-');
    }
    if value.is_infinite() {
        out.push_str("inf");
        return;
    }
    if value == 0.0 {
        out.push('0');
        return;
    }
    let (mantissa, exponent) = shortest(value.abs().to_bits());
    let mut digits = [0u8; 17];
    let start = write_digits(mantissa, &mut digits);
    let digits = &digits[start..];
    let len = digits.len();
    // The value is `0.digits × 10^point`. The longest rendering is 326
    // bytes: `0.`, then 307 zeros and 17 digits (`f64::MIN_POSITIVE`) or 323
    // zeros and the one digit of 5e-324.
    let point = len as i32 + exponent;
    let mut text = [b'0'; 326];
    let used = if point <= 0 {
        let at = 2 + point.unsigned_abs() as usize;
        text[1] = b'.';
        text[at..at + len].copy_from_slice(digits);
        at + len
    } else if (point as usize) < len {
        let point = point as usize;
        text[..point].copy_from_slice(&digits[..point]);
        text[point] = b'.';
        text[point + 1..=len].copy_from_slice(&digits[point..]);
        len + 1
    } else {
        text[..len].copy_from_slice(digits);
        point as usize
    };
    out.push_str(std::str::from_utf8(&text[..used]).expect("decimal text is ASCII"));
}

/// "00" through "99".
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes the decimal digits of `value` (`0 < value < 10^17`) to the end of
/// `buf` and returns where they start.
fn write_digits(mut value: u64, buf: &mut [u8; 17]) -> usize {
    let mut start = buf.len();
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + value as u8;
    }
    start
}

/// Bits of precision in the [`POW5`] and [`POW5_INV`] multipliers.
const POW5_BITS: i32 = 125;

/// `POW5[i]`: the top 125 bits of 5^i (5^i shifted up when shorter).
static POW5: [u128; 326] = pow5_table();

/// `POW5_INV[i]`: ⌊2^(bitlen(5^i) − 1 + 125) / 5^i⌋ + 1.
static POW5_INV: [u128; 342] = pow5_inv_table();

/// The bit length of 5^e, for `0 <= e <= 3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// ⌊log10(2^e)⌋, for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// ⌊log10(5^e)⌋, for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// Whether 5^p divides `value` (`value > 0`).
fn multiple_of_power_of_5(mut value: u64, p: i32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// Limb `k` of the little-endian bignum `limbs`, zero past its end.
const fn limb(limbs: &[u64], k: usize) -> u128 {
    if k < limbs.len() {
        limbs[k] as u128
    } else {
        0
    }
}

/// The 128 bits of the little-endian bignum `limbs` from bit `shift` up.
const fn bits_from(limbs: &[u64], shift: usize) -> u128 {
    let (word, bit) = (shift / 64, shift % 64);
    let low = limb(limbs, word) | limb(limbs, word + 1) << 64;
    if bit == 0 {
        low
    } else {
        low >> bit | limb(limbs, word + 2) << (128 - bit)
    }
}

const fn pow5_table() -> [u128; 326] {
    let mut table = [0; 326];
    // 5^i as a 768-bit little-endian bignum (5^325 < 2^755).
    let mut power = [0u64; 12];
    power[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let length = pow5_bits(i as i32);
        table[i] = if length <= POW5_BITS {
            bits_from(&power, 0) << (POW5_BITS - length)
        } else {
            bits_from(&power, (length - POW5_BITS) as usize)
        };
        let mut carry = 0u128;
        let mut k = 0;
        while k < power.len() {
            let product = power[k] as u128 * 5 + carry;
            power[k] = product as u64;
            carry = product >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; 342] {
    let mut table = [0; 342];
    // ⌊2^1023 / 5^i⌋, one exact division by 5 per step: nested floor
    // divisions compose, and shifting it down by `1023 − k` bits then gives
    // ⌊2^k / 5^i⌋ for every k the table needs (at most 916).
    let mut quotient = [0u64; 16];
    quotient[15] = 1 << 63;
    let mut i = 0;
    while i < table.len() {
        let k = pow5_bits(i as i32) - 1 + POW5_BITS;
        table[i] = bits_from(&quotient, (1023 - k) as usize) + 1;
        let mut remainder = 0u128;
        let mut k = quotient.len();
        while k > 0 {
            k -= 1;
            let current = remainder << 64 | quotient[k] as u128;
            quotient[k] = (current / 5) as u64;
            remainder = current % 5;
        }
        i += 1;
    }
    table
}

/// ⌊m × multiplier / 2^shift⌋ for Ryū's 125-bit multipliers
/// (`64 <= shift`, and the result fits 64 bits).
fn mul_shift(m: u64, multiplier: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (multiplier as u64 as u128);
    let high = u128::from(m) * (multiplier >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// Ryū's `d2d` for the bits of a finite, positive `f64`: the shortest
/// `(digits, e10)` with `digits × 10^e10` inside the value's rounding
/// interval, nearest the value, ties rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    const MANTISSA_BITS: u32 = 52;
    const BIAS: i32 = 1023;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32;
    // The value is m2 × 2^e2; the interval's bounds sit half an ulp away,
    // so work with 4 × m2 and 2^(e2 − 2).
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even parsing maps an even mantissa's bounds onto it.
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    // At a power of two (zero mantissa bits, above the lowest two binades)
    // the gap below the value is half the gap above it.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // The value and its bounds scaled by 10^-e10 and truncated:
    // vm <= vr <= vp.
    let (e10, mut vr, mut vp, mut vm);
    // Whether the lower bound is exact (its truncated digits are all zero).
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let multiplier = POW5_INV[q as usize];
        let shift = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        (vr, vp, vm) = (
            mul_shift(mv, multiplier, shift),
            mul_shift(mp, multiplier, shift),
            mul_shift(mm, multiplier, shift),
        );
        // At most one of mm, mv and mp is a multiple of 5; the bounds
        // matter only when mv is not.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let multiplier = POW5[i as usize];
        let shift = q - (pow5_bits(i) - POW5_BITS);
        (vr, vp, vm) = (
            mul_shift(mv, multiplier, shift),
            mul_shift(mp, multiplier, shift),
            mul_shift(mm, multiplier, shift),
        );
        if q <= 1 {
            // mm has a trailing zero bit exactly when mm_shift is 1; mp
            // always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number; then,
    // if the lower bound is exact and inside, keep dropping its zeros.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm.is_multiple_of(10);
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_is_trailing_zeros {
        while vm.is_multiple_of(10) {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Step up when vr is the excluded lower bound, or the dropped digits
    // were at least half (exactly half included: ties round up).
    let round_up = (vr == vm && !vm_is_trailing_zeros) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        write_str(&mut out, "a\n\"b\\\t\r\u{1}\u{1f} é");
        assert_eq!(out, "\"a\\n\\\"b\\\\\\t\\r\\u0001\\u001f é\"");
    }

    /// The char-at-a-time escaper the run-copying one replaced.
    fn escape_by_char(out: &mut String, raw: &str) {
        for c in raw.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }

    #[test]
    fn run_copying_matches_the_char_at_a_time_escaper() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let inputs = [
            String::new(),
            "plain ascii".into(),
            "\"".into(),
            "\\".into(),
            "\"quoted\" and \\back\\slashed\\".into(),
            controls.clone(),
            format!("a{controls}b"),
            "é, ß, 漢字 and 🦀".into(),
            "🦀\"\u{1}é\\\n漢".into(),
            "buffer `acc0[7]` is loaded (task 12) before its first write".into(),
        ];
        for raw in &inputs {
            let (mut fast, mut reference) = (String::from("x"), String::from("x"));
            escape_into(&mut fast, raw);
            escape_by_char(&mut reference, raw);
            assert_eq!(fast.as_bytes(), reference.as_bytes(), "{raw:?}");
        }
    }

    #[test]
    fn digits_and_arrays_match_display() {
        let values = [0, 1, 9, 10, 99, 100, 12_345, usize::MAX];
        let mut out = String::new();
        write_array(&mut out, values, write_uint);
        let expected: Vec<String> = values.iter().map(ToString::to_string).collect();
        assert_eq!(out, format!("[{}]", expected.join(",")));
        out.clear();
        write_array(&mut out, Vec::<usize>::new(), write_uint);
        assert_eq!(out, "[]");
    }

    /// `write_f64` appends exactly the bytes of `write!(out, "{value}")`.
    fn assert_writes_display(value: f64) {
        let mut out = String::from("x");
        write_f64(&mut out, value);
        assert_eq!(
            out[1..],
            format!("{value}"),
            "bits {:#018x}",
            value.to_bits()
        );
    }

    #[test]
    fn write_f64_matches_display() {
        let mut values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            // Exact ties between two shortest candidates: `{}` rounds them
            // up (…695313, …087.63, …931.063) where reference Ryū rounds to
            // even.
            f64::from_bits(0x3e60_0000_0000_0000),
            f64::from_bits(0xc2e6_ea3c_8367_fff4),
            f64::from_bits(0x42ac_46b8_b80b_e620),
        ];
        // Every power of two, subnormal ones included.
        values.extend((0..2046u64).map(|exponent| f64::from_bits((exponent + 1) << 52)));
        values.extend((0..52).map(|bit| f64::from_bits(1 << bit)));
        // Every power of ten and its neighbours one ulp away.
        for k in -323..=308 {
            let power: f64 = format!("1e{k}").parse().expect("a power of ten parses");
            values.extend([power, power.next_up(), power.next_down()]);
        }
        for value in values {
            assert_writes_display(value);
            assert_writes_display(-value);
        }
        // Seeded random bit patterns: half over every exponent, half with
        // the magnitudes reports print (2^-64 to 2^64).
        let mut state = 0x05EE_DF64_u64;
        for i in 0..1_000_000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut bits = state;
            bits = (bits ^ (bits >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            bits = (bits ^ (bits >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            bits ^= bits >> 31;
            if i % 2 == 1 {
                bits = bits & !(0x7ff << 52) | (0x3bf + (bits >> 52) % 128) << 52;
            }
            assert_writes_display(f64::from_bits(bits));
        }
    }

    #[test]
    fn memo_is_keyed_by_bits() {
        let values = [
            0.0,
            0.0,
            -0.0,
            -0.0,
            0.0,
            1e-7,
            1e21,
            1e21,
            f64::MAX,
            5e-324,
        ];
        let mut memo = F64Memo::default();
        let mut out = String::new();
        write_array(&mut out, values, |out, value| memo.write(out, value));
        let expected: Vec<String> = values.iter().map(ToString::to_string).collect();
        assert_eq!(out, format!("[{}]", expected.join(",")));
        assert!(out.starts_with("[0,0,-0,-0,0,"));
    }
}
