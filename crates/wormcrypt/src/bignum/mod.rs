//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`Ubig`] is a little-endian vector of `u64` limbs kept in canonical form
//! (no trailing zero limbs; zero is the empty vector). It provides exactly
//! the operations the RSA layer needs — comparison, ring arithmetic,
//! division with remainder, modular exponentiation via Montgomery
//! multiplication, gcd/modular inverse, and probabilistic primality — with
//! no `unsafe` and no external dependencies.
//!
//! ```
//! use wormcrypt::bignum::{Montgomery, Ubig};
//!
//! let ctx = Montgomery::new(&Ubig::from_u64(13)).unwrap();
//! let a = ctx.pow(&Ubig::from_u64(7), &Ubig::from_u64(5));
//! assert_eq!(a, Ubig::from_u64(11)); // 7^5 = 16807 = 11 (mod 13)
//! ```

#![expect(
    clippy::needless_range_loop,
    reason = "multi-precision arithmetic propagates carries/borrows across parallel limb arrays; explicit indexing is the established idiom and clearer than zipped iterator chains here"
)]

mod div;
mod gcd;
mod montgomery;
mod mul;
pub mod prime;

pub use montgomery::Montgomery;

use std::cmp::Ordering;
use std::fmt;

/// Number of bits per limb.
pub(crate) const LIMB_BITS: usize = 64;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with no trailing zeros. All
/// arithmetic is heap-based and variable-time; this library targets a
/// *simulated* secure coprocessor, not side-channel-hardened production use.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Ubig {
    /// Little-endian limbs, canonical (no trailing zeros).
    pub(crate) limbs: Vec<u64>,
}

impl Ubig {
    /// The value zero.
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = Ubig {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Builds a value from little-endian limbs (normalizing).
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = Ubig { limbs };
        n.normalize();
        n
    }

    /// Parses a big-endian byte string (as produced by [`Ubig::to_bytes_be`]).
    ///
    /// Leading zero bytes are accepted and ignored.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut shift = 0usize;
        for &b in bytes.iter().rev() {
            cur |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(cur);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to a minimal big-endian byte string (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let nz = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[nz..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to a big-endian byte string left-padded to exactly `len`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(
            raw.len() <= len,
            "value of {} bytes does not fit in {} bytes",
            raw.len(),
            len
        );
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// Returns `None` on any non-hex character or empty input.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut idx = 0;
        // Odd-length strings have an implicit leading nibble.
        if chars.len() % 2 == 1 {
            bytes.push(hex_val(chars[0])?);
            idx = 1;
        }
        while idx < chars.len() {
            let hi = hex_val(chars[idx])?;
            let lo = hex_val(chars[idx + 1])?;
            bytes.push(hi << 4 | lo);
            idx += 2;
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Renders as a minimal lowercase hex string (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Whether this value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Whether this value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Whether this value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() - 1) * LIMB_BITS + (LIMB_BITS - top.leading_zeros() as usize)
            }
        }
    }

    /// Value of bit `i` (LSB is bit 0); bits beyond the width are zero.
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / LIMB_BITS, i % LIMB_BITS);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to one, growing the limb vector as needed.
    pub fn set_bit(&mut self, i: usize) {
        let (limb, off) = (i / LIMB_BITS, i % LIMB_BITS);
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
    }

    /// Returns the low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Strips trailing zero limbs to restore canonical form.
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Ubig) -> Ubig {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for i in 0..a.len() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = a[i].overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        Ubig::from_limbs(out)
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &Ubig) -> Option<Ubig> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(Ubig::from_limbs(out))
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    #[expect(
        clippy::expect_used,
        reason = "documented contract (see `# Panics`): callers guarantee other <= self"
    )]
    pub fn sub(&self, other: &Ubig) -> Ubig {
        self.checked_sub(other)
            .expect("Ubig::sub underflow: subtrahend exceeds minuend")
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> Ubig {
        if self.is_zero() || bits == 0 {
            if bits == 0 {
                return self.clone();
            }
            return Ubig::zero();
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Ubig::from_limbs(out)
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: usize) -> Ubig {
        let limb_shift = bits / LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return Ubig::zero();
        }
        let bit_shift = bits % LIMB_BITS;
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return Ubig::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let hi = src.get(i + 1).copied().unwrap_or(0);
            out.push((src[i] >> bit_shift) | (hi << (LIMB_BITS - bit_shift)));
        }
        Ubig::from_limbs(out)
    }

    /// `self mod other` (convenience over [`Ubig::div_rem`]).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn rem(&self, other: &Ubig) -> Ubig {
        self.div_rem(other).1
    }

    /// Generates a uniformly random value with exactly `bits` bits
    /// (the top bit is always set, unless `bits == 0`).
    pub fn random_bits<R: rand::RngCore + ?Sized>(rng: &mut R, bits: usize) -> Ubig {
        if bits == 0 {
            return Ubig::zero();
        }
        let limbs = bits.div_ceil(LIMB_BITS);
        let mut v = vec![0u64; limbs];
        for l in v.iter_mut() {
            *l = rng.next_u64();
        }
        // Mask off excess bits, then force the top bit.
        let top_bits = bits - (limbs - 1) * LIMB_BITS;
        if top_bits < LIMB_BITS {
            v[limbs - 1] &= (1u64 << top_bits) - 1;
        }
        v[limbs - 1] |= 1u64 << (top_bits - 1);
        Ubig::from_limbs(v)
    }

    /// Generates a uniformly random value in `[0, bound)` by rejection
    /// sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: rand::RngCore + ?Sized>(rng: &mut R, bound: &Ubig) -> Ubig {
        assert!(!bound.is_zero(), "random_below: bound must be positive");
        let bits = bound.bit_len();
        let limbs = bits.div_ceil(LIMB_BITS);
        let top_bits = bits - (limbs - 1) * LIMB_BITS;
        let mask = if top_bits == LIMB_BITS {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        loop {
            let mut v = vec![0u64; limbs];
            for l in v.iter_mut() {
                *l = rng.next_u64();
            }
            v[limbs - 1] &= mask;
            let candidate = Ubig::from_limbs(v);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Debug for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ubig(0x{})", self.to_hex())
    }
}

impl fmt::Display for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Repeated division by 10^19 (the largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut rest = self.clone();
        let mut chunks: Vec<u64> = Vec::new();
        let divisor = Ubig::from_u64(CHUNK);
        while !rest.is_zero() {
            let (q, r) = rest.div_rem(&divisor);
            chunks.push(r.low_u64());
            rest = q;
        }
        let mut s = String::new();
        for (i, c) in chunks.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{c}"));
            } else {
                s.push_str(&format!("{c:019}"));
            }
        }
        f.write_str(&s)
    }
}

impl fmt::LowerHex for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Self {
        Ubig::from_u64(v)
    }
}

impl From<u128> for Ubig {
    fn from(v: u128) -> Self {
        Ubig::from_u128(v)
    }
}

impl std::ops::Add<&Ubig> for &Ubig {
    type Output = Ubig;
    fn add(self, rhs: &Ubig) -> Ubig {
        Ubig::add(self, rhs)
    }
}

impl std::ops::Sub<&Ubig> for &Ubig {
    type Output = Ubig;
    fn sub(self, rhs: &Ubig) -> Ubig {
        Ubig::sub(self, rhs)
    }
}

impl std::ops::Mul<&Ubig> for &Ubig {
    type Output = Ubig;
    fn mul(self, rhs: &Ubig) -> Ubig {
        Ubig::mul(self, rhs)
    }
}

impl std::ops::Rem<&Ubig> for &Ubig {
    type Output = Ubig;
    fn rem(self, rhs: &Ubig) -> Ubig {
        Ubig::rem(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Ubig::zero().is_zero());
        assert!(Ubig::one().is_one());
        assert!(Ubig::zero().is_even());
        assert!(Ubig::one().is_odd());
        assert_eq!(Ubig::default(), Ubig::zero());
    }

    #[test]
    fn roundtrip_bytes() {
        let cases: &[&[u8]] = &[
            &[],
            &[1],
            &[0xff],
            &[1, 0],
            &[0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe, 0x01],
        ];
        for &c in cases {
            let n = Ubig::from_bytes_be(c);
            let back = n.to_bytes_be();
            // Leading zeros are stripped, so compare against the minimal form.
            let minimal: Vec<u8> = {
                let nz = c.iter().position(|&b| b != 0).unwrap_or(c.len());
                c[nz..].to_vec()
            };
            assert_eq!(back, minimal);
        }
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(Ubig::from_bytes_be(&[0, 0, 0, 5]), Ubig::from_u64(5));
    }

    #[test]
    fn padded_serialization() {
        let n = Ubig::from_u64(0x0102);
        assert_eq!(n.to_bytes_be_padded(4), vec![0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_serialization_too_small() {
        Ubig::from_u64(0x010203).to_bytes_be_padded(2);
    }

    #[test]
    fn hex_roundtrip() {
        let n = Ubig::from_hex("deadbeefcafebabe0123456789abcdef0").unwrap();
        assert_eq!(n.to_hex(), "deadbeefcafebabe0123456789abcdef0");
        assert_eq!(Ubig::from_hex("0").unwrap(), Ubig::zero());
        assert!(Ubig::from_hex("").is_none());
        assert!(Ubig::from_hex("xyz").is_none());
    }

    #[test]
    fn add_with_carries() {
        let a = Ubig::from_u64(u64::MAX);
        let b = Ubig::one();
        let s = a.add(&b);
        assert_eq!(s, Ubig::from_u128(1u128 << 64));
        assert_eq!(s.bit_len(), 65);
    }

    #[test]
    fn sub_basics() {
        let a = Ubig::from_u128(1u128 << 64);
        let b = Ubig::one();
        assert_eq!(a.sub(&b), Ubig::from_u64(u64::MAX));
        assert_eq!(a.checked_sub(&a), Some(Ubig::zero()));
        assert_eq!(b.checked_sub(&a), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        Ubig::one().sub(&Ubig::from_u64(2));
    }

    #[test]
    fn shifts() {
        let n = Ubig::from_u64(0b1011);
        assert_eq!(n.shl(0), n);
        assert_eq!(n.shl(1), Ubig::from_u64(0b10110));
        assert_eq!(n.shl(64), Ubig::from_u128(0b1011u128 << 64));
        assert_eq!(n.shl(64).shr(64), n);
        assert_eq!(n.shr(2), Ubig::from_u64(0b10));
        assert_eq!(n.shr(100), Ubig::zero());
        assert_eq!(n.shl(67).shr(3), Ubig::from_u128(0b1011u128 << 64));
    }

    #[test]
    fn bit_accessors() {
        let mut n = Ubig::zero();
        n.set_bit(0);
        n.set_bit(100);
        assert!(n.bit(0));
        assert!(n.bit(100));
        assert!(!n.bit(50));
        assert_eq!(n.bit_len(), 101);
    }

    #[test]
    fn ordering() {
        let a = Ubig::from_u64(5);
        let b = Ubig::from_u128(1u128 << 70);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(Ubig::zero().to_string(), "0");
        assert_eq!(Ubig::from_u64(12345).to_string(), "12345");
        // 2^64 = 18446744073709551616
        assert_eq!(
            Ubig::from_u128(1u128 << 64).to_string(),
            "18446744073709551616"
        );
        // 10^19 boundary padding: 10^19 + 5
        let n = Ubig::from_u128(10_000_000_000_000_000_005u128);
        assert_eq!(n.to_string(), "10000000000000000005");
    }

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = rand::rngs::mock::StepRng::new(0xdead_beef, 0x9e37_79b9);
        for bits in [1usize, 8, 63, 64, 65, 128, 257] {
            let n = Ubig::random_bits(&mut rng, bits);
            assert_eq!(n.bit_len(), bits, "bits={bits}");
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x1234_5678_9abc_def1);
        let bound = Ubig::from_u64(1000);
        for _ in 0..50 {
            let v = Ubig::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }
}
