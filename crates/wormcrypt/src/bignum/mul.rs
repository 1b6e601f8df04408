//! Multiplication: schoolbook for small operands, Karatsuba above a
//! threshold. The threshold was picked empirically; RSA-2048 operands
//! (32 limbs) sit right at the point where Karatsuba starts winning.

use super::Ubig;

/// Operand size (in limbs) above which Karatsuba is used.
const KARATSUBA_THRESHOLD: usize = 24;

impl Ubig {
    /// `self * other`.
    pub fn mul(&self, other: &Ubig) -> Ubig {
        if self.is_zero() || other.is_zero() {
            return Ubig::zero();
        }
        let out = mul_limbs(&self.limbs, &other.limbs);
        Ubig::from_limbs(out)
    }

    /// `self * self`.
    pub fn square(&self) -> Ubig {
        // Modular exponentiation squares inside `Montgomery::pow`, which has
        // its own squaring kernel; nothing hot calls this.
        self.mul(self)
    }
}

/// Multiplies two little-endian limb slices.
pub(crate) fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) >= KARATSUBA_THRESHOLD {
        karatsuba(a, b)
    } else {
        schoolbook(a, b)
    }
}

fn schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry: u128 = 0;
        for (j, &bj) in b.iter().enumerate() {
            let t = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry > 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    out
}

fn karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
    let half = a.len().max(b.len()) / 2;
    if half == 0 || a.len() <= half || b.len() <= half {
        return schoolbook(a, b);
    }
    let (a0, a1) = a.split_at(half);
    let (b0, b1) = b.split_at(half);

    let z0 = mul_limbs(a0, b0);
    let z2 = mul_limbs(a1, b1);

    let a01 = add_limbs(a0, a1);
    let b01 = add_limbs(b0, b1);
    let z1_full = mul_limbs(&a01, &b01);
    // z1 = z1_full - z0 - z2
    let mut z1 = sub_limbs(&z1_full, &z0);
    z1 = sub_limbs(&z1, &z2);

    // out = z0 + z1 << (64*half) + z2 << (64*2*half)
    let mut out = vec![0u64; a.len() + b.len()];
    add_into(&mut out, &z0, 0);
    add_into(&mut out, &z1, half);
    add_into(&mut out, &z2, 2 * half);
    out
}

fn add_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let s = short.get(i).copied().unwrap_or(0);
        let (r1, c1) = long[i].overflowing_add(s);
        let (r2, c2) = r1.overflowing_add(carry);
        out.push(r2);
        carry = (c1 as u64) + (c2 as u64);
    }
    if carry > 0 {
        out.push(carry);
    }
    out
}

/// `a - b` on raw limb vectors; requires `a >= b` numerically.
fn sub_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = a[i].overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0, "sub_limbs underflow");
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// `acc[offset..] += v`, where `acc` is large enough to absorb the carry.
fn add_into(acc: &mut [u64], v: &[u64], offset: usize) {
    let mut carry = 0u64;
    let mut i = 0;
    while i < v.len() || carry > 0 {
        let vi = v.get(i).copied().unwrap_or(0);
        let slot = &mut acc[offset + i];
        let (r1, c1) = slot.overflowing_add(vi);
        let (r2, c2) = r1.overflowing_add(carry);
        *slot = r2;
        carry = (c1 as u64) + (c2 as u64);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_products() {
        assert_eq!(
            Ubig::from_u64(6).mul(&Ubig::from_u64(7)),
            Ubig::from_u64(42)
        );
        assert_eq!(Ubig::zero().mul(&Ubig::from_u64(7)), Ubig::zero());
        assert_eq!(Ubig::from_u64(7).mul(&Ubig::zero()), Ubig::zero());
        assert_eq!(Ubig::one().mul(&Ubig::from_u64(99)), Ubig::from_u64(99));
    }

    #[test]
    fn cross_limb_product() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = Ubig::from_u64(u64::MAX);
        let expected = Ubig::from_u128(u128::MAX)
            .shl(0)
            .sub(&Ubig::from_u128((1u128 << 65) - 2));
        assert_eq!(a.mul(&a), expected);
    }

    #[test]
    fn square_matches_mul() {
        let n = Ubig::from_hex("fedcba9876543210fedcba9876543210").unwrap();
        assert_eq!(n.square(), n.mul(&n));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands big enough to trigger Karatsuba (>= 24 limbs).
        let mut a_limbs = Vec::new();
        let mut b_limbs = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..40u64 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i);
            a_limbs.push(x);
            x = x.rotate_left(17) ^ i;
            b_limbs.push(x);
        }
        let fast = mul_limbs(&a_limbs, &b_limbs);
        let slow = schoolbook(&a_limbs, &b_limbs);
        let mut fast = fast;
        let mut slow = slow;
        while fast.last() == Some(&0) {
            fast.pop();
        }
        while slow.last() == Some(&0) {
            slow.pop();
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn distributivity_spot_check() {
        let a = Ubig::from_hex("123456789abcdef0123456789abcdef").unwrap();
        let b = Ubig::from_hex("fedcba9876543210").unwrap();
        let c = Ubig::from_hex("abcdef").unwrap();
        let left = a.mul(&b.add(&c));
        let right = a.mul(&b).add(&a.mul(&c));
        assert_eq!(left, right);
    }
}
