//! Multiplication: schoolbook. Modular exponentiation multiplies inside
//! `Montgomery::pow`, which has its own kernels; this serves key
//! generation and CRT recombination.

use super::Ubig;

impl Ubig {
    /// `self * other`.
    pub fn mul(&self, other: &Ubig) -> Ubig {
        if self.is_zero() || other.is_zero() {
            return Ubig::zero();
        }
        Ubig::from_limbs(schoolbook(&self.limbs, &other.limbs))
    }
}

/// Multiplies two little-endian limb slices.
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
    fn distributivity_spot_check() {
        let a = Ubig::from_hex("123456789abcdef0123456789abcdef").unwrap();
        let b = Ubig::from_hex("fedcba9876543210").unwrap();
        let c = Ubig::from_hex("abcdef").unwrap();
        let left = a.mul(&b.add(&c));
        let right = a.mul(&b).add(&a.mul(&c));
        assert_eq!(left, right);
    }
}
