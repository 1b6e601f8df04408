//! Probabilistic primality testing and prime generation.
//!
//! Candidates are screened by trial division against a sieve of small
//! primes, then subjected to Miller–Rabin with random bases. Round counts
//! follow the usual conservative table (more rounds for smaller candidates,
//! where the error bound per round is weakest relative to the target
//! security level).

use super::{Montgomery, Ubig};
use std::sync::OnceLock;

/// Upper bound of the small-prime sieve used for trial division.
const SIEVE_LIMIT: usize = 1 << 14;

fn small_primes() -> &'static [u64] {
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let mut composite = vec![false; SIEVE_LIMIT];
        let mut primes = Vec::new();
        for i in 2..SIEVE_LIMIT {
            if !composite[i] {
                primes.push(i as u64);
                let mut j = i * i;
                while j < SIEVE_LIMIT {
                    composite[j] = true;
                    j += i;
                }
            }
        }
        primes
    })
}

/// Number of Miller–Rabin rounds for a candidate of `bits` bits.
///
/// Values are conservative relative to the Handbook of Applied Cryptography
/// table 4.4 (error < 2^-80 after trial division).
fn mr_rounds(bits: usize) -> usize {
    match bits {
        0..=128 => 40,
        129..=256 => 32,
        257..=512 => 16,
        513..=1024 => 8,
        _ => 4,
    }
}

impl Ubig {
    /// Probabilistic primality test (trial division + Miller–Rabin).
    ///
    /// Returns `true` if the value is prime with overwhelming probability,
    /// `false` if it is certainly composite (or < 2).
    pub fn is_probable_prime<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        // Small and even cases.
        if self.bit_len() <= 1 {
            return false; // 0 and 1
        }
        if self.limbs.len() == 1 {
            let v = self.limbs[0];
            if v == 2 || v == 3 {
                return true;
            }
        }
        if self.is_even() {
            return false;
        }
        for &p in small_primes() {
            let pb = Ubig::from_u64(p);
            if *self == pb {
                return true;
            }
            if self.rem(&pb).is_zero() {
                return false;
            }
        }
        self.miller_rabin(rng, mr_rounds(self.bit_len()))
    }

    /// Raw Miller–Rabin with `rounds` random bases (no trial division).
    pub fn miller_rabin<R: rand::RngCore + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        debug_assert!(self.is_odd() && self.bit_len() > 1);
        let one = Ubig::one();
        let n_minus_1 = self.sub(&one);
        // n - 1 = d * 2^s with d odd.
        let s = trailing_zeros(&n_minus_1);
        let d = n_minus_1.shr(s);
        let two = Ubig::from_u64(2);
        let n_minus_3 = match n_minus_1.checked_sub(&two) {
            Some(v) => v,
            None => return true, // n == 3
        };
        // One context serves every round.
        let Some(ctx) = Montgomery::new(self) else {
            return false; // even
        };

        'rounds: for _ in 0..rounds {
            // a ∈ [2, n-2]
            let a = Ubig::random_below(rng, &n_minus_3).add(&two);
            let mut x = ctx.pow(&a, &d);
            if x.is_one() || x == n_minus_1 {
                continue 'rounds;
            }
            for _ in 0..s.saturating_sub(1) {
                x = x.mul(&x).rem(self);
                if x == n_minus_1 {
                    continue 'rounds;
                }
            }
            return false;
        }
        true
    }

    /// Generates a random probable prime with exactly `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    pub fn gen_prime<R: rand::RngCore + ?Sized>(rng: &mut R, bits: usize) -> Ubig {
        assert!(bits >= 2, "a prime needs at least 2 bits");
        loop {
            let mut candidate = Ubig::random_bits(rng, bits);
            // Force odd and (for RSA-friendliness) the top two bits set so
            // that p*q has exactly the intended width.
            candidate.set_bit(0);
            if bits >= 2 {
                candidate.set_bit(bits - 1);
                candidate.set_bit(bits.saturating_sub(2));
            }
            // Walk forward in steps of 2 a bounded number of times before
            // resampling, which is cheaper than fresh candidates.
            let two = Ubig::from_u64(2);
            let mut c = candidate;
            for _ in 0..64 {
                if c.bit_len() != bits {
                    break; // walked past the width; resample
                }
                if c.is_probable_prime(rng) {
                    return c;
                }
                c = c.add(&two);
            }
        }
    }
}

/// Number of trailing zero bits (input must be nonzero).
#[expect(
    clippy::unreachable,
    reason = "documented contract: callers pass a nonzero n (debug-asserted above)"
)]
fn trailing_zeros(n: &Ubig) -> usize {
    debug_assert!(!n.is_zero());
    for (i, &l) in n.limbs.iter().enumerate() {
        if l != 0 {
            return i * 64 + l.trailing_zeros() as usize;
        }
    }
    unreachable!("nonzero Ubig with all-zero limbs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x7374726f6e67 /* "strong" */)
    }

    #[test]
    fn small_primes_detected() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 10007, 65537] {
            assert!(Ubig::from_u64(p).is_probable_prime(&mut r), "p={p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [
            0u64, 1, 4, 6, 9, 15, 21, 10005, 65535, 341, 561, /* Carmichael */
        ] {
            assert!(!Ubig::from_u64(c).is_probable_prime(&mut r), "c={c}");
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^127 - 1 (Mersenne prime M127).
        let m127 = Ubig::one().shl(127).sub(&Ubig::one());
        assert!(m127.is_probable_prime(&mut rng()));
        // 2^128 - 1 is composite (divisible by 3).
        let c = Ubig::one().shl(128).sub(&Ubig::one());
        assert!(!c.is_probable_prime(&mut rng()));
    }

    #[test]
    fn generated_primes_have_width_and_pass() {
        let mut r = rng();
        for bits in [32usize, 64, 128, 256] {
            let p = Ubig::gen_prime(&mut r, bits);
            assert_eq!(p.bit_len(), bits);
            assert!(p.is_probable_prime(&mut r));
            assert!(p.is_odd());
        }
    }

    #[test]
    fn trailing_zero_helper() {
        assert_eq!(trailing_zeros(&Ubig::from_u64(8)), 3);
        assert_eq!(trailing_zeros(&Ubig::one().shl(130)), 130);
    }
}
