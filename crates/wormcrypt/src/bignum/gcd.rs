//! Greatest common divisor and modular inverse (extended Euclid).
//!
//! The extended algorithm needs signed intermediates; a small private
//! sign-magnitude wrapper keeps that machinery out of the public API.

use super::Ubig;

/// Sign-magnitude signed big integer, private to this module.
#[derive(Clone, Debug)]
struct Sbig {
    neg: bool,
    mag: Ubig,
}

impl Sbig {
    fn zero() -> Self {
        Sbig {
            neg: false,
            mag: Ubig::zero(),
        }
    }

    fn one() -> Self {
        Sbig {
            neg: false,
            mag: Ubig::one(),
        }
    }

    fn sub(&self, other: &Sbig) -> Sbig {
        match (self.neg, other.neg) {
            (false, true) => Sbig {
                neg: false,
                mag: self.mag.add(&other.mag),
            },
            (true, false) => Sbig {
                neg: !self.mag.add(&other.mag).is_zero(),
                mag: self.mag.add(&other.mag),
            },
            (a_neg, _) => {
                // Same sign: subtract magnitudes.
                if self.mag >= other.mag {
                    let mag = self.mag.sub(&other.mag);
                    Sbig {
                        neg: a_neg && !mag.is_zero(),
                        mag,
                    }
                } else {
                    let mag = other.mag.sub(&self.mag);
                    Sbig {
                        neg: !a_neg && !mag.is_zero(),
                        mag,
                    }
                }
            }
        }
    }

    fn mul_ubig(&self, other: &Ubig) -> Sbig {
        let mag = self.mag.mul(other);
        Sbig {
            neg: self.neg && !mag.is_zero(),
            mag,
        }
    }

    /// Reduces into `[0, m)` treating the value as an integer mod `m`.
    fn rem_euclid(&self, m: &Ubig) -> Ubig {
        let r = self.mag.rem(m);
        if self.neg && !r.is_zero() {
            m.sub(&r)
        } else {
            r
        }
    }
}

impl Ubig {
    /// Greatest common divisor (Euclid's algorithm).
    pub fn gcd(&self, other: &Ubig) -> Ubig {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: returns `x` with `self * x ≡ 1 (mod m)`, or `None`
    /// if `gcd(self, m) != 1`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mod_inverse(&self, m: &Ubig) -> Option<Ubig> {
        assert!(!m.is_zero(), "mod_inverse: zero modulus");
        if m.is_one() {
            return Some(Ubig::zero());
        }
        // Extended Euclid on (a, m) tracking only the coefficient of a.
        let mut r0 = self.rem(m);
        let mut r1 = m.clone();
        let mut s0 = Sbig::one();
        let mut s1 = Sbig::zero();
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1);
            let s_next = s0.sub(&s1.mul_ubig(&q));
            r0 = std::mem::replace(&mut r1, r);
            s0 = std::mem::replace(&mut s1, s_next);
        }
        if !r0.is_one() {
            return None; // not coprime
        }
        Some(s0.rem_euclid(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Ubig {
        Ubig::from_u64(v)
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(u(12).gcd(&u(18)), u(6));
        assert_eq!(u(17).gcd(&u(13)), u(1));
        assert_eq!(u(0).gcd(&u(5)), u(5));
        assert_eq!(u(5).gcd(&u(0)), u(5));
        assert_eq!(u(0).gcd(&u(0)), u(0));
    }

    #[test]
    fn gcd_large() {
        let a = Ubig::from_hex("1000000000000000000000000").unwrap(); // 2^96
        let b = Ubig::from_hex("40000000000").unwrap(); // 2^42
        assert_eq!(a.gcd(&b), b);
    }

    #[test]
    fn mod_inverse_small() {
        // 3 * 4 = 12 ≡ 1 (mod 11)
        assert_eq!(u(3).mod_inverse(&u(11)), Some(u(4)));
        // 2 has no inverse mod 4
        assert_eq!(u(2).mod_inverse(&u(4)), None);
        // anything mod 1 -> 0
        assert_eq!(u(42).mod_inverse(&Ubig::one()), Some(Ubig::zero()));
    }

    #[test]
    fn mod_inverse_verifies() {
        let m = Ubig::from_hex("ffffffffffffffc5").unwrap(); // prime
        for a in [2u64, 3, 65537, 0x1234_5678_9abc_def1] {
            let inv = u(a).mod_inverse(&m).expect("prime modulus");
            assert_eq!(u(a).mul(&inv).rem(&m), Ubig::one(), "a={a}");
        }
    }

    #[test]
    fn mod_inverse_of_e_rsa_style() {
        // phi = (p-1)(q-1) for p=61, q=53 -> phi=3120, e=17, d=2753.
        let phi = u(3120);
        let e = u(17);
        let d = e.mod_inverse(&phi).unwrap();
        assert_eq!(d, u(2753));
        assert_eq!(e.mul(&d).rem(&phi), Ubig::one());
    }
}
