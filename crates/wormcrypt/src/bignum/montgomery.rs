//! Montgomery context and modular exponentiation.
//!
//! [`Montgomery`] holds what repeated multiplication modulo a fixed odd `n`
//! needs (`-n^-1 mod 2^64` and `R^2 mod n`) and owns the one modular
//! exponentiation routine, [`Montgomery::pow`]: left-to-right sliding
//! window over a table of odd powers, a fused CIOS multiplication and a
//! dedicated squaring, all over one scratch buffer allocated per call. RSA
//! keys build their contexts once and keep them; `Ubig::pow_mod` builds one
//! per call for an odd modulus and keeps binary square-and-reduce for even
//! moduli.

use super::Ubig;

/// Precomputed context for Montgomery arithmetic modulo an odd `n`.
#[derive(Clone, Debug)]
pub struct Montgomery {
    /// The modulus (odd, > 1).
    n: Ubig,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n`, where `R = 2^(64 * k)` and `k = n.limbs.len()`.
    r2: Vec<u64>,
}

impl Montgomery {
    /// Builds a context for the odd modulus `n`.
    ///
    /// Returns `None` if `n` is even or `n <= 1` (Montgomery reduction
    /// requires `gcd(n, 2^64) = 1`).
    pub fn new(n: &Ubig) -> Option<Self> {
        if n.is_even() || n.is_one() {
            return None;
        }
        let k = n.limbs.len();
        // Newton–Hensel iteration for the inverse of n mod 2^64.
        let n0 = n.limbs[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);

        // R^2 mod n via plain division (done once per context).
        let mut r2 = Ubig::one().shl(2 * 64 * k).rem(n).limbs;
        r2.resize(k, 0);

        Some(Montgomery {
            n: n.clone(),
            n0_inv: inv.wrapping_neg(),
            r2,
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Computes `base^exp mod n`.
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        // The kernels are instantiated with a constant limb count for the
        // primes and moduli of 512/1024/2048-bit keys, and with the
        // run-time count for every other width.
        match self.n.limbs.len() {
            4 => self.pow_k::<4>(base, exp),
            8 => self.pow_k::<8>(base, exp),
            16 => self.pow_k::<16>(base, exp),
            32 => self.pow_k::<32>(base, exp),
            _ => self.pow_k::<0>(base, exp),
        }
    }

    /// The limb count instantiation `K` works on: `K`, or that of `n` for
    /// `K = 0`.
    #[inline(always)]
    fn width<const K: usize>(&self) -> usize {
        if K == 0 {
            self.n.limbs.len()
        } else {
            K
        }
    }

    /// [`Montgomery::pow`] for `K` limbs.
    fn pow_k<const K: usize>(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let k = self.width::<K>();
        if exp.is_zero() {
            return Ubig::one();
        }
        let reduced;
        let base = if *base < self.n {
            base
        } else {
            reduced = base.rem(&self.n);
            &reduced
        };
        if base.is_zero() {
            return Ubig::zero();
        }

        // The table holds base^1, base^3, .., base^(2^w - 1) in Montgomery
        // form; a width of 1 is plain square-and-multiply.
        let w = window_width(exp.bit_len());
        let entries = 1usize << (w - 1);
        let mut scratch = vec![0u64; (entries + 3) * k];
        let (table, rest) = scratch.split_at_mut(entries * k);
        let (acc, t) = rest.split_at_mut(k);

        table[..base.limbs.len()].copy_from_slice(&base.limbs);
        self.mul_into::<K>(&mut table[..k], &self.r2, t);
        if entries > 1 {
            acc.copy_from_slice(&table[..k]);
            self.sqr_into::<K>(acc, t);
            for i in 1..entries {
                let (prev, next) = table[(i - 1) * k..(i + 1) * k].split_at_mut(k);
                next.copy_from_slice(prev);
                self.mul_into::<K>(next, acc, t);
            }
        }

        // The window whose top bit is the set bit `i - 1`: at most `w` bits,
        // ending on a set bit `lo`, so its value is odd. Returns `lo` and
        // the window's table index.
        let window = |i: usize| {
            let mut lo = i.saturating_sub(w);
            while !exp.bit(lo) {
                lo += 1;
            }
            let value = (lo..i)
                .rev()
                .fold(0, |v, b| v << 1 | usize::from(exp.bit(b)));
            (lo, value >> 1)
        };
        let (mut i, first) = window(exp.bit_len());
        acc.copy_from_slice(&table[first * k..(first + 1) * k]);
        while i > 0 {
            if !exp.bit(i - 1) {
                self.sqr_into::<K>(acc, t);
                i -= 1;
                continue;
            }
            let (lo, entry) = window(i);
            for _ in lo..i {
                self.sqr_into::<K>(acc, t);
            }
            self.mul_into::<K>(acc, &table[entry * k..(entry + 1) * k], t);
            i = lo;
        }

        // Out of Montgomery form: one reduction of `acc` taken as a
        // double-width value.
        t[..k].copy_from_slice(acc);
        t[k..].fill(0);
        self.redc::<K>(acc, t);
        Ubig::from_limbs(acc.to_vec())
    }

    /// `acc = acc * b * R^-1 mod n` over `k`-limb operands below `n`, with the
    /// product and the reduction interleaved word by word (CIOS) in one pass
    /// over `b` and `n`. `t` is scratch of at least `k + 1` limbs.
    #[inline(always)]
    fn mul_into<const K: usize>(&self, acc: &mut [u64], b: &[u64], t: &mut [u64]) {
        let (k, n0_inv) = (self.width::<K>(), self.n0_inv);
        let (acc, b, n, t) = (&mut acc[..k], &b[..k], &self.n.limbs[..k], &mut t[..k + 1]);
        t.fill(0);
        for i in 0..k {
            // t = (t + acc[i] * b + m * n) / 2^64, with m chosen so that the
            // low word of the sum is zero.
            let ai = acc[i] as u128;
            let s = t[0] as u128 + ai * b[0] as u128;
            let m = (s as u64).wrapping_mul(n0_inv) as u128;
            let r = (s as u64) as u128 + m * n[0] as u128;
            debug_assert_eq!(r as u64, 0);
            let (mut c1, mut c2) = (s >> 64, r >> 64);
            for j in 1..k {
                let s = t[j] as u128 + ai * b[j] as u128 + c1;
                c1 = s >> 64;
                let r = (s as u64) as u128 + m * n[j] as u128 + c2;
                c2 = r >> 64;
                t[j - 1] = r as u64;
            }
            let s = t[k] as u128 + c1 + c2;
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
        }
        let (t, top) = t.split_at(k);
        sub_if_ge(acc, t, top[0], n);
    }

    /// `acc = acc^2 * R^-1 mod n`: each off-diagonal product `acc[i] * acc[j]`
    /// is computed once and doubled, the diagonal added, and the double-width
    /// square reduced word by word. `t` is scratch of at least `2k` limbs.
    #[inline(always)]
    fn sqr_into<const K: usize>(&self, acc: &mut [u64], t: &mut [u64]) {
        let k = self.width::<K>();
        let (acc, t) = (&mut acc[..k], &mut t[..2 * k]);
        t.fill(0);
        for i in 0..k {
            let ai = acc[i] as u128;
            let mut c = 0u128;
            for j in i + 1..k {
                let s = t[i + j] as u128 + ai * acc[j] as u128 + c;
                t[i + j] = s as u64;
                c = s >> 64;
            }
            // Rows before `i` reach limb `i + k - 1` at most.
            t[i + k] = c as u64;
        }
        let (mut shifted_out, mut c) = (0u64, 0u128);
        for i in 0..k {
            let d = acc[i] as u128 * acc[i] as u128;
            let (lo, hi) = (t[2 * i], t[2 * i + 1]);
            let s = (lo << 1 | shifted_out) as u128 + (d as u64) as u128 + c;
            t[2 * i] = s as u64;
            let s = (hi << 1 | lo >> 63) as u128 + (d >> 64) + (s >> 64);
            t[2 * i + 1] = s as u64;
            shifted_out = hi >> 63;
            c = s >> 64;
        }
        debug_assert_eq!((shifted_out, c), (0, 0), "a k-limb square fits 2k limbs");
        self.redc::<K>(acc, t);
    }

    /// Montgomery reduction: `acc = t * R^-1 mod n` for a `2k`-limb `t < n * R`,
    /// which is consumed.
    #[inline(always)]
    fn redc<const K: usize>(&self, acc: &mut [u64], t: &mut [u64]) {
        let (k, n0_inv) = (self.width::<K>(), self.n0_inv);
        let (acc, t, n) = (&mut acc[..k], &mut t[..2 * k], &self.n.limbs[..k]);
        // Row `i` adds `m * n * 2^(64 i)` to clear limb `i`; what it carries out
        // of limb `i + k - 1` lands where row `i + 1` carries out too, so one
        // running carry serves every row.
        let mut top = 0u64;
        for i in 0..k {
            let m = t[i].wrapping_mul(n0_inv) as u128;
            let mut c = 0u128;
            for j in 0..k {
                let s = t[i + j] as u128 + m * n[j] as u128 + c;
                t[i + j] = s as u64;
                c = s >> 64;
            }
            let s = t[i + k] as u128 + c + top as u128;
            t[i + k] = s as u64;
            top = (s >> 64) as u64;
        }
        sub_if_ge(acc, &t[k..], top, n);
    }
}

/// Sliding-window width for an exponent of `bits` bits: the width at which
/// the `2^(w-1)`-entry table of odd powers pays for itself against one
/// multiplication per `w + 1` exponent bits. Exponents of up to 23 bits (RSA
/// verification's `e = 65537`) run as plain square-and-multiply.
fn window_width(bits: usize) -> usize {
    match bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=239 => 4,
        240..=671 => 5,
        _ => 6,
    }
}

/// `out = v - n` if `v >= n`, else `out = v`, where `v = top * R + t < 2n`.
#[inline(always)]
fn sub_if_ge(out: &mut [u64], t: &[u64], top: u64, n: &[u64]) {
    if top == 0 && limbs_lt(t, n) {
        out.copy_from_slice(t);
        return;
    }
    let mut borrow = 0u64;
    for j in 0..n.len() {
        let (d1, b1) = t[j].overflowing_sub(n[j]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[j] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
}

/// Lexicographic (numeric) `a < b` over equal-length little-endian limbs.
fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

impl Ubig {
    /// Computes `self^exp mod modulus`: [`Montgomery::pow`] for an odd
    /// modulus, binary square-and-reduce otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn pow_mod(&self, exp: &Ubig, modulus: &Ubig) -> Ubig {
        assert!(!modulus.is_zero(), "pow_mod: zero modulus");
        if modulus.is_one() {
            return Ubig::zero();
        }
        if let Some(ctx) = Montgomery::new(modulus) {
            return ctx.pow(self, exp);
        }
        // Even modulus fallback (not used by RSA; kept for completeness).
        let mut result = Ubig::one();
        let mut b = self.rem(modulus);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul(&b).rem(modulus);
            }
            if i + 1 < exp.bit_len() {
                b = b.mul(&b).rem(modulus);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn u(v: u64) -> Ubig {
        Ubig::from_u64(v)
    }

    /// A context for an odd modulus of exactly `k` limbs.
    fn odd_modulus(rng: &mut StdRng, k: usize) -> Montgomery {
        let mut n = Ubig::random_bits(rng, 64 * k);
        n.set_bit(0);
        Montgomery::new(&n).unwrap()
    }

    /// `x` as the `k` limbs the kernels take.
    fn padded(ctx: &Montgomery, x: &Ubig) -> Vec<u64> {
        let mut limbs = x.limbs.clone();
        limbs.resize(ctx.r2.len(), 0);
        limbs
    }

    fn scratch(ctx: &Montgomery) -> Vec<u64> {
        vec![0; 2 * ctx.r2.len()]
    }

    /// `x * R mod n` for `x < n`.
    fn to_mont(ctx: &Montgomery, x: &Ubig) -> Vec<u64> {
        let mut xm = padded(ctx, x);
        ctx.mul_into::<0>(&mut xm, &ctx.r2, &mut scratch(ctx));
        xm
    }

    /// `xm * R^-1 mod n`.
    fn from_mont(ctx: &Montgomery, xm: &[u64]) -> Ubig {
        let mut t = scratch(ctx);
        t[..xm.len()].copy_from_slice(xm);
        let mut out = xm.to_vec();
        ctx.redc::<0>(&mut out, &mut t);
        Ubig::from_limbs(out)
    }

    #[test]
    fn mont_roundtrip() {
        let n = Ubig::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let ctx = Montgomery::new(&n).unwrap();
        let x = Ubig::from_hex("123456789abcdef").unwrap();
        let xm = to_mont(&ctx, &x);
        assert_eq!(from_mont(&ctx, &xm), x);
    }

    #[test]
    fn mont_rejects_even_or_trivial() {
        assert!(Montgomery::new(&u(10)).is_none());
        assert!(Montgomery::new(&Ubig::one()).is_none());
        assert!(Montgomery::new(&Ubig::zero()).is_none());
    }

    #[test]
    fn mont_mul_matches_plain() {
        let n = Ubig::from_hex("d3c21bcecceda1000003").unwrap(); // odd
        let ctx = Montgomery::new(&n).unwrap();
        let a = Ubig::from_hex("1234567890abcdef12345").unwrap().rem(&n);
        let b = Ubig::from_hex("fedcba098765432112345").unwrap().rem(&n);
        let mut prod = to_mont(&ctx, &a);
        ctx.mul_into::<0>(&mut prod, &to_mont(&ctx, &b), &mut scratch(&ctx));
        assert_eq!(from_mont(&ctx, &prod), a.mul(&b).rem(&n));
    }

    #[test]
    fn sqr_into_matches_mul_into() {
        let mut rng = StdRng::seed_from_u64(14);
        for k in 1..=33 {
            let ctx = odd_modulus(&mut rng, k);
            let n = ctx.modulus();
            let operands = [
                Ubig::zero(),
                Ubig::one(),
                n.sub(&Ubig::one()),
                // Every bit below the modulus's top bit.
                Ubig::one().shl(n.bit_len() - 1).sub(&Ubig::one()),
                Ubig::random_below(&mut rng, n),
            ];
            for a in &operands {
                let a = padded(&ctx, a);
                let (mut squared, mut multiplied) = (a.clone(), a.clone());
                ctx.sqr_into::<0>(&mut squared, &mut scratch(&ctx));
                ctx.mul_into::<0>(&mut multiplied, &a, &mut scratch(&ctx));
                assert_eq!(squared, multiplied, "k={k} a={a:x?}");
                // Both are a^2 / R: as Montgomery forms they stand for (a/R)^2.
                let plain = from_mont(&ctx, &a);
                assert_eq!(from_mont(&ctx, &squared), plain.mul(&plain).rem(n), "k={k}");
            }
        }
    }

    #[test]
    fn public_exponent_runs_without_a_table() {
        assert_eq!(window_width(Ubig::from_u64(65537).bit_len()), 1);
    }

    #[test]
    fn pow_mod_small_cases() {
        assert_eq!(u(7).pow_mod(&u(5), &u(13)), u(11));
        assert_eq!(u(2).pow_mod(&u(10), &u(1000)), u(24));
        assert_eq!(u(5).pow_mod(&Ubig::zero(), &u(7)), Ubig::one());
        assert_eq!(u(0).pow_mod(&u(5), &u(7)), Ubig::zero());
        assert_eq!(u(5).pow_mod(&u(5), &Ubig::one()), Ubig::zero());
    }

    #[test]
    fn pow_mod_even_modulus() {
        // 3^7 mod 20 = 2187 mod 20 = 7
        assert_eq!(u(3).pow_mod(&u(7), &u(20)), u(7));
        // 7^128 mod 2^64: square-and-reduce path over an even modulus.
        let m = Ubig::one().shl(64);
        let got = u(7).pow_mod(&u(128), &m);
        let mut expect = 1u64;
        for _ in 0..128 {
            expect = expect.wrapping_mul(7);
        }
        assert_eq!(got, Ubig::from_u64(expect));
    }

    #[test]
    fn fermat_little_theorem() {
        // p prime, a^(p-1) = 1 mod p.
        let p = Ubig::from_hex("ffffffffffffffc5").unwrap(); // largest 64-bit prime
        for a in [2u64, 3, 65537, 0xdeadbeef] {
            assert_eq!(u(a).pow_mod(&p.sub(&Ubig::one()), &p), Ubig::one(), "a={a}");
        }
    }

    #[test]
    fn pow_mod_large_operands() {
        // Cross-check the windowed Montgomery path against naive
        // square-and-multiply with explicit reduction.
        let n = Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
            .unwrap();
        let n = if n.is_even() { n.add(&Ubig::one()) } else { n };
        let b = Ubig::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let e = Ubig::from_hex("10001").unwrap();
        let fast = b.pow_mod(&e, &n);
        // Naive reference.
        let mut acc = Ubig::one();
        for i in (0..e.bit_len()).rev() {
            acc = acc.mul(&acc).rem(&n);
            if e.bit(i) {
                acc = acc.mul(&b).rem(&n);
            }
        }
        assert_eq!(fast, acc);
    }
}
