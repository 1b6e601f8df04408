//! RSA signatures (PKCS#1 v1.5) over the in-crate bignum.
//!
//! The Strong WORM design signs with three strength tiers: 512-bit
//! *short-lived* keys for burst witnessing, and 1024/2048-bit *permanent*
//! keys (`s` for metadata/data signatures, `d` for deletion proofs). The
//! relative signing costs across these widths — which drive the paper's
//! deferred-strength optimization — emerge naturally from the O(k³)
//! modular exponentiation.
//!
//! A private key of 1024 bits or more has three primes, one below has two
//! (multi-prime RSA, RFC 8017 §3.2): the private operation raises one CRT
//! residue a prime and recombines them by Garner's method. The public key
//! `(n, e)` and every signature are what a two-prime key of that `n`
//! gives.
//!
//! There are two engines. [`Montgomery::pow`] is the scalar one: it runs on
//! every CPU and key width and is the reference the tests compare against.
//! Where the CPU has AVX-512 IFMA, a key also carries its moduli prepared
//! for `shani::ifma52`, whose vectors hold eight lanes of 52-bit digits.
//! Which kernel a call takes follows from the entry, the key width and how
//! many numbers it raises:
//!
//! | entry | numbers | 512 bits | 1024 bits | 2048 bits |
//! |---|---|---|---|---|
//! | [`RsaPrivateKey::sign_many`] ([`RsaPrivateKey::sign`] is one message), every residue of every message, eight at a time | 8 CRT residues | `pow8`: 5 digits, a lane each, windows | `pow8`: 7 digits | `pow8`: 14 digits |
//! | the same, a last pass | 1 to 7 residues | four or fewer: `pow4`, a lane each, squares beside; more: `pow8` | `pow8` | `pow8` |
//! | [`RsaPublicKey::verify_pair_digests`] | 2 signatures | `pow_short`: two lanes each | `pow_short`: four lanes each | `pow_short`: four lanes each |
//! | [`RsaPublicKey::verify_digest`] | 1 signature | scalar (ten digits do not split in four) | `pow_short`: four lanes | `pow_short`: eight lanes |
//!
//! `verify` and `verify_pair` hash, then take the digest entries: there is
//! one check, and it compares `s^e mod n` with the encoding a SHA-256
//! digest has where the number's limbs hold it. A shape that leaves lanes
//! over fills them with numbers whose results are dropped. Which engine
//! runs is fixed when the key is built, from the CPU and the width alone;
//! PKCS#1 v1.5 is deterministic, so both give the same bytes and the same
//! verdicts. Every key's modulus is odd and above 1 —
//! [`RsaPublicKey::from_bytes`] refuses any other — so the scalar engine
//! serves every key the lanes do not.

use std::fmt;

use shani::ifma52;

use crate::bignum::{Montgomery, Ubig};
use crate::digest::Digest;
use crate::error::CryptoError;
use crate::Sha256;

/// Hash algorithm used inside the PKCS#1 v1.5 encoding: SHA-256, the one
/// every signature in this stack is made over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HashAlg {
    /// SHA-256.
    Sha256,
}

impl HashAlg {
    /// DER-encoded `DigestInfo` prefix (algorithm identifier).
    fn digest_info_prefix(self) -> &'static [u8] {
        match self {
            HashAlg::Sha256 => &[
                0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
                0x01, 0x05, 0x00, 0x04, 0x20,
            ],
        }
    }

    /// Digest of `msg` under this algorithm.
    pub fn hash(self, msg: &[u8]) -> Vec<u8> {
        match self {
            HashAlg::Sha256 => Sha256::digest(msg),
        }
    }

    /// Length of this algorithm's digest in bytes.
    fn digest_len(self) -> usize {
        match self {
            HashAlg::Sha256 => Sha256::OUT_LEN,
        }
    }
}

/// RSA public key `(n, e)`, with what every use of it needs precomputed.
///
/// Equality and `Debug` are those of `(n, e)`.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: Ubig,
    e: Ubig,
    /// Exponentiation context for `n`, the scalar engine. Boxed because
    /// keys travel by value inside response enums.
    ctx: Box<Montgomery>,
    /// `n` prepared for the lane engine, which [`Self::verify`] and
    /// [`Self::verify_pair`] use: present for an `n` 512, 1024 or 2048 bits
    /// wide with a one-limb `e`, on a CPU that has the engine.
    lanes: Option<Box<ifma52::Modulus>>,
    fingerprint: [u8; 8],
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
}

/// RSA private key with CRT parameters: two primes below 1024 bits,
/// three from 1024 up.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: Ubig,
    /// In the order Garner's recombination takes them.
    primes: Vec<Prime>,
}

/// One prime `p_i` of a private key and what the CRT needs of it.
#[derive(Clone)]
struct Prime {
    /// Exponentiation context for `p_i`, the scalar engine; it holds `p_i`.
    ctx: Montgomery,
    /// `d mod (p_i - 1)`.
    exp: Ubig,
    /// The product of the primes before `p_i` (1 for the first).
    below: Ubig,
    /// Garner's coefficient: the inverse of `below` mod `p_i`.
    coeff: Ubig,
    /// `p_i` prepared for the lane engine; `None` on a CPU without it or
    /// for a width it has no kernel for.
    lanes: Option<ifma52::Modulus>,
}

/// Shows the public half only: a log line must not carry `d` or a prime.
impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPrivateKey")
            .field("modulus_bits", &self.public.modulus_bits())
            .field("fingerprint", &self.public.fingerprint)
            .finish_non_exhaustive()
    }
}

impl RsaPublicKey {
    /// The key `(n, e)`; `None` unless `n` is odd and above 1, which every
    /// RSA modulus is and the exponentiation context needs.
    fn new(n: Ubig, e: Ubig) -> Option<Self> {
        let ctx = Box::new(Montgomery::new(&n)?);
        let mut h = Sha256::new();
        h.update(&n.to_bytes_be());
        h.update(&e.to_bytes_be());
        let mut fingerprint = [0u8; 8];
        fingerprint.copy_from_slice(&h.finalize()[..8]);
        // The widths whose rows in the engine table (EXPERIMENTS.md) show
        // lanes faster than the scalar engine: all three this repository
        // signs with. At 512 bits that is the pair alone.
        let digits = match n.bit_len() {
            512 => Some(10),
            1024 => Some(20),
            2048 => Some(40),
            _ => None,
        };
        let lanes = digits
            .filter(|_| ifma52::available() && e.bit_len() <= 64)
            .and_then(|digits| lane_modulus(&n, digits));
        Some(RsaPublicKey {
            ctx,
            lanes: lanes.map(Box::new),
            n,
            e,
            fingerprint,
        })
    }

    /// Modulus width in bits.
    pub fn modulus_bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Modulus width in bytes (signature length).
    pub fn modulus_bytes(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// The modulus `n`.
    pub fn n(&self) -> &Ubig {
        &self.n
    }

    /// The public exponent `e`.
    pub fn e(&self) -> &Ubig {
        &self.e
    }

    /// Short stable identifier: first 8 bytes of `SHA-256(n || e)`.
    pub fn fingerprint(&self) -> [u8; 8] {
        self.fingerprint
    }

    /// Verifies a PKCS#1 v1.5 signature over `msg`: hashes it, then
    /// [`Self::verify_digest`].
    ///
    /// Returns `false` for any malformed, truncated, or mismatching
    /// signature — verification never panics on attacker-controlled input.
    pub fn verify(&self, msg: &[u8], sig: &[u8], alg: HashAlg) -> bool {
        self.verify_digest(&alg.hash(msg), sig, alg)
    }

    /// Verifies a PKCS#1 v1.5 signature over a message whose `alg` digest
    /// is `digest`: the check [`Self::verify`] makes once it has hashed,
    /// for a caller that already holds the digest. A digest of the wrong
    /// length is `false`. The exponentiation spreads over the lanes its
    /// digits split into where the key carries them: four at 1024 bits,
    /// eight at 2048.
    pub fn verify_digest(&self, digest: &[u8], sig: &[u8], alg: HashAlg) -> bool {
        // `pow_short` has a one-number kernel at 20 and 40 digits only: a
        // 512-bit key's ten do not split in four, so it goes scalar.
        let one = |n: &&ifma52::Modulus| matches!(n.digits(), 20 | 40);
        if let Some(n) = self.lanes.as_deref().filter(one) {
            let Some(s) = self.signature_limbs(sig) else {
                return false;
            };
            let s = &s[..self.n.limbs.len()];
            if let Some([em]) = ifma52::pow_short([n], [s], [self.e.low_u64()]) {
                return self.is_encoding_of(&em, digest, alg);
            }
        }
        let Some(s) = self.signature_value(sig) else {
            return false;
        };
        let em = self.ctx.pow(&s, &self.e);
        self.is_encoding_of(&em.limbs, digest, alg)
    }

    /// Verifies two PKCS#1 v1.5 signatures, each under its own key: exactly
    /// `[keys[0].verify(msgs[0], sigs[0], alg), keys[1].verify(msgs[1],
    /// sigs[1], alg)]`. Hashes both, then [`Self::verify_pair_digests`].
    pub fn verify_pair(
        keys: [&RsaPublicKey; 2],
        msgs: [&[u8]; 2],
        sigs: [&[u8]; 2],
        alg: HashAlg,
    ) -> [bool; 2] {
        let digests = msgs.map(|msg| alg.hash(msg));
        Self::verify_pair_digests(keys, [&digests[0], &digests[1]], sigs, alg)
    }

    /// [`Self::verify_digest`] for two signatures, each under its own key:
    /// exactly `[keys[0].verify_digest(digests[0], sigs[0], alg),
    /// keys[1].verify_digest(digests[1], sigs[1], alg)]`, and where both
    /// keys carry lanes of one width the two exponentiations are one pass,
    /// four lanes each (two at 512 bits). A half that is malformed is
    /// `false` and costs the other one `verify_digest`.
    pub fn verify_pair_digests(
        keys: [&RsaPublicKey; 2],
        digests: [&[u8]; 2],
        sigs: [&[u8]; 2],
        alg: HashAlg,
    ) -> [bool; 2] {
        Self::verify_pair_in_lanes(keys, digests, sigs, alg)
            .unwrap_or_else(|| [0, 1].map(|i| keys[i].verify_digest(digests[i], sigs[i], alg)))
    }

    /// [`Self::verify_pair_digests`] where both keys carry lanes of one
    /// width and both signatures are values the lanes may be given; `None`
    /// otherwise.
    fn verify_pair_in_lanes(
        keys: [&RsaPublicKey; 2],
        digests: [&[u8]; 2],
        sigs: [&[u8]; 2],
        alg: HashAlg,
    ) -> Option<[bool; 2]> {
        let [a, b] = [keys[0].lanes.as_deref()?, keys[1].lanes.as_deref()?];
        let s = [
            keys[0].signature_limbs(sigs[0])?,
            keys[1].signature_limbs(sigs[1])?,
        ];
        // Keys of different widths share no pass: `None`.
        let [em0, em1] = ifma52::pow_short(
            [a, b],
            [0, 1].map(|i| &s[i][..keys[i].n.limbs.len()]),
            [keys[0].e.low_u64(), keys[1].e.low_u64()],
        )?;
        Some([
            keys[0].is_encoding_of(&em0, digests[0], alg),
            keys[1].is_encoding_of(&em1, digests[1], alg),
        ])
    }

    /// The number a signature encodes, if it has this key's length and is
    /// below `n` — what RFC 8017 §8.2.2 requires before any arithmetic.
    fn signature_value(&self, sig: &[u8]) -> Option<Ubig> {
        let s = Ubig::from_bytes_be(self.of_key_length(sig)?);
        (s < self.n).then_some(s)
    }

    /// [`Self::signature_value`] as the lanes take it, for a key that
    /// carries them: little-endian limbs in a fixed array, so parsing
    /// allocates nothing. The value fits the first `n.limbs.len()`.
    fn signature_limbs(&self, sig: &[u8]) -> Option<[u64; ifma52::MAX_LIMBS]> {
        let mut s = [0u64; ifma52::MAX_LIMBS];
        for (limb, bytes) in s.iter_mut().zip(self.of_key_length(sig)?.rchunks(8)) {
            *limb = bytes.iter().fold(0, |v, &b| v << 8 | u64::from(b));
        }
        // `s < n`, compared from the top limb down.
        let low = s.get(..self.n.limbs.len())?;
        low.iter().rev().lt(self.n.limbs.iter().rev()).then_some(s)
    }

    /// `sig` if it has this key's length in bytes, the first check RFC
    /// 8017 §8.2.2 makes: both signature parsers start here.
    fn of_key_length<'s>(&self, sig: &'s [u8]) -> Option<&'s [u8]> {
        (sig.len() == self.modulus_bytes()).then_some(sig)
    }

    /// Whether the number whose little-endian limbs are `em` (`s^e mod n`)
    /// is, byte for byte, the EMSA-PKCS1-v1_5 encoding at this key's
    /// length `k` of a message whose `alg` digest is `digest`:
    /// `0x00 0x01`, then `0xFF` up to the `0x00` before `DigestInfo`, then
    /// the digest. Each byte is read off the limbs where it lies, so no
    /// encoding is built.
    fn is_encoding_of(&self, em: &[u64], digest: &[u8], alg: HashAlg) -> bool {
        let k = self.modulus_bytes();
        let prefix = alg.digest_info_prefix();
        let t_len = prefix.len() + digest.len();
        if digest.len() != alg.digest_len() || k < t_len + 11 {
            return false;
        }
        // Byte `i` of the number written as `k` big-endian bytes.
        let byte = |i: usize| {
            let from_low = k - 1 - i;
            em.get(from_low / 8)
                .map_or(0, |limb| (limb >> (8 * (from_low % 8))) as u8)
        };
        // `0x00 0x01` and nothing above `k` bytes: the number is `0x01`
        // followed by `k - 2` bytes.
        let top = em.iter().enumerate().rev().find(|(_, &limb)| limb != 0);
        let bits = top.map_or(0, |(t, limb)| 64 * t + 64 - limb.leading_zeros() as usize);
        let block_type = bits == 8 * (k - 2) + 1;
        let separator = k - t_len - 1;
        let padding = (2..separator).all(|i| byte(i) == 0xff) && byte(separator) == 0x00;
        let tail = prefix.iter().chain(digest);
        let digest_info = tail.zip(separator + 1..k).all(|(&want, i)| byte(i) == want);
        block_type && padding && digest_info
    }

    /// This key as built on a CPU without the lane engine.
    #[cfg(test)]
    fn scalar_only(&self) -> Self {
        RsaPublicKey {
            lanes: None,
            ..self.clone()
        }
    }

    /// Serializes as `len(n) || n || len(e) || e` (u32-BE length prefixes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the [`RsaPublicKey::to_bytes`] format.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] on a bad length prefix, trailing bytes, a
    /// zero exponent, or a modulus that is not odd and above 1 (no RSA
    /// modulus is even).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let (n, rest) = read_len_prefixed(bytes)?;
        let (e, rest) = read_len_prefixed(rest)?;
        if !rest.is_empty() {
            return Err(CryptoError::Malformed("trailing bytes in public key"));
        }
        let (n, e) = (Ubig::from_bytes_be(n), Ubig::from_bytes_be(e));
        if e.is_zero() {
            return Err(CryptoError::Malformed("zero exponent"));
        }
        RsaPublicKey::new(n, e).ok_or(CryptoError::Malformed("modulus not odd and above 1"))
    }
}

#[expect(clippy::expect_used, reason = "bytes.len() >= 4 checked above")]
fn read_len_prefixed(bytes: &[u8]) -> Result<(&[u8], &[u8]), CryptoError> {
    if bytes.len() < 4 {
        return Err(CryptoError::Malformed("short length prefix"));
    }
    let len = u32::from_be_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if bytes.len() < 4 + len {
        return Err(CryptoError::Malformed("length prefix exceeds buffer"));
    }
    Ok((&bytes[4..4 + len], &bytes[4 + len..]))
}

impl RsaPrivateKey {
    /// Generates a fresh key pair with a modulus of exactly `bits` bits and
    /// public exponent 65537: three primes from 1024 bits up (342/341/341
    /// bits at 1024, 683/683/682 at 2048), two below.
    ///
    /// Three primes of a third of the width each leave the factoring by
    /// the number field sieve, which does not care how many primes there
    /// are, the cheapest attack at 1024 and 2048 bits; a 512-bit modulus
    /// keeps two, since ECM would find a 171-bit factor.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64` or `bits` is odd.
    #[expect(
        clippy::expect_used,
        reason = "the inverse of e exists (gcd(e, phi) == 1 checked), each prime is coprime to the product of the others (distinct primes), and gen_prime returns odd primes of at least bits / 2 >= 32 bits below 1024 and bits / 3 >= 341 from there, so n is odd"
    )]
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 64, "modulus below 64 bits cannot encode a digest");
        assert!(bits.is_multiple_of(2), "modulus width must be even");
        let e = Ubig::from_u64(65537);
        let one = Ubig::one();
        let count = if bits >= 1024 { 3 } else { 2 };
        loop {
            // The first `bits % count` primes take a bit more.
            let mut primes: Vec<Ubig> = Vec::with_capacity(count);
            for i in 0..count {
                let width = bits / count + usize::from(i < bits % count);
                let prime = loop {
                    let prime = Ubig::gen_prime(rng, width);
                    if !primes.contains(&prime) {
                        break prime;
                    }
                };
                primes.push(prime);
            }
            let n = primes.iter().fold(one.clone(), |n, p| n.mul(p));
            if n.bit_len() != bits {
                continue;
            }
            let phi = primes
                .iter()
                .fold(one.clone(), |phi, p| phi.mul(&p.sub(&one)));
            if !e.gcd(&phi).is_one() {
                continue;
            }
            let d = e.mod_inverse(&phi).expect("gcd(e, phi) == 1");
            let mut below = one.clone();
            let primes = primes
                .iter()
                .map(|p| {
                    let next = below.mul(p);
                    Prime {
                        ctx: Montgomery::new(p).expect("odd prime"),
                        exp: d.rem(&p.sub(&one)),
                        coeff: below.rem(p).mod_inverse(p).expect("distinct primes"),
                        below: std::mem::replace(&mut below, next),
                        lanes: prime_lanes(p),
                    }
                })
                .collect();
            return RsaPrivateKey {
                public: RsaPublicKey::new(n, e).expect("odd modulus"),
                d,
                primes,
            };
        }
    }

    /// The corresponding public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Signs `msg` with PKCS#1 v1.5.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::ModulusTooSmall`] if the modulus cannot hold
    /// the `DigestInfo` encoding for `alg`.
    pub fn sign(&self, msg: &[u8], alg: HashAlg) -> Result<Vec<u8>, CryptoError> {
        let mut sigs = self.sign_many(&[msg], alg)?;
        Ok(sigs.pop().unwrap_or_default())
    }

    /// Signs each of `msgs` with PKCS#1 v1.5: byte for byte one
    /// [`Self::sign`] each, in order. Where the key carries lanes, every
    /// CRT residue of every message is raised in passes of eight lanes, so
    /// a residue shares its pass with those of other messages.
    ///
    /// # Errors
    ///
    /// As [`RsaPrivateKey::sign`], for any of the messages.
    pub fn sign_many(&self, msgs: &[&[u8]], alg: HashAlg) -> Result<Vec<Vec<u8>>, CryptoError> {
        let k = self.public.modulus_bytes();
        let encoded = msgs
            .iter()
            .map(|msg| emsa_pkcs1_v15(msg, k, alg).map(|em| Ubig::from_bytes_be(&em)))
            .collect::<Result<Vec<_>, _>>()?;
        let sigs = match self.lane_powers(&encoded) {
            Some(powers) => {
                let mut powers = powers.into_iter();
                let mut next = || self.crt_combine(powers.by_ref().take(self.primes.len()));
                encoded
                    .iter()
                    .map(|_| next().to_bytes_be_padded(k))
                    .collect()
            }
            None => encoded
                .iter()
                .map(|m| self.raw_decrypt(m).to_bytes_be_padded(k))
                .collect(),
        };
        Ok(sigs)
    }

    /// `m mod p_i ^ (d mod (p_i - 1))` for each value `m` of `ms` and each
    /// prime `p_i`, in that order: in the lanes, eight residues a pass of
    /// [`ifma52::pow8`], a last four or fewer of 5 digits in
    /// [`ifma52::pow4`]. `None` where the key carries no lanes.
    fn lane_powers(&self, ms: &[Ubig]) -> Option<Vec<Ubig>> {
        let digits = self.primes.first()?.lanes.as_ref()?.digits();
        let mut residues = Vec::with_capacity(ms.len() * self.primes.len());
        residues.extend(
            ms.iter()
                .flat_map(|m| self.primes.iter().map(|prime| m.rem(prime.ctx.modulus()))),
        );
        for (pass, chunk) in residues.chunks_mut(8).enumerate() {
            if chunk.len() <= 4 && digits == 5 {
                self.raise(ifma52::pow4, 8 * pass, chunk)?;
            } else {
                self.raise(ifma52::pow8, 8 * pass, chunk)?;
            }
        }
        Some(residues)
    }

    /// Raises `chunk`, the residues from number `first` of
    /// [`Self::lane_powers`]'s order on, in place through `pow`: residue
    /// `first + l` in lane `l`, under its prime's modulus and exponent.
    /// Lanes past the chunk's end raise zero. `None` where a prime carries
    /// no lanes.
    fn raise<const L: usize>(
        &self,
        pow: LanePow<L>,
        first: usize,
        chunk: &mut [Ubig],
    ) -> Option<()> {
        let prime = |l: usize| &self.primes[(first + l) % self.primes.len()];
        let mut moduli = [prime(0).lanes.as_ref()?; L];
        for (l, modulus) in moduli.iter_mut().enumerate() {
            *modulus = prime(l).lanes.as_ref()?;
        }
        let powers = pow(
            moduli,
            std::array::from_fn(|l| chunk.get(l).map_or(&[][..], |r| &r.limbs[..])),
            std::array::from_fn(|l| &prime(l).exp.limbs[..]),
        )?;
        // Each power in its residue's limbs: a prime's worth, no more.
        for (l, (residue, power)) in chunk.iter_mut().zip(powers).enumerate() {
            residue.limbs.clear();
            residue
                .limbs
                .extend_from_slice(&power[..prime(l).ctx.modulus().limbs.len()]);
            residue.normalize();
        }
        Some(())
    }

    /// RSA private operation via the Chinese Remainder Theorem, on the
    /// scalar engine: one exponentiation a prime.
    fn raw_decrypt(&self, m: &Ubig) -> Ubig {
        self.crt_combine(self.primes.iter().map(|prime| prime.ctx.pow(m, &prime.exp)))
    }

    /// Garner's recombination: the value below `n` that is residue `i`
    /// mod prime `i`, for residues given in the primes' order. It starts
    /// from the first residue; at each prime after, `x`, below the product
    /// of the primes before, gains that product times
    /// `(residue - x) * coeff mod p_i`.
    fn crt_combine(&self, residues: impl IntoIterator<Item = Ubig>) -> Ubig {
        let mut residues = residues.into_iter();
        let mut x = residues.next().unwrap_or_default();
        for (prime, m) in self.primes.iter().skip(1).zip(residues) {
            let p = prime.ctx.modulus();
            let x_mod_p = x.rem(p);
            let diff = if m >= x_mod_p {
                m.sub(&x_mod_p)
            } else {
                m.add(p).sub(&x_mod_p)
            };
            let h = prime.coeff.mul(&diff).rem(p);
            x = x.add(&prime.below.mul(&h));
        }
        x
    }

    /// The private exponent (used by self-consistency tests).
    pub fn d(&self) -> &Ubig {
        &self.d
    }

    /// This key as built on a CPU without the lane engine.
    #[cfg(test)]
    fn scalar_only(&self) -> Self {
        let mut key = self.clone();
        for prime in &mut key.primes {
            prime.lanes = None;
        }
        key
    }
}

/// An entry of the lane engine that raises `L` numbers at once.
type LanePow<const L: usize> =
    fn([&ifma52::Modulus; L], [&[u64]; L], [&[u64]; L]) -> Option<[[u64; ifma52::MAX_LIMBS]; L]>;

/// `prime` prepared for the lane engine, if this CPU has it and the
/// prime is that of a 512, 1024 or 2048-bit key (5, 7 or 14 digits of 52
/// bits, at least two bits to spare).
fn prime_lanes(prime: &Ubig) -> Option<ifma52::Modulus> {
    let digits = match prime.bit_len() {
        256 => 5,
        341 | 342 => 7,
        682 | 683 => 14,
        _ => return None,
    };
    lane_modulus(prime, digits)
}

/// `n` prepared for lanes of `digits` digits, if this CPU has the engine
/// and `n` is odd and leaves two of their bits to spare.
fn lane_modulus(n: &Ubig, digits: usize) -> Option<ifma52::Modulus> {
    // R^2 mod n for R = 2^(52 digits), which the engine cannot divide for.
    let r2 = Ubig::one().shl(2 * 52 * digits).rem(n);
    ifma52::Modulus::new(digits, &n.limbs, &r2.limbs)
}

/// EMSA-PKCS1-v1_5 encoding: `0x00 0x01 0xFF.. 0x00 DigestInfo H(m)`.
fn emsa_pkcs1_v15(msg: &[u8], k: usize, alg: HashAlg) -> Result<Vec<u8>, CryptoError> {
    let h = alg.hash(msg);
    let prefix = alg.digest_info_prefix();
    let t_len = prefix.len() + h.len();
    if k < t_len + 11 {
        return Err(CryptoError::ModulusTooSmall {
            need: t_len + 11,
            have: k,
        });
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(prefix);
    em.extend_from_slice(&h);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// 512-bit key shared across tests (keygen is the slow part).
    fn test_key() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(42);
            RsaPrivateKey::generate(&mut rng, 512)
        })
    }

    #[test]
    fn keygen_properties() {
        let key = test_key();
        assert_eq!(key.public().modulus_bits(), 512);
        assert_eq!(key.public().modulus_bytes(), 64);
        assert_key_is_consistent(key);
    }

    /// The primes multiply to `n`; `e * d ≡ 1 mod φ`; each prime carries
    /// `d mod (p_i - 1)`, the product of the primes before it and its
    /// inverse.
    fn assert_key_is_consistent(key: &RsaPrivateKey) {
        let one = Ubig::one();
        let (mut n, mut phi) = (one.clone(), one.clone());
        for prime in &key.primes {
            let p = prime.ctx.modulus();
            assert_eq!(prime.exp, key.d().rem(&p.sub(&one)));
            assert_eq!(prime.below, n);
            assert_eq!(prime.coeff.mul(&n).rem(p), one);
            n = n.mul(p);
            phi = phi.mul(&p.sub(&one));
        }
        assert_eq!(n, *key.public().n());
        assert_eq!(key.public().e().mul(key.d()).rem(&phi), one);
    }

    #[test]
    fn keygen_draws_three_primes_from_1024_bits_and_two_below() {
        let k768 = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(768), 768);
        for key in lane_width_keys().iter().chain([&k768]) {
            let bits = key.public().modulus_bits();
            let widths: Vec<usize> = key
                .primes
                .iter()
                .map(|p| p.ctx.modulus().bit_len())
                .collect();
            let want: &[usize] = match bits {
                512 => &[256, 256],
                768 => &[384, 384],
                1024 => &[342, 341, 341],
                _ => &[683, 683, 682],
            };
            assert_eq!(widths, want, "{bits}");
            // Distinct too: a prime that divides the product before it has
            // no coefficient.
            assert_key_is_consistent(key);
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let sig = key.sign(b"compliance record #1", HashAlg::Sha256).unwrap();
        assert_eq!(sig.len(), 64);
        assert!(key
            .public()
            .verify(b"compliance record #1", &sig, HashAlg::Sha256));
    }

    #[test]
    fn verify_rejects_tampering() {
        let key = test_key();
        let sig = key.sign(b"original", HashAlg::Sha256).unwrap();
        assert!(!key.public().verify(b"tampered", &sig, HashAlg::Sha256));
        // Flip one bit of the signature.
        let mut bad = sig.clone();
        bad[10] ^= 1;
        assert!(!key.public().verify(b"original", &bad, HashAlg::Sha256));
        // Wrong length.
        assert!(!key
            .public()
            .verify(b"original", &sig[..63], HashAlg::Sha256));
        assert!(!key.public().verify(b"original", &[], HashAlg::Sha256));
    }

    #[test]
    fn verify_rejects_oversized_signature_value() {
        let key = test_key();
        // s = n (>= n must be rejected before exponentiation).
        let s = key.public().n().to_bytes_be_padded(64);
        assert!(!key.public().verify(b"m", &s, HashAlg::Sha256));
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let key = test_key();
        let m = Ubig::from_hex("123456789abcdef0aa55").unwrap();
        let crt = key.raw_decrypt(&m);
        let plain = key.public().ctx.pow(&m, key.d());
        assert_eq!(crt, plain);
    }

    #[test]
    fn every_key_width_signs_verifies_and_matches_plain_exponentiation() {
        for bits in [512usize, 1024, 2048] {
            let mut rng = StdRng::seed_from_u64(bits as u64);
            let key = RsaPrivateKey::generate(&mut rng, bits);
            let sig = key.sign(b"width", HashAlg::Sha256).unwrap();
            assert_eq!(sig.len(), bits / 8);
            assert!(key.public().verify(b"width", &sig, HashAlg::Sha256));
            assert!(!key.public().verify(b"widths", &sig, HashAlg::Sha256));
            let m =
                Ubig::from_bytes_be(&emsa_pkcs1_v15(b"width", bits / 8, HashAlg::Sha256).unwrap());
            assert_eq!(key.raw_decrypt(&m), key.public().ctx.pow(&m, key.d()));
            assert_eq!(Ubig::from_bytes_be(&sig), key.raw_decrypt(&m));
        }
    }

    /// The scalar signature, computed without `sign` or the CRT: EMSA
    /// encoding, then `m^d mod n` in one `Montgomery::pow`. The oracle for
    /// both engines.
    fn scalar_signature(key: &RsaPrivateKey, msg: &[u8]) -> Vec<u8> {
        let k = key.public().modulus_bytes();
        let m = Ubig::from_bytes_be(&emsa_pkcs1_v15(msg, k, HashAlg::Sha256).unwrap());
        let s = key.public().ctx.pow(&m, key.d());
        assert_eq!(s, key.raw_decrypt(&m));
        s.to_bytes_be_padded(k)
    }

    /// Whether every prime of the key carries the lane engine.
    fn has_lanes(key: &RsaPrivateKey) -> bool {
        key.primes.iter().all(|p| p.lanes.is_some())
    }

    /// One key per width the lanes serve, shared across tests.
    fn lane_width_keys() -> &'static [RsaPrivateKey; 3] {
        static KEYS: OnceLock<[RsaPrivateKey; 3]> = OnceLock::new();
        KEYS.get_or_init(|| {
            [512usize, 1024, 2048]
                .map(|bits| RsaPrivateKey::generate(&mut StdRng::seed_from_u64(bits as u64), bits))
        })
    }

    #[test]
    fn both_signature_parsers_take_and_refuse_the_same_signatures() {
        for key in lane_width_keys() {
            let key = key.public();
            let (k, n) = (key.modulus_bytes(), key.n());
            let mut sigs = [
                Ubig::from_u64(0),
                n.sub(&Ubig::one()),
                n.clone(),
                n.add(&Ubig::one()),
            ]
            .map(|v| v.to_bytes_be_padded(k))
            .to_vec();
            sigs.extend([vec![0xFF; k], vec![1; k - 1], vec![1; k + 1]]);
            for sig in sigs {
                let limbs = key.signature_limbs(&sig);
                let value = limbs.map(|l| Ubig::from_limbs(l.to_vec()));
                assert_eq!(value, key.signature_value(&sig), "{key:?} {sig:02x?}");
            }
        }
    }

    #[test]
    fn lanes_are_chosen_by_cpu_and_width_alone() {
        for key in lane_width_keys() {
            assert_eq!(has_lanes(key), ifma52::available(), "{key:?}");
            assert!(key.scalar_only().primes.iter().all(|p| p.lanes.is_none()));
        }
        // No kernel for these widths: the scalar engine on every CPU.
        for bits in [256usize, 768] {
            let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(bits as u64), bits);
            assert!(key.primes.iter().all(|p| p.lanes.is_none()), "{bits}");
        }
    }

    #[test]
    fn public_lanes_are_chosen_by_cpu_width_and_exponent_alone() {
        // Every width the engine table gave lanes, as built and as parsed
        // off the wire.
        for key in lane_width_keys().each_ref().map(|k| k.public()) {
            assert_eq!(key.lanes.is_some(), ifma52::available(), "{key:?}");
            assert!(key.scalar_only().lanes.is_none());
            assert_eq!(key.scalar_only(), *key);
            let parsed = RsaPublicKey::from_bytes(&key.to_bytes()).unwrap();
            assert_eq!(parsed.lanes.is_some(), ifma52::available());
        }
        let k1024 = lane_width_keys()[1].public();
        // 1024 bits, but one bit short, or under a two-limb exponent.
        let n = k1024.n();
        let mut short = n.shr(1);
        short.set_bit(0);
        let two_limb_e = Ubig::one().shl(64).add(&Ubig::one());
        assert_eq!(short.bit_len(), 1023);
        let key = |n: &Ubig, e: Ubig| RsaPublicKey::new(n.clone(), e).unwrap();
        assert!(key(&short, k1024.e().clone()).lanes.is_none());
        assert!(key(n, two_limb_e).lanes.is_none());
        let widest_e = Ubig::from_u64(u64::MAX);
        assert_eq!(key(n, widest_e).lanes.is_some(), ifma52::available());
    }

    /// What a non-IFMA machine runs, run here: `verify` and `verify_pair`
    /// over keys as built with lanes and without give the same verdicts —
    /// `verify_pair` is `[verify, verify]` — on honest signatures at every
    /// width that carries lanes, each kind of damage to either half, and
    /// keys of different widths, which share no pass.
    #[test]
    fn verify_pair_is_two_verifications_with_and_without_lanes() {
        let alg = HashAlg::Sha256;
        let [k512, k1024, k2048] = lane_width_keys();
        let other = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(1025), 1024);
        let (a, b): (&[u8], &[u8]) = (b"metadata", b"data chain");
        let honest = |key: &RsaPrivateKey, msg| key.sign(msg, alg).unwrap();
        let flipped = |mut sig: Vec<u8>, at: usize| {
            sig[at] ^= 0x40;
            sig
        };
        let n = k1024.public().n();
        // (key, message, signature, verdict) for one half.
        let halves: Vec<(&RsaPrivateKey, &[u8], Vec<u8>, bool)> = vec![
            (k1024, a, honest(k1024, a), true),
            (k1024, b, honest(k1024, b), true),
            (&other, b, honest(&other, b), true),
            (k512, a, honest(k512, a), true),
            (k512, b, flipped(honest(k512, b), 63), false),
            (k2048, a, honest(k2048, a), true),
            (k2048, b, flipped(honest(k2048, b), 0), false),
            // The other message's signature, another key's, damage at
            // either end, a byte short, a byte long, nothing.
            (k1024, a, honest(k1024, b), false),
            (k1024, a, honest(&other, a), false),
            (k1024, a, flipped(honest(k1024, a), 0), false),
            (k1024, a, flipped(honest(k1024, a), 127), false),
            (k1024, a, honest(k1024, a)[1..].to_vec(), false),
            (k1024, a, [&[0u8][..], &honest(k1024, a)].concat(), false),
            (k1024, a, Vec::new(), false),
            // Numbers not below n — n itself, n + 1 (which the lanes would
            // reduce and raise like any other), all ones — and zero.
            (k1024, a, n.to_bytes_be_padded(128), false),
            (k1024, a, n.add(&Ubig::one()).to_bytes_be_padded(128), false),
            (k1024, a, vec![0xff; 128], false),
            (k1024, a, vec![0; 128], false),
        ];
        for (key, msg, sig, ok) in &halves {
            let key = key.public();
            assert_eq!(key.verify(msg, sig, alg), *ok, "{key:?}");
            assert_eq!(key.scalar_only().verify(msg, sig, alg), *ok, "{key:?}");
        }
        for (key0, msg0, sig0, ok0) in &halves {
            for (key1, msg1, sig1, ok1) in &halves {
                let keys = [key0.public(), key1.public()];
                let scalar = keys.map(RsaPublicKey::scalar_only);
                for keys in [keys, scalar.each_ref()] {
                    let pair = RsaPublicKey::verify_pair(keys, [msg0, msg1], [sig0, sig1], alg);
                    assert_eq!(pair, [*ok0, *ok1]);
                }
            }
        }
        // One width is one pass; two widths are two `verify`s.
        let in_lanes = |keys: [&RsaPrivateKey; 2]| {
            let sigs = [honest(keys[0], a), honest(keys[1], b)];
            let keys = keys.map(RsaPrivateKey::public);
            let digests = [alg.hash(a), alg.hash(b)];
            let digests = [&digests[0][..], &digests[1][..]];
            RsaPublicKey::verify_pair_in_lanes(keys, digests, [&sigs[0], &sigs[1]], alg)
        };
        assert_eq!(in_lanes([k512, k1024]), None);
        assert_eq!(in_lanes([k1024, k2048]), None);
        for keys in [[k512, k512], [k1024, &other], [k2048, k2048]] {
            assert_eq!(in_lanes(keys), ifma52::available().then_some([true; 2]));
        }
        // The lanes' exponentiations on random values below n, which no
        // honest signer produces, as a pair and alone, against the scalar
        // engine.
        let mut rng = StdRng::seed_from_u64(0x1f3a);
        for key in lane_width_keys().each_ref().map(RsaPrivateKey::public) {
            let Some(lanes) = key.lanes.as_deref() else {
                continue;
            };
            let (n, e) = (key.n(), key.e());
            let ctx = Montgomery::new(n).unwrap();
            for _ in 0..8 {
                let values = [0, 1].map(|_| Ubig::random_bits(&mut rng, n.bit_len()).rem(n));
                let want = values.each_ref().map(|s| ctx.pow(s, e));
                let limbs = values.each_ref().map(|s| &s.limbs[..]);
                let got = ifma52::pow_short([lanes; 2], limbs, [e.low_u64(); 2]).unwrap();
                assert_eq!(
                    got.map(|l| Ubig::from_limbs(l.to_vec())),
                    want,
                    "{key:?} pair"
                );
                // 512 bits has no one-number kernel: `verify` is scalar.
                if let Some([one]) = ifma52::pow_short([lanes], [limbs[0]], [e.low_u64()]) {
                    assert_eq!(Ubig::from_limbs(one.to_vec()), want[0], "{key:?} single");
                }
            }
        }
    }

    /// The check as it stood before it read the encoding in place: the
    /// scalar `s^e mod n`, serialized, against the allocating
    /// `emsa_pkcs1_v15` of the message. The reference the digest entries
    /// are held to.
    fn reference_verify(key: &RsaPublicKey, msg: &[u8], sig: &[u8], alg: HashAlg) -> bool {
        let k = key.modulus_bytes();
        let Some(s) = key.signature_value(sig) else {
            return false;
        };
        let em = key.ctx.pow(&s, key.e());
        emsa_pkcs1_v15(msg, k, alg).is_ok_and(|want| em.to_bytes_be_padded(k) == want)
    }

    /// A signature whose `s^e mod n` is `em`: how a test presents an
    /// encoding no honest signer makes.
    fn signature_of_encoding(key: &RsaPrivateKey, em: &[u8]) -> Vec<u8> {
        let k = key.public().modulus_bytes();
        key.raw_decrypt(&Ubig::from_bytes_be(em))
            .to_bytes_be_padded(k)
    }

    /// `verify`, `verify_digest` and both halves of `verify_pair_digests`
    /// give the reference's verdict, on the lane engine and the scalar
    /// one, for an honest signature and for each way to spoil it: every
    /// one-byte flip, wrong lengths, `s >= n`, zero, another key's
    /// signature, and signatures whose encodings are right but for one
    /// part (block type, a byte of the `0xFF` run, the separator, the
    /// `DigestInfo` prefix, the digest). The wrong digest and a digest of
    /// the wrong length fail.
    #[test]
    fn the_digest_check_agrees_with_the_encoding_it_replaced() {
        let [k512, k1024, _] = lane_width_keys();
        let other = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(513), 512);
        let msg: &[u8] = b"a signed statement";
        let alg = HashAlg::Sha256;
        for key in [k512, k1024] {
            let public = key.public();
            let k = public.modulus_bytes();
            let honest = key.sign(msg, alg).unwrap();
            let mut sigs = vec![honest.clone()];
            for at in 0..k {
                let mut sig = honest.clone();
                sig[at] ^= 0x5a;
                sigs.push(sig);
            }
            let n = public.n();
            sigs.extend([
                honest[1..].to_vec(),
                [&[0u8][..], &honest].concat(),
                Vec::new(),
                n.to_bytes_be_padded(k),
                n.add(&Ubig::one()).to_bytes_be_padded(k),
                vec![0xff; k],
                vec![0; k],
                other.sign(msg, alg).unwrap(),
            ]);
            let good = emsa_pkcs1_v15(msg, k, alg).unwrap();
            let separator = k - alg.digest_info_prefix().len() - alg.digest_len() - 1;
            let digest_at = separator + 1 + alg.digest_info_prefix().len();
            for at in [
                0,
                1,
                2,
                k / 2,
                separator - 1,
                separator,
                separator + 1,
                digest_at - 1,
                digest_at,
                k - 1,
            ] {
                let mut em = good.clone();
                em[at] ^= 0x01;
                sigs.push(signature_of_encoding(key, &em));
            }
            assert_eq!(signature_of_encoding(key, &good), honest);

            let digest = alg.hash(msg);
            let mut accepted = 0;
            for sig in &sigs {
                let want = reference_verify(public, msg, sig, alg);
                accepted += usize::from(want);
                for engine in [public.clone(), public.scalar_only()] {
                    assert_eq!(engine.verify(msg, sig, alg), want, "{engine:?}");
                    assert_eq!(engine.verify_digest(&digest, sig, alg), want);
                    let pair = |sigs: [&[u8]; 2]| {
                        RsaPublicKey::verify_pair_digests([&engine; 2], [&digest; 2], sigs, alg)
                    };
                    assert_eq!(pair([sig, &honest]), [want, true]);
                    assert_eq!(pair([&honest, sig]), [true, want]);
                }
            }
            assert_eq!(accepted, 1, "only the honest signature verifies");
            let wrong = alg.hash(b"another statement");
            for engine in [public.clone(), public.scalar_only()] {
                assert!(!engine.verify_digest(&wrong, &honest, alg));
                assert!(!engine.verify_digest(&digest[1..], &honest, alg));
                assert!(!engine.verify_digest(&[digest.clone(), vec![0]].concat(), &honest, alg));
            }
        }
    }

    #[test]
    fn sign_many_is_byte_identical_to_scalar_signatures() {
        let long = vec![0xA5u8; 4096];
        let messages: [&[u8]; 9] = [b"", b"x", &long, b"y", b"", b"zz", &long[1..], b"w", b"v"];
        for key in lane_width_keys() {
            let k = key.public().modulus_bytes();
            let want: Vec<Vec<u8>> = messages.iter().map(|m| scalar_signature(key, m)).collect();
            // With lanes where this CPU has them, and as built without;
            // every count from none to nine: whole passes of eight
            // residues, part passes, and at 512 bits a last four or fewer
            // in `pow4`.
            for key in [key.clone(), key.scalar_only()] {
                for n in 0..=messages.len() {
                    let sigs = key.sign_many(&messages[..n], HashAlg::Sha256).unwrap();
                    assert_eq!(sigs, want[..n], "k={k} n={n}");
                }
                for (msg, sig) in messages.iter().zip(&want) {
                    assert_eq!(&key.sign(msg, HashAlg::Sha256).unwrap(), sig, "k={k}");
                    assert!(key.public().verify(msg, sig, HashAlg::Sha256));
                }
                // Each message in each position of a run of four.
                for shift in 0..4 {
                    let four: [&[u8]; 4] = std::array::from_fn(|i| messages[(i + shift) % 4]);
                    let sigs = key.sign_many(&four, HashAlg::Sha256).unwrap();
                    for (i, sig) in sigs.iter().enumerate() {
                        assert_eq!(*sig, want[(i + shift) % 4], "k={k} shift={shift}");
                    }
                }
            }
        }
    }

    #[test]
    fn sign_pair_reports_a_modulus_too_small_for_either_message() {
        let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(44), 256);
        for msgs in [&[&b"a"[..], b"b"][..], &[b"a", b"b", b"c", b"d", b"e"]] {
            assert!(matches!(
                key.sign_many(msgs, HashAlg::Sha256),
                Err(CryptoError::ModulusTooSmall { have: 32, .. })
            ));
        }
        assert_eq!(
            key.sign_many(&[], HashAlg::Sha256).unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    /// No RSA key has an even modulus or a modulus of 1, and `from_bytes`
    /// refuses both, as it refuses zero: every key it returns has its
    /// exponentiation context.
    #[test]
    fn from_bytes_refuses_an_even_modulus_and_a_modulus_of_one() {
        let key = test_key().public();
        let with_modulus = |n: &Ubig| {
            RsaPublicKey {
                n: n.clone(),
                ..key.clone()
            }
            .to_bytes()
        };
        let n = key.n();
        for bad in [n.sub(&Ubig::one()), n.shl(1), Ubig::one(), Ubig::zero()] {
            assert!(
                matches!(
                    RsaPublicKey::from_bytes(&with_modulus(&bad)),
                    Err(CryptoError::Malformed(_))
                ),
                "n={bad:x}"
            );
        }
        assert_eq!(RsaPublicKey::from_bytes(&with_modulus(n)).unwrap(), *key);
        let three = RsaPublicKey::from_bytes(&with_modulus(&Ubig::from_u64(3))).unwrap();
        assert_eq!(three.ctx.modulus(), &Ubig::from_u64(3));
    }

    #[test]
    fn fingerprint_is_the_sha256_prefix_of_n_and_e() {
        let key = test_key().public();
        let mut h = Sha256::new();
        h.update(&key.n().to_bytes_be());
        h.update(&key.e().to_bytes_be());
        assert_eq!(key.fingerprint()[..], h.finalize()[..8]);
        let parsed = RsaPublicKey::from_bytes(&key.to_bytes()).unwrap();
        assert_eq!(parsed.fingerprint(), key.fingerprint());
    }

    #[test]
    fn private_key_debug_shows_no_secret_limb() {
        let key = test_key();
        let shown = format!("{key:?}");
        assert!(shown.contains("modulus_bits: 512"), "{shown}");
        assert!(shown.contains(&format!("{:?}", key.public().fingerprint())));
        let primes = key.primes.iter();
        let secrets = primes.flat_map(|p| [p.ctx.modulus(), &p.exp, &p.below, &p.coeff]);
        // The first prime's product and coefficient are 1, no secret.
        for secret in secrets.chain([&key.d]).filter(|s| !s.is_one()) {
            for limb in &secret.limbs {
                assert!(!shown.contains(&format!("{limb:x}")), "{shown}");
                assert!(!shown.contains(&limb.to_string()), "{shown}");
            }
        }
    }

    #[test]
    fn signatures_from_different_keys_do_not_cross_verify() {
        let key1 = test_key();
        let mut rng = StdRng::seed_from_u64(43);
        let key2 = RsaPrivateKey::generate(&mut rng, 512);
        let sig = key1.sign(b"msg", HashAlg::Sha256).unwrap();
        assert!(!key2.public().verify(b"msg", &sig, HashAlg::Sha256));
        assert_ne!(key1.public().fingerprint(), key2.public().fingerprint());
    }

    #[test]
    fn modulus_too_small_for_digest() {
        let mut rng = StdRng::seed_from_u64(44);
        // 256-bit modulus (32 bytes) cannot hold SHA-256 DigestInfo (51) + 11.
        let key = RsaPrivateKey::generate(&mut rng, 256);
        match key.sign(b"m", HashAlg::Sha256) {
            Err(CryptoError::ModulusTooSmall { need, have }) => {
                assert_eq!(have, 32);
                assert!(need > have);
            }
            other => panic!("expected ModulusTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let key = test_key();
        let bytes = key.public().to_bytes();
        let parsed = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, key.public());
        // Corrupt length prefix.
        let mut bad = bytes.clone();
        bad[0] = 0xff;
        assert!(RsaPublicKey::from_bytes(&bad).is_err());
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(RsaPublicKey::from_bytes(&[]).is_err());
    }
}
