//! RSA signatures (PKCS#1 v1.5) over the in-crate bignum.
//!
//! The Strong WORM design signs with three strength tiers: 512-bit
//! *short-lived* keys for burst witnessing, and 1024/2048-bit *permanent*
//! keys (`s` for metadata/data signatures, `d` for deletion proofs). The
//! relative signing costs across these widths — which drive the paper's
//! deferred-strength optimization — emerge naturally from the O(k³)
//! modular exponentiation.
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
//! | [`RsaPrivateKey::sign`], a last one or two of [`RsaPrivateKey::sign_many`] | 2 or 4 CRT halves | `pow4`: a lane each, squares beside | `pow4`: a lane each, squares beside | `pow4`: two lanes each, windows |
//! | [`RsaPrivateKey::sign_many`], three or four at a time | 6 or 8 CRT halves | `pow8`: a lane each, windows | `pow8`: a lane each, windows | two `pow4` calls |
//! | [`RsaPublicKey::verify_pair_digests`] | 2 signatures | `pow_short`: two lanes each | `pow_short`: four lanes each | `pow_short`: four lanes each |
//! | [`RsaPublicKey::verify_digest`] | 1 signature | scalar (ten digits do not split in four) | `pow_short`: four lanes | `pow_short`: eight lanes |
//!
//! `verify` and `verify_pair` hash, then take the digest entries: there is
//! one check, and it compares `s^e mod n` with the encoding a digest has
//! where the number's limbs hold it. A shape that leaves lanes over fills
//! them with numbers whose results are dropped. Which engine runs is fixed when the key is built, from the
//! CPU and the width alone; PKCS#1 v1.5 is deterministic, so both give the
//! same bytes and the same verdicts.

use std::fmt;

use shani::ifma52;

use crate::bignum::{Montgomery, Ubig};
use crate::digest::Digest;
use crate::error::CryptoError;
use crate::{Sha1, Sha256};

/// Hash algorithm used inside the PKCS#1 v1.5 encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HashAlg {
    /// SHA-1 (paper-era default; kept for the Table 2 reproduction).
    Sha1,
    /// SHA-256 (default everywhere else).
    Sha256,
}

impl HashAlg {
    /// DER-encoded `DigestInfo` prefix (algorithm identifier).
    fn digest_info_prefix(self) -> &'static [u8] {
        match self {
            HashAlg::Sha1 => &[
                0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04,
                0x14,
            ],
            HashAlg::Sha256 => &[
                0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
                0x01, 0x05, 0x00, 0x04, 0x20,
            ],
        }
    }

    /// Digest of `msg` under this algorithm.
    pub fn hash(self, msg: &[u8]) -> Vec<u8> {
        match self {
            HashAlg::Sha1 => Sha1::digest(msg),
            HashAlg::Sha256 => Sha256::digest(msg),
        }
    }

    /// Length of this algorithm's digest in bytes.
    fn digest_len(self) -> usize {
        match self {
            HashAlg::Sha1 => Sha1::OUT_LEN,
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
    /// Exponentiation context for `n`; `None` for an even modulus, which no
    /// RSA key has but the wire format can carry. Boxed because keys travel
    /// by value inside response enums.
    ctx: Option<Box<Montgomery>>,
    /// `n` prepared for the lane engine, which [`Self::verify`] and
    /// [`Self::verify_pair`] use: present for an odd `n` 512, 1024 or 2048
    /// bits wide with a one-limb `e`, on a CPU that has the engine.
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

/// RSA private key with CRT parameters; the primes live in their
/// exponentiation contexts.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: Ubig,
    p: Montgomery,
    q: Montgomery,
    dp: Ubig,
    dq: Ubig,
    qinv: Ubig,
    /// `p` and `q` prepared for the lane engine; `None` on a CPU
    /// without it or for a width it has no kernel for.
    lanes: Option<[ifma52::Modulus; 2]>,
}

/// Shows the public half only: a log line must not carry `d`, `p` or `q`.
impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPrivateKey")
            .field("modulus_bits", &self.public.modulus_bits())
            .field("fingerprint", &self.public.fingerprint)
            .finish_non_exhaustive()
    }
}

impl RsaPublicKey {
    fn new(n: Ubig, e: Ubig) -> Self {
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
        RsaPublicKey {
            ctx: Montgomery::new(&n).map(Box::new),
            lanes: lanes.map(Box::new),
            n,
            e,
            fingerprint,
        }
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
        let Some(s) = self.signature_value(sig) else {
            return false;
        };
        let lanes = self
            .lanes
            .as_deref()
            .and_then(|n| ifma52::pow_short([n], [&s.limbs], [self.e.low_u64()]));
        match (lanes, &self.ctx) {
            (Some([em]), _) => self.is_encoding_of(&em, digest, alg),
            (None, Some(ctx)) => self.is_encoding_of(&ctx.pow(&s, &self.e).limbs, digest, alg),
            (None, None) => self.is_encoding_of(&s.pow_mod(&self.e, &self.n).limbs, digest, alg),
        }
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
            keys[0].signature_value(sigs[0])?,
            keys[1].signature_value(sigs[1])?,
        ];
        // Keys of different widths share no pass: `None`.
        let [em0, em1] = ifma52::pow_short(
            [a, b],
            [&s[0].limbs, &s[1].limbs],
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
        if sig.len() != self.modulus_bytes() {
            return None;
        }
        let s = Ubig::from_bytes_be(sig);
        (s < self.n).then_some(s)
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
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let (n, rest) = read_len_prefixed(bytes)?;
        let (e, rest) = read_len_prefixed(rest)?;
        if !rest.is_empty() {
            return Err(CryptoError::Malformed("trailing bytes in public key"));
        }
        let (n, e) = (Ubig::from_bytes_be(n), Ubig::from_bytes_be(e));
        if n.is_zero() || e.is_zero() {
            return Err(CryptoError::Malformed("zero modulus or exponent"));
        }
        Ok(RsaPublicKey::new(n, e))
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
    /// public exponent 65537.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64` or `bits` is odd.
    #[expect(
        clippy::expect_used,
        reason = "the inverse of e exists (gcd(e, phi) == 1 checked), q is invertible mod p (distinct primes), and gen_prime returns odd primes of bits / 2 >= 32 bits"
    )]
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 64, "modulus below 64 bits cannot encode a digest");
        assert!(bits.is_multiple_of(2), "modulus width must be even");
        let e = Ubig::from_u64(65537);
        loop {
            let p = Ubig::gen_prime(rng, bits / 2);
            let q = loop {
                let q = Ubig::gen_prime(rng, bits / 2);
                if q != p {
                    break q;
                }
            };
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = Ubig::one();
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            let phi = p1.mul(&q1);
            if !e.gcd(&phi).is_one() {
                continue;
            }
            let d = e.mod_inverse(&phi).expect("gcd(e, phi) == 1");
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let qinv = q.mod_inverse(&p).expect("p, q distinct primes");
            let lanes = prime_lanes(&p).zip(prime_lanes(&q)).map(<[_; 2]>::from);
            let [p, q] = [p, q].map(|f| Montgomery::new(&f).expect("odd prime"));
            return RsaPrivateKey {
                public: RsaPublicKey::new(n, e),
                d,
                p,
                q,
                dp,
                dq,
                qinv,
                lanes,
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
    /// [`Self::sign`] each, in order. Where the key carries lanes, four
    /// signatures share one exponentiation in all eight lanes (three take
    /// the same pass), and a last two or one take the pass a lone
    /// signature takes.
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
        let mut sigs = Vec::with_capacity(encoded.len());
        for ms in encoded.chunks(4) {
            sigs.extend(self.private_ops(ms).iter().map(|s| s.to_bytes_be_padded(k)));
        }
        Ok(sigs)
    }

    /// The private operation on up to four values: every CRT half in one
    /// call to the lanes where the key carries them — one or two values'
    /// in [`ifma52::pow4`], three or four in [`ifma52::pow8`] — one scalar
    /// [`Self::raw_decrypt`] per value otherwise.
    fn private_ops(&self, ms: &[Ubig]) -> Vec<Ubig> {
        let halves = if ms.len() <= 2 {
            self.crt_halves(ms, ifma52::pow4)
        } else {
            self.crt_halves(ms, ifma52::pow8)
        };
        match halves {
            Some(halves) => halves
                .chunks(2)
                .map(|h| self.crt_combine(&h[0], &h[1]))
                .collect(),
            None => ms.iter().map(|m| self.raw_decrypt(m)).collect(),
        }
    }

    /// `[m mod p ^ dp, m mod q ^ dq]` for each value `m` of `ms`, side by
    /// side through `pow`, which takes `L / 2` values' halves; lanes past
    /// the last value raise zero. `None` without lanes.
    fn crt_halves<const L: usize>(&self, ms: &[Ubig], pow: LanePow<L>) -> Option<Vec<Ubig>> {
        let primes = self.lanes.as_ref()?;
        let exps = [&self.dp.limbs[..], &self.dq.limbs[..]];
        let bases: [Ubig; L] = std::array::from_fn(|lane| {
            let prime = [&self.p, &self.q][lane % 2].modulus();
            ms.get(lane / 2).map_or_else(Ubig::zero, |m| m.rem(prime))
        });
        let powers = pow(
            std::array::from_fn(|lane| &primes[lane % 2]),
            bases.each_ref().map(|b| &b.limbs[..]),
            std::array::from_fn(|lane| exps[lane % 2]),
        )?;
        Some(
            powers
                .into_iter()
                .take(2 * ms.len())
                .map(Ubig::from_limbs)
                .collect(),
        )
    }

    /// RSA private operation via the Chinese Remainder Theorem, on the
    /// scalar engine.
    fn raw_decrypt(&self, m: &Ubig) -> Ubig {
        let m1 = self.p.pow(m, &self.dp);
        let m2 = self.q.pow(m, &self.dq);
        self.crt_combine(&m1, &m2)
    }

    /// Garner's recombination of `m1 = m^dp mod p` and `m2 = m^dq mod q`.
    fn crt_combine(&self, m1: &Ubig, m2: &Ubig) -> Ubig {
        let (p, q) = (self.p.modulus(), self.q.modulus());
        // h = qinv * (m1 - m2) mod p, handling m1 < m2.
        let m2_mod_p = m2.rem(p);
        let diff = if *m1 >= m2_mod_p {
            m1.sub(&m2_mod_p)
        } else {
            m1.add(p).sub(&m2_mod_p)
        };
        let h = self.qinv.mul(&diff).rem(p);
        m2.add(&q.mul(&h))
    }

    /// The private exponent (used by self-consistency tests).
    pub fn d(&self) -> &Ubig {
        &self.d
    }

    /// This key as built on a CPU without the lane engine.
    #[cfg(test)]
    fn scalar_only(&self) -> Self {
        RsaPrivateKey {
            lanes: None,
            ..self.clone()
        }
    }
}

/// An entry of the lane engine that raises `L` numbers at once.
type LanePow<const L: usize> =
    fn([&ifma52::Modulus; L], [&[u64]; L], [&[u64]; L]) -> Option<[Vec<u64>; L]>;

/// `prime` prepared for the lane engine, if this CPU has it and the
/// prime is that of a 512, 1024 or 2048-bit key (5, 10 or 20 digits of 52
/// bits, two bits to spare).
fn prime_lanes(prime: &Ubig) -> Option<ifma52::Modulus> {
    let digits = match prime.bit_len() {
        256 => 5,
        512 => 10,
        1024 => 20,
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
        // n = p * q
        let (p, q) = (key.p.modulus(), key.q.modulus());
        assert_eq!(p.mul(q), *key.public().n());
        // e * d ≡ 1 mod φ
        let phi = p.sub(&Ubig::one()).mul(&q.sub(&Ubig::one()));
        assert_eq!(key.public().e().mul(key.d()).rem(&phi), Ubig::one());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        for alg in [HashAlg::Sha1, HashAlg::Sha256] {
            let sig = key.sign(b"compliance record #1", alg).unwrap();
            assert_eq!(sig.len(), 64);
            assert!(key.public().verify(b"compliance record #1", &sig, alg));
        }
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
        // Wrong hash algorithm.
        assert!(!key.public().verify(b"original", &sig, HashAlg::Sha1));
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
        let plain = m.pow_mod(key.d(), key.public().n());
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
            assert_eq!(key.raw_decrypt(&m), m.pow_mod(key.d(), key.public().n()));
            assert_eq!(Ubig::from_bytes_be(&sig), key.raw_decrypt(&m));
        }
    }

    /// The scalar signature, computed without `sign`: EMSA encoding, one
    /// `Montgomery::pow` per prime, Garner. The oracle for both engines.
    fn scalar_signature(key: &RsaPrivateKey, msg: &[u8]) -> Vec<u8> {
        let k = key.public().modulus_bytes();
        let m = Ubig::from_bytes_be(&emsa_pkcs1_v15(msg, k, HashAlg::Sha256).unwrap());
        let (m1, m2) = (key.p.pow(&m, &key.dp), key.q.pow(&m, &key.dq));
        let s = key.crt_combine(&m1, &m2);
        assert_eq!(s, key.raw_decrypt(&m));
        s.to_bytes_be_padded(k)
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
    fn lanes_are_chosen_by_cpu_and_width_alone() {
        for key in lane_width_keys() {
            assert_eq!(key.lanes.is_some(), ifma52::available(), "{key:?}");
            assert!(key.scalar_only().lanes.is_none());
        }
        // No kernel for these widths: the scalar engine on every CPU.
        for bits in [256usize, 768] {
            let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(bits as u64), bits);
            assert!(key.lanes.is_none(), "{bits}");
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
        // 1024 bits, but even, one bit short, or under a two-limb exponent.
        let n = k1024.n();
        let even = n.sub(&Ubig::one());
        let mut short = n.shr(1);
        short.set_bit(0);
        let two_limb_e = Ubig::one().shl(64).add(&Ubig::one());
        assert_eq!((even.bit_len(), short.bit_len()), (1024, 1023));
        assert!(RsaPublicKey::new(even, k1024.e().clone()).lanes.is_none());
        assert!(RsaPublicKey::new(short, k1024.e().clone()).lanes.is_none());
        assert!(RsaPublicKey::new(n.clone(), two_limb_e).lanes.is_none());
        let widest_e = Ubig::from_u64(u64::MAX);
        assert_eq!(
            RsaPublicKey::new(n.clone(), widest_e).lanes.is_some(),
            ifma52::available()
        );
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
        // The hash algorithm reaches both halves.
        let sha1 = k1024.sign_many(&[a, b], HashAlg::Sha1).unwrap();
        let keys = [k1024.public(); 2];
        let sigs = [&sha1[0][..], &sha1[1][..]];
        assert_eq!(
            RsaPublicKey::verify_pair(keys, [a, b], sigs, HashAlg::Sha1),
            [true; 2]
        );
        assert_eq!(
            RsaPublicKey::verify_pair(keys, [a, b], sigs, alg),
            [false; 2]
        );
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
                assert_eq!(got.map(Ubig::from_limbs), want, "{key:?} pair");
                // 512 bits has no one-number kernel: `verify` is scalar.
                if let Some([one]) = ifma52::pow_short([lanes], [limbs[0]], [e.low_u64()]) {
                    assert_eq!(Ubig::from_limbs(one), want[0], "{key:?} single");
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
        let em = s.pow_mod(key.e(), key.n());
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
        for (key, alg) in [
            (k512, HashAlg::Sha256),
            (k1024, HashAlg::Sha256),
            (k1024, HashAlg::Sha1),
        ] {
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
            // every count a pass of four, a pass of three and a pass of
            // one or two make up.
            for key in [key.clone(), key.scalar_only()] {
                for n in 0..=messages.len() {
                    let sigs = key.sign_many(&messages[..n], HashAlg::Sha256).unwrap();
                    assert_eq!(sigs, want[..n], "k={k} n={n}");
                }
                for (msg, sig) in messages.iter().zip(&want) {
                    assert_eq!(&key.sign(msg, HashAlg::Sha256).unwrap(), sig, "k={k}");
                    assert!(key.public().verify(msg, sig, HashAlg::Sha256));
                }
                // Each message in each position of a pass of four.
                for shift in 0..4 {
                    let four: [&[u8]; 4] = std::array::from_fn(|i| messages[(i + shift) % 4]);
                    let sigs = key.sign_many(&four, HashAlg::Sha256).unwrap();
                    for (i, sig) in sigs.iter().enumerate() {
                        assert_eq!(*sig, want[(i + shift) % 4], "k={k} shift={shift}");
                    }
                }
                let sha1 = key
                    .sign_many(&[b"one", b"two", b"three"], HashAlg::Sha1)
                    .unwrap();
                assert_eq!(sha1[0], key.sign(b"one", HashAlg::Sha1).unwrap());
                assert_eq!(sha1[2], key.sign(b"three", HashAlg::Sha1).unwrap());
                assert!(key.public().verify(b"two", &sha1[1], HashAlg::Sha1));
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

    /// No RSA key has an even modulus, but `from_bytes` accepts one and
    /// `verify` then computes `s^e mod n` all the same: n = 2p is
    /// square-free, so `m^(ed) = m (mod n)` for `ed = 1 (mod p - 1)`.
    #[test]
    fn even_modulus_public_key_verifies_and_rejects() {
        let mut rng = StdRng::seed_from_u64(45);
        let e = Ubig::from_u64(65537);
        let (p, d) = loop {
            let p = Ubig::gen_prime(&mut rng, 511);
            if let Some(d) = e.mod_inverse(&p.sub(&Ubig::one())) {
                break (p, d);
            }
        };
        let n = p.shl(1);
        let key = RsaPublicKey::new(n.clone(), e);
        assert!(key.ctx.is_none());
        let parsed = RsaPublicKey::from_bytes(&key.to_bytes()).unwrap();
        assert_eq!(parsed, key);

        let em = emsa_pkcs1_v15(b"even", 64, HashAlg::Sha256).unwrap();
        let sig = Ubig::from_bytes_be(&em)
            .pow_mod(&d, &n)
            .to_bytes_be_padded(64);
        assert!(parsed.verify(b"even", &sig, HashAlg::Sha256));
        assert!(!parsed.verify(b"odd", &sig, HashAlg::Sha256));
        let mut bad = sig.clone();
        bad[63] ^= 1;
        assert!(!parsed.verify(b"even", &bad, HashAlg::Sha256));
        assert!(!parsed.verify(b"even", &n.to_bytes_be_padded(64), HashAlg::Sha256));
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
        let secrets = [
            &key.d,
            key.p.modulus(),
            key.q.modulus(),
            &key.dp,
            &key.dq,
            &key.qinv,
        ];
        for secret in secrets {
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
        // SHA-1 fits (35 + 11 = 46 > 32 — actually also too small).
        assert!(key.sign(b"m", HashAlg::Sha1).is_err());
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
