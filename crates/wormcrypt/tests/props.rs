//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wormcrypt::bignum::{Montgomery, Ubig};
use wormcrypt::{
    ChainHash, Digest, HashAlg, Hmac, MerkleTree, RsaPrivateKey, RsaPublicKey, Sha1, Sha256,
};

fn ubig_strategy(max_bytes: usize) -> impl Strategy<Value = Ubig> {
    proptest::collection::vec(any::<u8>(), 0..=max_bytes).prop_map(|b| Ubig::from_bytes_be(&b))
}

/// `base^exp mod m` by square-and-`rem`, one exponent bit at a time.
fn naive_pow_mod(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    let base = base.rem(m);
    let mut acc = Ubig::one().rem(m);
    for i in (0..exp.bit_len()).rev() {
        acc = acc.mul(&acc).rem(m);
        if exp.bit(i) {
            acc = acc.mul(&base).rem(m);
        }
    }
    acc
}

/// `data`, or with `tail` its longest prefix whose final block holds
/// `tail` bytes (64 = a whole one): 55 to 64 are the lengths where the
/// padding's marker byte and bit count stop fitting beside the data.
fn cut_at_padding_boundary(data: &[u8], tail: Option<usize>) -> &[u8] {
    let over = tail.map_or(0, |tail| (data.len() + 64 - tail) % 64);
    &data[..data.len().saturating_sub(over)]
}

/// A fixed pseudo-random value of exactly `bits` bits.
fn ubig_of_bits(seed: u64, bits: usize) -> Ubig {
    Ubig::random_bits(&mut StdRng::seed_from_u64(seed), bits)
}

/// Every limb count from 1 to 33 — the four the kernels are instantiated for
/// (4, 8, 16, 32) and both neighbours of each — against exponents of every
/// shape the sliding window treats differently.
#[test]
fn montgomery_pow_matches_naive_at_every_width() {
    let one = Ubig::one();
    let mut exps = vec![
        one.clone(),
        Ubig::from_u64(2),
        Ubig::from_u64(65537),
        // All ones: every window is full.
        one.shl(130).sub(&one),
        // A single top bit: squarings only.
        one.shl(200),
        // Zero runs longer than any window between set bits.
        one.shl(300).add(&one.shl(150)).add(&one),
    ];
    // Both sides of each step in the window width.
    for bits in [23, 24, 79, 80, 239, 240, 671, 672] {
        exps.push(ubig_of_bits(bits as u64, bits));
    }
    for k in 1..=33usize {
        let mut n = ubig_of_bits(k as u64, 64 * k);
        n.set_bit(0);
        let ctx = Montgomery::new(&n).unwrap();
        let base = ubig_of_bits(!(k as u64), 64 * k - 1);
        for e in &exps {
            assert_eq!(
                ctx.pow(&base, e),
                naive_pow_mod(&base, e, &n),
                "k={k} e={e:x}"
            );
        }
    }
}

#[test]
fn pow_mod_reduces_the_base_first() {
    for bits in [64usize, 200, 256, 512] {
        let mut n = ubig_of_bits(bits as u64, bits);
        n.set_bit(0);
        let e = ubig_of_bits(7, 90);
        // base = 0, base = n, base a multiple of n, and bases far above n.
        assert_eq!(Ubig::zero().pow_mod(&e, &n), Ubig::zero());
        assert_eq!(n.pow_mod(&e, &n), Ubig::zero());
        assert_eq!(n.mul(&e).pow_mod(&e, &n), Ubig::zero());
        for extra in [1usize, 64, 300] {
            let base = ubig_of_bits(extra as u64, bits + extra);
            assert!(base >= n);
            assert_eq!(base.pow_mod(&e, &n), naive_pow_mod(&base, &e, &n));
            assert_eq!(base.pow_mod(&e, &n), base.rem(&n).pow_mod(&e, &n));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- Ring axioms ------------------------------------------------------

    #[test]
    fn add_commutes(a in ubig_strategy(40), b in ubig_strategy(40)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in ubig_strategy(32), b in ubig_strategy(32), c in ubig_strategy(32)) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in ubig_strategy(32), b in ubig_strategy(32)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes(a in ubig_strategy(24), b in ubig_strategy(24), c in ubig_strategy(24)) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn add_sub_roundtrip(a in ubig_strategy(40), b in ubig_strategy(40)) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn shift_roundtrip(a in ubig_strategy(40), s in 0usize..200) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    // --- Division ---------------------------------------------------------

    #[test]
    fn div_rem_reconstructs(a in ubig_strategy(64), d in ubig_strategy(32)) {
        prop_assume!(!d.is_zero());
        let (q, r) = a.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn rem_is_idempotent(a in ubig_strategy(48), d in ubig_strategy(24)) {
        prop_assume!(!d.is_zero());
        let r = a.rem(&d);
        prop_assert_eq!(r.rem(&d), r);
    }

    // --- Serialization ----------------------------------------------------

    #[test]
    fn bytes_roundtrip(a in ubig_strategy(48)) {
        prop_assert_eq!(Ubig::from_bytes_be(&a.to_bytes_be()), a.clone());
        prop_assert_eq!(Ubig::from_hex(&a.to_hex()).unwrap(), a);
    }

    // --- Modular exponentiation -------------------------------------------

    #[test]
    fn pow_mod_matches_naive(
        b in ubig_strategy(16),
        e in ubig_strategy(3),
        m in ubig_strategy(16),
    ) {
        prop_assume!(!m.is_zero() && !m.is_one());
        prop_assert_eq!(b.pow_mod(&e, &m), naive_pow_mod(&b, &e, &m));
    }

    #[test]
    fn montgomery_pow_matches_naive(
        b in ubig_strategy(80),
        e in ubig_strategy(40),
        m in ubig_strategy(72),
    ) {
        let mut m = m;
        m.set_bit(0);
        prop_assume!(!m.is_one());
        let ctx = Montgomery::new(&m).unwrap();
        prop_assert_eq!(ctx.pow(&b, &e), naive_pow_mod(&b, &e, &m));
    }

    #[test]
    fn mod_inverse_is_inverse(a in ubig_strategy(16), m in ubig_strategy(16)) {
        prop_assume!(!m.is_zero() && !m.is_one());
        if let Some(inv) = a.mod_inverse(&m) {
            prop_assert_eq!(a.mul(&inv).rem(&m), Ubig::one());
            prop_assert!(inv < m);
        } else {
            prop_assert!(!a.gcd(&m).is_one());
        }
    }

    #[test]
    fn gcd_divides_both(a in ubig_strategy(24), b in ubig_strategy(24)) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.rem(&g).is_zero());
            prop_assert!(b.rem(&g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    // --- RSA ---------------------------------------------------------------

    /// A pair signature is the two single signatures, and each is the one
    /// plain exponentiation `EM^d mod n` over the whole modulus — no CRT,
    /// no lanes — of an encoding assembled here.
    #[test]
    fn sign_pair_matches_plain_exponentiation(
        a in proptest::collection::vec(any::<u8>(), 0..300),
        b in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        static KEY: std::sync::OnceLock<RsaPrivateKey> = std::sync::OnceLock::new();
        let key = KEY.get_or_init(|| RsaPrivateKey::generate(&mut StdRng::seed_from_u64(19), 1024));
        let plain = |msg: &[u8]| {
            // EMSA-PKCS1-v1_5 with the SHA-256 DigestInfo (RFC 8017 §9.2).
            let mut em = vec![0xffu8; 128 - 52];
            em[0] = 0x00;
            em[1] = 0x01;
            em.extend_from_slice(&[
                0x00, 0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04,
                0x02, 0x01, 0x05, 0x00, 0x04, 0x20,
            ]);
            em.extend_from_slice(&Sha256::digest(msg));
            Ubig::from_bytes_be(&em)
                .pow_mod(key.d(), key.public().n())
                .to_bytes_be_padded(128)
        };
        let pair = key.sign_pair([&a, &b], HashAlg::Sha256).unwrap();
        prop_assert_eq!(&pair[0], &plain(&a));
        prop_assert_eq!(&pair[1], &plain(&b));
        prop_assert_eq!(&pair[0], &key.sign(&a, HashAlg::Sha256).unwrap());
        prop_assert_eq!(&pair[1], &key.sign(&b, HashAlg::Sha256).unwrap());
        prop_assert!(key.public().verify(&a, &pair[0], HashAlg::Sha256));
        prop_assert!(key.public().verify(&b, &pair[1], HashAlg::Sha256));
        prop_assert_eq!(key.public().verify(&b, &pair[0], HashAlg::Sha256), a == b);
    }

    // --- Hashes -----------------------------------------------------------

    #[test]
    fn sha256_streaming_equivalence(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048,
                                    tail in proptest::option::of(55usize..=64)) {
        let data = cut_at_padding_boundary(&data, tail);
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(data));
    }

    #[test]
    fn sha1_streaming_equivalence(data in proptest::collection::vec(any::<u8>(), 0..1024), split in 0usize..1024,
                                  tail in proptest::option::of(55usize..=64)) {
        let data = cut_at_padding_boundary(&data, tail);
        let split = split.min(data.len());
        let mut h = Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha1::digest(data));
    }

    #[test]
    fn hmac_verifies_and_rejects(key in proptest::collection::vec(any::<u8>(), 0..100),
                                 msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        let tag = Hmac::<Sha256>::mac(&key, &msg);
        prop_assert!(Hmac::<Sha256>::verify(&key, &msg, &tag));
        let mut wrong = msg.clone();
        wrong.push(0);
        prop_assert!(!Hmac::<Sha256>::verify(&key, &wrong, &tag));
    }

    // --- Chain hash -------------------------------------------------------

    #[test]
    fn chain_hash_is_injective_on_structure(records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..6)) {
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let base = ChainHash::digest_records(refs.iter().copied());
        // Any single-record mutation changes the digest.
        for i in 0..records.len() {
            let mut mutated = records.clone();
            mutated[i].push(0xAB);
            let refs2: Vec<&[u8]> = mutated.iter().map(|r| r.as_slice()).collect();
            prop_assert_ne!(ChainHash::digest_records(refs2.iter().copied()), base.clone());
        }
    }

    // --- Merkle tree ------------------------------------------------------

    #[test]
    fn merkle_proofs_verify_for_random_trees(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..40)) {
        let mut t = MerkleTree::new();
        for l in &leaves {
            t.append(l);
        }
        let root = t.root();
        for (i, l) in leaves.iter().enumerate() {
            let proof = t.prove(i).unwrap();
            prop_assert!(MerkleTree::verify(&root, i, l, &proof));
            prop_assert!(!MerkleTree::verify(&root, i, b"not the leaf!", &proof));
        }
    }

    #[test]
    fn merkle_update_preserves_sibling_proofs(n in 2usize..30, target in 0usize..30) {
        let target = target % n;
        let mut t = MerkleTree::new();
        for i in 0..n {
            t.append(format!("leaf{i}").as_bytes());
        }
        t.update(target, b"updated");
        let root = t.root();
        for i in 0..n {
            let data = if i == target {
                b"updated".to_vec()
            } else {
                format!("leaf{i}").into_bytes()
            };
            let proof = t.prove(i).unwrap();
            prop_assert!(MerkleTree::verify(&root, i, &data, &proof), "leaf {i}");
        }
    }
}

proptest! {
    // 36 pairings of keys by 49 of damage: more cases than the block above.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `verify_pair` is `[verify, verify]` for every pairing of six keys —
    /// two 1024-bit, one 512 and one 2048 (all of which carry lanes on a CPU
    /// with the engine), and two 1024-bit keys no lanes are built for: an
    /// even modulus, a two-limb exponent — with signatures that are honest,
    /// the other half's, flipped in any one bit, too short, too long, or a
    /// number not below the modulus. Half the draws pair keys of different
    /// widths, whose digit counts share no pass: they fall back to two
    /// verifications.
    #[test]
    fn verify_pair_matches_two_verifications(
        msgs in (proptest::collection::vec(any::<u8>(), 0..300), proptest::collection::vec(any::<u8>(), 0..300)),
        keys in (0usize..6, 0usize..6),
        damage in ((0u8..7, any::<usize>()), (0u8..7, any::<usize>())),
    ) {
        let (msgs, keys, damage) = ([msgs.0, msgs.1], [keys.0, keys.1], [damage.0, damage.1]);
        struct Keys {
            signers: [RsaPrivateKey; 4],
            public: [RsaPublicKey; 6],
        }
        static KEYS: std::sync::OnceLock<Keys> = std::sync::OnceLock::new();
        let pool = KEYS.get_or_init(|| {
            let signers = [(1024, 21), (1024, 22), (512, 23), (2048, 24)]
                .map(|(bits, seed)| RsaPrivateKey::generate(&mut StdRng::seed_from_u64(seed), bits));
            let [a, b, c, d] = signers.each_ref().map(|k| k.public().clone());
            // Public keys as a host could serve them: a's modulus less one,
            // and a's modulus under e = 2^64 + 65537.
            let served = |n: &Ubig, e: &Ubig| {
                let (n, e) = (n.to_bytes_be(), e.to_bytes_be());
                let mut bytes = (n.len() as u32).to_be_bytes().to_vec();
                bytes.extend_from_slice(&n);
                bytes.extend_from_slice(&(e.len() as u32).to_be_bytes());
                bytes.extend_from_slice(&e);
                RsaPublicKey::from_bytes(&bytes).unwrap()
            };
            let even = served(&a.n().sub(&Ubig::one()), a.e());
            let long_e = served(a.n(), &Ubig::one().shl(64).add(a.e()));
            Keys { signers, public: [a, b, c, d, even, long_e] }
        });
        let alg = HashAlg::Sha256;
        // The last two keys have no private half: they are handed what
        // a key of their width signed.
        let honest = [0, 1].map(|i| pool.signers[keys[i] % 4].sign(&msgs[i], alg).unwrap());
        let sigs = [0, 1].map(|i| {
            let (kind, at) = damage[i];
            let mut sig = honest[i].clone();
            let (n, len) = (pool.public[keys[i]].n(), sig.len());
            match kind {
                0 | 1 => {}
                2 => sig = honest[1 - i].clone(),
                3 => sig[at % len] ^= 1 << (at / len % 8),
                4 => sig.truncate(at % len),
                5 => sig.extend_from_slice(&honest[1 - i][..1 + at % 8]),
                // n + (at % 256), when that is no longer: not below n.
                _ => {
                    let s = n.add(&Ubig::from_u64(at as u64 % 256));
                    if s.bit_len() == n.bit_len() {
                        sig = s.to_bytes_be_padded(len);
                    }
                }
            }
            sig
        });
        let public = [&pool.public[keys[0]], &pool.public[keys[1]]];
        let each = [0, 1].map(|i| public[i].verify(&msgs[i], &sigs[i], alg));
        let pair = RsaPublicKey::verify_pair(public, [&msgs[0], &msgs[1]], [&sigs[0], &sigs[1]], alg);
        prop_assert_eq!(pair, each);
        for i in 0..2 {
            if keys[i] < 4 && damage[i].0 < 2 {
                prop_assert!(each[i], "an honest half verifies");
            } else if keys[i] < 4 && damage[i].0 > 2 {
                prop_assert!(!each[i], "a damaged half does not");
            }
        }
    }
}
