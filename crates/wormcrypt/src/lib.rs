//! # wormcrypt — cryptographic substrate for the Strong WORM reproduction
//!
//! The Strong WORM architecture (Sion, ICDCS 2008) is built on a small set
//! of cryptographic primitives executed partly on the untrusted host and
//! partly inside a secure coprocessor. This crate implements all of them
//! from scratch — the offline build environment has no crypto crates, and
//! the reproduction treats them as substrates to be built, not assumed:
//!
//! * [`bignum::Ubig`] — arbitrary-precision arithmetic with Montgomery
//!   modular exponentiation and Miller–Rabin primality.
//! * [`RsaPrivateKey`] / [`RsaPublicKey`] — PKCS#1 v1.5 signatures at the
//!   512/1024/2048-bit widths the paper's deferred-strength scheme uses;
//!   keys of 1024 bits and up have three primes; on a CPU with AVX-512
//!   IFMA the private operation runs in eight lanes,
//!   [`RsaPrivateKey::sign_many`] raises the CRT residues of all its
//!   messages eight a pass, and [`RsaPublicKey::verify_pair`] checks two
//!   signatures in one pass.
//! * [`Sha1`] and [`Sha256`] — FIPS 180-4 hashes ([`Sha1`] matches the
//!   IBM 4764 benchmark rows in Table 2; [`Sha256`] is the default hash).
//! * [`Hmac`] — RFC 2104, the paper's fastest burst-witnessing construct.
//! * [`ChainHash`] — the chained record hash signed by `datasig` (Table 1).
//! * [`wire`] — the one canonical byte encoding everything hashed or
//!   signed in this stack goes through.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use wormcrypt::{HashAlg, RsaPrivateKey};
//!
//! # fn main() -> Result<(), wormcrypt::CryptoError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let key = RsaPrivateKey::generate(&mut rng, 512);
//! let sig = key.sign(b"regulated record", HashAlg::Sha256)?;
//! assert!(key.public().verify(b"regulated record", &sig, HashAlg::Sha256));
//! # Ok(())
//! # }
//! ```
//!
//! This library is a research artifact: the implementations are correct and
//! tested against published vectors, but they are variable-time and must
//! not be used to protect real data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod bignum;
mod chain;
mod digest;
mod error;
mod hmac;
mod rsa;
mod sha1;
mod sha256;
pub mod wire;

pub use chain::ChainHash;
pub use digest::Digest;
pub use error::CryptoError;
pub use hmac::{ct_eq, Hmac};
pub use rsa::{HashAlg, RsaPrivateKey, RsaPublicKey};
pub use sha1::Sha1;
pub use sha256::Sha256;

/// The hardware engines (`vendor/shani`) and whether this CPU runs them:
/// `sha-ni` under [`Sha256`], `ifma52` under RSA signing and verification.
/// For labelling a measurement with the machine it came from; the code
/// that selects an engine asks `shani` itself.
pub fn hardware_engines() -> [(&'static str, bool); 2] {
    [
        ("sha-ni", shani::available()),
        ("ifma52", shani::ifma52::available()),
    ]
}
