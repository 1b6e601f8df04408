//! L1 fixture standing for a `wormcrypt` file: the crypto core is a
//! serving crate, so a verify-path panic is flagged where it is, not
//! traced back from its callers.

pub struct Signature(pub Vec<u8>);

pub fn verify(sig: &[u8], modulus_len: usize) -> bool {
    let head: [u8; 2] = sig.get(..2).unwrap().try_into().unwrap(); //~ panic panic
    head[0] == 0 && sig.len() == modulus_len
}

pub fn sign(key: Option<&[u8]>) -> Signature {
    // wormlint: allow(panic) -- a concentration point: callers hold a loaded key by construction
    let key = key.expect("key loaded");
    Signature(key.to_vec())
}
