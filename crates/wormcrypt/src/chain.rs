//! Chained record hashing.
//!
//! The `datasig` field of a VRD signs `(SN, Hash(data))` where `Hash` is "a
//! chained hash (or other incremental secure hashing) of the data records"
//! (Table 1). [`ChainHash`] implements that construct: the records of a
//! virtual record are absorbed one at a time, each chaining step binding the
//! running digest to the next record's content and position, so the final
//! digest commits to the full *ordered* record list.

use crate::digest::Digest;
use crate::Sha256;

/// `h_0 = H("strongworm.chain.v1")`, the domain-separated constant every
/// chain starts from, computed once here rather than on each chain
/// (`empty_chain_is_tag_digest` holds it to the tag).
const CHAIN_INIT: [u8; 32] = [
    0xc2, 0x07, 0x89, 0x9e, 0x21, 0x9a, 0x8c, 0x5f, 0x92, 0xca, 0xba, 0x31, 0x8d, 0x3b, 0x5d, 0xa9,
    0x93, 0x34, 0x1f, 0xcf, 0x8b, 0xc1, 0xdd, 0x57, 0xd4, 0x0b, 0xb2, 0x2b, 0x2d, 0x49, 0x77, 0xfe,
];

/// Chained hash over an ordered sequence of data records.
///
/// `h_0 = H(tag)`, `h_i = H(h_{i-1} || be64(i) || be64(len) || record_i)`.
///
/// ```
/// use wormcrypt::ChainHash;
/// let mut c = ChainHash::new();
/// c.absorb(b"record one");
/// c.absorb(b"record two");
/// let digest = c.finalize();
/// assert_eq!(digest.len(), 32);
/// ```
#[derive(Clone, Debug)]
pub struct ChainHash {
    state: [u8; 32],
    count: u64,
}

impl Default for ChainHash {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainHash {
    /// Starts a new chain.
    pub fn new() -> Self {
        ChainHash {
            state: CHAIN_INIT,
            count: 0,
        }
    }

    /// Absorbs the next record in order.
    pub fn absorb(&mut self, record: &[u8]) {
        let mut h = Sha256::new();
        h.update(&self.state);
        h.update(&self.count.to_be_bytes());
        h.update(&(record.len() as u64).to_be_bytes());
        h.update(record);
        self.state = h.finalize_array();
        self.count += 1;
    }

    /// Absorbs a record supplied in streaming chunks (for large records the
    /// caller does not want to buffer). The record boundary is closed when
    /// the returned [`ChainRecordWriter`] is finished.
    pub fn absorb_streaming(&mut self) -> ChainRecordWriter<'_> {
        let mut h = Sha256::new();
        h.update(&self.state);
        h.update(&self.count.to_be_bytes());
        ChainRecordWriter {
            chain: self,
            hasher: h,
            len: 0,
        }
    }

    /// Number of records absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the chain digest.
    pub fn finalize(self) -> [u8; 32] {
        self.state
    }

    /// Digest without consuming (the chain can keep absorbing afterwards).
    pub fn current(&self) -> &[u8] {
        &self.state
    }

    /// One-shot digest of an ordered record list.
    pub fn digest_records<'a, I>(records: I) -> [u8; 32]
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut c = ChainHash::new();
        for r in records {
            c.absorb(r);
        }
        c.finalize()
    }
}

/// Streaming writer for one record inside a [`ChainHash`].
///
/// Note: the streaming form hashes `h_{i-1} || be64(i) || record || be64(len)`
/// (length *suffix* rather than prefix, since the length is unknown up
/// front); it therefore produces a digest distinct from [`ChainHash::absorb`]
/// but with the same binding properties.
#[derive(Debug)]
pub struct ChainRecordWriter<'a> {
    chain: &'a mut ChainHash,
    hasher: Sha256,
    len: u64,
}

impl ChainRecordWriter<'_> {
    /// Appends a chunk of the current record.
    pub fn write(&mut self, chunk: &[u8]) {
        self.hasher.update(chunk);
        self.len += chunk.len() as u64;
    }

    /// Closes the record and advances the chain.
    pub fn finish(self) {
        let mut h = self.hasher;
        h.update(&self.len.to_be_bytes());
        self.chain.state = h.finalize_array();
        self.chain.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Domain-separation tag for the first link of a chain.
    const CHAIN_INIT_TAG: &[u8] = b"strongworm.chain.v1";

    #[test]
    fn empty_chain_is_tag_digest() {
        let c = ChainHash::new();
        assert_eq!(c.count(), 0);
        assert_eq!(c.finalize(), Sha256::digest_array(CHAIN_INIT_TAG));
    }

    #[test]
    fn order_matters() {
        let ab = ChainHash::digest_records([b"a".as_slice(), b"b".as_slice()]);
        let ba = ChainHash::digest_records([b"b".as_slice(), b"a".as_slice()]);
        assert_ne!(ab, ba);
    }

    #[test]
    fn boundaries_matter() {
        // ("ab") vs ("a", "b") must differ — length framing prevents
        // record-boundary confusion.
        let joined = ChainHash::digest_records([b"ab".as_slice()]);
        let split = ChainHash::digest_records([b"a".as_slice(), b"b".as_slice()]);
        assert_ne!(joined, split);
    }

    #[test]
    fn deterministic() {
        let r: Vec<&[u8]> = vec![b"x", b"y", b"z"];
        assert_eq!(
            ChainHash::digest_records(r.iter().copied()),
            ChainHash::digest_records(r.iter().copied())
        );
    }

    #[test]
    fn single_bit_change_propagates() {
        let base = ChainHash::digest_records([b"aaaa".as_slice(), b"bbbb".as_slice()]);
        let tweaked = ChainHash::digest_records([b"aaab".as_slice(), b"bbbb".as_slice()]);
        assert_ne!(base, tweaked);
    }

    #[test]
    fn streaming_record_is_consistent() {
        let mut c1 = ChainHash::new();
        {
            let mut w = c1.absorb_streaming();
            w.write(b"hello ");
            w.write(b"world");
            w.finish();
        }
        let mut c2 = ChainHash::new();
        {
            let mut w = c2.absorb_streaming();
            w.write(b"hello world");
            w.finish();
        }
        assert_eq!(c1.current(), c2.current());
        assert_eq!(c1.count(), 1);
    }

    #[test]
    fn current_continues() {
        let mut c = ChainHash::new();
        c.absorb(b"one");
        let mid = c.current().to_vec();
        c.absorb(b"two");
        assert_ne!(mid, c.current());
    }
}
