//! Seeded inputs: the request stream and the payload bytes. The program
//! under test only ever sees what comes out of here.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// Read the corpus record at this index.
    Read(usize),
    /// Write a new record of this many bytes.
    Write(usize),
}

/// The request stream of a wire workload: uniform reads over `records`
/// corpus entries, with every `write_every`-th request a write.
pub struct Stream {
    rng: StdRng,
    records: usize,
    write_every: Option<usize>,
    write_bytes: usize,
    issued: usize,
}

impl Stream {
    pub fn new(seed: u64, records: usize, write_every: Option<usize>, write_bytes: usize) -> Self {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x5712_EA11),
            records,
            write_every,
            write_bytes,
            issued: 0,
        }
    }
}

impl Iterator for Stream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        self.issued += 1;
        let draw = self.rng.next_u64();
        Some(match self.write_every {
            Some(k) if self.issued.is_multiple_of(k) => Req::Write(jitter(self.write_bytes, draw)),
            _ => Req::Read((draw % self.records as u64) as usize),
        })
    }
}

/// A record size within 1/16 below `nominal`, chosen by `draw`. Sizes
/// vary a little with the seed so that a second seed lands records on
/// different extents and offsets, and so that no byte-derived count is
/// a constant of the benchmark rather than of the program.
pub fn jitter(nominal: usize, draw: u64) -> usize {
    nominal - (draw % (nominal as u64 / 16).max(1)) as usize
}

const MAGIC: &[u8; 8] = b"WBNCHMRK";
/// Bytes at the head of every payload that identify it on the raw
/// medium: magic, tag, payload length, and a check word binding them.
pub const MARKER_BYTES: usize = 32;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn marker(tag: u64, len: usize) -> [u8; MARKER_BYTES] {
    let mut m = [0u8; MARKER_BYTES];
    m[..8].copy_from_slice(MAGIC);
    m[8..16].copy_from_slice(&tag.to_be_bytes());
    m[16..24].copy_from_slice(&(len as u64).to_be_bytes());
    let check = mix(mix(tag ^ 0x9E37_79B9_7F4A_7C15) ^ len as u64);
    m[24..].copy_from_slice(&check.to_be_bytes());
    m
}

/// Payload bytes for record `tag`: a unique marker followed by seeded
/// random fill. Regenerating instead of storing lets the gate compare
/// every byte of every read without keeping the corpus twice.
pub struct Payloads {
    fill: Vec<u8>,
}

impl Payloads {
    pub fn new(seed: u64, max_bytes: usize) -> Self {
        let mut fill = vec![0u8; max_bytes];
        StdRng::seed_from_u64(seed ^ 0xF111_B17E).fill_bytes(&mut fill);
        Payloads { fill }
    }

    pub fn make(&self, tag: u64, len: usize) -> Vec<u8> {
        let mut p = self.fill[..len].to_vec();
        p[..MARKER_BYTES].copy_from_slice(&marker(tag, len));
        p
    }

    /// Whether `got` is, byte for byte and in length, what [`Payloads::make`]
    /// produced for `tag`.
    pub fn matches(&self, tag: u64, got: &[u8]) -> bool {
        got.len() >= MARKER_BYTES
            && got.len() <= self.fill.len()
            && got[..MARKER_BYTES] == marker(tag, got.len())
            && got[MARKER_BYTES..] == self.fill[MARKER_BYTES..got.len()]
    }
}

/// Tags of every intact payload marker found on a raw medium.
pub fn scan_markers(raw: &[u8]) -> Vec<u64> {
    let mut found = Vec::new();
    let mut at = 0;
    while let Some(i) = raw[at..].windows(8).position(|w| w == MAGIC) {
        let start = at + i;
        at = start + 1;
        let Some(m) = raw.get(start..start + MARKER_BYTES) else {
            break;
        };
        let tag = u64::from_be_bytes(m[8..16].try_into().expect("8 bytes"));
        let len = u64::from_be_bytes(m[16..24].try_into().expect("8 bytes"));
        if m == marker(tag, len as usize) {
            found.push(tag);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let take = |seed| {
            Stream::new(seed, 64, Some(20), 4096)
                .take(500)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        let s = take(7);
        // Every 20th request, and only those, is a write near 4 KiB.
        for (i, r) in s.iter().enumerate() {
            match r {
                Req::Write(n) => {
                    assert_eq!((i + 1) % 20, 0);
                    assert!((3840..=4096).contains(n));
                }
                Req::Read(idx) => {
                    assert_ne!((i + 1) % 20, 0);
                    assert!(*idx < 64);
                }
            }
        }
    }

    #[test]
    fn payload_round_trip_and_scan() {
        let p = Payloads::new(3, 1024);
        let a = p.make(41, 1000);
        assert!(p.matches(41, &a));
        assert!(!p.matches(42, &a));
        let mut flipped = a.clone();
        flipped[999] ^= 1;
        assert!(!p.matches(41, &flipped));
        assert!(!p.matches(41, &a[..999])); // a truncated record is not the record
        assert_eq!(Payloads::new(3, 1024).make(41, 1000), a);

        let mut medium = vec![0u8; 5000];
        medium[100..1100].copy_from_slice(&a);
        medium[3000..3032].copy_from_slice(&marker(9, 64));
        medium[4000..4008].copy_from_slice(MAGIC); // magic alone is not a marker
        assert_eq!(scan_markers(&medium), vec![41, 9]);
    }
}
