//! Media shredding algorithms.
//!
//! "To delete a record v, the SCPU first invokes the associated storage
//! media-related data shredding algorithms" (§4.2.2), and every VRD carries
//! a `shredding algorithm` attribute (Table 1). [`Shredder`] implements the
//! standard overwrite disciplines; after shredding, the record's bytes are
//! unrecoverable from the medium even with raw access.

use rand::RngCore;

use crate::block::{BlockDevice, BlockError};
use crate::record::RecordDescriptor;

/// Overwrite discipline applied on secure deletion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Shredder {
    /// Single zero-fill pass (NIST 800-88 "clear" for magnetic media).
    #[default]
    ZeroFill,
    /// Alternating pattern passes (0x00, 0xFF, ...) followed by a random
    /// pass — DoD 5220.22-M style.
    MultiPass {
        /// Number of pattern passes before the final random pass.
        passes: u8,
    },
    /// Single random-data pass.
    RandomPass,
}

impl Shredder {
    /// The (kind, argument) byte pair every encoding of a shredder
    /// carries: the wire's policies, record attributes (under
    /// `metasig`) and journalled shred states.
    pub fn code(self) -> (u8, u8) {
        match self {
            Shredder::ZeroFill => (0, 0),
            Shredder::MultiPass { passes } => (1, passes),
            Shredder::RandomPass => (2, 0),
        }
    }

    /// Decodes a (kind, argument) pair. Canonical: an argument-less
    /// shredder must carry a zero argument byte, so no two distinct
    /// pairs decode equal.
    pub fn from_code(kind: u8, arg: u8) -> Option<Self> {
        Some(match (kind, arg) {
            (0, 0) => Shredder::ZeroFill,
            (1, passes) => Shredder::MultiPass { passes },
            (2, 0) => Shredder::RandomPass,
            _ => return None,
        })
    }

    /// Total device writes this discipline performs per extent.
    pub fn pass_count(&self) -> u32 {
        match self {
            Shredder::ZeroFill => 1,
            Shredder::MultiPass { passes } => *passes as u32 + 1,
            Shredder::RandomPass => 1,
        }
    }

    /// Destroys the extent described by `rd` on `dev`.
    ///
    /// # Errors
    ///
    /// Propagates device errors; a failed pass leaves the extent partially
    /// overwritten (the caller should retry or quarantine the device).
    pub fn shred<D, R>(&self, dev: &D, rd: &RecordDescriptor, rng: &mut R) -> Result<(), BlockError>
    where
        D: BlockDevice + ?Sized,
        R: RngCore + ?Sized,
    {
        self.shred_from(dev, rd, rng, 0)
    }

    /// Resumes a shred at pass `start_pass` (0-based), running it and every
    /// later pass. A crash mid-[`Shredder::MultiPass`] resumes from its
    /// persisted progress marker instead of restarting, so pass *order*
    /// (patterns before the final random pass) is preserved across power
    /// loss.
    ///
    /// `start_pass >= pass_count()` is a completed shred: a no-op.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn shred_from<D, R>(
        &self,
        dev: &D,
        rd: &RecordDescriptor,
        rng: &mut R,
        start_pass: u32,
    ) -> Result<(), BlockError>
    where
        D: BlockDevice + ?Sized,
        R: RngCore + ?Sized,
    {
        for pass in start_pass..self.pass_count() {
            self.write_pass(dev, rd, rng, pass)?;
        }
        Ok(())
    }

    /// Performs exactly one overwrite pass (0-based; the caller persists a
    /// progress marker between passes to make the shred crash-resumable).
    /// Passes at or beyond [`Shredder::pass_count`] are no-ops.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write_pass<D, R>(
        &self,
        dev: &D,
        rd: &RecordDescriptor,
        rng: &mut R,
        pass: u32,
    ) -> Result<(), BlockError>
    where
        D: BlockDevice + ?Sized,
        R: RngCore + ?Sized,
    {
        if pass >= self.pass_count() {
            return Ok(());
        }
        let len = rd.len as usize;
        match self {
            Shredder::ZeroFill => dev.write_at(rd.offset, &vec![0u8; len]),
            Shredder::MultiPass { passes } if pass < *passes as u32 => {
                let fill = if pass.is_multiple_of(2) { 0x00 } else { 0xFF };
                dev.write_at(rd.offset, &vec![fill; len])
            }
            Shredder::MultiPass { .. } | Shredder::RandomPass => {
                let mut noise = vec![0u8; len];
                rng.fill_bytes(&mut noise);
                dev.write_at(rd.offset, &noise)
            }
        }
    }
}

impl std::fmt::Display for Shredder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Shredder::ZeroFill => f.write_str("zero-fill"),
            Shredder::MultiPass { passes } => write!(f, "multi-pass({passes}+random)"),
            Shredder::RandomPass => f.write_str("random-pass"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDisk;
    use crate::record::RecordId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn codes_roundtrip_and_are_canonical() {
        for s in [
            Shredder::ZeroFill,
            Shredder::MultiPass { passes: 0 },
            Shredder::MultiPass { passes: 7 },
            Shredder::RandomPass,
        ] {
            let (kind, arg) = s.code();
            assert_eq!(Shredder::from_code(kind, arg), Some(s));
        }
        for (kind, arg) in [(0, 5), (2, 5), (3, 0)] {
            assert_eq!(Shredder::from_code(kind, arg), None, "({kind}, {arg})");
        }
    }

    fn setup() -> (MemDisk, RecordDescriptor, StdRng) {
        let dev = MemDisk::unmetered(256);
        dev.write_at(64, b"highly sensitive compliance data")
            .unwrap();
        let rd = RecordDescriptor {
            id: RecordId(1),
            offset: 64,
            len: 32,
        };
        (dev, rd, StdRng::seed_from_u64(99))
    }

    #[test]
    fn zero_fill_erases() {
        let (dev, rd, mut rng) = setup();
        Shredder::ZeroFill.shred(&dev, &rd, &mut rng).unwrap();
        assert!(dev.raw()[64..96].iter().all(|&b| b == 0));
        // Neighbouring bytes untouched.
        assert!(dev.raw()[..64].iter().all(|&b| b == 0));
        assert_eq!(dev.stats().writes, 2); // setup write + 1 pass
    }

    #[test]
    fn random_pass_leaves_no_plaintext() {
        let (dev, rd, mut rng) = setup();
        Shredder::RandomPass.shred(&dev, &rd, &mut rng).unwrap();
        let raw = dev.raw();
        let region = &raw[64..96];
        assert_ne!(region, b"highly sensitive compliance data");
        assert!(region.iter().any(|&b| b != 0)); // actually randomized
    }

    #[test]
    fn multipass_counts_writes() {
        let (dev, rd, mut rng) = setup();
        let s = Shredder::MultiPass { passes: 3 };
        assert_eq!(s.pass_count(), 4);
        dev.reset_stats();
        s.shred(&dev, &rd, &mut rng).unwrap();
        assert_eq!(dev.stats().writes, 4);
        assert_ne!(&dev.raw()[64..96], b"highly sensitive compliance data");
    }

    #[test]
    fn shred_out_of_range_fails() {
        let (dev, _, mut rng) = setup();
        let rd = RecordDescriptor {
            id: RecordId(2),
            offset: 250,
            len: 32,
        };
        assert!(Shredder::ZeroFill.shred(&dev, &rd, &mut rng).is_err());
    }

    #[test]
    fn resume_from_every_pass_completes_and_erases() {
        let s = Shredder::MultiPass { passes: 3 };
        for start in 0..=s.pass_count() {
            let (dev, rd, mut rng) = setup();
            // Crash after `start` passes already ran: perform them, then
            // resume from the marker.
            for p in 0..start {
                s.write_pass(&dev, &rd, &mut rng, p).unwrap();
            }
            dev.reset_stats();
            s.shred_from(&dev, &rd, &mut rng, start).unwrap();
            assert_eq!(
                dev.stats().writes,
                (s.pass_count() - start) as u64,
                "resume from pass {start} must run exactly the remaining passes"
            );
            if start < s.pass_count() {
                assert_ne!(
                    &dev.raw()[64..96],
                    b"highly sensitive compliance data",
                    "resumed shred (from {start}) left plaintext"
                );
            }
        }
    }

    #[test]
    fn pass_beyond_count_is_noop() {
        let (dev, rd, mut rng) = setup();
        dev.reset_stats();
        Shredder::ZeroFill
            .write_pass(&dev, &rd, &mut rng, 7)
            .unwrap();
        Shredder::ZeroFill
            .shred_from(&dev, &rd, &mut rng, 1)
            .unwrap();
        assert_eq!(dev.stats().writes, 0);
        assert_eq!(&dev.raw()[64..96], b"highly sensitive compliance data");
    }

    #[test]
    fn multipass_pass_order_is_stable_across_resume() {
        // Pass 1 of MultiPass{2} is the 0xFF pattern whether run inline or
        // resumed — order, not just count, survives the crash.
        let s = Shredder::MultiPass { passes: 2 };
        let (dev, rd, mut rng) = setup();
        s.write_pass(&dev, &rd, &mut rng, 0).unwrap();
        s.write_pass(&dev, &rd, &mut rng, 1).unwrap();
        assert!(dev.raw()[64..96].iter().all(|&b| b == 0xFF));
        let (dev2, rd2, mut rng2) = setup();
        s.write_pass(&dev2, &rd2, &mut rng2, 0).unwrap();
        // "crash" — resume from pass 1.
        s.shred_from(&dev2, &rd2, &mut rng2, 1).unwrap();
        assert!(dev2.raw()[64..96].iter().any(|&b| b != 0));
    }

    #[test]
    fn display_names() {
        assert_eq!(Shredder::ZeroFill.to_string(), "zero-fill");
        assert_eq!(
            Shredder::MultiPass { passes: 3 }.to_string(),
            "multi-pass(3+random)"
        );
        assert_eq!(Shredder::RandomPass.to_string(), "random-pass");
    }
}
