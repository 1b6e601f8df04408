//! A medium that loses power at an exact write boundary.
//!
//! [`TornDisk`] wraps any [`BlockDevice`] and cuts power at a chosen
//! write, optionally applying the write in flight *partially* — the
//! torn-sector behaviours real disks exhibit. After the cut every access
//! fails with [`BlockError::PowerLost`] until the rig "reboots the host"
//! with [`TornDisk::revive`] and runs recovery against the same medium.
//! [`TornDisk::writes_seen`] counts the boundaries an unarmed run
//! crosses, which is what a sweep enumerates.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use wormstore::{BlockDevice, BlockError, IoStats};

use crate::mix;

/// How much of the in-flight write reaches the medium when the cut fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CutStyle {
    /// The write is lost entirely (power died before the controller saw
    /// it).
    Drop,
    /// A seeded prefix of the write lands (sequential sector commit torn
    /// mid-stream).
    Prefix,
    /// A seeded suffix lands (out-of-order sector scheduling committed
    /// the tail first).
    Suffix,
    /// A seeded prefix lands, followed by a seeded run of garbage bytes
    /// (a sector that was being written when the voltage sagged).
    Garbage,
}

impl CutStyle {
    /// Every style, in declaration order (so `style as usize` indexes
    /// it), which is the order a sweep enumerates them in.
    pub const ALL: [CutStyle; 4] = [
        CutStyle::Drop,
        CutStyle::Prefix,
        CutStyle::Suffix,
        CutStyle::Garbage,
    ];
}

impl std::fmt::Display for CutStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CutStyle::Drop => "drop",
            CutStyle::Prefix => "prefix",
            CutStyle::Suffix => "suffix",
            CutStyle::Garbage => "garbage",
        })
    }
}

/// A scheduled power cut: fire at the `at_write`-th write (1-based),
/// applying the in-flight data per `style`, deterministically from
/// `seed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutPlan {
    /// Which write boundary to cut at (1 = the very next write).
    pub at_write: u64,
    /// What the torn write leaves on the medium.
    pub style: CutStyle,
    /// Seed for the partial-length and garbage-byte decisions.
    pub seed: u64,
}

/// Control block: one mutex keeps the boundary count, the armed plan and
/// the dead flag mutually consistent without any atomics to audit. It is
/// a leaf: nothing is locked while it is held.
#[derive(Debug)]
struct TornCtl {
    writes: u64,
    armed: Option<CutPlan>,
    /// `Some(boundary)` once the cut fired.
    dead: Option<u64>,
}

#[derive(Debug)]
struct TornState<D> {
    inner: D,
    ctl: Mutex<TornCtl>,
}

/// Fault-injection wrapper cutting power at an exact write boundary.
///
/// Cheaply cloneable: every clone shares the same medium and cut state,
/// so a test can hand one handle to the store under test and keep
/// another for reviving and raw inspection.
#[derive(Debug)]
pub struct TornDisk<D> {
    state: Arc<TornState<D>>,
}

impl<D> Clone for TornDisk<D> {
    fn clone(&self) -> Self {
        TornDisk {
            state: Arc::clone(&self.state),
        }
    }
}

impl<D: BlockDevice> TornDisk<D> {
    /// Wraps `inner` with no cut armed.
    pub fn new(inner: D) -> Self {
        TornDisk {
            state: Arc::new(TornState {
                inner,
                ctl: Mutex::new(TornCtl {
                    writes: 0,
                    armed: None,
                    dead: None,
                }),
            }),
        }
    }

    /// The control block, entered through the poison: nothing that runs
    /// while it is held can panic, so a poisoned block is still
    /// consistent.
    fn ctl(&self) -> MutexGuard<'_, TornCtl> {
        self.state
            .ctl
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The wrapped device (raw-medium inspection after a crash).
    pub fn inner(&self) -> &D {
        &self.state.inner
    }

    /// Arms a power cut. Replaces any previously armed plan.
    pub fn arm(&self, plan: CutPlan) {
        self.ctl().armed = Some(plan);
    }

    /// Write boundaries crossed so far (profiling an unarmed run). The
    /// torn write itself counts.
    pub fn writes_seen(&self) -> u64 {
        self.ctl().writes
    }

    /// The boundary the cut fired at, if it fired.
    pub fn cut_fired(&self) -> Option<u64> {
        self.ctl().dead
    }

    /// Reboots the host: accesses work again, the armed plan (if it has
    /// not fired) is discarded, and the boundary counter restarts so a
    /// recovery run can be profiled and cut independently.
    pub fn revive(&self) {
        let mut ctl = self.ctl();
        ctl.dead = None;
        ctl.armed = None;
        ctl.writes = 0;
    }

    /// Applies the torn fraction of `data` to the medium per the plan.
    fn tear(&self, plan: &CutPlan, boundary: u64, offset: u64, data: &[u8]) {
        let r = mix(plan.seed ^ boundary.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let len = data.len();
        if len == 0 {
            return;
        }
        // Torn writes bypass the armed checks below by going straight to
        // the inner device; a failure here (range already validated by
        // the caller's contract) degrades to CutStyle::Drop.
        match plan.style {
            CutStyle::Drop => {}
            CutStyle::Prefix => {
                let k = (r as usize) % len; // 0..len-1: strictly partial
                let _ = self.state.inner.write_at(offset, &data[..k]);
            }
            CutStyle::Suffix => {
                let k = (r as usize) % len;
                let at = offset + (len - k) as u64;
                let _ = self.state.inner.write_at(at, &data[len - k..]);
            }
            CutStyle::Garbage => {
                let k = (r as usize) % len;
                let mut torn: Vec<u8> = data[..k].to_vec();
                let garbage = (mix(r) as usize) % (len - k + 1);
                let mut g = mix(r ^ 0xDEAD_BEEF);
                for _ in 0..garbage {
                    g = mix(g);
                    torn.push(g as u8);
                }
                let _ = self.state.inner.write_at(offset, &torn);
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for TornDisk<D> {
    fn capacity(&self) -> u64 {
        self.state.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        if let Some(at_write) = self.ctl().dead {
            return Err(BlockError::PowerLost { at_write });
        }
        self.state.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), BlockError> {
        let fired = {
            let mut ctl = self.ctl();
            if let Some(at_write) = ctl.dead {
                return Err(BlockError::PowerLost { at_write });
            }
            ctl.writes += 1;
            let boundary = ctl.writes;
            match ctl.armed {
                Some(plan) if plan.at_write == boundary => {
                    ctl.dead = Some(boundary);
                    ctl.armed = None;
                    Some((plan, boundary))
                }
                _ => None,
            }
        };
        match fired {
            Some((plan, boundary)) => {
                self.tear(&plan, boundary, offset, data);
                Err(BlockError::PowerLost { at_write: boundary })
            }
            None => self.state.inner.write_at(offset, data),
        }
    }

    fn stats(&self) -> IoStats {
        self.state.inner.stats()
    }

    fn reset_stats(&self) {
        self.state.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormstore::MemDisk;

    fn plan(at: u64, style: CutStyle) -> CutPlan {
        CutPlan {
            at_write: at,
            style,
            seed: 0x5EED,
        }
    }

    #[test]
    fn unarmed_passthrough_counts_boundaries() {
        let d = TornDisk::new(MemDisk::unmetered(64));
        d.write_at(0, b"aaaa").unwrap();
        d.write_at(4, b"bbbb").unwrap();
        assert_eq!(d.writes_seen(), 2);
        assert_eq!(d.cut_fired(), None);
        let mut buf = [0u8; 8];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"aaaabbbb");
    }

    #[test]
    fn drop_cut_applies_nothing_and_kills_device() {
        let d = TornDisk::new(MemDisk::unmetered(64));
        d.arm(plan(2, CutStyle::Drop));
        d.write_at(0, b"first").unwrap();
        assert!(matches!(
            d.write_at(16, b"second"),
            Err(BlockError::PowerLost { at_write: 2 })
        ));
        // Device is dead: reads and writes fail until revival.
        let mut buf = [0u8; 5];
        assert!(d.read_at(0, &mut buf).is_err());
        assert!(d.write_at(32, b"x").is_err());
        assert_eq!(d.cut_fired(), Some(2));
        // Revive and inspect: the torn write left nothing.
        d.revive();
        let mut buf = [0u8; 6];
        d.read_at(16, &mut buf).unwrap();
        assert_eq!(&buf, &[0u8; 6]);
    }

    #[test]
    fn prefix_cut_applies_strict_prefix() {
        let d = TornDisk::new(MemDisk::unmetered(64));
        d.arm(plan(1, CutStyle::Prefix));
        assert!(d.write_at(0, &[0xFF; 32]).is_err());
        d.revive();
        let mut buf = [0u8; 32];
        d.read_at(0, &mut buf).unwrap();
        let applied = buf.iter().take_while(|&&b| b == 0xFF).count();
        assert!(applied < 32, "prefix cut must not complete the write");
        assert!(
            buf[applied..].iter().all(|&b| b == 0),
            "prefix cut corrupted bytes past the torn point"
        );
    }

    #[test]
    fn suffix_cut_applies_strict_suffix() {
        let d = TornDisk::new(MemDisk::unmetered(64));
        d.arm(plan(1, CutStyle::Suffix));
        assert!(d.write_at(0, &[0xFF; 32]).is_err());
        d.revive();
        let mut buf = [0u8; 32];
        d.read_at(0, &mut buf).unwrap();
        let tail = buf.iter().rev().take_while(|&&b| b == 0xFF).count();
        assert!(tail < 32);
        assert!(buf[..32 - tail].iter().all(|&b| b == 0));
    }

    #[test]
    fn garbage_cut_is_deterministic() {
        let run = || {
            let d = TornDisk::new(MemDisk::unmetered(64));
            d.arm(plan(1, CutStyle::Garbage));
            let _ = d.write_at(0, &[0xFF; 32]);
            d.revive();
            let mut buf = [0u8; 32];
            d.read_at(0, &mut buf).unwrap();
            buf
        };
        assert_eq!(run(), run(), "same seed must tear identically");
    }

    #[test]
    fn a_cut_armed_on_a_clone_fires_on_every_handle() {
        let d = TornDisk::new(MemDisk::unmetered(64));
        let handle = d.clone();
        d.write_at(0, b"x").unwrap();
        handle.arm(plan(2, CutStyle::Drop));
        assert!(d.write_at(1, b"y").is_err());
        assert_eq!(handle.cut_fired(), Some(2));
        handle.revive();
        d.write_at(1, b"y").unwrap();
        assert_eq!(d.writes_seen(), 1, "revive restarts the boundary count");
    }

    #[test]
    fn zero_length_write_cut() {
        let d = TornDisk::new(MemDisk::unmetered(8));
        d.arm(plan(1, CutStyle::Garbage));
        assert!(d.write_at(0, b"").is_err());
    }
}
