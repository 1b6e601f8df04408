//! Host-side maintenance daemon.
//!
//! §4.2.2 describes the Retention Monitor as a daemon that sleeps until
//! the next VEXP expiry. The *device-side* wake/sleep logic lives in the
//! firmware ([`crate::firmware`]); this module supplies the host-side
//! driver a production deployment runs on a background thread: it
//! periodically ticks the device (delivering due alarms), grants idle
//! budget for witness strengthening and audits, and compacts expired
//! runs — so the store maintains itself while the foreground serves
//! requests.
//!
//! The daemon holds a plain `Arc<WormServer>` — every maintenance pass
//! serializes only against the *witness plane*, so foreground reads keep
//! flowing while the pass runs (the whole point of the two-plane split).
//!
//! A failed pass does **not** stop the loop: one transient store or
//! device hiccup must not silently halt all expiration processing. The
//! daemon retries with bounded exponential backoff, counts consecutive
//! failures, and exposes the most recent error on the handle so an
//! operator (or test) can observe degraded maintenance while the loop
//! keeps trying. Only an optional consecutive-failure limit makes it
//! give up.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};
use wormaudit::AuditClass;
use wormstore::BlockDevice;
use wormtrace::sync::{Mutex, Rank};

use crate::error::WormError;
use crate::server::WormServer;

/// Configuration of the maintenance loop.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Wall-clock pause between maintenance passes.
    pub interval: Duration,
    /// Virtual-time idle budget granted to the SCPU per pass (ns).
    pub idle_budget_ns: u64,
    /// Run window compaction every `compact_every` passes (0 = never).
    pub compact_every: u32,
    /// Upper bound on the exponential retry backoff after failed passes.
    pub max_backoff: Duration,
    /// Give up (thread exits with the final error) after this many
    /// *consecutive* failed passes; `0` retries forever.
    pub max_consecutive_failures: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            interval: Duration::from_millis(100),
            idle_budget_ns: 50_000_000,
            compact_every: 10,
            max_backoff: Duration::from_secs(5),
            max_consecutive_failures: 0,
        }
    }
}

/// Failure counters and last-error slot shared with the daemon thread.
struct DaemonStatus {
    last_error: Mutex<Option<String>>,
    consecutive_failures: AtomicU32,
    total_failures: AtomicU64,
    passes: AtomicU64,
}

impl Default for DaemonStatus {
    fn default() -> Self {
        DaemonStatus {
            last_error: Mutex::new(Rank::DaemonStatus, None),
            consecutive_failures: AtomicU32::default(),
            total_failures: AtomicU64::default(),
            passes: AtomicU64::default(),
        }
    }
}

/// Handle to a running maintenance daemon.
///
/// Dropping the handle *without* calling [`RetentionDaemon::stop`] detaches
/// the thread (it keeps maintaining the store until process exit) — call
/// `stop` for an orderly shutdown that reports the terminal error, if any.
pub struct RetentionDaemon {
    shutdown: Sender<()>,
    handle: Option<JoinHandle<Result<(), WormError>>>,
    status: Arc<DaemonStatus>,
}

impl RetentionDaemon {
    /// Spawns the maintenance loop over a shared server. Maintenance
    /// passes contend only on the witness plane; concurrent readers are
    /// never blocked by a pass.
    #[expect(
        clippy::expect_used,
        reason = "one thread spawned once at startup; failure means OS resource exhaustion before the server ever served, and the caller cannot run without its retention daemon"
    )]
    pub fn spawn<D>(server: Arc<WormServer<D>>, config: DaemonConfig) -> Self
    where
        D: BlockDevice + 'static,
    {
        let (shutdown, rx) = bounded::<()>(1);
        let status = Arc::new(DaemonStatus::default());
        let thread_status = Arc::clone(&status);
        // Trace instruments, resolved once before the loop starts.
        let trace = Arc::clone(server.trace());
        let pass_op = trace.op("daemon.pass");
        let backoff_gauge = trace.gauge("daemon.backoff_ms");
        let failures_gauge = trace.gauge("daemon.consecutive_failures");
        let handle = std::thread::Builder::new()
            .name("worm-retention-daemon".into())
            .spawn(move || -> Result<(), WormError> {
                let mut pass: u32 = 0;
                let mut backoff = config.interval;
                loop {
                    // Sleep until the next pass or an orderly shutdown.
                    // After a failure the sleep is the current backoff
                    // instead of the regular interval.
                    wormtrace::sync::blocking("the daemon's pause between passes");
                    if rx.recv_timeout(backoff).is_ok() {
                        return Ok(());
                    }
                    pass = pass.wrapping_add(1);
                    let observed = trace.observe(&pass_op, "daemon.pass", wormtrace::Plane::Daemon);
                    let result = Self::run_pass(&server, &config, pass);
                    observed.finish(result.is_ok(), None);
                    // ordering: status counters are read by observers
                    // for display only; the daemon thread is the sole
                    // writer, so no cross-field ordering is needed.
                    thread_status.passes.fetch_add(1, Ordering::Relaxed);
                    match result {
                        Ok(()) => {
                            thread_status
                                .consecutive_failures
                                .store(0, Ordering::Relaxed); // ordering: status, see above
                            backoff = config.interval;
                        }
                        Err(e) => {
                            let streak = thread_status
                                .consecutive_failures
                                .fetch_add(1, Ordering::Relaxed) // ordering: status, see above
                                + 1;
                            // ordering: status, see above
                            thread_status.total_failures.fetch_add(1, Ordering::Relaxed);
                            *thread_status.last_error.lock() = Some(e.to_string());
                            if config.max_consecutive_failures != 0
                                && streak >= config.max_consecutive_failures
                            {
                                failures_gauge.set(streak as u64);
                                // Retention enforcement stopping is an
                                // integrity event.
                                server.audit().emit(
                                    AuditClass::RetentionGiveUp,
                                    None,
                                    &format!("gave up after {streak} failed passes: {e}"),
                                );
                                return Err(e);
                            }
                            // Bounded exponential backoff: double the
                            // pause per consecutive failure, capped.
                            backoff = (backoff * 2).min(config.max_backoff.max(config.interval));
                        }
                    }
                    backoff_gauge.set(backoff.as_millis() as u64);
                    failures_gauge
                        // ordering: same-thread read-back of the status
                        // counter stored above; trivially coherent.
                        .set(thread_status.consecutive_failures.load(Ordering::Relaxed) as u64);
                }
            })
            .expect("daemon thread spawns");
        RetentionDaemon {
            shutdown,
            handle: Some(handle),
            status,
        }
    }

    /// One maintenance pass: tick, idle grant, periodic compaction. The
    /// first failing step aborts the pass (the next pass retries all of
    /// them — every step is idempotent).
    fn run_pass<D: BlockDevice>(
        server: &WormServer<D>,
        config: &DaemonConfig,
        pass: u32,
    ) -> Result<(), WormError> {
        server.tick()?;
        server.idle(config.idle_budget_ns)?;
        if config.compact_every > 0 && pass.is_multiple_of(config.compact_every) {
            server.compact()?;
        }
        Ok(())
    }

    /// Stops the loop and returns its final status.
    ///
    /// # Errors
    ///
    /// The error that made the daemon give up (consecutive-failure limit
    /// reached), if it did. Transient failures the loop survived are *not*
    /// reported here — inspect [`RetentionDaemon::last_error`] for those.
    pub fn stop(mut self) -> Result<(), WormError> {
        let _ = self.shutdown.send(());
        match self.handle.take() {
            Some(h) => {
                // It waits out at most one pass, which takes the witness
                // lock: the caller must hold no lock itself.
                wormtrace::sync::blocking("joining the retention daemon");
                h.join()
                    .unwrap_or_else(|_| Err(WormError::Firmware("daemon panicked".into())))
            }
            None => Ok(()),
        }
    }

    /// Whether the daemon thread is still running.
    pub fn is_running(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// The most recent maintenance-pass error, if any pass has failed.
    /// Stays populated after a later successful pass — it answers "what
    /// went wrong last", not "is it failing now" (use
    /// [`RetentionDaemon::consecutive_failures`] for that).
    pub fn last_error(&self) -> Option<String> {
        self.status.last_error.lock().clone()
    }

    /// How many passes in a row have failed (0 when healthy).
    pub fn consecutive_failures(&self) -> u32 {
        // ordering: display-only status read; a stale value is as
        // informative as one an instant fresher.
        self.status.consecutive_failures.load(Ordering::Relaxed)
    }

    /// Total failed passes over the daemon's lifetime.
    pub fn total_failures(&self) -> u64 {
        self.status.total_failures.load(Ordering::Relaxed) // ordering: status, see above
    }

    /// Total maintenance passes attempted.
    pub fn passes(&self) -> u64 {
        self.status.passes.load(Ordering::Relaxed) // ordering: status, see above
    }
}

impl Drop for RetentionDaemon {
    fn drop(&mut self) {
        // Best-effort signal; never blocks in Drop (C-DTOR-BLOCK).
        let _ = self.shutdown.try_send(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::RegulatoryAuthority;
    use crate::config::WormConfig;
    use crate::policy::RetentionPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scpu::VirtualClock;
    use wormstore::Shredder;

    fn fixture() -> (Arc<WormServer>, Arc<VirtualClock>) {
        let clock = VirtualClock::starting_at_millis(1000);
        let reg = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(91), 512);
        let srv =
            WormServer::new(WormConfig::test_small(), clock.clone(), reg.public()).expect("boot");
        (Arc::new(srv), clock)
    }

    #[test]
    fn daemon_deletes_expired_records_in_background() {
        let (server, clock) = fixture();
        server
            .write(
                &[b"anchor"],
                RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill),
            )
            .unwrap();
        let sn = server
            .write(
                &[b"fleeting"],
                RetentionPolicy::custom(Duration::from_secs(10), Shredder::ZeroFill),
            )
            .unwrap();
        let daemon = RetentionDaemon::spawn(
            server.clone(),
            DaemonConfig {
                interval: Duration::from_millis(5),
                idle_budget_ns: 1_000_000_000,
                compact_every: 2,
                ..DaemonConfig::default()
            },
        );
        assert!(daemon.is_running());

        clock.advance(Duration::from_secs(11));
        // Wait (bounded) for the background pass to process the expiry —
        // reading concurrently with the daemon, no outer lock.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if server.read(sn).unwrap().kind() == "deleted" {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon did not process the expiry in time"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(daemon.last_error(), None);
        daemon.stop().unwrap();
    }

    #[test]
    fn daemon_strengthens_deferred_witnesses_in_background() {
        let (server, _clock) = fixture();
        let sn = server
            .write_with(
                &[b"burst"],
                RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill),
                0,
                crate::config::WitnessMode::Deferred,
            )
            .unwrap();
        let daemon = RetentionDaemon::spawn(server.clone(), DaemonConfig::default());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let crate::proofs::ReadOutcome::Data { vrd, .. } = server.read(sn).unwrap() {
                if vrd.metasig.is_strong() && vrd.datasig.is_strong() {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon did not strengthen in time"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.stop().unwrap();
    }

    #[test]
    fn stop_is_orderly() {
        let (server, _clock) = fixture();
        let daemon = RetentionDaemon::spawn(server, DaemonConfig::default());
        assert!(daemon.is_running());
        daemon.stop().unwrap();
    }

    /// Regression: the loop used to exit on the first `tick()` error,
    /// silently halting all expiration until someone called `stop()`. It
    /// must instead keep retrying (with backoff), count the failures, and
    /// expose the error on the handle.
    #[test]
    fn daemon_survives_injected_tick_errors() {
        let (server, _clock) = fixture();
        let daemon = RetentionDaemon::spawn(
            server.clone(),
            DaemonConfig {
                interval: Duration::from_millis(2),
                max_backoff: Duration::from_millis(10),
                ..DaemonConfig::default()
            },
        );
        // Every subsequent tick fails at the device boundary.
        server.tamper_device(scpu::TamperCause::Voltage);

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while daemon.total_failures() < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon did not keep retrying after errors"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Still alive despite repeated failures, and the failure is
        // observable on the handle.
        assert!(daemon.is_running());
        assert!(daemon.consecutive_failures() >= 3);
        let err = daemon.last_error().expect("last error recorded");
        assert!(err.contains("coprocessor"), "unexpected error: {err}");
        // Orderly shutdown still works and is not itself an error.
        daemon.stop().unwrap();
    }

    /// With a consecutive-failure limit configured, the daemon gives up
    /// and `stop()` reports the terminal error.
    #[test]
    fn daemon_gives_up_after_consecutive_failure_limit() {
        let (server, _clock) = fixture();
        let daemon = RetentionDaemon::spawn(
            server.clone(),
            DaemonConfig {
                interval: Duration::from_millis(2),
                max_backoff: Duration::from_millis(5),
                max_consecutive_failures: 4,
                ..DaemonConfig::default()
            },
        );
        server.tamper_device(scpu::TamperCause::Penetration);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while daemon.is_running() {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never hit its failure limit"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(daemon.total_failures(), 4);
        assert!(matches!(daemon.stop(), Err(WormError::Device(_))));
    }
}
