//! The emulated secure coprocessor.
//!
//! [`Device`] wraps an [`Applet`] (firmware) together with the resources a
//! FIPS 140-2 Level 4 part provides inside its enclosure: a trusted clock,
//! hardware RNG, a small secure memory, a tamper circuit, and — because
//! the real part is an order of magnitude slower than the host — a
//! calibrated cost meter that charges every operation its IBM 4764
//! latency in virtual time.
//!
//! The **only** way in or out of the device is [`Device::execute`]. The
//! host never touches applet state directly; adversarial tests rely on
//! this boundary.

use std::sync::Arc;

use crate::applet::Applet;
use crate::clock::{Clock, Timestamp};
use crate::costmodel::{CostModel, Meter, Op};
use crate::memory::SecureMemory;
use crate::rng::DeviceRng;
use crate::tamper::{TamperCause, TamperCircuit};

/// Construction parameters for a [`Device`].
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Latency model charged for in-enclosure operations.
    pub cost_model: CostModel,
    /// Secure-memory budget in bytes (VEXP and other firmware state).
    pub secure_memory_bytes: usize,
    /// Device serial number (feeds the RNG and identifies the part).
    pub serial: u64,
    /// RNG seed, for reproducible test runs.
    pub rng_seed: u64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            cost_model: CostModel::ibm4764(),
            // The 4758/4764 family shipped with single-digit MB of RAM for
            // application use; 4 MB is a representative default.
            secure_memory_bytes: 4 << 20,
            serial: 0x4764,
            rng_seed: 0,
        }
    }
}

/// Errors crossing the device boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// The tamper response has fired; the device is permanently dead.
    Tampered(TamperCause),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Tampered(cause) => {
                write!(f, "device zeroized by tamper response ({cause})")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// In-enclosure execution environment handed to the firmware.
#[derive(Debug)]
pub struct Env {
    clock: Arc<dyn Clock>,
    rng: DeviceRng,
    cost_model: CostModel,
    meter: Meter,
    memory: SecureMemory,
}

impl Env {
    /// Current trusted time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The device RNG.
    pub fn rng(&mut self) -> &mut DeviceRng {
        &mut self.rng
    }

    /// Charges `op` to the virtual-time meter and returns its cost in ns.
    pub fn charge(&mut self, op: Op) -> u64 {
        let ns = self.cost_model.cost_ns(op);
        self.meter.record(op, ns);
        ns
    }

    /// Cost of `op` without charging it (for idle-budget planning).
    pub fn peek_cost(&self, op: Op) -> u64 {
        self.cost_model.cost_ns(op)
    }

    /// The secure-memory budget.
    pub fn memory(&mut self) -> &mut SecureMemory {
        &mut self.memory
    }

    /// Read-only view of the cost meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }
}

/// An emulated secure coprocessor running firmware `A`.
#[derive(Debug)]
pub struct Device<A: Applet> {
    applet: A,
    env: Env,
    tamper: TamperCircuit,
    trace: Option<Arc<wormtrace::Registry>>,
}

impl<A: Applet> Device<A> {
    /// Boots `applet` inside a device described by `config`, with the
    /// given trusted clock.
    pub fn new(applet: A, config: DeviceConfig, clock: Arc<dyn Clock>) -> Self {
        Device {
            applet,
            env: Env {
                clock,
                rng: DeviceRng::new(config.serial, config.rng_seed),
                cost_model: config.cost_model,
                meter: Meter::new(),
                memory: SecureMemory::new(config.secure_memory_bytes),
            },
            tamper: TamperCircuit::new(),
            trace: None,
        }
    }

    /// Attaches a trace registry. Each command, alarm, and idle grant
    /// then records its **virtual-time** cost (meter `busy_ns` delta)
    /// into the op named by [`Applet::kind_of`] — deterministic across
    /// runs, unlike wall-clock latency.
    pub fn attach_trace(&mut self, trace: Arc<wormtrace::Registry>) {
        self.trace = Some(trace);
    }

    fn record_op(&self, kind: &'static str, busy_before: u128, ok: bool) {
        let delta = self.env.meter.busy_ns().saturating_sub(busy_before);
        let delta = u64::try_from(delta).unwrap_or(u64::MAX);
        if let Some(trace) = &self.trace {
            if trace.enabled() {
                trace.op(kind).record(delta, ok);
            }
        }
        // If the calling thread carries a request trace, attribute the
        // command's virtual-time cost as a leaf span of that request —
        // this is the only place SCPU cost enters a span tree, since
        // everything in the enclosure runs under `execute`.
        wormtrace::span::leaf(kind, wormtrace::Plane::Scpu, delta, ok, None);
    }

    /// Sends one command over the channel.
    ///
    /// Due alarms (Retention Monitor wake-ups) run before the command, so
    /// firmware observes a consistent trusted-time ordering.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Tampered`] once the tamper response has
    /// fired; the command is not executed.
    pub fn execute(&mut self, request: A::Request) -> Result<A::Response, DeviceError> {
        let kind = A::kind_of(&request);
        if let Err(dead) = self.check_alive() {
            self.record_op(kind, self.env.meter.busy_ns(), false);
            return Err(dead);
        }
        self.run_due_alarms();
        let busy_before = self.env.meter.busy_ns();
        self.env.charge(Op::Command);
        let response = self.applet.handle(&mut self.env, request);
        self.record_op(kind, busy_before, true);
        Ok(response)
    }

    /// Runs any due alarms without sending a command (host-side clock tick).
    pub fn tick(&mut self) -> Result<(), DeviceError> {
        self.check_alive()?;
        self.run_due_alarms();
        Ok(())
    }

    /// Grants the firmware `budget_ns` of idle time (e.g., night-time
    /// strengthening of deferred signatures).
    pub fn idle(&mut self, budget_ns: u64) -> Result<(), DeviceError> {
        self.check_alive()?;
        self.run_due_alarms();
        let busy_before = self.env.meter.busy_ns();
        self.applet.on_idle(&mut self.env, budget_ns);
        self.record_op("scpu.idle", busy_before, true);
        Ok(())
    }

    fn run_due_alarms(&mut self) {
        // Bounded loop: each alarm may schedule the next (the RM deletes
        // one expired record per wake-up).
        for _ in 0..1_000_000 {
            match self.applet.next_alarm() {
                Some(t) if t <= self.env.now() => {
                    let busy_before = self.env.meter.busy_ns();
                    self.applet.on_alarm(&mut self.env);
                    self.record_op("scpu.alarm", busy_before, true);
                }
                _ => break,
            }
        }
    }

    fn check_alive(&self) -> Result<(), DeviceError> {
        match self.tamper.event() {
            Some((cause, _)) => Err(DeviceError::Tampered(cause)),
            None => Ok(()),
        }
    }

    /// Fires the tamper response: zeroizes the firmware and secure memory
    /// and permanently disables the device.
    pub fn trigger_tamper(&mut self, cause: TamperCause) {
        let now = self.env.now();
        self.tamper.trigger(cause, now);
        self.applet.zeroize();
        self.env.memory.clear();
    }

    /// Read-only view of the virtual-time cost meter.
    pub fn meter(&self) -> &Meter {
        &self.env.meter
    }

    /// Zeroes the cost meter (between benchmark phases).
    pub fn reset_meter(&mut self) {
        self.env.meter.reset();
    }

    /// Read-only access to the firmware, for *test assertions only*.
    ///
    /// Real deployments cannot see inside the enclosure; production code
    /// must go through [`Device::execute`].
    pub fn applet_for_test(&self) -> &A {
        &self.applet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    /// Minimal counter firmware used to exercise the device runtime.
    struct CounterApplet {
        count: u64,
        alarm: Option<Timestamp>,
        alarms_fired: u64,
        idle_ns: u64,
        zeroized: bool,
    }

    enum Req {
        Incr,
        Get,
        ArmAlarm(Timestamp),
    }

    impl Applet for CounterApplet {
        type Request = Req;
        type Response = u64;

        fn handle(&mut self, env: &mut Env, request: Req) -> u64 {
            match request {
                Req::Incr => {
                    env.charge(Op::RsaSign { bits: 512 });
                    self.count += 1;
                    self.count
                }
                Req::Get => self.count,
                Req::ArmAlarm(t) => {
                    self.alarm = Some(t);
                    0
                }
            }
        }

        fn next_alarm(&self) -> Option<Timestamp> {
            self.alarm
        }

        fn on_alarm(&mut self, _env: &mut Env) {
            self.alarm = None;
            self.alarms_fired += 1;
        }

        fn on_idle(&mut self, _env: &mut Env, budget_ns: u64) {
            self.idle_ns += budget_ns;
        }

        fn zeroize(&mut self) {
            self.count = 0;
            self.zeroized = true;
        }
    }

    fn device() -> (Device<CounterApplet>, Arc<VirtualClock>) {
        let clock = VirtualClock::new();
        let applet = CounterApplet {
            count: 0,
            alarm: None,
            alarms_fired: 0,
            idle_ns: 0,
            zeroized: false,
        };
        (
            Device::new(applet, DeviceConfig::default(), clock.clone()),
            clock,
        )
    }

    #[test]
    fn commands_run_and_meter_charges() {
        let (mut d, _clock) = device();
        assert_eq!(d.execute(Req::Incr).unwrap(), 1);
        assert_eq!(d.execute(Req::Incr).unwrap(), 2);
        assert_eq!(d.execute(Req::Get).unwrap(), 2);
        assert_eq!(d.meter().count("rsa_sign"), 2);
        assert_eq!(d.meter().count("command"), 3);
        assert!(d.meter().busy_ns() > 0);
    }

    #[test]
    fn alarms_fire_when_clock_passes() {
        let (mut d, clock) = device();
        d.execute(Req::ArmAlarm(Timestamp::from_millis(500)))
            .unwrap();
        d.tick().unwrap();
        assert_eq!(d.applet_for_test().alarms_fired, 0);
        clock.advance(std::time::Duration::from_millis(499));
        d.tick().unwrap();
        assert_eq!(d.applet_for_test().alarms_fired, 0);
        clock.advance(std::time::Duration::from_millis(1));
        d.tick().unwrap();
        assert_eq!(d.applet_for_test().alarms_fired, 1);
    }

    #[test]
    fn due_alarm_runs_before_command() {
        let (mut d, clock) = device();
        d.execute(Req::ArmAlarm(Timestamp::from_millis(10)))
            .unwrap();
        clock.advance(std::time::Duration::from_millis(20));
        // The next command triggers the due alarm first.
        d.execute(Req::Get).unwrap();
        assert_eq!(d.applet_for_test().alarms_fired, 1);
    }

    #[test]
    fn tamper_kills_device_and_zeroizes() {
        let (mut d, _clock) = device();
        d.execute(Req::Incr).unwrap();
        d.trigger_tamper(TamperCause::Penetration);
        assert!(d.tamper.is_triggered());
        assert!(d.applet_for_test().zeroized);
        assert_eq!(d.applet_for_test().count, 0);
        match d.execute(Req::Get) {
            Err(DeviceError::Tampered(TamperCause::Penetration)) => {}
            other => panic!("expected tamper error, got {other:?}"),
        }
        assert!(d.tick().is_err());
        assert!(d.idle(1000).is_err());
    }

    #[test]
    fn idle_budget_reaches_applet() {
        let (mut d, _clock) = device();
        d.idle(12345).unwrap();
        assert_eq!(d.applet_for_test().idle_ns, 12345);
    }

    #[test]
    fn reset_meter_clears() {
        let (mut d, _clock) = device();
        d.execute(Req::Incr).unwrap();
        assert!(d.meter().busy_ns() > 0);
        d.reset_meter();
        assert_eq!(d.meter().busy_ns(), 0);
    }

    #[test]
    fn attached_trace_records_virtual_time() {
        let (mut d, clock) = device();
        let trace = Arc::new(wormtrace::Registry::new());
        d.attach_trace(trace.clone());
        d.execute(Req::Incr).unwrap();
        d.execute(Req::Get).unwrap();
        let op_snap = trace.snapshot();
        let cmd = op_snap.op("scpu.command").expect("scpu.command registered");
        assert_eq!(cmd.ok, 2);
        assert_eq!(cmd.err, 0);
        // Virtual-time cost of Incr (an RSA sign) dominates the sum.
        assert!(cmd.latency.sum_ns > 0);
        // Alarms record under their own op name.
        d.execute(Req::ArmAlarm(Timestamp::from_millis(1))).unwrap();
        clock.advance(std::time::Duration::from_millis(5));
        d.tick().unwrap();
        assert_eq!(trace.snapshot().op("scpu.alarm").unwrap().ok, 1);
        // Tampered commands count as errors.
        d.trigger_tamper(TamperCause::Penetration);
        let _ = d.execute(Req::Get);
        assert_eq!(trace.snapshot().op("scpu.command").unwrap().err, 1);
    }

    #[test]
    fn error_display() {
        let e = DeviceError::Tampered(TamperCause::Voltage);
        assert!(e.to_string().contains("zeroized"));
    }
}
