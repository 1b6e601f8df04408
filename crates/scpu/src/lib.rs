//! # scpu — emulated secure coprocessor
//!
//! The Strong WORM architecture (Sion, ICDCS 2008) anchors all of its
//! trust in a tamper-resistant, general-purpose secure coprocessor — the
//! IBM 4764 PCI-X — running certified firmware next to the data. No such
//! hardware is available here, so this crate emulates the properties the
//! security and performance arguments actually depend on:
//!
//! * **An isolation boundary.** [`Device`] owns the firmware ([`Applet`])
//!   and its state; the host interacts exclusively through
//!   [`Device::execute`]. Secrets never appear in responses.
//! * **A trusted clock** ([`Clock`], [`VirtualClock`]) protected by the
//!   enclosure, used for freshness timestamps and the Retention Monitor.
//! * **Constrained resources.** A calibrated [`CostModel`] charges every
//!   in-enclosure operation its documented IBM 4764 latency into a
//!   virtual-time [`Meter`], and [`SecureMemory`] bounds firmware state —
//!   together reproducing the host/SCPU asymmetry that motivates the
//!   paper's sparse-access and deferred-signature designs.
//! * **Tamper response.** [`Device::trigger_tamper`] zeroizes firmware
//!   state and permanently disables the device, per FIPS 140-2 Level 4.
//!
//! ```
//! use scpu::{Applet, Device, DeviceConfig, Env, VirtualClock};
//!
//! struct Echo;
//! impl Applet for Echo {
//!     type Request = String;
//!     type Response = String;
//!     fn handle(&mut self, _env: &mut Env, req: String) -> String {
//!         req.to_uppercase()
//!     }
//!     fn zeroize(&mut self) {}
//! }
//!
//! # fn main() -> Result<(), scpu::DeviceError> {
//! let mut dev = Device::new(Echo, DeviceConfig::default(), VirtualClock::new());
//! assert_eq!(dev.execute("worm".into())?, "WORM");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod applet;
mod clock;
mod costmodel;
mod device;
mod memory;
mod rng;
mod tamper;

pub use applet::Applet;
pub use clock::{Clock, SystemClock, Timestamp, VirtualClock};
pub use costmodel::{CostModel, Meter, Op};
pub use device::{Device, DeviceConfig, DeviceError, Env};
pub use memory::{SecureMemory, SecureMemoryExhausted};
pub use rng::DeviceRng;
pub use tamper::{TamperCause, TamperCircuit};
