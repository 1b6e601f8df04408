//! Strong WORM reproduction — umbrella crate.
//!
//! This root package hosts the repository-level integration tests and the
//! runnable examples. It re-exports the four member crates so examples can
//! write `use strongworm_repro::strongworm::...` or depend on the members
//! directly.

pub use scpu;
pub use softworm;
pub use strongworm;
pub use wormcrypt;
pub use wormstore;
