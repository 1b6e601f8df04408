//! Network serving layer for the Strong WORM server.
//!
//! The paper's deployment model (§3, §4.1) is a *service*: clients in
//! branch offices write and read compliance records against a WORM box
//! they do not trust, and every response carries SCPU-signed evidence
//! the client checks locally. This crate supplies the missing transport:
//! a length-prefixed framed request/response protocol over TCP whose
//! payloads reuse the canonical encoders in [`strongworm::codec`], so
//! the bytes a verifier checks over the network are byte-identical to
//! the bytes it would check in-process.
//!
//! # Trust model
//!
//! The server — and the network between client and server — is
//! **untrusted**. Nothing in this crate authenticates the transport: no
//! TLS, no MACs on frames. That is deliberate, not an omission. Every
//! statement a client acts on (VRDs, head certificates, deletion
//! proofs) is signed by the SCPU and verified client-side with
//! [`strongworm::Verifier`]; an attacker who owns the wire can delay or
//! deny service but cannot forge record contents, hide recent writes,
//! or fake rightful deletion (Theorems 1 and 2). Tampering with a
//! response in flight surfaces as a [`strongworm::VerifyError`], which
//! the tests here exercise with a byte-flipping proxy.
//!
//! # Architecture
//!
//! - [`frame`]: `u32` big-endian length-prefixed frames with a hard
//!   size cap, so a hostile peer cannot drive unbounded allocation, and
//!   [`FrameReader`], which hands received frames out as views of one
//!   reused buffer.
//! - [`protocol`]: [`NetRequest`]/[`NetResponse`] and their codecs,
//!   layered on [`strongworm::wire`].
//! - [`server`]: [`NetServer`], an event-driven front-end fronting one
//!   deployment — a `ShardedWormServer` of N ≥ 1 lanes, or one
//!   `WormServer` as its one lane. Each worker thread runs a readiness
//!   loop (the private `reactor` module, `poll(2)` via the vendored
//!   `netpoll` shim) over its share of the connections, so a handful of workers
//!   serve many more connections than threads. Requests on one
//!   connection may be pipelined; responses come back in request
//!   order. Mutations still funnel through the witness plane's mutex
//!   exactly as in-process callers do.
//! - [`client`]: [`RemoteWormClient`], which composes with a
//!   [`strongworm::Verifier`] over every lane so every remote read is
//!   verified end-to-end, and whose [`client::Pipeline`] mode keeps a window of
//!   requests in flight on one connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod client;
pub mod frame;
pub mod protocol;
mod reactor;
pub mod server;

pub use client::{Pipeline, RemoteWormClient};
pub use frame::{write_frame, FrameReader, DEFAULT_MAX_FRAME};
pub use protocol::{NetRequest, NetResponse};
pub use server::{IntoLanes, NetServer, NetServerConfig};

use strongworm::wire::WireError;
use strongworm::VerifyError;

/// Errors from the network layer, on either side of the wire.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// Socket-level failure (includes read/write timeouts).
    Io(std::io::Error),
    /// A frame header announced a payload beyond the configured cap.
    FrameTooLarge {
        /// Announced payload length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The peer closed the connection mid-frame.
    Truncated,
    /// A frame payload failed to decode.
    Wire(WireError),
    /// The peer violated the protocol (wrong response type, bad tag).
    Protocol(&'static str),
    /// The server reported an error executing the request.
    Remote {
        /// Numeric error class (see [`protocol::error_code`] mapping).
        code: u8,
        /// Human-readable server-side message. Untrusted — display
        /// only, never parse.
        message: String,
    },
    /// The response decoded but failed client-side verification — the
    /// signal that the host or the wire tampered with it.
    Verify(VerifyError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket failure: {e}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max} byte cap")
            }
            NetError::Truncated => write!(f, "connection closed mid-frame"),
            NetError::Wire(e) => write!(f, "frame payload corrupt: {e}"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            NetError::Verify(e) => write!(f, "response failed verification: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            NetError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<VerifyError> for NetError {
    fn from(e: VerifyError) -> Self {
        NetError::Verify(e)
    }
}
