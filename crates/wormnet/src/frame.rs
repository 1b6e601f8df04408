//! Length-prefixed framing.
//!
//! Every message on the wire is `u32` big-endian payload length followed
//! by the payload. The length is checked against a cap *before* any
//! allocation, so a hostile peer announcing a 4 GiB frame costs the
//! receiver four header bytes, not four gigabytes.
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::as_conversions))]

use std::io::{ErrorKind, Read, Write};

use bytes::Bytes;
use strongworm::wire::WireWriter;

use crate::reactor::READ_BUDGET;
use crate::NetError;

/// Default frame cap: 16 MiB, comfortably above the largest legitimate
/// response (a full VRD with its records) for the configurations this
/// workspace ships.
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Size of a [`FrameReader`]'s buffer, and so the most one `read(2)`
/// brings in: the reactor's per-wakeup budget, which holds a pipelined
/// window of responses.
const RECV_BUF: usize = READ_BUDGET;

/// Writes one frame: 4-byte big-endian length, then the payload, in one
/// write. Blocks, so never on a reactor worker: its callers are clients
/// and the acceptor shedding a connection.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] if the payload exceeds `max` (the local
/// side refuses to emit frames its peer would reject); socket errors
/// otherwise.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: u32) -> Result<(), NetError> {
    let mut frame = Vec::new();
    append_frame(&mut frame, payload, max)?;
    wormtrace::sync::blocking("write_frame");
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Appends one frame (header + payload) to an in-memory buffer with no
/// I/O: the building block for deferred-flush responses, where every
/// frame of a readiness burst coalesces into one vectored write.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] if the payload exceeds `max`; `out` is
/// untouched in that case.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8], max: u32) -> Result<(), NetError> {
    let len = checked_len(payload.len(), max)?;
    out.reserve(4 + payload.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Appends one frame whose payload `put` writes in place at the end of
/// `out`: the header is reserved, the payload written after it and the
/// length back-patched, so no payload buffer sits in between. How the
/// server writes responses and the client requests.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] if the payload exceeds `max`; `out` is
/// then exactly as it was.
pub(crate) fn put_frame(
    out: &mut Vec<u8>,
    max: u32,
    put: impl FnOnce(&mut WireWriter),
) -> Result<(), NetError> {
    let mut w = WireWriter::from(std::mem::take(out));
    // A frame is its payload nested under a u32 length.
    let framed = w.try_put_nested(|w| {
        let body = w.len();
        put(w);
        checked_len(w.len() - body, max).map(drop)
    });
    *out = w.finish();
    framed
}

/// `len` as a frame header, if it is within `max`.
#[expect(
    clippy::as_conversions,
    reason = "lossless usize→u64 widening on every supported target"
)]
fn checked_len(len: usize, max: u32) -> Result<u32, NetError> {
    match u32::try_from(len) {
        Ok(len) if len <= max => Ok(len),
        _ => Err(NetError::FrameTooLarge {
            len: len as u64,
            max: u64::from(max),
        }),
    }
}

/// Bytes (header and payload) the frame at the front of `buf` occupies,
/// once its header is buffered: `Ok(None)` until then.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] the moment a header announces a payload
/// beyond `max`.
#[expect(
    clippy::as_conversions,
    reason = "lossless u32→usize widening on the ≥32-bit targets this server supports; len is already capped at `max`"
)]
fn frame_size(buf: &[u8], max: u32) -> Result<Option<usize>, NetError> {
    let Some(header) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*header);
    if len > max {
        return Err(NetError::FrameTooLarge {
            len: u64::from(len),
            max: u64::from(max),
        });
    }
    Ok(Some(4 + len as usize))
}

/// Examines the front of an in-memory buffer for one complete frame,
/// without consuming or copying anything: the building block for
/// batched decode from a per-connection read buffer.
///
/// Returns `Ok(Some((payload, consumed)))` when a whole frame is
/// buffered — `payload` borrows the frame body and `consumed` is the
/// total bytes (header + body) the caller should drain afterwards —
/// and `Ok(None)` when more bytes are needed.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] the moment a header announces a payload
/// beyond `max`, before that payload is buffered: an oversized
/// announcement costs four bytes of buffer, never a large allocation.
pub fn parse_frame(buf: &[u8], max: u32) -> Result<Option<(&[u8], usize)>, NetError> {
    let Some(total) = frame_size(buf, max)? else {
        return Ok(None);
    };
    Ok(buf.get(4..total).map(|payload| (payload, total)))
}

/// Reads frames from a stream into one receive buffer and hands each
/// payload out as a [`Bytes`] view of it: no per-frame allocation,
/// zero-fill or copy.
///
/// One `read(2)` brings in up to 256 KiB, so a pipelined window of
/// responses arrives in one call. Each header is checked against the cap
/// as soon as it is buffered, before anything is read for its payload.
/// A frame longer than the buffer grows it once, for that frame; the
/// next read gets a buffer of the usual size again.
///
/// The buffer is taken back for the next read only when no view of it
/// is still alive; otherwise the next read lands in a fresh one. So a
/// payload the caller keeps stays as it arrived — and keeps the whole
/// buffer it arrived in allocated until the last view of it is dropped.
pub struct FrameReader<R> {
    inner: R,
    /// The whole receive buffer: its length is its size, and only
    /// `pos..end` means anything. It is one view of all of it, so
    /// `Vec::from` takes the allocation back when no frame handed out
    /// is still alive.
    buf: Bytes,
    /// Start of the received bytes not yet handed out.
    pos: usize,
    /// End of the received bytes.
    end: usize,
    max: u32,
}

impl<R: Read> FrameReader<R> {
    /// A reader of frames of at most `max` payload bytes from `inner`.
    /// Allocates nothing until the first read.
    pub fn new(inner: R, max: u32) -> Self {
        FrameReader {
            inner,
            buf: Bytes::new(),
            pos: 0,
            end: 0,
            max,
        }
    }

    /// The next frame's payload, a view of the receive buffer. Returns
    /// `Ok(None)` on clean end-of-stream (the peer closed the
    /// connection between frames) — the normal way a peer hangs up.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] for an oversized announcement,
    /// [`NetError::Truncated`] if the stream ends inside a frame, socket
    /// errors otherwise. Bytes received before a socket error (a read
    /// timeout, say) stay buffered, and the next call resumes with them.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, NetError> {
        loop {
            let unread = self.buf.get(self.pos..self.end).unwrap_or_default();
            let need = match frame_size(unread, self.max)? {
                Some(total) if total <= unread.len() => {
                    let start = self.pos;
                    self.pos += total;
                    return Ok(Some(self.buf.slice(start + 4..start + total)));
                }
                Some(total) => total,
                None => 4,
            };
            if self.fill(need)? == 0 {
                return if self.pos == self.end {
                    Ok(None)
                } else {
                    Err(NetError::Truncated)
                };
            }
        }
    }

    /// Moves the unread bytes to the front of a buffer of
    /// `need.max(RECV_BUF)` bytes — this one when no view of it is alive
    /// and it is that size, a fresh one otherwise — and reads once into
    /// the rest. `need` exceeds the unread bytes, so there is room.
    /// Returns the bytes read: 0 at end of stream.
    fn fill(&mut self, need: usize) -> Result<usize, NetError> {
        let size = need.max(RECV_BUF);
        let (pos, end) = (self.pos, self.end);
        let old = std::mem::take(&mut self.buf);
        let mut buf = if old.is_unique() && old.len() == size {
            let mut buf = Vec::from(old);
            if pos > 0 {
                buf.copy_within(pos..end, 0);
            }
            buf
        } else {
            let mut buf = vec![0u8; size];
            if let (Some(dst), Some(src)) = (buf.get_mut(..end - pos), old.get(pos..end)) {
                dst.copy_from_slice(src);
            }
            buf
        };
        self.pos = 0;
        self.end = end - pos;
        let read = loop {
            match self.inner.read(buf.get_mut(self.end..).unwrap_or_default()) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                other => break other,
            }
        };
        self.buf = Bytes::from(buf);
        let n = read?;
        self.end += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn next(r: &mut FrameReader<Cursor<Vec<u8>>>) -> Option<Vec<u8>> {
        r.next_frame().unwrap().map(Vec::from)
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut r = FrameReader::new(Cursor::new(buf), DEFAULT_MAX_FRAME);
        assert_eq!(next(&mut r), Some(b"hello".to_vec()));
        assert_eq!(next(&mut r), Some(Vec::new()));
        assert!(next(&mut r).is_none());
    }

    #[test]
    fn parse_frame_walks_a_pipelined_buffer() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first", DEFAULT_MAX_FRAME).unwrap();
        append_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        append_frame(&mut buf, b"third frame", DEFAULT_MAX_FRAME).unwrap();
        // Trailing partial frame: header promising more than buffered.
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(&[1, 2, 3]);

        let mut seen = Vec::new();
        let mut rest = buf.as_slice();
        while let Some((payload, consumed)) = parse_frame(rest, DEFAULT_MAX_FRAME).unwrap() {
            seen.push(payload.to_vec());
            rest = rest.get(consumed..).unwrap();
        }
        assert_eq!(
            seen,
            vec![b"first".to_vec(), Vec::new(), b"third frame".to_vec()]
        );
        // The partial tail stays unconsumed until more bytes arrive.
        assert_eq!(rest.len(), 7);
        assert!(parse_frame(rest, DEFAULT_MAX_FRAME).unwrap().is_none());
        // Partial header alone is also "need more".
        assert!(parse_frame(&[0, 0], DEFAULT_MAX_FRAME).unwrap().is_none());
        assert!(parse_frame(&[], DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn parse_frame_rejects_oversized_header_before_buffering() {
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.push(0); // one byte of the impossible payload
        match parse_frame(&buf, 1024) {
            Err(NetError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn append_frame_matches_write_frame_bytes_and_refuses_oversize() {
        let mut streamed = Vec::new();
        write_frame(&mut streamed, b"same bytes", DEFAULT_MAX_FRAME).unwrap();
        let mut appended = Vec::new();
        append_frame(&mut appended, b"same bytes", DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(streamed, appended);

        let mut out = vec![0xAA];
        assert!(matches!(
            append_frame(&mut out, &[0u8; 100], 10),
            Err(NetError::FrameTooLarge { len: 100, max: 10 })
        ));
        assert_eq!(
            out,
            vec![0xAA],
            "failed append must leave the buffer untouched"
        );
    }

    #[test]
    fn put_frame_matches_append_frame_and_refuses_oversize() {
        let mut put = vec![0xAA];
        put_frame(&mut put, DEFAULT_MAX_FRAME, |w| {
            w.put_u64(7);
        })
        .unwrap();
        let mut appended = vec![0xAA];
        append_frame(&mut appended, &7u64.to_be_bytes(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(put, appended);

        assert!(matches!(
            put_frame(&mut put, 7, |w| {
                w.put_u64(7);
            }),
            Err(NetError::FrameTooLarge { len: 8, max: 7 })
        ));
        assert_eq!(put, appended, "a refused frame leaves nothing behind");
    }

    #[test]
    fn oversized_header_rejected_without_allocation() {
        // 4 GiB - 1 announced; only the 4 header bytes are consumed.
        let buf = u32::MAX.to_be_bytes().to_vec();
        let mut r = FrameReader::new(Cursor::new(buf), 1024);
        match r.next_frame() {
            Err(NetError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(r.buf.len(), RECV_BUF, "the buffer never grew for it");
    }

    #[test]
    fn writer_refuses_oversized_payload() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &[0u8; 100], 10),
            Err(NetError::FrameTooLarge { len: 100, max: 10 })
        ));
        assert!(buf.is_empty());
    }

    #[test]
    fn truncation_inside_header_and_payload() {
        // Two header bytes, then EOF.
        let mut r = FrameReader::new(Cursor::new(vec![0u8, 1]), 1024);
        assert!(matches!(r.next_frame(), Err(NetError::Truncated)));
        // Full header announcing 8 bytes, only 3 present.
        let mut buf = 8u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = FrameReader::new(Cursor::new(buf), 1024);
        assert!(matches!(r.next_frame(), Err(NetError::Truncated)));
    }

    #[test]
    fn the_buffer_is_reused_while_no_frame_is_kept_and_replaced_while_one_is() {
        let mut wire = Vec::new();
        for _ in 0..3 {
            append_frame(&mut wire, &[9u8; 100], DEFAULT_MAX_FRAME).unwrap();
        }
        // A reader that returns one frame per call, as a socket might.
        struct OneFrameAtATime(Cursor<Vec<u8>>);
        impl Read for OneFrameAtATime {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(104);
                self.0.read(&mut buf[..n])
            }
        }
        let mut r = FrameReader::new(OneFrameAtATime(Cursor::new(wire)), DEFAULT_MAX_FRAME);
        let first = r.next_frame().unwrap().unwrap();
        let at = first.as_ptr();
        drop(first);
        let second = r.next_frame().unwrap().unwrap();
        assert_eq!(second.as_ptr(), at, "no view alive: the buffer is reused");
        let third = r.next_frame().unwrap().unwrap();
        assert_ne!(third.as_ptr(), at, "a view alive: a fresh buffer");
        assert_eq!(&second[..], &[9u8; 100][..]);
        assert!(r.next_frame().unwrap().is_none());
    }
}
