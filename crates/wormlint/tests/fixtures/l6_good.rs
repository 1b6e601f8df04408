//! L6 fixture: every blocking call is declared by the run-time assert
//! just before it; look-alikes that do not block are not flagged.

use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

pub fn stop(h: JoinHandle<()>) {
    wormtrace::sync::blocking("joining the worker");
    let _ = h.join();
}

pub fn dial(addr: &str) -> std::io::Result<TcpStream> {
    wormtrace::sync::blocking(
        "connecting to a server whose name takes this call over several lines",
    );
    TcpStream::connect(addr)
}

pub fn poll_once(listener: &TcpListener) -> bool {
    // wormlint: allow(blocking) -- the listener is non-blocking: accept returns WouldBlock at once
    listener.accept().is_ok()
}

/// Defining a method with a blocking name is not calling it.
pub struct Queue;

impl Queue {
    pub fn recv(&self) -> Option<u8> {
        None
    }

    pub fn wait(&self) {}
}

pub fn not_blocking(parts: &[&str], addr: &str) -> String {
    // `join` with an argument joins strings; an unqualified `connect`
    // is not a socket dial.
    let _ = connect(addr);
    parts.join(", ")
}

fn connect(_addr: &str) -> bool {
    true
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_block() {
        std::thread::sleep(super::Duration::from_millis(1));
    }
}
