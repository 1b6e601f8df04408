//! L6 fixture: calls that can wait unboundedly, none declared by the
//! run-time assert just before it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::Receiver;
use std::thread::JoinHandle;
use std::time::Duration;

pub fn pause() {
    std::thread::sleep(Duration::from_millis(1)); //~ blocking
}

pub fn stop(h: JoinHandle<()>, rx: &Receiver<u8>) -> Option<u8> {
    let _ = h.join(); //~ blocking
    let got = rx.recv().ok(); //~ blocking
    rx.recv_timeout(Duration::from_millis(1)).ok().or(got) //~ blocking
}

pub fn dial(addr: &str, bytes: &[u8]) -> std::io::Result<()> {
    wormtrace::sync::blocking("dialing");
    let mut s = TcpStream::connect(addr)?;
    // One declaration covers the next line only.
    s.write_all(bytes) //~ blocking
}

pub fn declared_by_something_else() {
    // Only `sync::blocking` asserts anything.
    blocking("sleep");
    std::thread::sleep(Duration::from_millis(1)); //~ blocking
}

fn blocking(_what: &str) {}

// A blocking allow on a line that does not block is stale.
// wormlint: allow(blocking) -- nothing here waits //~ allow-unused
pub fn quiet() {}
