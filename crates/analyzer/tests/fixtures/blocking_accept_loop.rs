//! Fixture (capability-graph): raw socket accept/read calls outside the
//! sanctioned io-boundary modules, linted as a lib, a bin and a test file
//! under `crates/core/`. A lib or bin: three deny findings (two `.accept(`
//! calls, one `.read_exact(` in a fn returning an array) and one waived
//! accept; a test file may drive sockets raw. This header mentions the
//! marker name only in prose, which must NOT tag the file:
//! `lint: io-boundary` sanctions a file only when it opens a comment.

use std::io::Read;
use std::net::{TcpListener, TcpStream};

pub fn accept_loop(listener: &TcpListener) {
    while let Ok((sock, _)) = listener.accept() {
        drop(sock);
    }
}

pub fn accept_once(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (sock, _) = listener.accept()?;
    Ok(sock)
}

pub fn read_header(sock: &mut TcpStream) -> std::io::Result<[u8; 4]> {
    let mut buf = [0u8; 4];
    sock.read_exact(&mut buf)?;
    Ok(buf)
}

pub fn migration_shim(listener: &TcpListener) -> std::io::Result<TcpStream> {
    // lint: allow(capability-graph) legacy path, removed once callers move to netshared::Server
    let (sock, _) = listener.accept()?;
    Ok(sock)
}
