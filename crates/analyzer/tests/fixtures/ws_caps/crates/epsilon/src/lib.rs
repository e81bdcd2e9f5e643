//! Fixture (capability-graph): the sanctioned counter-example.
//! lint: caps(net, clock) — this module declares its effects; its
//! socket setup lands in the manifest but does not deny, its OS clock
//! read is waived, and callers do not inherit either (the boundary
//! absorbs).
//! Lint target only.

pub fn listen(addr: &str) -> Listener {
    let l = TcpListener::bind(addr);
    Listener::wrap(l)
}

pub fn stamped_dial(addr: &str) -> Conn {
    let sock = TcpStream::connect(addr);
    // lint: allow(capability-graph) fixture: a caps declaration does not sanction an OS clock read
    let opened = SystemTime::now();
    Conn::opened_at(sock, opened)
}
