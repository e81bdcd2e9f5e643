//! Protocol-compliance predicates from the paper's Appendix B.
//!
//! Tables 6 and 7 report, for each generator, the fraction of synthetic
//! records passing four consistency tests. These predicates implement those
//! tests exactly; the `bench` crate's `tab6_7` experiment applies
//! them to every generator's output.

use crate::flow::FlowRecord;
use crate::packet::PacketRecord;
use crate::protocol::Protocol;
use crate::trace::{FlowTrace, PacketTrace};

/// Well-known (port, protocol) bindings used by Test 3. Each entry is a
/// service port that implies a specific transport protocol.
pub const SERVICE_PORT_PROTOCOLS: &[(u16, Protocol)] = &[
    (80, Protocol::Tcp),   // HTTP
    (443, Protocol::Tcp),  // HTTPS
    (22, Protocol::Tcp),   // SSH
    (21, Protocol::Tcp),   // FTP
    (25, Protocol::Tcp),   // SMTP
    (445, Protocol::Tcp),  // SMB
    (3389, Protocol::Tcp), // RDP
    (53, Protocol::Udp),   // DNS
    (123, Protocol::Udp),  // NTP
    (161, Protocol::Udp),  // SNMP
];

/// Test 1 — validity of IP addresses: the source must not be multicast
/// (224.0.0.0–239.255.255.255) or broadcast (255.x.x.x); the destination
/// must not be of the form 0.x.x.x.
pub fn test1_ip_validity(src_ip: u32, dst_ip: u32) -> bool {
    let src_first_octet = (src_ip >> 24) as u8;
    let dst_first_octet = (dst_ip >> 24) as u8;
    let src_multicast = (224..=239).contains(&src_first_octet);
    let src_broadcast = src_first_octet == 255;
    let dst_zero_net = dst_first_octet == 0;
    !src_multicast && !src_broadcast && !dst_zero_net
}

/// Test 2 — bytes/packets relationship for flows: for TCP,
/// `40·pkt ≤ byt ≤ 65535·pkt`; for UDP, `28·pkt ≤ byt ≤ 65535·pkt`.
/// Protocols outside TCP/UDP pass vacuously (the paper defines the test
/// only for those two).
pub fn test2_bytes_packets(flow: &FlowRecord) -> bool {
    let min_pkt = match flow.five_tuple.proto {
        Protocol::Tcp => 40u64,
        Protocol::Udp => 28u64,
        _ => return true,
    };
    if flow.packets == 0 {
        return false;
    }
    let lo = min_pkt.saturating_mul(flow.packets);
    let hi = 65535u64.saturating_mul(flow.packets);
    (lo..=hi).contains(&flow.bytes)
}

/// Test 3 — port/protocol consistency: if either port is a well-known
/// service port bound to one transport protocol, the record's protocol must
/// match.
pub fn test3_port_protocol(src_port: u16, dst_port: u16, proto: Protocol) -> bool {
    for &(port, expected) in SERVICE_PORT_PROTOCOLS {
        if (src_port == port || dst_port == port) && proto.has_ports() && proto != expected {
            return false;
        }
    }
    true
}

/// Test 4 — packet minimum size (PCAP only): TCP packets ≥ 40 bytes,
/// UDP ≥ 28 bytes (IP header + minimal transport header).
pub fn test4_min_packet_size(pkt: &PacketRecord) -> bool {
    match pkt.five_tuple.proto {
        Protocol::Tcp | Protocol::Udp => {
            pkt.packet_len >= pkt.five_tuple.proto.min_packet_size()
        }
        _ => true,
    }
}

/// Pass rates of the applicable consistency tests over a trace, as
/// fractions in `[0, 1]`. `None` marks tests that don't apply to the trace
/// kind (Test 4 is PCAP-only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsistencyReport {
    /// Test 1 pass rate.
    pub test1: f64,
    /// Test 2 pass rate.
    pub test2: f64,
    /// Test 3 pass rate.
    pub test3: f64,
    /// Test 4 pass rate (packet traces only).
    pub test4: Option<f64>,
}

fn rate(pass: usize, total: usize) -> f64 {
    if total == 0 {
        1.0
    } else {
        pass as f64 / total as f64
    }
}

/// Runs Tests 1–3 over a flow trace (Table 6).
pub fn check_flow_trace(trace: &FlowTrace) -> ConsistencyReport {
    let n = trace.len();
    let mut p1 = 0;
    let mut p2 = 0;
    let mut p3 = 0;
    for f in &trace.flows {
        if test1_ip_validity(f.five_tuple.src_ip, f.five_tuple.dst_ip) {
            p1 += 1;
        }
        if test2_bytes_packets(f) {
            p2 += 1;
        }
        if test3_port_protocol(f.five_tuple.src_port, f.five_tuple.dst_port, f.five_tuple.proto) {
            p3 += 1;
        }
    }
    ConsistencyReport {
        test1: rate(p1, n),
        test2: rate(p2, n),
        test3: rate(p3, n),
        test4: None,
    }
}

/// Runs Tests 1, 3, 4 per packet and Test 2 over aggregated flows
/// (Table 7). `agg` supplies the flow view of the same trace.
pub fn check_packet_trace(trace: &PacketTrace, agg: &FlowTrace) -> ConsistencyReport {
    let n = trace.len();
    let mut p1 = 0;
    let mut p3 = 0;
    let mut p4 = 0;
    for p in &trace.packets {
        if test1_ip_validity(p.five_tuple.src_ip, p.five_tuple.dst_ip) {
            p1 += 1;
        }
        if test3_port_protocol(p.five_tuple.src_port, p.five_tuple.dst_port, p.five_tuple.proto) {
            p3 += 1;
        }
        if test4_min_packet_size(p) {
            p4 += 1;
        }
    }
    let flow_report = check_flow_trace(agg);
    ConsistencyReport {
        test1: rate(p1, n),
        test2: flow_report.test2,
        test3: rate(p3, n),
        test4: Some(rate(p4, n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fivetuple::FiveTuple;
    use std::net::Ipv4Addr;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from(Ipv4Addr::new(a, b, c, d))
    }

    #[test]
    fn test1_rejects_multicast_and_broadcast_sources() {
        assert!(!test1_ip_validity(ip(224, 0, 0, 1), ip(10, 0, 0, 1)));
        assert!(!test1_ip_validity(ip(239, 255, 255, 255), ip(10, 0, 0, 1)));
        assert!(!test1_ip_validity(ip(255, 1, 2, 3), ip(10, 0, 0, 1)));
        assert!(test1_ip_validity(ip(223, 255, 255, 255), ip(10, 0, 0, 1)));
        assert!(test1_ip_validity(ip(240, 0, 0, 1), ip(10, 0, 0, 1)), "240/4 src is not excluded by the test");
    }

    #[test]
    fn test1_rejects_zero_net_destination() {
        assert!(!test1_ip_validity(ip(10, 0, 0, 1), ip(0, 1, 2, 3)));
        assert!(test1_ip_validity(ip(10, 0, 0, 1), ip(1, 0, 0, 0)));
    }

    #[test]
    fn test2_bounds_are_inclusive() {
        let ft = FiveTuple::new(1, 2, 1000, 80, Protocol::Tcp);
        let mk = |packets, bytes| FlowRecord::new(ft, 0.0, 1.0, packets, bytes);
        assert!(test2_bytes_packets(&mk(2, 80)), "lower bound 40*pkt");
        assert!(test2_bytes_packets(&mk(2, 131070)), "upper bound 65535*pkt");
        assert!(!test2_bytes_packets(&mk(2, 79)));
        assert!(!test2_bytes_packets(&mk(2, 131071)));
    }

    #[test]
    fn test2_udp_lower_bound_is_28() {
        let ft = FiveTuple::new(1, 2, 1000, 53, Protocol::Udp);
        let f = FlowRecord::new(ft, 0.0, 1.0, 3, 84);
        assert!(test2_bytes_packets(&f));
        let g = FlowRecord::new(ft, 0.0, 1.0, 3, 83);
        assert!(!test2_bytes_packets(&g));
    }

    #[test]
    fn test2_zero_packet_flow_fails() {
        let ft = FiveTuple::new(1, 2, 1, 2, Protocol::Tcp);
        assert!(!test2_bytes_packets(&FlowRecord::new(ft, 0.0, 0.0, 0, 0)));
    }

    #[test]
    fn test3_detects_protocol_mismatch() {
        assert!(test3_port_protocol(40000, 80, Protocol::Tcp));
        assert!(!test3_port_protocol(40000, 80, Protocol::Udp), "HTTP over UDP fails");
        assert!(!test3_port_protocol(53, 40000, Protocol::Tcp), "DNS source port over TCP fails");
        assert!(test3_port_protocol(53, 40000, Protocol::Udp));
        assert!(test3_port_protocol(9999, 40000, Protocol::Udp), "unbound ports unconstrained");
    }

    #[test]
    fn test4_enforces_protocol_minimums() {
        let tcp = FiveTuple::new(1, 2, 1, 2, Protocol::Tcp);
        let udp = FiveTuple::new(1, 2, 1, 2, Protocol::Udp);
        assert!(test4_min_packet_size(&PacketRecord::new(0, tcp, 40)));
        assert!(!test4_min_packet_size(&PacketRecord::new(0, tcp, 39)));
        assert!(test4_min_packet_size(&PacketRecord::new(0, udp, 28)));
        assert!(!test4_min_packet_size(&PacketRecord::new(0, udp, 27)));
    }

    #[test]
    fn reports_average_over_records() {
        let good = FiveTuple::new(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 1000, 80, Protocol::Tcp);
        let bad = FiveTuple::new(ip(224, 0, 0, 1), ip(10, 0, 0, 2), 1000, 80, Protocol::Tcp);
        let t = FlowTrace::from_records(vec![
            FlowRecord::new(good, 0.0, 1.0, 1, 60),
            FlowRecord::new(bad, 1.0, 1.0, 1, 60),
        ]);
        let r = check_flow_trace(&t);
        assert!((r.test1 - 0.5).abs() < 1e-9);
        assert!((r.test2 - 1.0).abs() < 1e-9);
        assert_eq!(r.test4, None);
    }

    #[test]
    fn empty_trace_passes_vacuously() {
        let r = check_flow_trace(&FlowTrace::new());
        assert_eq!(r.test1, 1.0);
    }
}
