//! # trace-synth
//!
//! Calibrated synthetic stand-ins for the six public traces the NetShare
//! paper evaluates on (§6.1). The real datasets (CAIDA, UGR16, CIDDS,
//! TON_IoT, the IMC-2010 "UNI1" data-center capture, and the MACCDC cyber
//! attack capture) cannot ship with this repository, so each simulator
//! reproduces the *documented statistical structure* the paper's
//! experiments exercise:
//!
//! * Zipfian endpoint popularity (heavy-hitter SA/DA ranks — Fig. 13);
//! * heavy-tailed flow sizes and volumes spanning mice to elephants
//!   (large-support PKT/BYT fields — Fig. 2);
//! * service-port mixtures dominated by well-known ports (Fig. 3);
//! * multi-record five-tuples produced by collector timeouts and
//!   long-lived sessions (Fig. 1);
//! * labeled attack mixtures for the labeled datasets (Fig. 12, Table 3);
//! * protocol-consistent headers (Tables 6–7).
//!
//! Every generator is deterministic given its seed, so "real" data is
//! reproducible ground truth for every experiment.

pub mod attacks;
pub mod ca;
pub mod caida;
pub mod cidds;
pub mod dc;
pub mod public;
pub mod samplers;
pub mod session;
pub mod ton;
pub mod ugr16;

pub use samplers::{CategoricalSampler, HeavyTailSampler, ZipfPool};

use nettrace::{FlowTrace, PacketTrace};

/// The six evaluation datasets, by paper name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// (NetFlow-1) UGR16: Spanish ISP NetFlow with injected attacks.
    Ugr16,
    /// (NetFlow-2) CIDDS: emulated small-business network, labeled attacks.
    Cidds,
    /// (NetFlow-3) TON_IoT: IoT telemetry, 65% benign + 9 attack classes.
    Ton,
    /// (PCAP-1) CAIDA: commercial backbone link (New York, 2018).
    Caida,
    /// (PCAP-2) DC: "UNI1" university data center (IMC 2010).
    Dc,
    /// (PCAP-3) CA: MACCDC cyber-defense competition capture (2012).
    Ca,
}

impl DatasetKind {
    /// All datasets in paper order.
    pub const ALL: [DatasetKind; 6] = [
        DatasetKind::Ugr16,
        DatasetKind::Cidds,
        DatasetKind::Ton,
        DatasetKind::Caida,
        DatasetKind::Dc,
        DatasetKind::Ca,
    ];

    /// The three flow-header datasets.
    pub const FLOW: [DatasetKind; 3] = [DatasetKind::Ugr16, DatasetKind::Cidds, DatasetKind::Ton];

    /// The three packet-header datasets.
    pub const PACKET: [DatasetKind; 3] = [DatasetKind::Caida, DatasetKind::Dc, DatasetKind::Ca];

    /// Whether this is a flow-header (NetFlow) dataset.
    pub fn is_flow(self) -> bool {
        matches!(self, DatasetKind::Ugr16 | DatasetKind::Cidds | DatasetKind::Ton)
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Ugr16 => "UGR16",
            DatasetKind::Cidds => "CIDDS",
            DatasetKind::Ton => "TON",
            DatasetKind::Caida => "CAIDA",
            DatasetKind::Dc => "DC",
            DatasetKind::Ca => "CA",
        }
    }
}

/// Generates a flow-header dataset of (approximately) `n` records.
///
/// # Panics
/// Panics if `kind` is a packet dataset; use [`generate_packets`] for those.
pub fn generate_flows(kind: DatasetKind, n: usize, seed: u64) -> FlowTrace {
    match kind {
        DatasetKind::Ugr16 => ugr16::generate(n, seed),
        DatasetKind::Cidds => cidds::generate(n, seed),
        DatasetKind::Ton => ton::generate(n, seed),
        other => panic!("{} is a packet dataset; call generate_packets", other.name()), // lint: allow(panic-in-lib) documented contract panic: kind mismatch is a caller bug
    }
}

/// Generates a packet-header dataset of (approximately) `n` packets.
///
/// # Panics
/// Panics if `kind` is a flow dataset; use [`generate_flows`] for those.
pub fn generate_packets(kind: DatasetKind, n: usize, seed: u64) -> PacketTrace {
    match kind {
        DatasetKind::Caida => caida::generate(n, seed),
        DatasetKind::Dc => dc::generate(n, seed),
        DatasetKind::Ca => ca::generate(n, seed),
        other => panic!("{} is a flow dataset; call generate_flows", other.name()), // lint: allow(panic-in-lib) documented contract panic: kind mismatch is a caller bug
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_flow_datasets_generate() {
        for kind in DatasetKind::FLOW {
            let t = generate_flows(kind, 500, 7);
            assert!(!t.is_empty(), "{} produced no flows", kind.name());
        }
    }

    #[test]
    fn all_packet_datasets_generate() {
        for kind in DatasetKind::PACKET {
            let t = generate_packets(kind, 500, 7);
            assert!(!t.is_empty(), "{} produced no packets", kind.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_flows(DatasetKind::Ugr16, 300, 42);
        let b = generate_flows(DatasetKind::Ugr16, 300, 42);
        assert_eq!(a, b);
        let c = generate_flows(DatasetKind::Ugr16, 300, 43);
        assert_ne!(a, c, "different seed must change the trace");
    }

    #[test]
    #[should_panic(expected = "packet dataset")]
    fn flow_api_rejects_packet_dataset() {
        let _ = generate_flows(DatasetKind::Caida, 10, 0);
    }
}
