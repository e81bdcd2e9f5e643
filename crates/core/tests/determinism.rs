//! End-to-end determinism: the same `cfg.seed` must produce the same
//! synthetic trace, run to run, even with the chunk models trained on
//! multiple rayon threads.
//!
//! This holds by construction and this test keeps it that way:
//! * every per-chunk RNG is seeded from `cfg.seed` and the chunk index,
//!   never from thread identity or global state;
//! * `par_iter().collect()` preserves chunk order;
//! * the tensor kernels compute each output row in a fixed accumulation
//!   order, so tiled-serial and banded-parallel results are bitwise
//!   identical at any thread count;
//! * codec vocabularies are built in first-seen or sorted order, never
//!   by `HashMap` iteration order.

use netshare::config::{DpOptions, NetShareConfig};
use netshare::pipeline::NetShare;
use trace_synth::{generate_flows as synth_flows, generate_packets as synth_packets, DatasetKind};

fn tiny_cfg(seed: u64) -> NetShareConfig {
    let mut cfg = NetShareConfig::fast();
    cfg.n_chunks = 2;
    cfg.seed_steps = 8;
    cfg.finetune_steps = 3;
    cfg.ip2vec_public_packets = 800;
    cfg.max_seq_len = 4;
    cfg.seed = seed;
    cfg
}

#[test]
fn same_seed_same_trace_across_fits_under_rayon() {
    // Force a multi-threaded rayon pool even on a single-core host so
    // the parallel chunk-training and banded-kernel paths really run.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let real = synth_flows(DatasetKind::Ugr16, 400, 17);

    let run = |seed: u64| {
        let mut model = NetShare::fit_flows(&real, &tiny_cfg(seed)).unwrap();
        model.generate_flows(150)
    };

    let a = run(42);
    let b = run(42);
    assert_eq!(
        a, b,
        "two fits with the same cfg.seed must generate identical traces"
    );

    let c = run(43);
    assert_ne!(a, c, "a different seed must change the output");
}

#[test]
fn same_seed_same_packet_trace_across_fits() {
    let real = synth_packets(DatasetKind::Caida, 400, 17);
    let run = |seed: u64| {
        let mut model = NetShare::fit_packets(&real, &tiny_cfg(seed)).unwrap();
        model.generate_packets(150)
    };
    let a = run(42);
    assert_eq!(a, run(42), "two packet fits with the same cfg.seed must agree");
    assert_ne!(a, run(43), "a different seed must change the output");
}

/// fnv1a64 over the `Debug` line of every record, in trace order.
fn digest<R: std::fmt::Debug>(records: &[R]) -> u64 {
    let text: String = records.iter().map(|r| format!("{r:?}\n")).collect();
    orchestrator::fnv1a64(text.as_bytes())
}

#[test]
fn generated_traces_match_pinned_digests() {
    // Goldens read from the two separate flow and packet pipelines this
    // one replaced: any change to RNG draw order, seed salts, batch
    // sizing or decode shows up here, for every kind × DP pairing.
    let flows = synth_flows(DatasetKind::Ugr16, 400, 17);
    let packets = synth_packets(DatasetKind::Caida, 400, 17);
    let dp_cfg = || {
        let mut cfg = tiny_cfg(42);
        cfg.dp = Some(DpOptions {
            noise_multiplier: 1.0,
            clip_norm: 1.0,
            delta: 1e-5,
            public_pretrain_steps: 6,
            pretrain_source: Default::default(),
        });
        cfg
    };
    let flow_digest = |cfg: &NetShareConfig, n: usize| {
        digest(&NetShare::fit_flows(&flows, cfg).unwrap().generate_flows(n).flows)
    };
    let packet_digest = |cfg: &NetShareConfig, n: usize| {
        digest(&NetShare::fit_packets(&packets, cfg).unwrap().generate_packets(n).packets)
    };
    let got = [
        flow_digest(&tiny_cfg(42), 150),
        packet_digest(&tiny_cfg(42), 150),
        flow_digest(&dp_cfg(), 100),
        packet_digest(&dp_cfg(), 100),
    ];
    let pinned = [
        0x58f20b9b190eb413u64,
        0x902a60dfd1ddc07f,
        0xa8457af75c28e952,
        0xcb257bebf0a6df4e,
    ];
    assert_eq!(got, pinned, "flows, packets, DP flows, DP packets: got {got:#018x?}");
}
