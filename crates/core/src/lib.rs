//! # netshare
//!
//! The end-to-end NetShare pipeline (paper §4), assembled from the
//! substrate crates:
//!
//! 1. **Pre-processing** (Insight 1): merge measurement epochs into one
//!    giant trace, split it into per-five-tuple sequences, and encode
//!    header fields (Insight 2: bit-encoded IPs, IP2Vec-embedded
//!    ports/protocols trained on public data, `log(1+x)`+min-max
//!    continuous fields) — [`flowcodec`], [`packetcodec`], [`tuplecodec`].
//! 2. **Training** (Insights 1/3/4): slice the flow trace into `M`
//!    fixed-time chunks with explicit flow tags, train a DoppelGANger
//!    time-series GAN on the first ("seed") chunk, then fine-tune the
//!    remaining chunks *in parallel* from the seed model — [`chunking`],
//!    [`pipeline`]. In DP mode, pre-train on a public trace and fine-tune
//!    with DP-SGD, with ε reported by the RDP accountant.
//! 3. **Post-processing**: map embeddings back to words via
//!    nearest-neighbour search, regenerate derived fields (IPv4 checksum),
//!    remerge by raw timestamp, and optionally apply the privacy
//!    extensions (IP-range transformation, attribute retraining) —
//!    [`postprocess`].
//!
//! NetFlow and PCAP traces go through the *same* pipeline: [`NetShare`]
//! is generic over a [`TraceCodec`] ([`flowcodec::FlowCodec`] or
//! [`packetcodec::PacketCodec`]) and its fit and generate bodies are
//! written once. `fit_flows`/`generate_flows` and
//! `fit_packets`/`generate_packets` are the per-kind entry points, and
//! the kind is in the type, so mixing them up does not compile.
//!
//! The quickest way in is [`NetShare`] in [`pipeline`]:
//!
//! ```no_run
//! use netshare::{NetShare, NetShareConfig};
//! use trace_synth::{generate_flows, DatasetKind};
//!
//! let real = generate_flows(DatasetKind::Ugr16, 5_000, 1);
//! let cfg = NetShareConfig::fast();
//! let mut model = NetShare::fit_flows(&real, &cfg).unwrap();
//! let synthetic = model.generate_flows(5_000);
//! ```

pub mod chunking;
pub mod config;
pub mod flowcodec;
pub mod packetcodec;
pub mod pipeline;
pub mod postprocess;
pub mod tuplecodec;

// The serializable product of one training job lives in `doppelganger`
// (the serving daemon loads artifacts without depending on this crate).
pub use doppelganger::{ArtifactBundle, ModelArtifact};
pub use config::{DpOptions, DpPretrainSource, NetShareConfig, OrchestratorOptions};
pub use pipeline::{
    codec_ref_digest, live_objects, parse_divergence_spec, NetShare, PipelineError, TraceCodec,
};

// Re-exported so downstream code can inspect [`NetShare::events`] and the
// on-disk run directory without naming the orchestrator crate directly.
pub use orchestrator::{Event as OrchestratorEvent, Manifest as RunManifest};
