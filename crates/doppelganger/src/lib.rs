//! # doppelganger
//!
//! A DoppelGANger-style time-series GAN (Lin et al., IMC 2020) — the
//! generative core NetShare builds on (paper §4.1, Insight 1 and
//! Appendix C). Each training sample is
//!
//! * a **metadata** (attribute) vector — for NetShare, the encoded
//!   five-tuple plus flow tags; and
//! * a **record sequence** (measurements) — per-packet or per-flow-record
//!   features, variable-length up to a maximum.
//!
//! Architecture, following the paper's Appendix C configuration:
//!
//! * metadata generator: MLP from noise to attribute outputs;
//! * record generator: GRU whose step input is `[noise_t, metadata]`,
//!   with an MLP head emitting record features plus a generation flag
//!   (sequence-termination signal);
//! * a full discriminator on `[metadata ‖ padded records]` and an
//!   **auxiliary discriminator** on metadata alone (enabled, as in the
//!   paper);
//! * Wasserstein losses with weight clipping (this repo's documented
//!   substitution for the gradient penalty), Adam, `n_critic` critic steps
//!   per generator step;
//! * `[0,1]`-normalized continuous outputs via sigmoid, categorical
//!   outputs via per-segment softmax ("auto-normalization disabled,
//!   packing not used" per Appendix C);
//! * optional **DP-SGD on the critic** (the only network touching real
//!   data), turning the trained generator into a DP mechanism whose ε the
//!   `privacy` crate accounts.

pub mod artifact;
pub mod data;
pub mod sentinel;
pub mod model;
pub mod spec;
pub mod train;

pub use artifact::{ArtifactBundle, ModelArtifact};
pub use data::TimeSeriesDataset;
pub use sentinel::{Rollback, SentinelConfig, TrainAbort, TrainControl};
pub use model::{DgDiscriminators, DgGenerator, FrozenGenerator, GeneratedBatch};
pub use spec::{FeatureSpec, Segment};
pub use train::{CursorMark, DgConfig, DgLoss, DoppelGanger, GeneratedSample, SampleCursor, TrainStats};
