//! The determinism contract's fast oracles, in one test binary.
//!
//! * `kernel_bits` — the tiled GEMM kernels and the constant-addend replay
//!   against the plain loops they replaced, bit for bit;
//! * `dpsgd_golden` — `DpSgdTrainer::sanitize_batch`'s pinned values;
//! * `infer_equiv` — the frozen generator against the training forward;
//! * `stream_sim` — `netshared::machine::Stream` under a seeded simulator;
//! * `machine_sim` — `orchestrator::Machine` under a seeded scheduler;
//! * `determinism` — whole fits: same seed, same trace, and the four
//!   pinned trace digests (flows and packets, each with and without DP).
//!
//! `scripts/ci.sh avx2` runs this binary release-built at two vector
//! widths.

mod determinism;
mod dpsgd_golden;
mod infer_equiv;
mod kernel_bits;
mod machine_sim;
mod stream_sim;
