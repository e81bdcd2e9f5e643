//! The determinism contract's fast oracles, in one test binary.
//!
//! * `kernel_bits` — the tiled GEMM kernels and the constant-addend replay
//!   against the plain loops they replaced, bit for bit;
//! * `dpsgd_golden` — `DpSgdTrainer::sanitize_batch`'s pinned values;
//! * `infer_equiv` — the frozen generator against the training forward;
//! * `stream_sim` — `netshared::machine::Stream` under a seeded simulator;
//! * `machine_sim` — `orchestrator::Machine` under a seeded scheduler.
//!
//! `scripts/ci.sh avx2` runs this binary release-built at two vector
//! widths. The four pinned trace digests stay in
//! `crates/core/tests/determinism.rs`.

mod dpsgd_golden;
mod infer_equiv;
mod kernel_bits;
mod machine_sim;
mod stream_sim;
