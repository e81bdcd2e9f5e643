//! # privacy
//!
//! Rényi-differential-privacy accounting for DP-SGD, replacing the
//! `tensorflow-privacy` accountant the paper uses. Given the DP-SGD
//! parameters (noise multiplier σ, sampling rate q, number of steps T)
//! this crate computes the (ε, δ) guarantee of the trained model via:
//!
//! 1. the RDP of the *sampled Gaussian mechanism* at a ladder of orders α
//!    (Abadi et al. 2016; Mironov et al. 2019, integer-order bound);
//! 2. linear composition across the T steps;
//! 3. conversion from RDP to (ε, δ).
//!
//! The paper reports fidelity against ε at δ = 10⁻⁵ (Fig. 5, Table 5);
//! the `fig5` experiment uses [`compute_epsilon`] to label
//! each DP training run, and [`noise_for_epsilon`] to pick σ for a target
//! ε.

pub mod accountant;

pub use accountant::{compute_epsilon, compute_rdp_sampled_gaussian, noise_for_epsilon, DEFAULT_ORDERS};
