//! Fixture: `dp-boundary` positive / waiver cases. This file is tagged
//! (lint: dp-post-noise) so per-example gradient accessors are banned.
//! Linted as `crates/doppelganger/src/x.rs`.
//! Expected: 3 deny findings, 1 waived.

pub fn positive_read(model: &mut impl Parameterized) {
    let _ = model.flat_gradients();
}

pub fn positive_write(model: &mut impl Parameterized) {
    model.set_flat_gradients(&[]);
}

pub fn positive_raw(model: &mut impl Parameterized) {
    let _ = model.gradients_mut();
}

pub fn waived(model: &mut impl Parameterized) {
    let _ = model.flat_gradients(); // lint: allow(dp-boundary) fixture: reading a *noised* copy captured earlier
}

pub fn negative_sanctioned(dp: &mut DpSgdTrainer, model: &mut M, batch: &[usize]) {
    dp.sanitize_batch(model, batch, |_, _| {});
}
