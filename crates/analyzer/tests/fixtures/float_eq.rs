//! Fixture: `float-eq` positive / negative / waiver cases.
//! Linted as `crates/nnet/src/x.rs`.
//! Expected: 2 deny findings, 1 waived.

pub fn positive_eq(x: f32) -> bool {
    x == 0.0
}

pub fn positive_ne(y: f32) -> bool {
    1.5 != y
}

pub fn waived(x: f32) -> bool {
    x == 0.0 // lint: allow(float-eq) zero-skip fast path: only exact 0.0 may skip
}

pub fn negative_tolerance(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-6
}

pub fn negative_integer(n: u32) -> bool {
    n == 0
}
