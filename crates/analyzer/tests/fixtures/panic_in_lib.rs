//! Fixture: `panic-in-lib` positive / negative / waiver cases.
//! Linted as `crates/netshare/src/x.rs`.
//! Expected: 3 deny findings, 1 waived.

pub fn positive_unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn positive_expect(x: Option<u8>) -> u8 {
    x.expect("present")
}

pub fn positive_panic() {
    panic!("boom");
}

pub fn waived(x: Option<u8>) -> u8 {
    x.unwrap() // lint: allow(panic-in-lib) fixture: x verified Some by the caller
}

pub fn negative_result(x: Option<u8>) -> Result<u8, String> {
    x.ok_or_else(|| "missing".to_string())
}

pub fn negative_assert(n: usize) {
    assert!(n > 0, "asserts state invariants and are allowed");
}

#[cfg(test)]
mod tests {
    #[test]
    fn negative_test_region() {
        Some(1u8).unwrap();
    }
}
