//! Fixture: `nondeterministic-iteration` positive / negative / waiver
//! cases. Linted as `crates/nnet/src/x.rs`; never
//! compiled. Expected: 3 deny findings, 2 waived.

use std::collections::BTreeMap;
use std::collections::HashMap;

pub fn positive() -> HashMap<u32, u32> {
    HashMap::new()
}

pub fn waived() {
    let _m: HashMap<u8, u8> = HashMap::new(); // lint: allow(nondeterministic-iteration) keys are sorted before every iteration
}

pub fn negative_ordered() -> BTreeMap<u32, u32> {
    BTreeMap::new()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn negative_test_region() {
        let _ = HashMap::<u8, u8>::new();
    }
}
