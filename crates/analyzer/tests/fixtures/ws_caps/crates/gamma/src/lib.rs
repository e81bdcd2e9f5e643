//! Fixture (capability-graph): an untagged helper that reads the
//! ambient clock. The direct use is waived here, so only the propagated
//! findings deny, but every caller transitively inherits the `clock`
//! capability. Lint target only.

pub fn stamp() -> u64 {
    // lint: allow(capability-graph) fixture: the direct read is audited; its callers are under test
    let t = SystemTime::now();
    to_nanos(t)
}
