//! Fixture: a waiver must name a rule. A misspelt or retired rule name
//! waives nothing, so it is itself a finding. Expected: 1 deny finding
//! (line 6), and nothing else.

pub fn answer() -> u8 {
    // lint: allow(no-such-rule) a waiver for a rule that does not exist
    42
}
