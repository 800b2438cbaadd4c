//! Malformed `lint:allow` directives are D000 findings, never
//! suppressions: a reason is required, and the code must name a rule
//! demos-lint still checks.

// lint:allow(D002)
pub fn no_reason() {}

// lint:allow(D004 retired: clippy::expect_used enforces this now)
pub fn retired_code() {}

// lint:allow(D099 no such rule)
pub fn unknown_code() {}
