//! A crate that is not sim-visible: a wall-clock read here is a D002
//! finding at its own site, and D008 must track the taint it spreads
//! through the call graph into sim-visible callers.

/// D008 positive taint source: the sum depends on the host clock.
pub fn clocked_sum(keys: &[u32]) -> u32 {
    let salt = std::time::Instant::now().elapsed().subsec_nanos();
    keys.iter().fold(salt, |a, k| a.wrapping_add(*k))
}

/// D008 negative: a pure function of its input, no taint.
pub fn ordered_sum(keys: &[u32]) -> u32 {
    keys.iter().fold(0, |a, k| a.wrapping_add(*k))
}
