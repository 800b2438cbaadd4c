//! `lint:allow` coverage: a directive on the line that opens a block
//! covers the whole block; otherwise it covers its own line and the next,
//! and a finding two lines down is still reported.

pub fn staged() -> u128 {
    // lint:allow(D002 fixture: the block below is the sanctioned read)
    {
        let unit = 1u128;
        std::time::Instant::now().elapsed().as_nanos() * unit
    }
}

pub fn two_reads() -> (std::time::Instant, std::time::Instant) {
    // lint:allow(D002 fixture: covers this line and the next only)
    let a = std::time::Instant::now();
    let b = std::time::Instant::now();
    (a, b)
}
