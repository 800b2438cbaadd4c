//! D008 positive: sim-visible code (crates/sim) calls into a crate that
//! is not sim-visible, whose function reads the wall clock. D002 reports
//! the read where it happens; only the taint rule sees the sim-visible
//! call that lets it in.

pub struct Balancer;

impl Balancer {
    pub fn tick(&mut self, keys: &[u32]) -> u32 {
        tainted::clocked_sum(keys)
    }
}
