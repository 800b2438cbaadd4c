//! The benchmark's own seeded generator (SplitMix64).
//!
//! Every generated input — bindings, size draws, destinations, wave
//! placement, execution order — comes from one of these, seeded from
//! `--seed`, so the program under test receives only generated inputs and
//! the same seed always yields the same inputs.

/// SplitMix64: tiny, fast, and good enough for shuffles and draws.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated by `stream` so that two uses of
    /// one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// A permutation of `0..n` with no fixed point (`n` ≥ 2).
    pub fn derangement(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        loop {
            self.shuffle(&mut p);
            if p.iter().enumerate().all(|(i, &x)| i != x) {
                return p;
            }
        }
    }
}

/// `counts[i]` copies of `values[i]`, shuffled: a draw whose *multiset*
/// is the same for every seed, so that totals (bytes sent, bytes moved)
/// do not depend on the seed while the assignment does.
pub fn stratified<T: Copy>(rng: &mut Rng, values: &[T], counts: &[usize]) -> Vec<T> {
    let mut out = Vec::new();
    for (&v, &c) in values.iter().zip(counts) {
        out.extend(std::iter::repeat_n(v, c));
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn derangement_has_no_fixed_point() {
        let mut r = Rng::new(3, 0);
        for _ in 0..50 {
            let p = r.derangement(16);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<_>>());
            assert!(p.iter().enumerate().all(|(i, &x)| i != x));
        }
    }

    #[test]
    fn stratified_keeps_the_multiset() {
        let mut r = Rng::new(11, 0);
        let mut v = stratified(&mut r, &[16u32, 64, 1024], &[3, 2, 1]);
        v.sort_unstable();
        assert_eq!(v, vec![16, 16, 16, 64, 64, 1024]);
    }
}
