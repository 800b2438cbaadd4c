//! The `sim_digest`: one hash over every simulated statistic a workload
//! can read. Equal digests mean "every simulated statistic is identical",
//! which is what a change meant only to speed up the simulator must show.

/// FNV-1a over 64-bit words, folded byte by byte. Fixed here rather than
/// taken from `std` so a digest written into a result file today compares
/// equal to one computed by a later toolchain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a sequence of words in, in order.
    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let of = |ws: &[u64]| {
            let mut d = Digest::default();
            d.words(ws.iter().copied());
            d.finish()
        };
        // Pinned: a result file's digest must mean the same thing forever.
        assert_eq!(Digest::default().finish(), 0xCBF2_9CE4_8422_2325);
        assert_eq!(of(&[0]), 0xA8C7_F832_281A_39C5);
        assert_eq!(of(&[1, 2, 3]), of(&[1, 2, 3]));
        assert_ne!(of(&[1, 2, 3]), of(&[3, 2, 1]));
        assert_ne!(of(&[1, 2]), of(&[1, 2, 0]));
    }
}
