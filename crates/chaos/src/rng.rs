//! The workspace's one small seeded generator, xorshift64*: failpoint
//! streams, `mbts chaos` command scripts and `mbts flood` bodies and
//! jitter all draw from it. Each caller keeps its own seeding expression,
//! so the streams are independent and each replays bit for bit.

/// A xorshift64* stream.
#[derive(Debug, Clone)]
pub struct Xorshift64Star(u64);

impl Xorshift64Star {
    /// A stream whose state is `state`, which must be non-zero (a zero
    /// state stays zero forever).
    pub fn new(state: u64) -> Self {
        debug_assert_ne!(state, 0, "xorshift state must be non-zero");
        Xorshift64Star(state)
    }

    /// A stream seeded from any `seed`: one splitmix64 scramble, so
    /// adjacent seeds diverge, forced odd so the state is non-zero.
    pub fn from_seed(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Xorshift64Star((z ^ (z >> 31)) | 1)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_draws_stay_in_the_unit_interval() {
        let mut a = Xorshift64Star::from_seed(9);
        let mut b = Xorshift64Star::from_seed(9);
        for _ in 0..1000 {
            let (x, y) = (a.next_f64(), b.next_f64());
            assert_eq!(x.to_bits(), y.to_bits());
            assert!((0.0..1.0).contains(&x));
        }
        assert_ne!(
            Xorshift64Star::from_seed(9).next_u64(),
            Xorshift64Star::from_seed(10).next_u64()
        );
    }

    #[test]
    fn the_stream_is_xorshift64_star() {
        // First output from state 1, worked by hand: x = 1 ^ 1<<13 = 0x2001,
        // x ^= x>>7 (= 0x40) → 0x2041, x ^= x<<17 → 0x4082_2041.
        let mut r = Xorshift64Star::new(1);
        assert_eq!(
            r.next_u64(),
            0x4082_2041u64.wrapping_mul(0x2545_F491_4F6C_DD1D)
        );
    }
}
