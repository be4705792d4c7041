//! The benchmark's own random source. Every input (corpus, query stream,
//! think times) derives from `--seed` through this generator, so the same
//! seed replays the same run and the program under test receives only the
//! generated inputs.

/// xorshift64* — small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// `stream` separates independent uses of one `--seed` (corpus, queries,
    /// think times) so lengthening one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Self {
        // splitmix64 scramble: a zero state would stick at zero.
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self(z | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these ranges is far
    /// below anything the benchmark can resolve).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// Think time before each latency-phase request, uniform in 1.5–2.5 ms: long
/// enough that the reactor has gone idle again, random so requests meet its
/// poll cycle at every phase (rule 2).
pub const THINK_MIN_NS: u64 = 1_500_000;
pub const THINK_MAX_NS: u64 = 2_500_000;

/// The think-time schedule of one latency phase.
pub fn think_schedule(seed: u64, ops: usize) -> Vec<u64> {
    let mut rng = XorShift::new(seed, 0x7417);
    (0..ops)
        .map(|_| rng.range(THINK_MIN_NS, THINK_MAX_NS))
        .collect()
}

/// Busy-wait `ns` nanoseconds. A sleep would hand the core to the scheduler
/// and return late by an amount that differs between runs.
pub fn spin_ns(ns: u64) {
    let start = std::time::Instant::now();
    let wait = std::time::Duration::from_nanos(ns);
    while start.elapsed() < wait {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = think_schedule(11, 500);
        assert_eq!(a, think_schedule(11, 500));
        assert_ne!(a, think_schedule(12, 500));
        assert!(a
            .iter()
            .all(|&t| (THINK_MIN_NS..=THINK_MAX_NS).contains(&t)));
        // A longer schedule extends the shorter one: the op count never
        // changes what earlier requests see.
        assert_eq!(a[..], think_schedule(11, 800)[..500]);
    }

    #[test]
    fn streams_are_independent_and_ranges_hold() {
        let mut a = XorShift::new(5, 1);
        let mut b = XorShift::new(5, 2);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut r = XorShift::new(0, 0);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            assert!((3..=9).contains(&r.range(3, 9)));
        }
    }
}
