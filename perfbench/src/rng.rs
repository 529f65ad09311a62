//! Seeded input generation: every request sequence the benchmark sends is a
//! pure function of the `--seed` argument.

/// SplitMix64: a small, fast, well-mixed generator whose output depends on
/// nothing but its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (arrival gaps vs. program draws), so changing one never shifts
    /// the other.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

const ARRIVAL_STREAM: u64 = 1;
const DRAW_STREAM: u64 = 2;
const ORDER_STREAM: u64 = 3;

/// A seeded permutation of `0..n`: the order in which a cycle is visited.
pub fn cycle_order(seed: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    Rng::new(seed, ORDER_STREAM).shuffle(&mut v);
    v
}

/// The endless uniform draw of request kinds out of `0..kinds`, stratified:
/// each block of `kinds` consecutive draws is a seeded permutation of all
/// kinds. Every kind is equally likely at every position, but a run's mix
/// no longer varies with the seed, so neither does the work it offers.
pub fn draws(seed: u64, kinds: usize) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed, DRAW_STREAM);
    std::iter::repeat_with(move || {
        let mut block: Vec<usize> = (0..kinds).collect();
        rng.shuffle(&mut block);
        block
    })
    .flatten()
}

/// Open-loop send times, in seconds from the start of the window: exactly
/// `count` arrivals of a Poisson process over `[0, window_s)`. The gaps are
/// seeded exponential draws, rescaled so the `count`-th arrival lands inside
/// the window; this is the Poisson process conditioned on its count, so every
/// seed offers the same load and only the burst pattern changes.
pub fn arrivals(seed: u64, count: usize, window_s: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, ARRIVAL_STREAM);
    let mut t = 0.0;
    let mut times: Vec<f64> = (0..=count)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln();
            t
        })
        .collect();
    let total = times.pop().unwrap_or(1.0);
    for x in &mut times {
        *x *= window_s / total;
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_request_sequence() {
        let take = |seed, n| draws(seed, 5).take(n).collect::<Vec<_>>();
        assert_eq!(take(7, 300), take(7, 300));
        assert_eq!(arrivals(7, 300, 20.0), arrivals(7, 300, 20.0));
        assert_ne!(take(7, 300), take(8, 300));
        assert_ne!(arrivals(7, 300, 20.0), arrivals(8, 300, 20.0));
        // A longer run replays the shorter run's prefix.
        assert_eq!(take(7, 300)[..100], take(7, 100)[..]);
        // The shuffle of a device cycle is seeded the same way.
        assert_eq!(cycle_order(5, 16), cycle_order(5, 16));
        assert_ne!(cycle_order(5, 16), cycle_order(6, 16));
        let mut sorted = cycle_order(5, 16);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn arrivals_fill_the_window_in_order() {
        let a = arrivals(3, 500, 10.0);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= 0.0 && a[499] < 10.0);
        // Roughly uniform: about half the arrivals in each half window.
        let first_half = a.iter().filter(|&&t| t < 5.0).count();
        assert!((200..300).contains(&first_half), "{first_half}");
    }

    #[test]
    fn draws_give_every_kind_an_equal_share_in_varying_order() {
        let d: Vec<usize> = draws(11, 5).take(1000).collect();
        for block in d.chunks(5) {
            let mut b = block.to_vec();
            b.sort_unstable();
            assert_eq!(b, [0, 1, 2, 3, 4]);
        }
        // Each kind still lands at every position of a block.
        for k in 0..5 {
            let firsts = d.chunks(5).filter(|b| b[0] == k).count();
            assert!(
                (20..60).contains(&firsts),
                "kind {k} first in {firsts} of 200 blocks"
            );
        }
    }
}
