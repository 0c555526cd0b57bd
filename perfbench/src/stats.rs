//! Small numeric helpers: quantiles over samples, and a seeded shuffle.

/// Linear-interpolation quantile of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn p99(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.99)
}

pub fn mean(samples: &mut [f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples per window for [`windowed`].
pub const WINDOW: usize = 1000;

/// The `q`-quantile of each run of `WINDOW` consecutive samples (the last
/// window absorbs the remainder). Summarize the result with [`median`]: one
/// host stall of tens of milliseconds then moves the tail of one window,
/// not the whole replay's.
pub fn windowed(samples: &[f64], q: f64) -> Vec<f64> {
    let n = (samples.len() / WINDOW).max(1);
    (0..n)
        .map(|w| &samples[w * samples.len() / n..(w + 1) * samples.len() / n])
        .filter(|window| !window.is_empty())
        .map(|window| quantile(&mut window.to_vec(), q))
        .collect()
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// SplitMix64: a tiny seeded generator for shuffles and derived seeds.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn windows_split_evenly_and_absorb_the_remainder() {
        let a: Vec<f64> = (0..2500).map(f64::from).collect();
        assert_eq!(windowed(&a, 1.0), vec![1249.0, 2499.0]);
        assert_eq!(windowed(&[1.0, 2.0, 3.0], 1.0), vec![3.0]);
        assert!(windowed(&[], 0.5).is_empty());
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<_>>());
    }
}
