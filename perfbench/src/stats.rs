//! Small numeric helpers: the seeded generator, order statistics, and
//! output hashing.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields one input set.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x0005_EED0_FBEC_4A11)
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

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// An independent seed for sub-stream `index` of `seed`.
pub fn derive(seed: u64, index: u64) -> u64 {
    Rng::new(seed.wrapping_add(index.wrapping_mul(0xD6E8_FEB8_6659_FD93))).next_u64()
}

/// Median of `values` (the mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median()
}

/// A sample sorted once for its order statistics.
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// The nearest-rank p99, or `None` when fewer than ten samples lie
    /// beyond it.
    pub fn p99(&self) -> Option<f64> {
        let n = self.sorted.len();
        let index = ((n as f64 * 0.99).ceil() as usize).checked_sub(1)?;
        (n - 1 - index >= 10).then(|| self.sorted[index])
    }
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
