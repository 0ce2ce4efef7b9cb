//! Shared sampling helpers for the generators.

use rand::rngs::StdRng;
use rand::Rng;

/// A discrete sampler over `0..n` with Zipf-like weights `1 / (rank + 1)^s`.
///
/// Event popularity in clickstreams and program traces is highly skewed;
/// a Zipf distribution is the standard model for that skew.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over `n` items with exponent `s` (`s = 0` is
    /// uniform; larger `s` is more skewed).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one item");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Self { cumulative }
    }

    /// Draws one item index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x: f64 = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1)
    }

    /// Number of items.
    #[cfg_attr(not(test), allow(dead_code, reason = "only the tests read it"))]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }
}

/// Samples a sequence length with the given mean from a geometric-like
/// distribution, clamped to `[min, max]`.
///
/// The QUEST generator uses a Poisson around the mean; a clamped geometric
/// mixture gives the same "most sequences near the mean, a few longer" shape
/// without needing a Poisson sampler dependency.
pub fn sample_length(rng: &mut StdRng, mean: f64, min: usize, max: usize) -> usize {
    debug_assert!(min <= max);
    // Sum of two uniform draws around the mean gives a triangular
    // distribution centred at `mean`, then add an exponential-ish tail.
    let base = rng.gen_range(0.5..1.0) * mean + rng.gen_range(0.0..0.5) * mean;
    let tail = if rng.gen_bool(0.1) {
        rng.gen_range(0.0..mean)
    } else {
        0.0
    };
    #[allow(
        clippy::cast_sign_loss,
        reason = "base and tail are sums of non-negative draws"
    )]
    ((base + tail).round() as usize).clamp(min, max)
}

/// Samples a heavy-tailed length: with probability `1 - p_tail` a short
/// length in `[min, short_max]`, otherwise a length up to `max` with a
/// decreasing density (used by the Gazelle-like generator where the average
/// length is 3 but the maximum is 651).
pub fn sample_heavy_tail_length(
    rng: &mut StdRng,
    min: usize,
    short_max: usize,
    max: usize,
    p_tail: f64,
) -> usize {
    if rng.gen_bool(p_tail) && max > short_max {
        // Quadratic skew towards the lower end of the tail.
        let u: f64 = rng.gen_range(0.0..1.0);
        let span = (max - short_max) as f64;
        #[allow(clippy::cast_sign_loss, reason = "u and span are non-negative")]
        let tail = (u * u * span).round() as usize;
        short_max + tail
    } else {
        rng.gen_range(min..=short_max.max(min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_sampler_prefers_low_ranks() {
        let mut rng = StdRng::seed_from_u64(7);
        let sampler = ZipfSampler::new(100, 1.0);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50]);
        assert!(counts[0] > counts[99]);
        assert_eq!(sampler.len(), 100);
    }

    #[test]
    fn zipf_with_zero_exponent_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let sampler = ZipfSampler::new(4, 0.0);
        let mut counts = vec![0usize; 4];
        for _ in 0..40_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 1_500.0, "counts {counts:?}");
        }
    }

    #[test]
    fn sample_length_respects_bounds_and_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut total = 0usize;
        let n = 5_000;
        for _ in 0..n {
            let len = sample_length(&mut rng, 20.0, 1, 100);
            assert!((1..=100).contains(&len));
            total += len;
        }
        let mean = total as f64 / f64::from(n);
        assert!((mean - 20.0).abs() < 5.0, "mean = {mean}");
    }

    #[test]
    fn heavy_tail_length_hits_the_tail_sometimes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut saw_tail = false;
        for _ in 0..5_000 {
            let len = sample_heavy_tail_length(&mut rng, 1, 4, 651, 0.02);
            assert!((1..=651).contains(&len));
            if len > 50 {
                saw_tail = true;
            }
        }
        assert!(saw_tail, "the tail should be reachable");
    }
}
