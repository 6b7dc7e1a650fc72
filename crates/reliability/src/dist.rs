//! Sampling distributions used by the reliability model.
//!
//! Implemented directly over [`rand`]'s uniform source because `rand_distr`
//! is not part of the approved dependency set: the exponential uses inverse
//! transform sampling and the normal uses the Box–Muller transform.

use rand::Rng;

/// Exponential distribution with the given mean (inverse-rate parameterized).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recharge_reliability::dist::Exponential;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let d = Exponential::with_mean(45.0);
/// let x = d.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    #[must_use]
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive"
        );
        Exponential { mean }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one sample via inverse transform: `−mean · ln(1 − u)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        -self.mean * (1.0 - u).ln()
    }
}

/// Normal distribution (Box–Muller), optionally truncated below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0);
        Normal { mean, std_dev }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one sample via the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }

    /// Draws one sample, redrawing until it exceeds `floor` (used to keep
    /// annual-maintenance intervals positive).
    pub fn sample_above<R: Rng + ?Sized>(&self, rng: &mut R, floor: f64) -> f64 {
        for _ in 0..1_000 {
            let x = self.sample(rng);
            if x > floor {
                return x;
            }
        }
        // Pathological parameters: fall back to the floor plus the mean offset.
        floor + self.std_dev.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = rng();
        let d = Exponential::with_mean(45.0);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 45.0).abs() < 1.0, "sample mean {mean}");
    }

    #[test]
    fn exponential_is_nonnegative_and_memoryless_shape() {
        let mut rng = rng();
        let d = Exponential::with_mean(1.0);
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x >= 0.0));
        // P(X > 1) should be ≈ e^{-1} ≈ 0.368.
        let frac = samples.iter().filter(|&&x| x > 1.0).count() as f64 / samples.len() as f64;
        assert!((frac - 0.368).abs() < 0.01, "tail fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_bad_mean() {
        let _ = Exponential::with_mean(0.0);
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = rng();
        let d = Normal::new(365.0, 41.0);
        let n = 200_000usize;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 365.0).abs() < 1.0, "mean {mean}");
        assert!((var.sqrt() - 41.0).abs() < 1.0, "std {}", var.sqrt());
    }

    #[test]
    fn sample_above_respects_floor() {
        let mut rng = rng();
        let d = Normal::new(1.0, 5.0);
        for _ in 0..1_000 {
            assert!(d.sample_above(&mut rng, 0.0) > 0.0);
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Exponential::with_mean(2.0).mean(), 2.0);
        let n = Normal::new(1.0, 2.0);
        assert_eq!(n.mean(), 1.0);
        assert_eq!(n.std_dev, 2.0);
    }
}
