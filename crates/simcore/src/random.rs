//! Random variates for the simulator.
//!
//! The simulator's only variate is multiplicative work jitter: a
//! lognormal with mean 1 and the configured coefficient of variation
//! (CV = σ/μ). It matches both moments exactly and stays positive.

use rand::Rng;

/// Lognormal variate with the given mean and CV of the *value* (not of
/// its log).
#[derive(Debug, Clone, PartialEq)]
pub struct LogNormal {
    /// Expected value.
    pub mean: f64,
    /// Coefficient of variation σ/μ.
    pub cv: f64,
}

impl LogNormal {
    /// Draw one sample (two uniform draws, Box–Muller).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Match moments of the lognormal: if X = exp(μ + σZ),
        // E[X] = exp(μ + σ²/2), CV² = exp(σ²) − 1.
        let sigma2 = (1.0 + self.cv * self.cv).ln();
        let mu = self.mean.ln() - 0.5 * sigma2;
        // Box–Muller standard normal Z.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mu + sigma2.sqrt() * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn moments_match() {
        let rv = LogNormal { mean: 2.0, cv: 0.7 };
        let n = 200_000;
        let mut rng = SmallRng::seed_from_u64(47);
        let samples: Vec<f64> = (0..n).map(|_| rv.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        let want_var = (rv.mean * rv.cv) * (rv.mean * rv.cv);
        assert!((mean - rv.mean).abs() / rv.mean < 0.03, "mean {mean}");
        assert!((var - want_var).abs() / want_var < 0.08, "var {var}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }
}
