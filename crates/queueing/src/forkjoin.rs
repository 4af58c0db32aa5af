//! Fork/join response-time approximations.
//!
//! The paper's second estimator (§4.2.4, after Varki \[10\] and Vianna et
//! al. \[12\]): the response time of a parallel-and node with `s` children is
//!
//! ```text
//! R = H_s · max(T_1, …, T_s),   H_s = Σ_{i=1..s} 1/i
//! ```
//!
//! For the paper's *binary* precedence trees `s = 2`, so `H_2 = 3/2`: "the
//! response time for a parent node equals the biggest child response time
//! plus possible delay (multiplication by 3/2)". The estimator itself,
//! which applies `H_2` once per fork/join block, lives in `mr2-model`'s
//! solver.

/// The `s`-th harmonic number `H_s = 1 + 1/2 + … + 1/s`.
pub fn harmonic(s: u32) -> f64 {
    (1..=s).map(|i| 1.0 / i as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_values() {
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }
}
