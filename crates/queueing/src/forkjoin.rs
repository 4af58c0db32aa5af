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
//! plus possible delay (multiplication by 3/2)".

/// The `s`-th harmonic number `H_s = 1 + 1/2 + … + 1/s`.
pub fn harmonic(s: u32) -> f64 {
    (1..=s).map(|i| 1.0 / i as f64).sum()
}

/// Fork/join estimate for a parallel-and node over child response times.
///
/// Returns 0 for an empty child list.
pub fn fork_join_response(children: &[f64]) -> f64 {
    if children.is_empty() {
        return 0.0;
    }
    let max = children.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    harmonic(children.len() as u32) * max
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

    #[test]
    fn binary_fork_join_is_three_halves_max() {
        let r = fork_join_response(&[4.0, 10.0]);
        assert!((r - 15.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(fork_join_response(&[]), 0.0);
        assert!((fork_join_response(&[7.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn overestimates_deterministic_children() {
        // For equal deterministic children the true parallel response is
        // max = T, while the estimator gives 1.5·T — the documented source
        // of the fork/join approach's systematic overestimation (§5.2).
        let r = fork_join_response(&[10.0, 10.0]);
        assert!(r > 10.0);
    }
}
