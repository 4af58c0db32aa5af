//! Phase-type response-time distributions for the Tripathi estimator.
//!
//! §4.2.4 of the paper (after Liang & Tripathi \[4\] and Trivedi \[9\]):
//! approximate each node's response time by an **Erlang** distribution when
//! its coefficient of variation is ≤ 1 and by a two-phase
//! **hyperexponential** when CV > 1; combine children of S-nodes as sums
//! and of P-nodes as maxima, re-fitting after every combination.
//!
//! Both families are mixtures of Erlangs (an H2 mixes two exponentials),
//! which this module represents explicitly ([`ExpPoly`]). Their survival
//! functions are positive combinations of terms `t^n · e^{-λt}`, and so
//! are products of them, so the moments of `min(X,Y)` — and via
//! `E[max] = E[X] + E[Y] − E[min]` the moments of the maximum — have
//! closed forms. The kernel evaluates them in log space to survive large
//! Erlang shape parameters.

use std::sync::LazyLock;

/// One mixture component: weight `w` on an Erlang-`k` with phase rate
/// `rate`, whose survival is `Σ_{j<k} (rate·t)^j/j! · e^{-rate·t}`.
#[derive(Debug, Clone, Copy)]
struct Erlang {
    w: f64,
    k: u32,
    rate: f64,
}

/// Filler for an [`ExpPoly`]'s unused component slot.
const UNUSED: Erlang = Erlang {
    w: 0.0,
    k: 1,
    rate: 1.0,
};

/// A distribution whose survival function is a positive mixture of
/// Erlang survivals. Its first two moments are computed once, at
/// construction. Every constructor mixes at most two components, which
/// are kept inline, so the type is `Copy`.
#[derive(Clone, Copy)]
pub struct ExpPoly {
    /// The first `len` entries are the components.
    slots: [Erlang; 2],
    len: u8,
    mean: f64,
    second_moment: f64,
}

impl std::fmt::Debug for ExpPoly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpPoly")
            .field("components", &self.components())
            .field("mean", &self.mean)
            .field("second_moment", &self.second_moment)
            .finish()
    }
}

/// Entries of the `ln n!` prefix table: the minimum of two fitted
/// Erlangs (`n < 2·150`) reads it, with room to spare.
const LN_FACTORIAL_TABLE: usize = 1024;

/// `ln n! = Σ_{i≤n} ln i`, read from a prefix table. The table is the
/// left fold the sum itself performs, seeded with `-0.0` like the empty
/// sum, so every entry is bit-identical to summing on the spot; past the
/// table's end the fold continues from its last entry.
fn ln_factorial(n: u32) -> f64 {
    static TABLE: LazyLock<Vec<f64>> = LazyLock::new(|| {
        let mut acc = -0.0;
        let mut table = Vec::with_capacity(LN_FACTORIAL_TABLE);
        table.push(acc);
        for i in 1..LN_FACTORIAL_TABLE {
            acc += (i as f64).ln();
            table.push(acc);
        }
        table
    });
    match TABLE.get(n as usize) {
        Some(&v) => v,
        None => (LN_FACTORIAL_TABLE as u64..=n as u64)
            .fold(TABLE[LN_FACTORIAL_TABLE - 1], |acc, i| {
                acc + (i as f64).ln()
            }),
    }
}

/// `(E[min], E[min²])` of independent Erlangs `a` and `b` (weights
/// ignored).
///
/// Expanded, `∫ t^m S_a S_b` is a double sum over term pairs `(i, j)`;
/// all terms of one Erlang share its rate, so a pair's mass is binomial,
/// `C(i+j, i)·pⁱ·qʲ / r` with `r = r_a + r_b` and `p = r_a/r`. Grouped by
/// `n = i + j`, it reads: run both phase processes on one clock, where
/// each completion is `a`'s with probability `p`. The minimum ends at the
/// `N`-th completion, when `a` reaches `k_a` phases or `b` reaches `k_b`;
/// the pairs with `i + j = n` hold `P(N > n)`. Summing by parts,
/// `E[min] = E[N]/r` and `E[min²] = E[N(N+1)]/r²`, where `a` ends it at
/// completion `m = k_a + j` with probability `C(m−1, j)·p^{k_a}·q^j` for
/// `j < k_b`, and `b` symmetrically. That is `k_a + k_b` `exp` calls
/// instead of two per pair.
fn erlang_min(a: &Erlang, b: &Erlang) -> (f64, f64) {
    let r = a.rate + b.rate;
    let ln_r = r.ln();
    let (ln_p, ln_q) = (a.rate.ln() - ln_r, b.rate.ln() - ln_r);
    let (mut n1, mut n2) = (0.0, 0.0); // E[N], E[N(N+1)]
    for (wins, ln_win, losses, ln_lose) in [(a.k, ln_p, b.k, ln_q), (b.k, ln_q, a.k, ln_p)] {
        let ln_head = wins as f64 * ln_win - ln_factorial(wins - 1);
        for j in 0..losses {
            let m = wins + j;
            let pm = (ln_head + ln_factorial(m - 1) - ln_factorial(j) + j as f64 * ln_lose).exp();
            let m = m as f64;
            n1 += m * pm;
            n2 += m * (m + 1.0) * pm;
        }
    }
    (n1 / r, n2 / (r * r))
}

impl ExpPoly {
    fn from_components(components: &[Erlang]) -> ExpPoly {
        let mut slots = [UNUSED; 2];
        slots[..components.len()].copy_from_slice(components);
        let mut mean = 0.0;
        let mut second_moment = 0.0;
        for c in components {
            let k = c.k as f64;
            mean += c.w * k / c.rate;
            second_moment += c.w * k * (k + 1.0) / (c.rate * c.rate);
        }
        ExpPoly {
            slots,
            len: components.len() as u8,
            mean,
            second_moment,
        }
    }

    fn components(&self) -> &[Erlang] {
        &self.slots[..self.len as usize]
    }

    /// Exponential with the given mean.
    pub fn exponential(mean: f64) -> ExpPoly {
        ExpPoly::erlang(1, mean)
    }

    /// Erlang-`k` with total mean `mean`: survival
    /// `Σ_{j<k} (λt)^j/j! · e^{-λt}` with `λ = k/mean`.
    pub fn erlang(k: u32, mean: f64) -> ExpPoly {
        assert!(k >= 1 && mean > 0.0);
        ExpPoly::from_components(&[Erlang {
            w: 1.0,
            k,
            rate: k as f64 / mean,
        }])
    }

    /// Two-phase hyperexponential: probability `p` of mean `m1`, else `m2`.
    pub fn hyperexp(p: f64, m1: f64, m2: f64) -> ExpPoly {
        assert!((0.0..=1.0).contains(&p) && m1 > 0.0 && m2 > 0.0);
        let mut components = [UNUSED; 2];
        let mut len = 0;
        for (w, mean) in [(p, m1), (1.0 - p, m2)] {
            if w > 0.0 {
                components[len] = Erlang {
                    w,
                    k: 1,
                    rate: 1.0 / mean,
                };
                len += 1;
            }
        }
        ExpPoly::from_components(&components[..len])
    }

    /// Fit by mean and CV exactly as the paper prescribes: Erlang for
    /// CV ≤ 1 (`k = round(1/cv²)`, clamped to `\[1, 150\]`), exponential at
    /// CV = 1, balanced-means H2 for CV > 1. A zero/near-zero CV becomes
    /// the stiffest Erlang (k = 150), the standard proxy for deterministic.
    pub fn fit(mean: f64, cv: f64) -> ExpPoly {
        assert!(mean > 0.0, "fit needs positive mean");
        assert!(cv >= 0.0);
        if cv > 1.0 {
            let c2 = cv * cv;
            let p = 0.5 * (1.0 + ((c2 - 1.0) / (c2 + 1.0)).sqrt());
            ExpPoly::hyperexp(p, mean / (2.0 * p), mean / (2.0 * (1.0 - p)))
        } else {
            let k = if cv < 1e-6 {
                150
            } else {
                ((1.0 / (cv * cv)).round() as u32).clamp(1, 150)
            };
            ExpPoly::erlang(k, mean)
        }
    }

    /// First moment `E[X] = ∫ S`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Second moment `E[X²] = 2∫ t·S`.
    pub fn second_moment(&self) -> f64 {
        self.second_moment
    }

    /// Variance.
    pub fn variance(&self) -> f64 {
        (self.second_moment() - self.mean().powi(2)).max(0.0)
    }

    /// Coefficient of variation.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m <= 0.0 {
            0.0
        } else {
            self.variance().sqrt() / m
        }
    }

    /// Moments of `min(X, Y)` for independent `X`, `Y`:
    /// `S_min = S_X · S_Y`, so
    /// `E[min] = ∫ S_X S_Y`, `E[min²] = 2 ∫ t S_X S_Y`, summed over
    /// component pairs (see `erlang_min`).
    pub fn min_moments(&self, other: &ExpPoly) -> (f64, f64) {
        let mut m1 = 0.0;
        let mut m2 = 0.0;
        for a in self.components() {
            for b in other.components() {
                let (e1, e2) = erlang_min(a, b);
                let w = a.w * b.w;
                m1 += w * e1;
                m2 += w * e2;
            }
        }
        (m1, m2)
    }

    /// Mean and second moment of `max(X, Y)` for independent `X`, `Y`:
    /// `max + min = X + Y` pointwise, so the identities hold per moment 1
    /// and via `max² + min² = X² + Y²`.
    pub fn max_moments(&self, other: &ExpPoly) -> (f64, f64) {
        let (min1, min2) = self.min_moments(other);
        let m1 = self.mean() + other.mean() - min1;
        let m2 = self.second_moment() + other.second_moment() - min2;
        (m1, m2)
    }

    /// Mean and second moment of `X + Y` (independent).
    pub fn sum_moments(&self, other: &ExpPoly) -> (f64, f64) {
        let m1 = self.mean() + other.mean();
        let m2 = self.second_moment() + 2.0 * self.mean() * other.mean() + other.second_moment();
        (m1, m2)
    }

    /// Re-fit a `(mean, second moment)` pair into the Erlang/H2 family —
    /// the paper's per-node re-approximation.
    pub fn refit(m1: f64, m2: f64) -> ExpPoly {
        assert!(m1 > 0.0, "refit needs positive mean, got {m1}");
        let var = (m2 - m1 * m1).max(0.0);
        let cv = var.sqrt() / m1;
        ExpPoly::fit(m1, cv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-12)
    }

    /// The kernel `min_moments` replaced: expand both distributions into
    /// their survival terms `c·t^n·e^{-rate·t}` and sum every term pair.
    fn reference_min_moments(x: &ExpPoly, y: &ExpPoly) -> (f64, f64) {
        // (ln c, n, rate) per term.
        let terms = |d: &ExpPoly| -> Vec<(f64, u32, f64)> {
            d.components()
                .iter()
                .flat_map(|c| {
                    (0..c.k).map(move |j| {
                        let ln_c = c.w.ln() + j as f64 * c.rate.ln() - ln_factorial(j);
                        (ln_c, j, c.rate)
                    })
                })
                .collect()
        };
        let (mut m1, mut m2) = (0.0, 0.0);
        for a in terms(x) {
            for b in terms(y) {
                let rate = a.2 + b.2;
                let n = a.1 + b.1;
                let ln_cd = a.0 + b.0;
                m1 += (ln_cd + ln_factorial(n) - (n as f64 + 1.0) * rate.ln()).exp();
                m2 += 2.0 * (ln_cd + ln_factorial(n + 1) - (n as f64 + 2.0) * rate.ln()).exp();
            }
        }
        (m1, m2)
    }

    #[test]
    fn ln_factorial_table_is_the_summed_fold() {
        for n in 0..LN_FACTORIAL_TABLE as u32 + 8 {
            let summed: f64 = (1..=n as u64).map(|i| (i as f64).ln()).sum();
            assert_eq!(ln_factorial(n).to_bits(), summed.to_bits(), "n = {n}");
        }
        assert!(ln_factorial(0) == 0.0 && ln_factorial(0).is_sign_negative());
    }

    #[test]
    fn collapsed_min_matches_the_pairwise_double_sum() {
        let rates = [1e-3, 0.02, 0.5, 1.0, 7.3, 150.0, 1e3];
        let erlang = |k: u32, rate: f64| ExpPoly::erlang(k, k as f64 / rate);
        let check = |x: &ExpPoly, y: &ExpPoly| {
            let (a1, a2) = x.min_moments(y);
            let (b1, b2) = reference_min_moments(x, y);
            assert!(
                close(a1, b1, 1e-10) && close(a2, b2, 1e-10),
                "{x:?} min {y:?}: ({a1:e}, {a2:e}) vs reference ({b1:e}, {b2:e})"
            );
        };
        // Every shape on one side against a spread on the other, cycling
        // through all rate pairs.
        let mut case = 0;
        for ka in 1..=150 {
            for kb in [1, 2, 3, 10, 49, 100, 149, 150] {
                let (ra, rb) = (rates[case % 7], rates[case / 7 % 7]);
                check(&erlang(ka, ra), &erlang(kb, rb));
                case += 1;
            }
        }
        // The extreme shapes under every rate pair.
        for ra in rates {
            for rb in rates {
                for (ka, kb) in [(1, 1), (1, 150), (150, 1), (150, 150)] {
                    check(&erlang(ka, ra), &erlang(kb, rb));
                }
            }
        }
        // Hyperexponential and exponential pairs.
        let h2 = [ExpPoly::hyperexp(0.3, 5.0, 1.0), ExpPoly::fit(1e-2, 4.0)];
        for k in [1, 4, 75, 150] {
            for rate in rates {
                for h in &h2 {
                    check(&erlang(k, rate), h);
                    check(h, &erlang(k, rate));
                }
            }
        }
        check(&h2[0], &h2[1]);
        check(&h2[1], &h2[1]);
        for mean in [1e-3, 1.0, 1e3] {
            check(&ExpPoly::exponential(mean), &ExpPoly::exponential(2.0));
            check(&ExpPoly::exponential(mean), &h2[0]);
        }
    }

    #[test]
    fn exponential_moments() {
        let x = ExpPoly::exponential(2.0);
        assert!(close(x.mean(), 2.0, 1e-12));
        assert!(close(x.second_moment(), 8.0, 1e-12));
        assert!(close(x.cv(), 1.0, 1e-12));
    }

    #[test]
    fn erlang_moments() {
        let x = ExpPoly::erlang(4, 2.0);
        assert!(close(x.mean(), 2.0, 1e-9));
        // Var = mean²/k = 1.
        assert!(close(x.variance(), 1.0, 1e-9));
        assert!(close(x.cv(), 0.5, 1e-9));
    }

    #[test]
    fn big_erlang_is_stable() {
        let x = ExpPoly::erlang(150, 5.0);
        assert!(close(x.mean(), 5.0, 1e-6));
        assert!(x.cv() < 0.1);
    }

    #[test]
    fn hyperexp_moments() {
        let x = ExpPoly::hyperexp(0.25, 4.0, 1.0);
        // mean = 0.25·4 + 0.75·1 = 1.75; E[X²] = 2(0.25·16 + 0.75·1) = 9.5.
        assert!(close(x.mean(), 1.75, 1e-12));
        assert!(close(x.second_moment(), 9.5, 1e-12));
        assert!(x.cv() > 1.0);
    }

    #[test]
    fn fit_matches_requested_mean() {
        for cv in [0.0, 0.2, 0.5, 1.0, 1.5, 3.0] {
            let x = ExpPoly::fit(7.5, cv);
            assert!(close(x.mean(), 7.5, 1e-6), "cv={cv}: mean {}", x.mean());
            if cv >= 1.0 {
                assert!(close(x.cv(), cv, 1e-6), "cv={cv}: got {}", x.cv());
            }
        }
    }

    #[test]
    fn min_of_exponentials_is_exact() {
        // min(Exp(λ), Exp(μ)) ~ Exp(λ+μ).
        let x = ExpPoly::exponential(2.0); // λ = 0.5
        let y = ExpPoly::exponential(1.0); // μ = 1.0
        let (m1, m2) = x.min_moments(&y);
        let lam = 1.5;
        assert!(close(m1, 1.0 / lam, 1e-12));
        assert!(close(m2, 2.0 / (lam * lam), 1e-12));
    }

    #[test]
    fn max_of_iid_exponentials_is_exact() {
        // E[max of two iid Exp(1)] = 1.5; E[max²] = 2·(1 + 1/2 + ... ) —
        // directly: max = X + Y − min, E[max²] = E X² + E Y² − E min².
        let x = ExpPoly::exponential(1.0);
        let y = ExpPoly::exponential(1.0);
        let (m1, m2) = x.max_moments(&y);
        assert!(close(m1, 1.5, 1e-12));
        // E[min²] = 2/4 = 0.5 → E[max²] = 2+2−0.5 = 3.5.
        assert!(close(m2, 3.5, 1e-12));
    }

    #[test]
    fn max_against_monte_carlo_for_mixed_families() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let x = ExpPoly::erlang(3, 4.0);
        let y = ExpPoly::hyperexp(0.3, 5.0, 1.0);
        let (m1, _) = x.max_moments(&y);
        // Sample both via inverse-free simulation of their constructions.
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 400_000;
        let mut acc = 0.0;
        for _ in 0..n {
            let ex: f64 = (0..3)
                .map(|_| -(4.0 / 3.0) * rng.gen::<f64>().max(1e-300).ln())
                .sum();
            let hy = if rng.gen::<f64>() < 0.3 {
                -5.0 * rng.gen::<f64>().max(1e-300).ln()
            } else {
                -rng.gen::<f64>().max(1e-300).ln()
            };
            acc += ex.max(hy);
        }
        let mc = acc / n as f64;
        assert!(
            close(m1, mc, 0.01),
            "analytic {m1:.4} vs monte carlo {mc:.4}"
        );
    }

    #[test]
    fn sum_moments_match_convolution() {
        let x = ExpPoly::erlang(2, 2.0);
        let y = ExpPoly::erlang(2, 2.0);
        let (m1, m2) = x.sum_moments(&y);
        // Sum of two Erlang(2, mean 2) = Erlang(4, mean 4).
        let z = ExpPoly::erlang(4, 4.0);
        assert!(close(m1, z.mean(), 1e-9));
        assert!(close(m2, z.second_moment(), 1e-9));
    }

    #[test]
    fn refit_roundtrip() {
        let x = ExpPoly::fit(3.0, 0.5);
        let y = ExpPoly::refit(x.mean(), x.second_moment());
        assert!(close(y.mean(), 3.0, 1e-6));
        assert!(close(y.cv(), x.cv(), 1e-3));
    }
}
