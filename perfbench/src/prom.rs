//! Prometheus text exposition, read back: the service's `/metrics`
//! scrape and the in-process registry render share this parser, and
//! per-layer counters are differences of two scrapes.

use std::collections::HashMap;

/// Every sample of one scrape, keyed by its series (`name{labels}`).
#[derive(Debug, Clone, Default)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut samples = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    samples.insert(series.to_string(), v);
                }
            }
        }
        Scrape(samples)
    }

    /// A series' value; absent series read 0 (never incremented yet).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// How much `series` grew since `before`.
    pub fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }

    /// The `q`-quantile of the observations histogram `name` (with the
    /// label set `labels`, e.g. `path="/v1/estimate"`, or empty) gained
    /// since `before`, interpolated linearly inside the bucket. `None`
    /// when nothing was observed.
    pub fn quantile(&self, before: &Scrape, name: &str, labels: &str, q: f64) -> Option<f64> {
        let prefix = if labels.is_empty() {
            format!("{name}_bucket{{le=\"")
        } else {
            format!("{name}_bucket{{{labels},le=\"")
        };
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .keys()
            .filter_map(|series| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, self.delta(before, series)))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last()?.1;
        if total <= 0.0 {
            return None;
        }
        let target = q * total;
        let mut lower = (0.0, 0.0);
        for &(bound, cumulative) in &buckets {
            if cumulative >= target {
                if bound.is_infinite() {
                    return Some(lower.0);
                }
                let in_bucket = cumulative - lower.1;
                let frac = if in_bucket > 0.0 {
                    (target - lower.1) / in_bucket
                } else {
                    1.0
                };
                return Some(lower.0 + frac * (bound - lower.0));
            }
            lower = (bound, cumulative);
        }
        None
    }
}
