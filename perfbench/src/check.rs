//! The output check every reply passes through, and the golden values
//! that pin the default seed's numbers.
//!
//! A reply passes when it is HTTP 200 in the `v1` envelope and every
//! estimate and simulator median it carries is finite and positive; a
//! streamed sweep must also carry one line per point plus its `done`
//! tail. The values are further compared with `golden.txt` within
//! [`GOLDEN_REL_TOL`] (the cold round for every seed, the hot set and
//! the first pass of sweeps for the default seed), so a change that
//! moves the numbers fails the run even when they stay plausible.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use mr2_serve::Json;

use crate::gen::Workload;

/// The seed whose replies are pinned by the golden file.
pub const DEFAULT_SEED: u64 = 1;

/// Relative tolerance of the golden comparison: loose enough for a
/// float re-association, tight enough to catch any change of method.
pub const GOLDEN_REL_TOL: f64 = 1e-6;

/// The values a reply is pinned by: per point, the estimate series and
/// makespan, or the simulator medians.
pub type Values = Vec<f64>;

fn positive(v: Option<f64>, what: &str) -> Result<f64, String> {
    match v {
        Some(x) if x.is_finite() && x > 0.0 => Ok(x),
        other => Err(format!("{what} is {other:?}, not finite and positive")),
    }
}

fn parse(text: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(text).map_err(|_| "reply is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))
}

fn field(v: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// Check an estimate reply; returns its golden values.
pub fn estimate_reply(status: u16, body: &[u8]) -> Result<Values, String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(body)
        ));
    }
    let v = parse(body)?;
    if v.get("api_version").and_then(Json::as_str) != Some("v1") {
        return Err("reply lacks \"api_version\":\"v1\"".into());
    }
    let mut values = vec![positive(field(&v, &["estimate"]), "estimate")?];
    for series in ["fork_join", "tripathi", "aria", "herodotou", "makespan"] {
        values.push(positive(field(&v, &["model", series]), series)?);
    }
    let classes = v
        .get("model")
        .and_then(|m| m.get("per_class"))
        .and_then(Json::as_arr)
        .ok_or("reply lacks model.per_class")?;
    for c in classes {
        positive(
            c.get("fork_join").and_then(Json::as_f64),
            "per-class fork_join",
        )?;
        positive(
            c.get("tripathi").and_then(Json::as_f64),
            "per-class tripathi",
        )?;
    }
    Ok(values)
}

/// Check one streamed sweep point line; returns its point index and
/// golden values.
pub fn sweep_point(line: &[u8]) -> Result<(usize, Values), String> {
    let v = parse(line)?;
    let index = v
        .get("index")
        .and_then(Json::as_u64)
        .ok_or("point line lacks an index")? as usize;
    let sim = v.get("sim").ok_or("point line lacks sim")?;
    let mut values = Vec::new();
    for key in ["median_response", "mean_response", "makespan"] {
        values.push(positive(sim.get(key).and_then(Json::as_f64), key)?);
    }
    for c in sim
        .get("per_class_median")
        .and_then(Json::as_arr)
        .ok_or("sim lacks per_class_median")?
    {
        positive(c.as_f64(), "per-class median")?;
    }
    Ok((index, values))
}

/// Check a streamed sweep's whole body: one point line per point, in
/// any order, then the `done` tail. Returns the values by point index.
pub fn sweep_reply(status: u16, body: &[u8], points: usize) -> Result<Vec<Values>, String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(body)
        ));
    }
    let lines: Vec<&[u8]> = body
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let Some((tail, point_lines)) = lines.split_last() else {
        return Err("empty sweep reply".into());
    };
    if point_lines.len() != points {
        return Err(format!(
            "sweep streamed {} point lines for {points} points",
            point_lines.len()
        ));
    }
    let mut values: Vec<Option<Values>> = vec![None; points];
    for line in point_lines {
        let (i, v) = sweep_point(line)?;
        match values.get_mut(i) {
            Some(slot @ None) => *slot = Some(v),
            _ => return Err(format!("point index {i} out of range or repeated")),
        }
    }
    let tail = parse(tail)?;
    if tail.get("done").and_then(Json::as_bool) != Some(true)
        || tail.get("api_version").and_then(Json::as_str) != Some("v1")
        || tail.get("num_points").and_then(Json::as_u64) != Some(points as u64)
    {
        return Err("sweep tail is not a v1 `done` line for every point".into());
    }
    Ok(values.into_iter().map(|v| v.expect("filled")).collect())
}

/// Golden values: `(workload, body id, point)` → values.
#[derive(Debug, Default)]
pub struct Golden(HashMap<(String, usize, usize), Values>);

impl Golden {
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut map = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let (Some(w), Some(b), Some(p)) = (parts.next(), parts.next(), parts.next()) else {
                continue;
            };
            let key = (
                w.to_string(),
                b.parse().map_err(|_| format!("bad golden line {line:?}"))?,
                p.parse().map_err(|_| format!("bad golden line {line:?}"))?,
            );
            let values = parts
                .map(|v| v.parse().map_err(|_| format!("bad golden line {line:?}")))
                .collect::<Result<Values, String>>()?;
            map.insert(key, values);
        }
        Ok(Golden(map))
    }

    pub fn insert(&mut self, w: Workload, body: usize, point: usize, values: Values) {
        self.0.insert((w.name().to_string(), body, point), values);
    }

    pub fn render(&self) -> String {
        let mut keys: Vec<_> = self.0.keys().collect();
        keys.sort();
        let mut out = format!(
            "# workload body point values... (seed {DEFAULT_SEED}; written by `perfbench --write-golden`)\n"
        );
        for k in keys {
            let _ = write!(out, "{} {} {}", k.0, k.1, k.2);
            for v in &self.0[k] {
                let _ = write!(out, " {v:e}");
            }
            out.push('\n');
        }
        out
    }

    /// Compare one reply's values with the pinned ones (bodies the file
    /// does not pin pass unchecked).
    pub fn compare(
        &self,
        w: Workload,
        body: usize,
        point: usize,
        got: &[f64],
    ) -> Result<(), String> {
        let Some(want) = self.0.get(&(w.name().to_string(), body, point)) else {
            return Ok(());
        };
        let close = want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .all(|(w, g)| (w - g).abs() <= GOLDEN_REL_TOL * w.abs());
        if close {
            Ok(())
        } else {
            Err(format!(
                "{} body {body} point {point}: values {got:?} differ from golden {want:?}",
                w.name()
            ))
        }
    }
}

/// Tallies checked replies and keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(m) = outcome {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }
}
