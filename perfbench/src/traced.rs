//! The traced run: a serial, in-process replay of a workload's first
//! requests through each layer's public functions, in the order the
//! service calls them. Every call is wrapped in a span, so each request
//! yields a span tree (the library's own spans nest under ours); a
//! layer's self time is its spans' time minus the time their children
//! cover. The run also records the exact work counts the replay did, so
//! two traced runs of one seed can be compared count for count.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use mr2_model::{mix_model_input, solve, Calibration, Estimator, MixClass, ModelOptions};
use mr2_obs as obs;
use mr2_scenario::{evaluate_point, EvalPoint, ResultCache, SweepResult};
use mr2_serve::api;
use mr2_serve::http::{chunk, render_response, RequestParser, CONTENT_TYPE_JSON};
use mr2_serve::{Json, ServeConfig};

use crate::check::{self, Golden, Tally};
use crate::client::request_bytes;
use crate::gen::{self, Workload};
use crate::prom::Scrape;

/// Requests replayed per traced run: enough for stable per-layer
/// means, few enough to keep a run to seconds.
pub fn replayed(w: Workload) -> usize {
    match w {
        Workload::EstimateCold => gen::COLD_ROUND,
        Workload::EstimateHot => 4096,
        Workload::SweepSim => 3,
    }
}

/// The counters whose totals must repeat exactly for one seed.
pub const EXACT_COUNTERS: [(&str, &str); 5] = [
    ("model.solver_iterations", "mr2_solver_iterations_total"),
    ("queueing.mva_iterations", "mr2_mva_iterations_total"),
    ("sim.events", "mr2_sim_events_total"),
    ("scenario.cache_misses", "mr2_cache_misses_total"),
    ("model.memo_misses", "mr2_endpoint_memo_misses_total"),
];

/// What one traced run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: u64,
    pub points: u64,
    /// Per span name: summed self time and summed duration (ns).
    pub self_ns: BTreeMap<String, u64>,
    pub total_ns: BTreeMap<String, u64>,
    /// Requests that ran a model solve, and the time a direct
    /// `solve` of their full mix took per estimator (ns).
    pub probe_ops: u64,
    pub probe_forkjoin_ns: u64,
    pub probe_tripathi_ns: u64,
    /// Exact work counts, keyed by the names of [`EXACT_COUNTERS`].
    pub exact: BTreeMap<String, u64>,
    pub tally: Tally,
}

/// The layer a span belongs to, by its name's crate prefix.
pub fn layer(span: &str) -> &'static str {
    match span.split('.').next() {
        Some("serve") => "serve",
        Some("scenario" | "point") => "scenario",
        Some("model") => "model",
        Some("sim") => "sim",
        _ => "other",
    }
}

fn http_parse(raw: &[u8]) -> Result<mr2_serve::http::Request, String> {
    let _s = obs::span("serve.http_parse");
    let mut parser = RequestParser::new();
    parser.feed(raw);
    match parser.try_next() {
        Ok(Some(req)) => Ok(req),
        Ok(None) => Err("request incomplete".into()),
        Err(e) => Err(e.message),
    }
}

fn body_text(req: &mr2_serve::http::Request) -> Result<&str, String> {
    std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())
}

/// One `/v1/estimate`: parse, decode, evaluate through the cache,
/// encode. Returns the reply body and the evaluated point.
fn estimate_op(raw: &[u8], cache: &ResultCache) -> Result<(String, EvalPoint), String> {
    let req = http_parse(raw)?;
    let r = {
        let _s = obs::span("serve.api_decode");
        api::parse_estimate_request(body_text(&req)?)?
    };
    let result = {
        let _s = obs::span("scenario.evaluate_point");
        evaluate_point(&r.point, &r.backends, cache)
    };
    let _s = obs::span("serve.api_encode");
    let mut body = api::point_json(&result);
    api::stamp_reply(&mut body, &r.deprecations);
    let text = body.render();
    std::hint::black_box(render_response(200, &text, CONTENT_TYPE_JSON, false, &[]));
    Ok((text, r.point))
}

/// One streamed `/v1/scenario`: parse, decode, expand, then evaluate
/// and encode point by point (the runner's unit of work, serially),
/// then the summary tail. Returns the NDJSON body.
fn sweep_op(raw: &[u8], cache: &ResultCache) -> Result<String, String> {
    let req = http_parse(raw)?;
    let r = {
        let _s = obs::span("serve.api_decode");
        api::parse_scenario_request(body_text(&req)?)?
    };
    let points = {
        let _s = obs::span("scenario.expand");
        mr2_scenario::expand(&r.scenario)
    };
    let mut body = String::new();
    let mut results = Vec::with_capacity(points.len());
    for p in &points {
        let result = {
            let _s = obs::span("scenario.evaluate_point");
            evaluate_point(p, &r.scenario.backends, cache)
        };
        let _s = obs::span("serve.api_encode");
        let mut line = api::point_json(&result).render();
        line.push('\n');
        std::hint::black_box(chunk(line.as_bytes()));
        body.push_str(&line);
        results.push(result);
    }
    let _s = obs::span("serve.api_encode");
    let sweep = SweepResult {
        name: r.scenario.name.clone(),
        points: results,
    };
    let mut tail = api::sweep_tail_json(&sweep).render();
    tail.push('\n');
    std::hint::black_box(chunk(tail.as_bytes()));
    body.push_str(&tail);
    Ok(body)
}

/// Run `f` under a fresh trace context; returns its result and trace.
fn traced<T>(id: u64, f: impl FnOnce() -> T) -> (T, obs::Trace) {
    obs::begin_trace(id, "perfbench.op");
    let out = f();
    let trace = obs::end_trace().expect("trace begun above");
    (out, trace)
}

/// Time a direct solve of `point`'s full mix under each estimator.
fn probe(point: &EvalPoint) -> (Duration, Duration) {
    let cfg = point.sim_config();
    let classes: Vec<MixClass> = point
        .mix
        .entries
        .iter()
        .map(|e| MixClass {
            spec: e.spec(),
            count: e.count,
            profile: None,
        })
        .collect();
    let time = |estimator| {
        let options = ModelOptions {
            estimator,
            ..ModelOptions::default()
        };
        let input = mix_model_input(&cfg, &classes, options, &Calibration::default());
        let t = Instant::now();
        std::hint::black_box(solve(&input));
        t.elapsed()
    };
    (time(Estimator::ForkJoin), time(Estimator::Tripathi))
}

/// Replay `w`'s first requests for `seed`; with `probes`, also time the
/// per-estimator solves of every request that reached the model. Spans
/// are written to `spans_out` (NDJSON, one line per span).
pub fn run(
    w: Workload,
    seed: u64,
    probes: bool,
    golden: Option<&Golden>,
    spans_out: &Path,
) -> Outcome {
    let cache = ResultCache::with_capacity(ServeConfig::default().cache_capacity);
    let mut out = Outcome::default();
    let mut traces = Vec::new();
    let mut modelled = Vec::new();
    let n = replayed(w);
    let path = w.path();
    let before;
    match w {
        Workload::EstimateCold | Workload::EstimateHot => {
            let (bodies, order): (Vec<gen::Body>, Vec<usize>) = if w == Workload::EstimateCold {
                (gen::cold_round(seed), (0..n).collect())
            } else {
                let hot = gen::hot_bodies(seed);
                for b in &hot {
                    let _ = estimate_op(&request_bytes("POST", path, &b.json), &cache);
                }
                let order = gen::hot_order(seed);
                (hot, (0..n).map(|k| order[k % order.len()]).collect())
            };
            let raws: Vec<Vec<u8>> = bodies
                .iter()
                .map(|b| request_bytes("POST", path, &b.json))
                .collect();
            before = Scrape::parse(&obs::render());
            for (k, &i) in order.iter().enumerate() {
                let (result, trace) = traced(k as u64, || estimate_op(&raws[i], &cache));
                let outcome = result.and_then(|(text, point)| {
                    let values = check::estimate_reply(200, text.as_bytes())?;
                    if trace.spans.iter().any(|s| s.name == "model.eval") {
                        modelled.push(point);
                    }
                    golden.map_or(Ok(()), |g| g.compare(w, bodies[i].id, 0, &values))
                });
                out.tally.record(outcome);
                out.points += 1;
                traces.push(trace);
            }
        }
        Workload::SweepSim => {
            let sweeps = gen::Sweeps::new(seed).next_pass();
            before = Scrape::parse(&obs::render());
            for (k, b) in sweeps.iter().take(n).enumerate() {
                let raw = request_bytes("POST", path, &b.json);
                let (result, trace) = traced(k as u64, || sweep_op(&raw, &cache));
                let outcome = result.and_then(|text| {
                    let values = check::sweep_reply(200, text.as_bytes(), b.points)?;
                    golden.map_or(Ok(()), |g| {
                        values
                            .iter()
                            .enumerate()
                            .try_for_each(|(p, v)| g.compare(w, b.id, p, v))
                    })
                });
                out.tally.record(outcome);
                out.points += b.points as u64;
                traces.push(trace);
            }
        }
    }
    let after = Scrape::parse(&obs::render());
    out.ops = traces.len() as u64;
    for (name, series) in EXACT_COUNTERS {
        out.exact
            .insert(name.to_string(), after.delta(&before, series) as u64);
    }

    let mut lines = String::new();
    for (k, t) in traces.iter().enumerate() {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &t.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.duration.as_nanos() as u64;
            }
        }
        for s in &t.spans {
            let dur = s.duration.as_nanos() as u64;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.self_ns.entry(s.name.to_string()).or_default() += own;
            *out.total_ns.entry(s.name.to_string()).or_default() += dur;
            lines.push_str(&format!(
                "{{\"op\":{k},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.duration.as_secs_f64() * 1e6,
            ));
        }
    }
    if let Some(dir) = spans_out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::File::create(spans_out).and_then(|mut f| f.write_all(lines.as_bytes()))
    {
        eprintln!("perfbench: cannot write {}: {e}", spans_out.display());
    }

    if probes {
        for point in &modelled {
            let (fj, tr) = probe(point);
            out.probe_ops += 1;
            out.probe_forkjoin_ns += fj.as_nanos() as u64;
            out.probe_tripathi_ns += tr.as_nanos() as u64;
        }
    }
    out
}

/// The checked values of every body `golden.txt` pins for `w` (the
/// cold round, the hot set, or the first pass of sweeps of `seed`), by
/// body id and point, replayed serially in-process.
pub fn replay_values(w: Workload, seed: u64) -> Vec<(usize, Vec<check::Values>)> {
    let cache = ResultCache::new();
    let path = w.path();
    let fail = |e: String| -> ! {
        eprintln!("perfbench: {} replay failed: {e}", w.name());
        std::process::exit(1);
    };
    let bodies = match w {
        Workload::EstimateCold => gen::cold_round(seed),
        Workload::EstimateHot => gen::hot_bodies(seed),
        Workload::SweepSim => gen::Sweeps::new(seed).next_pass(),
    };
    bodies
        .iter()
        .map(|b| {
            let raw = request_bytes("POST", path, &b.json);
            let values = match w {
                Workload::SweepSim => sweep_op(&raw, &cache)
                    .and_then(|text| check::sweep_reply(200, text.as_bytes(), b.points)),
                _ => estimate_op(&raw, &cache)
                    .and_then(|(text, _)| check::estimate_reply(200, text.as_bytes()))
                    .map(|v| vec![v]),
            };
            (b.id, values.unwrap_or_else(|e| fail(e)))
        })
        .collect()
}

fn map_json(m: &BTreeMap<String, u64>) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect(),
    )
}

fn map_from(v: Option<&Json>) -> BTreeMap<String, u64> {
    match v {
        Some(Json::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

impl Outcome {
    /// The one-line form a traced child prints for its parent.
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::Obj(
            [
                ("ops", num(self.ops)),
                ("points", num(self.points)),
                ("self_ns", map_json(&self.self_ns)),
                ("total_ns", map_json(&self.total_ns)),
                ("probe_ops", num(self.probe_ops)),
                ("probe_forkjoin_ns", num(self.probe_forkjoin_ns)),
                ("probe_tripathi_ns", num(self.probe_tripathi_ns)),
                ("exact", map_json(&self.exact)),
                ("attempted", num(self.tally.attempted)),
                ("failed", num(self.tally.failed)),
                (
                    "messages",
                    Json::Arr(
                        self.tally
                            .messages
                            .iter()
                            .map(|m| Json::str(m.clone()))
                            .collect(),
                    ),
                ),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        )
    }

    pub fn from_json(v: &Json) -> Outcome {
        let num = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        Outcome {
            ops: num("ops"),
            points: num("points"),
            self_ns: map_from(v.get("self_ns")),
            total_ns: map_from(v.get("total_ns")),
            probe_ops: num("probe_ops"),
            probe_forkjoin_ns: num("probe_forkjoin_ns"),
            probe_tripathi_ns: num("probe_tripathi_ns"),
            exact: map_from(v.get("exact")),
            tally: Tally {
                attempted: num("attempted"),
                failed: num("failed"),
                messages: v
                    .get("messages")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|m| m.as_str().map(str::to_string))
                    .collect(),
            },
        }
    }

    /// Summed self time of a layer's spans (ns).
    pub fn layer_self_ns(&self, name: &str) -> u64 {
        self.self_ns
            .iter()
            .filter(|(span, _)| layer(span) == name)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Self time of every span: the time the trace attributes.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }
}
