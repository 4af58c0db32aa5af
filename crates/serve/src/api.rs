//! The service's wire types: JSON decoding of estimate/scenario/plan
//! requests into `mr2-scenario` specs, and JSON encoding of evaluated
//! results, error bands, plans, and cache statistics.
//!
//! Decoding is strict — unknown fields are rejected — because a typo'd
//! axis name that silently falls back to a default would hand a
//! capacity planner confidently wrong numbers.
//!
//! Every JSON reply — success or failure — carries
//! `"api_version": "v1"` ([`API_VERSION`]), and every failure uses one
//! envelope ([`ApiError`]):
//!
//! ```json
//! {"api_version":"v1","error":{"code":"validation","field":"nodes","message":"…"}}
//! ```
//!
//! Codes are stable strings keyed to the HTTP status: `400 malformed`
//! (the body isn't a JSON object at all), `422 validation` (well-formed
//! but unacceptable — `field` names the offender when the message pins
//! one down), `404 not_found`, `405 method_not_allowed`,
//! `503 backpressure`, `500 internal`.

use std::collections::BTreeMap;

use mapreduce_sim::{SchedulerPolicy, GB};
use mr2_model::ModelPoint;
use mr2_scenario::{
    class_error_bands, error_bands, ArrivalSchedule, Backends, CacheStats, EstimatorKind,
    EvalPoint, JobKind, MixEntry, PlanRequest, PlanResult, PointResult, ReducePolicy,
    ResolvedEntry, Scenario, SearchSpace, SloMetric, SloSpec, SweepMode, SweepResult, WorkloadMix,
};

use crate::json::{write_object, ArrayWriter, Json, ObjectWriter};

/// The wire API version stamped on every JSON reply.
pub const API_VERSION: &str = "v1";

/// A typed API failure: the HTTP status, a stable machine-readable
/// code, a human-readable message, and — when the message pins one
/// down — the offending request field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to send.
    pub status: u16,
    /// Stable error code (`malformed`, `validation`, `not_found`,
    /// `method_not_allowed`, `backpressure`, `internal`, …).
    pub code: &'static str,
    /// Human-readable reason.
    pub message: String,
    /// The request field at fault, when the message names one (the
    /// decoder convention puts field names in backticks after the word
    /// "field").
    pub field: Option<String>,
}

/// The first backtick-quoted token following the word "field" in a
/// decoder message — the strict decoders' convention for naming the
/// offending key ("field `nodes` must be positive", "unknown estimate
/// request field `node`").
fn backtick_field(message: &str) -> Option<String> {
    let at = message.find("field `")? + "field `".len();
    let end = message[at..].find('`')? + at;
    (at < end).then(|| message[at..end].to_string())
}

impl ApiError {
    /// Classify a decoder/engine `Err(String)`: bodies that never
    /// parsed as JSON (or weren't UTF-8) are `400 malformed`;
    /// everything else was well-formed but unacceptable —
    /// `422 validation`, with the offending field extracted from the
    /// message when named.
    pub fn from_parse(message: String) -> ApiError {
        if message.starts_with("invalid JSON") || message.starts_with("body is not UTF-8") {
            ApiError {
                status: 400,
                code: "malformed",
                message,
                field: None,
            }
        } else {
            ApiError {
                status: 422,
                code: "validation",
                field: backtick_field(&message),
                message,
            }
        }
    }

    /// A validation failure (`422`) with an explicit field.
    pub fn validation(message: impl Into<String>) -> ApiError {
        let message = message.into();
        ApiError {
            status: 422,
            code: "validation",
            field: backtick_field(&message),
            message,
        }
    }

    /// Unknown path.
    pub fn not_found() -> ApiError {
        ApiError {
            status: 404,
            code: "not_found",
            message: "no such endpoint".into(),
            field: None,
        }
    }

    /// Known path, wrong method.
    pub fn method_not_allowed() -> ApiError {
        ApiError {
            status: 405,
            code: "method_not_allowed",
            message: "method not allowed".into(),
            field: None,
        }
    }

    /// The route requires a bearer token and the request carried none,
    /// or the wrong one.
    pub fn unauthorized() -> ApiError {
        ApiError {
            status: 401,
            code: "unauthorized",
            message: "missing or invalid bearer token".into(),
            field: None,
        }
    }

    /// The worker pool's backlog is full; the response advises a retry
    /// (`Retry-After`).
    pub fn backpressure() -> ApiError {
        ApiError {
            status: 503,
            code: "backpressure",
            message: "worker queue is full; retry shortly".into(),
            field: None,
        }
    }

    /// An evaluation panicked or another invariant broke.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            code: "internal",
            message: message.into(),
            field: None,
        }
    }

    /// Wrap an HTTP framing error (bad request line, oversized body,
    /// …) in the envelope, keyed by its status.
    pub fn from_status(status: u16, message: String) -> ApiError {
        let code = match status {
            400 => "malformed",
            404 => "not_found",
            405 => "method_not_allowed",
            413 | 431 => "too_large",
            422 => "validation",
            501 => "not_implemented",
            503 => "backpressure",
            505 => "unsupported_version",
            _ => "internal",
        };
        ApiError {
            status,
            code,
            message,
            field: None,
        }
    }

    /// The rendered envelope body.
    pub fn body(&self) -> String {
        let mut error = BTreeMap::new();
        error.insert("code".to_string(), Json::str(self.code));
        error.insert("message".to_string(), Json::str(self.message.clone()));
        if let Some(f) = &self.field {
            error.insert("field".to_string(), Json::str(f.clone()));
        }
        Json::obj([
            ("api_version", Json::str(API_VERSION)),
            ("error", Json::Obj(error)),
        ])
        .render()
    }
}

/// Stamp a success reply: `api_version` always, plus a `deprecations`
/// array when the request used legacy fields (each entry names the
/// field and its replacement).
pub fn stamp_reply(body: &mut Json, deprecations: &[&'static str]) {
    if let Json::Obj(map) = body {
        map.insert("api_version".into(), Json::str(API_VERSION));
        if !deprecations.is_empty() {
            map.insert(
                "deprecations".into(),
                Json::Arr(
                    deprecations
                        .iter()
                        .map(|f| Json::str(deprecation(f)))
                        .collect(),
                ),
            );
        }
    }
}

/// The `deprecations` entry for one legacy field.
fn deprecation(field: &str) -> String {
    format!("field `{field}` is deprecated; describe the workload with `mix`")
}

/// A decoded `POST /v1/estimate` body: one fully concrete point plus
/// the backends to evaluate it with.
#[derive(Debug, Clone)]
pub struct EstimateRequest {
    /// The point to evaluate.
    pub point: EvalPoint,
    /// Which backends to run. Defaults to the analytic model only —
    /// the online-query fast path; simulator ground truth is opt-in.
    pub backends: Backends,
    /// Attach a per-span timing breakdown to the reply (`"debug": true`).
    pub debug: bool,
    /// Legacy single-job fields the request used (surfaced in the
    /// reply's `deprecations` array; the fields keep decoding).
    pub deprecations: Vec<&'static str>,
}

/// A decoded `POST /v1/scenario` body.
#[derive(Debug, Clone)]
pub struct ScenarioRequest {
    /// The sweep to run.
    pub scenario: Scenario,
    /// Attach a per-span timing breakdown to the reply (`"debug": true`).
    pub debug: bool,
    /// Stream results incrementally as chunked NDJSON — one line per
    /// completed point, then a summary tail — instead of one JSON
    /// document after the whole sweep (`"stream": true`).
    pub stream: bool,
}

/// Decode a `debug` field: absent means off.
fn field_debug(map: &BTreeMap<String, Json>) -> Result<bool, String> {
    match map.get("debug") {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| "field `debug` must be a boolean".to_string()),
    }
}

fn parse_scheduler(s: &str) -> Result<SchedulerPolicy, String> {
    match s {
        "capacity_fifo" => Ok(SchedulerPolicy::CapacityFifo),
        "fair" => Ok(SchedulerPolicy::Fair),
        other => Err(format!(
            "unknown scheduler `{other}` (expected `capacity_fifo` or `fair`)"
        )),
    }
}

fn parse_job(s: &str) -> Result<JobKind, String> {
    match s {
        "wordcount" => Ok(JobKind::WordCount),
        "terasort" => Ok(JobKind::TeraSort),
        "grep" => Ok(JobKind::Grep),
        other => Err(format!(
            "unknown job `{other}` (expected `wordcount`, `terasort`, or `grep`)"
        )),
    }
}

fn parse_estimator(s: &str) -> Result<EstimatorKind, String> {
    EstimatorKind::ALL
        .into_iter()
        .find(|e| e.name() == s)
        .ok_or_else(|| {
            format!("unknown estimator `{s}` (expected `fork_join`, `tripathi`, `aria`, or `herodotou`)")
        })
}

/// The object's fields, after verifying every key is known.
fn known_object<'a>(
    v: &'a Json,
    what: &str,
    known: &[&str],
) -> Result<&'a BTreeMap<String, Json>, String> {
    let Json::Obj(map) = v else {
        return Err(format!("{what} must be a JSON object"));
    };
    for key in map.keys() {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown {what} field `{key}`"));
        }
    }
    Ok(map)
}

fn field_u64(map: &BTreeMap<String, Json>, key: &str, default: u64) -> Result<u64, String> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn field_positive(map: &BTreeMap<String, Json>, key: &str, default: u64) -> Result<u64, String> {
    let v = field_u64(map, key, default)?;
    if v == 0 {
        return Err(format!("field `{key}` must be positive"));
    }
    Ok(v)
}

/// A positive field that must also fit the narrower type it feeds —
/// out-of-range values are rejected, never silently truncated.
fn field_positive_u32(
    map: &BTreeMap<String, Json>,
    key: &str,
    default: u32,
) -> Result<u32, String> {
    let v = field_positive(map, key, default.into())?;
    u32::try_from(v).map_err(|_| format!("field `{key}` must fit 32 bits"))
}

fn field_str_list(map: &BTreeMap<String, Json>, key: &str) -> Result<Option<Vec<String>>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("field `{key}` must be an array of strings"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(_) => Err(format!("field `{key}` must be an array of strings")),
    }
}

fn field_u64_list(map: &BTreeMap<String, Json>, key: &str) -> Result<Option<Vec<u64>>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_u64()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("field `{key}` must be an array of positive integers"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(_) => Err(format!(
            "field `{key}` must be an array of positive integers"
        )),
    }
}

/// Decode a `backends` object; `default` fills the missing fields.
fn parse_backends(v: &Json, default: Backends) -> Result<Backends, String> {
    let map = known_object(
        v,
        "backends",
        &["analytic", "profile_calibration", "simulator"],
    )?;
    let bool_field = |key: &str, default: bool| -> Result<bool, String> {
        match map.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| format!("field `{key}` must be a boolean")),
        }
    };
    let simulator = match map.get("simulator") {
        None => default.simulator,
        Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|&n| n > 0)
                .ok_or("field `simulator` must be null or a positive repetition count")?
                as usize,
        ),
    };
    Ok(Backends {
        analytic: bool_field("analytic", default.analytic)?,
        profile_calibration: bool_field("profile_calibration", default.profile_calibration)?,
        simulator,
    })
}

/// Decode a `reduces` field: the string `"per_node"` or a fixed count.
fn parse_reduces(map: &BTreeMap<String, Json>) -> Result<ReducePolicy, String> {
    match map.get("reduces") {
        None => Ok(ReducePolicy::PerNode),
        Some(Json::Str(s)) if s == "per_node" => Ok(ReducePolicy::PerNode),
        Some(v) => v
            .as_u64()
            .filter(|&n| n > 0)
            .and_then(|n| u32::try_from(n).ok())
            .map(ReducePolicy::Fixed)
            .ok_or_else(|| "field `reduces` must be `\"per_node\"` or a positive count".into()),
    }
}

/// Decode a probability field; must be a number in `[0, 1)`.
fn field_prob(map: &BTreeMap<String, Json>, key: &str, default: f64) -> Result<f64, String> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .filter(|p| (0.0..1.0).contains(p))
            .ok_or_else(|| format!("field `{key}` must be a number in [0, 1)")),
    }
}

/// Decode a slowdown-factor field; must be a finite number ≥ 1.
fn field_slowdown(map: &BTreeMap<String, Json>, key: &str, default: f64) -> Result<f64, String> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .filter(|f| f.is_finite() && *f >= 1.0)
            .ok_or_else(|| format!("field `{key}` must be a finite number >= 1")),
    }
}

/// Decode an `arrivals` value: the string `"batch"`, a
/// `{"staggered_ms": N}` object, or a `{"trace_ms": [...]}` object with
/// one offset per job. An absent field decodes as `Batch`, so clients
/// from before arrival schedules are untouched.
fn parse_arrivals(v: &Json) -> Result<ArrivalSchedule, String> {
    const SHAPE: &str =
        "field `arrivals` must be `\"batch\"`, `{\"staggered_ms\": N}`, or `{\"trace_ms\": [...]}`";
    match v {
        Json::Str(s) if s == "batch" => Ok(ArrivalSchedule::Batch),
        Json::Obj(_) => {
            let map = known_object(v, "arrivals", &["staggered_ms", "trace_ms"])?;
            match (map.get("staggered_ms"), map.get("trace_ms")) {
                (Some(n), None) => n
                    .as_u64()
                    .map(|interval_ms| ArrivalSchedule::Staggered { interval_ms })
                    .ok_or_else(|| "field `staggered_ms` must be a non-negative integer".into()),
                (None, Some(Json::Arr(items))) => items
                    .iter()
                    .map(|o| {
                        o.as_u64().ok_or_else(|| {
                            "field `trace_ms` must be an array of non-negative integers".to_string()
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(|offsets_ms| ArrivalSchedule::Trace { offsets_ms }),
                _ => Err(SHAPE.into()),
            }
        }
        _ => Err(SHAPE.into()),
    }
}

/// Encode an [`ArrivalSchedule`] in the request shape, so responses
/// echo what a client would send.
fn arrivals_json(a: &ArrivalSchedule) -> Json {
    match a {
        ArrivalSchedule::Batch => Json::str("batch"),
        ArrivalSchedule::Staggered { interval_ms } => {
            Json::obj([("staggered_ms", (*interval_ms).into())])
        }
        ArrivalSchedule::Trace { offsets_ms } => Json::obj([(
            "trace_ms",
            Json::Arr(offsets_ms.iter().map(|&o| o.into()).collect()),
        )]),
    }
}

/// Decode one `mix` entry object: a job kind (required) with input
/// size, copy count, reduce policy, and submit offset.
fn parse_mix_entry(v: &Json) -> Result<MixEntry, String> {
    let map = known_object(
        v,
        "mix entry",
        &["job", "input_bytes", "count", "reduces", "submit_offset_ms"],
    )?;
    let job = map
        .get("job")
        .ok_or("mix entry needs a `job` field")?
        .as_str()
        .ok_or_else(|| "field `job` must be a string".to_string())
        .and_then(parse_job)?;
    Ok(MixEntry {
        job,
        input_bytes: field_positive(map, "input_bytes", GB)?,
        count: field_positive(map, "count", 1)? as usize,
        reduces: parse_reduces(map)?,
        submit_offset_ms: field_u64(map, "submit_offset_ms", 0)?,
    })
}

/// Decode a `mix` array into a [`WorkloadMix`].
fn parse_mix(v: &Json) -> Result<WorkloadMix, String> {
    let Json::Arr(items) = v else {
        return Err("a mix must be an array of entry objects".into());
    };
    if items.is_empty() {
        return Err("a mix must have at least one entry".into());
    }
    Ok(WorkloadMix::new(
        items
            .iter()
            .map(parse_mix_entry)
            .collect::<Result<Vec<_>, _>>()?,
    ))
}

/// The single-job fields that conflict with an explicit mix.
const SINGLE_JOB_FIELDS: [&str; 4] = ["job", "input_bytes", "n_jobs", "reduces"];

/// A string-typed field, when present.
fn field_str<'a>(map: &'a BTreeMap<String, Json>, key: &str) -> Result<Option<&'a str>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

/// An optional positive finite rate (jobs/second).
fn field_rate(map: &BTreeMap<String, Json>, key: &str) -> Result<Option<f64>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .filter(|r| r.is_finite() && *r > 0.0)
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a positive finite rate (jobs/second)")),
    }
}

/// The one shared workload decoder behind `/v1/estimate` and
/// `/v1/plan`: an explicit `mix` array of entry objects, or the legacy
/// single-job fields (`job`, `input_bytes`, `n_jobs`, `reduces`) as a
/// 1-entry mix — never both. Returns the mix plus the legacy fields
/// the request actually used, so callers can surface them as
/// `deprecations`.
fn parse_workload(
    map: &BTreeMap<String, Json>,
) -> Result<(WorkloadMix, Vec<&'static str>), String> {
    match map.get("mix") {
        Some(v) => {
            if let Some(conflict) = SINGLE_JOB_FIELDS.iter().find(|f| map.contains_key(**f)) {
                return Err(format!(
                    "field `{conflict}` conflicts with `mix`; describe the workload one way"
                ));
            }
            Ok((parse_mix(v)?, Vec::new()))
        }
        None => {
            let mix = WorkloadMix::new([MixEntry {
                job: field_str(map, "job")?.map_or(Ok(JobKind::WordCount), parse_job)?,
                input_bytes: field_positive(map, "input_bytes", GB)?,
                count: field_positive(map, "n_jobs", 1)? as usize,
                reduces: parse_reduces(map)?,
                submit_offset_ms: 0,
            }]);
            let used = SINGLE_JOB_FIELDS
                .into_iter()
                .filter(|f| map.contains_key(*f))
                .collect();
            Ok((mix, used))
        }
    }
}

/// Decode a `POST /v1/estimate` body.
///
/// The workload is either a `mix` array of entry objects or the
/// original single-job fields (`job`, `input_bytes`, `n_jobs`,
/// `reduces`), which decode as a 1-entry mix for back-compatibility
/// (surfaced in the reply's `deprecations`); mixing the two styles is
/// rejected. An `arrival_rate` makes the point an open-arrival solve —
/// it combines only with batch arrivals.
pub fn parse_estimate_request(body: &str) -> Result<EstimateRequest, String> {
    let v = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let map = known_object(
        &v,
        "estimate request",
        &[
            "nodes",
            "block_mb",
            "container_mb",
            "scheduler",
            "job",
            "input_bytes",
            "n_jobs",
            "mix",
            "arrivals",
            "arrival_rate",
            "map_failure_prob",
            "slow_node_factor",
            "estimator",
            "reduces",
            "seed",
            "backends",
            "debug",
        ],
    )?;
    let nodes = field_positive(map, "nodes", 4)? as usize;
    let (mix, deprecations) = parse_workload(map)?;
    mix.check(&[nodes])?;
    let arrivals = match map.get("arrivals") {
        None => ArrivalSchedule::Batch,
        Some(v) => parse_arrivals(v)?,
    };
    arrivals.check(&mix)?;
    let arrival_rate = field_rate(map, "arrival_rate")?;
    if arrival_rate.is_some() && arrivals != ArrivalSchedule::Batch {
        return Err(
            "field `arrival_rate` combines only with batch arrivals (an open rate replaces the schedule)"
                .into(),
        );
    }
    let point = EvalPoint {
        index: 0,
        nodes,
        block_mb: field_positive(map, "block_mb", 128)?,
        container_mb: field_positive_u32(map, "container_mb", 1024)?,
        scheduler: field_str(map, "scheduler")?
            .map_or(Ok(SchedulerPolicy::CapacityFifo), parse_scheduler)?,
        mix: mix.resolve(nodes),
        arrivals,
        arrival_rate,
        map_failure_prob: field_prob(map, "map_failure_prob", 0.0)?,
        slow_node_factor: field_slowdown(map, "slow_node_factor", 1.0)?,
        estimator: field_str(map, "estimator")?
            .map_or(Ok(EstimatorKind::ForkJoin), parse_estimator)?,
        seed: field_u64(map, "seed", 1)?,
    };
    let backends = match map.get("backends") {
        None => Backends::analytic_only(),
        Some(v) => parse_backends(v, Backends::analytic_only())?,
    };
    if !backends.analytic && backends.simulator.is_none() {
        return Err("at least one backend must be enabled".into());
    }
    Ok(EstimateRequest {
        point,
        backends,
        debug: field_debug(map)?,
        deprecations,
    })
}

/// A decoded `POST /v1/plan` body.
#[derive(Debug, Clone)]
pub struct PlanApiRequest {
    /// The capacity-planning question.
    pub plan: PlanRequest,
    /// Attach a per-span timing breakdown to the reply (`"debug": true`).
    pub debug: bool,
    /// Legacy single-job fields the request used.
    pub deprecations: Vec<&'static str>,
}

/// Decode a `POST /v1/plan` body:
///
/// ```json
/// {"mix":[{"job":"wordcount"}],
///  "arrival_rate":0.1,
///  "slo":{"metric":"response","threshold":300},
///  "search":{"min_nodes":1,"max_nodes":64}}
/// ```
///
/// The workload shares `/v1/estimate`'s decoder (an explicit `mix` or
/// the legacy single-job fields); `arrival_rate` and `slo` are
/// required; `search` defaults to 1–64 nodes. Semantic validation
/// (positive rate, satisfiable threshold, non-empty range) is
/// [`PlanRequest::check`]'s, applied by the planner itself.
pub fn parse_plan_request(body: &str) -> Result<PlanApiRequest, String> {
    let v = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let map = known_object(
        &v,
        "plan request",
        &[
            "mix",
            "job",
            "input_bytes",
            "n_jobs",
            "reduces",
            "arrival_rate",
            "slo",
            "search",
            "block_mb",
            "container_mb",
            "scheduler",
            "estimator",
            "seed",
            "debug",
        ],
    )?;
    let (mix, deprecations) = parse_workload(map)?;
    let arrival_rate =
        field_rate(map, "arrival_rate")?.ok_or("plan request needs an `arrival_rate` field")?;
    let slo = {
        let v = map.get("slo").ok_or("plan request needs a `slo` object")?;
        let slo = known_object(v, "slo", &["metric", "threshold"])?;
        let metric = field_str(slo, "metric")?
            .ok_or("field `metric` is required in `slo`")
            .and_then(|s| {
                SloMetric::parse(s)
                    .ok_or("field `metric` must be `response`, `makespan`, or `utilization`")
            })?;
        let threshold = slo
            .get("threshold")
            .and_then(Json::as_f64)
            .ok_or("field `threshold` must be a number")?;
        SloSpec { metric, threshold }
    };
    let search = match map.get("search") {
        None => SearchSpace::default(),
        Some(v) => {
            let s = known_object(v, "search", &["min_nodes", "max_nodes"])?;
            let default = SearchSpace::default();
            SearchSpace {
                min_nodes: field_positive(s, "min_nodes", default.min_nodes as u64)? as usize,
                max_nodes: field_positive(s, "max_nodes", default.max_nodes as u64)? as usize,
            }
        }
    };
    let mut plan = PlanRequest::new(mix, arrival_rate, slo);
    plan.search = search;
    plan.block_mb = field_positive(map, "block_mb", 128)?;
    plan.container_mb = field_positive_u32(map, "container_mb", 1024)?;
    plan.scheduler =
        field_str(map, "scheduler")?.map_or(Ok(SchedulerPolicy::CapacityFifo), parse_scheduler)?;
    plan.estimator =
        field_str(map, "estimator")?.map_or(Ok(EstimatorKind::ForkJoin), parse_estimator)?;
    plan.seed = field_u64(map, "seed", 1)?;
    Ok(PlanApiRequest {
        plan,
        debug: field_debug(map)?,
        deprecations,
    })
}

/// Decode a `POST /v1/scenario` body into a [`Scenario`] (validated
/// with [`Scenario::check`]).
///
/// The workload axis is either a `mixes` array (each element an array
/// of mix-entry objects — one axis position per mix) or the original
/// grid fields (`jobs`, `input_bytes`, `n_jobs`, `reduces`), which
/// cross into 1-entry mixes for back-compatibility; mixing the two
/// styles is rejected.
pub fn parse_scenario_request(body: &str) -> Result<ScenarioRequest, String> {
    let v = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let map = known_object(
        &v,
        "scenario request",
        &[
            "name",
            "sweep",
            "nodes",
            "block_mb",
            "container_mb",
            "schedulers",
            "jobs",
            "input_bytes",
            "n_jobs",
            "mixes",
            "arrivals",
            "arrival_rate",
            "map_failure_prob",
            "slow_node_factor",
            "estimators",
            "reduces",
            "backends",
            "seed",
            "debug",
            "stream",
        ],
    )?;
    let name = match map.get("name") {
        None => "adhoc".to_string(),
        Some(v) => v
            .as_str()
            .ok_or("field `name` must be a string")?
            .to_string(),
    };
    let mut s = Scenario::new(name);
    match map.get("sweep").map(|v| v.as_str()) {
        None => {}
        Some(Some("cartesian")) => s.sweep = SweepMode::Cartesian,
        Some(Some("zip")) => s.sweep = SweepMode::Zip,
        Some(_) => return Err("field `sweep` must be `\"cartesian\"` or `\"zip\"`".into()),
    }
    if let Some(v) = field_u64_list(map, "nodes")? {
        s.nodes = v.into_iter().map(|n| n as usize).collect();
    }
    if let Some(v) = field_u64_list(map, "block_mb")? {
        s.block_mb = v;
    }
    if let Some(v) = field_u64_list(map, "container_mb")? {
        s.container_mb = v
            .into_iter()
            .map(|n| {
                u32::try_from(n).map_err(|_| "field `container_mb` must fit 32 bits".to_string())
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = field_str_list(map, "schedulers")? {
        s.schedulers = v
            .iter()
            .map(|x| parse_scheduler(x))
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = map.get("mixes") {
        let grid_fields = ["jobs", "input_bytes", "n_jobs", "reduces"];
        if let Some(conflict) = grid_fields.iter().find(|f| map.contains_key(**f)) {
            return Err(format!(
                "field `{conflict}` conflicts with `mixes`; describe the workload one way"
            ));
        }
        let Json::Arr(items) = v else {
            return Err("field `mixes` must be an array of mixes".into());
        };
        s = s.axis_mixes(items.iter().map(parse_mix).collect::<Result<Vec<_>, _>>()?);
    } else {
        if let Some(v) = field_str_list(map, "jobs")? {
            s = s.axis_jobs(
                v.iter()
                    .map(|x| parse_job(x))
                    .collect::<Result<Vec<_>, _>>()?,
            );
        }
        if let Some(v) = field_u64_list(map, "input_bytes")? {
            s = s.axis_input_bytes(v);
        }
        if let Some(v) = field_u64_list(map, "n_jobs")? {
            s = s.axis_n_jobs(v.into_iter().map(|n| n as usize).collect::<Vec<_>>());
        }
        s.reduces = parse_reduces(map)?;
    }
    match map.get("arrivals") {
        None => {}
        Some(Json::Arr(items)) => {
            s = s.axis_arrivals(
                items
                    .iter()
                    .map(parse_arrivals)
                    .collect::<Result<Vec<_>, _>>()?,
            );
        }
        Some(_) => return Err("field `arrivals` must be an array of arrival schedules".into()),
    }
    match map.get("arrival_rate") {
        None => {}
        Some(Json::Arr(items)) => {
            s.arrival_rate = items
                .iter()
                .map(|v| match v {
                    Json::Null => Ok(None),
                    _ => v
                        .as_f64()
                        .filter(|r| r.is_finite() && *r > 0.0)
                        .map(Some)
                        .ok_or(
                            "field `arrival_rate` must be an array of positive finite \
                             rates (null for a closed point)",
                        ),
                })
                .collect::<Result<_, _>>()?;
        }
        Some(_) => {
            return Err(
                "field `arrival_rate` must be an array of positive finite rates \
                 (null for a closed point)"
                    .into(),
            )
        }
    }
    match map.get("map_failure_prob") {
        None => {}
        Some(Json::Arr(items)) => {
            s.map_failure_prob = items
                .iter()
                .map(|v| {
                    v.as_f64()
                        .filter(|p| (0.0..1.0).contains(p))
                        .ok_or("field `map_failure_prob` must be an array of numbers in [0, 1)")
                })
                .collect::<Result<_, _>>()?;
        }
        Some(_) => {
            return Err("field `map_failure_prob` must be an array of numbers in [0, 1)".into())
        }
    }
    match map.get("slow_node_factor") {
        None => {}
        Some(Json::Arr(items)) => {
            s.slow_node_factor = items
                .iter()
                .map(|v| {
                    v.as_f64()
                        .filter(|f| f.is_finite() && *f >= 1.0)
                        .ok_or("field `slow_node_factor` must be an array of numbers >= 1")
                })
                .collect::<Result<_, _>>()?;
        }
        Some(_) => return Err("field `slow_node_factor` must be an array of numbers >= 1".into()),
    }
    if let Some(v) = field_str_list(map, "estimators")? {
        s.estimators = v
            .iter()
            .map(|x| parse_estimator(x))
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = map.get("backends") {
        // Scenario sweeps default to the analytic fast path too; the
        // paper methodology (simulator + profile) is opt-in per request.
        s.backends = parse_backends(v, Backends::analytic_only())?;
    } else {
        s.backends = Backends::analytic_only();
    }
    s.seed = field_u64(map, "seed", 1)?;
    s.check()?;
    let stream = match map.get("stream") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| "field `stream` must be a boolean".to_string())?,
    };
    Ok(ScenarioRequest {
        scenario: s,
        debug: field_debug(map)?,
        stream,
    })
}

/// Encode one span of a trace with its children nested under
/// `"children"` (omitted when empty).
fn span_node(trace: &mr2_obs::Trace, span: &mr2_obs::TraceSpan) -> Json {
    let children: Vec<Json> = trace
        .children(span.id)
        .into_iter()
        .map(|c| span_node(trace, c))
        .collect();
    let mut node = Json::obj([
        ("id", u64::from(span.id).into()),
        ("name", Json::str(span.name)),
        ("start_ms", Json::num(span.start.as_secs_f64() * 1e3)),
        ("duration_ms", Json::num(span.duration.as_secs_f64() * 1e3)),
    ]);
    if !children.is_empty() {
        if let Json::Obj(map) = &mut node {
            map.insert("children".into(), Json::Arr(children));
        }
    }
    node
}

/// Encode a trace's spans as a forest of root spans (sequential, so
/// root durations sum to at most the trace's wall time), children
/// nested.
fn span_forest(trace: &mr2_obs::Trace) -> Json {
    Json::Arr(
        trace
            .roots()
            .into_iter()
            .map(|r| span_node(trace, r))
            .collect(),
    )
}

/// The `/v1/trace/recent?id=…` URL for a request id — the correlation
/// hint `debug` replies and access-log readers share.
pub fn trace_url(request_id: u64) -> String {
    format!("/v1/trace/recent?id={request_id}")
}

/// Encode a finished [`mr2_obs::Trace`] as the reply's `debug` object:
/// the request id, the measured wall time, a `trace_url` for fetching
/// the retained trace later, and the span tree. Root spans are
/// sequential by construction, so *their* durations sum to at most
/// `wall_ms`.
pub fn debug_json(trace: &mr2_obs::Trace) -> Json {
    Json::obj([
        ("request_id", trace.request_id.into()),
        ("wall_ms", Json::num(trace.wall.as_secs_f64() * 1e3)),
        ("trace_url", Json::str(trace_url(trace.request_id))),
        ("spans", span_forest(trace)),
    ])
}

/// Encode one retained trace for `GET /v1/trace/recent`.
pub fn trace_json(trace: &mr2_obs::Trace) -> Json {
    Json::obj([
        ("request_id", trace.request_id.into()),
        ("label", Json::str(trace.label)),
        ("wall_ms", Json::num(trace.wall.as_secs_f64() * 1e3)),
        ("dropped_spans", u64::from(trace.dropped).into()),
        ("spans", span_forest(trace)),
    ])
}

/// Encode the in-flight (and recently finished) sweeps for
/// `GET /v1/jobs`.
pub fn jobs_json(jobs: &[crate::jobs::JobView]) -> Json {
    let entries: Vec<Json> = jobs
        .iter()
        .map(|j| {
            let per_estimator =
                Json::obj(j.per_estimator.map(|(name, done)| (name, Json::from(done))));
            Json::obj([
                ("request_id", j.request_id.into()),
                ("name", Json::str(j.name.clone())),
                (
                    "state",
                    Json::str(if j.running { "running" } else { "done" }),
                ),
                ("streaming", j.streaming.into()),
                ("points_done", j.done.into()),
                ("points_total", j.total.into()),
                ("elapsed_ms", Json::num(j.elapsed.as_secs_f64() * 1e3)),
                (
                    "eta_ms",
                    match j.eta {
                        Some(eta) => Json::num(eta.as_secs_f64() * 1e3),
                        None => Json::Null,
                    },
                ),
                ("per_estimator", per_estimator),
            ])
        })
        .collect();
    Json::obj([("jobs", Json::Arr(entries))])
}

/// Encode the profiler's merged call tree for
/// `GET /debug/profile?format=json`.
pub fn profile_json(forest: &[mr2_obs::profile::ProfileNode]) -> Json {
    Json::Arr(
        forest
            .iter()
            .map(|n| {
                let mut node = Json::obj([
                    ("name", Json::str(n.name.clone())),
                    ("self_us", Json::num(n.self_time.as_micros() as f64)),
                    ("total_us", Json::num(n.total_time.as_micros() as f64)),
                    ("count", n.count.into()),
                ]);
                if !n.children.is_empty() {
                    if let Json::Obj(map) = &mut node {
                        map.insert("children".into(), profile_json(&n.children));
                    }
                }
                node
            })
            .collect(),
    )
}

/// Encode a resolved mix as the reply's `mix` array (one object per
/// class, resolved reduce counts and submit offsets included).
fn mix_json(entries: &[ResolvedEntry]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|e| {
                Json::obj([
                    ("job", Json::str(e.job.name())),
                    ("input_bytes", e.input_bytes.into()),
                    ("count", e.count.into()),
                    ("reduces", u64::from(e.reduces).into()),
                    ("submit_offset_ms", e.submit_offset_ms.into()),
                ])
            })
            .collect(),
    )
}

/// Encode an analytic [`ModelPoint`]: the four estimator series, the
/// makespan, per-class estimates in class order, and — for
/// open-arrival solves — an additive `open` object with the bottleneck
/// utilization and the knee/saturation rates (jobs/second).
pub fn model_json(m: &ModelPoint, entries: &[ResolvedEntry]) -> Json {
    let per_class: Vec<Json> = m
        .per_class
        .iter()
        .zip(entries)
        .map(|(c, e)| {
            Json::obj([
                ("class", Json::str(e.label())),
                ("fork_join", Json::num(c.fork_join)),
                ("tripathi", Json::num(c.tripathi)),
                ("aria", Json::num(c.aria)),
                ("herodotou", Json::num(c.herodotou)),
            ])
        })
        .collect();
    let open = m.open.map_or(Json::Null, |o| {
        Json::obj([
            (
                "bottleneck_utilization",
                Json::num(o.bottleneck_utilization),
            ),
            ("knee_rate", Json::num(o.knee_rate)),
            ("saturation_rate", Json::num(o.saturation_rate)),
        ])
    });
    Json::obj([
        ("fork_join", Json::num(m.fork_join)),
        ("tripathi", Json::num(m.tripathi)),
        ("aria", Json::num(m.aria)),
        ("herodotou", Json::num(m.herodotou)),
        ("makespan", Json::num(m.makespan)),
        ("per_class", Json::Arr(per_class)),
        ("open", open),
    ])
}

/// Encode one evaluated point. The workload is a `mix` array (one
/// object per class, resolved reduce counts and submit offsets
/// included); per-class model estimates and simulator medians ride
/// along in class order, and both backends report response time and
/// makespan separately (they diverge under non-batch arrivals).
pub fn point_json(p: &PointResult) -> Json {
    let model = p
        .model
        .as_ref()
        .map_or(Json::Null, |m| model_json(m, &p.point.mix.entries));
    let sim = p.sim.as_ref().map_or(Json::Null, |s| {
        Json::obj([
            ("median_response", Json::num(s.median_response)),
            ("mean_response", Json::num(s.mean_response)),
            ("makespan", Json::num(s.makespan)),
            (
                "per_class_median",
                Json::Arr(s.per_class_median.iter().copied().map(Json::num).collect()),
            ),
            ("reps", s.reps.into()),
        ])
    });
    Json::obj([
        ("index", p.point.index.into()),
        ("nodes", p.point.nodes.into()),
        ("block_mb", p.point.block_mb.into()),
        ("container_mb", u64::from(p.point.container_mb).into()),
        ("scheduler", Json::str(scheduler_name(p.point.scheduler))),
        ("mix", mix_json(&p.point.mix.entries)),
        ("total_jobs", p.point.total_jobs().into()),
        ("arrivals", arrivals_json(&p.point.arrivals)),
        (
            "arrival_rate",
            p.point.arrival_rate.map_or(Json::Null, Json::num),
        ),
        ("map_failure_prob", Json::num(p.point.map_failure_prob)),
        ("slow_node_factor", Json::num(p.point.slow_node_factor)),
        ("estimator", Json::str(p.point.estimator.name())),
        ("seed", p.point.seed.into()),
        ("model", model),
        ("sim", sim),
        ("estimate", p.estimate().map_or(Json::Null, Json::num)),
        ("measured", p.measured().map_or(Json::Null, Json::num)),
    ])
}

/// Encode a sweep's aggregate and per-class error bands (empty unless
/// both backends ran).
fn bands_json(sweep: &SweepResult) -> (Json, Json) {
    let bands: Vec<Json> = error_bands(sweep)
        .into_iter()
        .map(|b| {
            Json::obj([
                ("estimator", Json::str(b.estimator.name())),
                ("min", Json::num(b.band.min)),
                ("max", Json::num(b.band.max)),
                ("mean", Json::num(b.band.mean)),
                ("points", u64::from(b.band.count).into()),
            ])
        })
        .collect();
    let per_class: Vec<Json> = class_error_bands(sweep)
        .into_iter()
        .map(|b| {
            Json::obj([
                ("class", Json::str(b.class)),
                ("estimator", Json::str(b.estimator.name())),
                ("min", Json::num(b.band.min)),
                ("max", Json::num(b.band.max)),
                ("mean", Json::num(b.band.mean)),
                ("points", u64::from(b.band.count).into()),
            ])
        })
        .collect();
    (Json::Arr(bands), Json::Arr(per_class))
}

/// The summary tail line of a streaming (`"stream": true`) scenario
/// reply: everything [`sweep_reply`] carries except the per-point array
/// — those already went out as their own NDJSON lines — plus
/// `"done": true` so a client can tell a complete stream from one cut
/// short.
pub fn sweep_tail_json(sweep: &SweepResult) -> Json {
    let (bands, per_class) = bands_json(sweep);
    let mut tail = Json::obj([
        ("done", true.into()),
        ("name", Json::str(sweep.name.clone())),
        ("num_points", sweep.points.len().into()),
        ("error_bands", bands),
        ("class_error_bands", per_class),
    ]);
    stamp_reply(&mut tail, &[]);
    tail
}

/// The scheduler's wire name.
fn scheduler_name(s: SchedulerPolicy) -> &'static str {
    match s {
        SchedulerPolicy::CapacityFifo => "capacity_fifo",
        SchedulerPolicy::Fair => "fair",
    }
}

/// A success reply written by the ordered writer ([`write_object`]),
/// with the byte offset where its `debug` member belongs in key order:
/// the debug breakdown includes the encode's own span, so it can only
/// be attached once the body is written.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The reply object, `api_version` stamped.
    pub body: String,
    debug_at: usize,
}

impl Reply {
    /// Insert `"debug": <debug>` at its sorted place.
    pub fn attach_debug(&mut self, debug: &Json) {
        let member = format!(",\"debug\":{}", debug.render());
        self.body.insert_str(self.debug_at, &member);
    }
}

/// Room for a typical point reply, so writing one allocates once.
const REPLY_CAPACITY: usize = 1024;

/// Write an `api_version`-stamped reply object. `head` writes the
/// members that sort between `api_version` and `debug`, `rest` the
/// members after `deprecations`.
fn reply(
    deprecations: &[&'static str],
    head: impl FnOnce(&mut ObjectWriter<'_>),
    rest: impl FnOnce(&mut ObjectWriter<'_>),
) -> Reply {
    let mut body = String::with_capacity(REPLY_CAPACITY);
    let mut debug_at = 0;
    write_object(&mut body, |o| {
        o.str("api_version", API_VERSION);
        head(o);
        debug_at = o.offset();
        if !deprecations.is_empty() {
            o.array("deprecations", |a| {
                for f in deprecations {
                    a.str(&deprecation(f));
                }
            });
        }
        rest(o);
    });
    Reply { body, debug_at }
}

/// The `/v1/estimate` reply: the bytes of [`point_json`] stamped by
/// [`stamp_reply`] and rendered, written without the tree.
pub fn estimate_reply(p: &PointResult, deprecations: &[&'static str]) -> Reply {
    reply(deprecations, |o| point_head(o, p), |o| point_tail(o, p))
}

/// One line of a streamed sweep: the point object and a newline.
pub fn sweep_line(p: &PointResult) -> String {
    let mut line = String::with_capacity(REPLY_CAPACITY);
    write_object(&mut line, |o| point_members(o, p));
    line.push('\n');
    line
}

/// The non-streamed `/v1/scenario` reply: points in expansion order
/// plus the aggregate and per-class error bands (present only when both
/// backends ran).
pub fn sweep_reply(sweep: &SweepResult) -> Reply {
    let (bands, per_class) = bands_json(sweep);
    reply(
        &[],
        |o| {
            o.json("class_error_bands", &per_class);
        },
        |o| {
            o.json("error_bands", &bands)
                .str("name", &sweep.name)
                .uint("num_points", sweep.points.len() as u64)
                .array("points", |a| {
                    for p in &sweep.points {
                        a.object(|o| point_members(o, p));
                    }
                });
        },
    )
}

/// The `/v1/plan` reply: whether the SLO is satisfiable inside the
/// search range, the chosen (cheapest satisfying) node count, the
/// predicted metric there, the full analytic model point at that
/// configuration — its `open` object carries the knee and saturation
/// rates — and the bisection probe trail in solve order.
pub fn plan_reply(req: &PlanRequest, result: &PlanResult, deprecations: &[&'static str]) -> Reply {
    let resolved = req.mix.resolve(result.nodes);
    reply(
        deprecations,
        |o| {
            o.num("arrival_rate", req.arrival_rate);
        },
        |o| {
            o.bool("feasible", result.feasible)
                .array("mix", |a| mix_items(a, &resolved.entries))
                .object("model", |o| {
                    model_members(o, &result.point, &resolved.entries)
                })
                .uint("nodes", result.nodes as u64)
                .num("predicted", result.predicted)
                .array("probes", |a| {
                    for p in &result.probes {
                        a.object(|o| {
                            o.uint("nodes", p.nodes as u64)
                                .num("predicted", p.predicted)
                                .bool("satisfies", p.satisfies);
                        });
                    }
                })
                .object("search", |o| {
                    o.uint("max_nodes", req.search.max_nodes as u64)
                        .uint("min_nodes", req.search.min_nodes as u64);
                })
                .object("slo", |o| {
                    o.str("metric", req.slo.metric.name())
                        .num("threshold", req.slo.threshold);
                });
        },
    )
}

/// A point object's members, as [`point_json`] encodes them.
fn point_members(o: &mut ObjectWriter<'_>, p: &PointResult) {
    point_head(o, p);
    point_tail(o, p);
}

/// The point members that sort before `debug` and `deprecations`.
fn point_head(o: &mut ObjectWriter<'_>, p: &PointResult) {
    let pt = &p.point;
    o.opt_num("arrival_rate", pt.arrival_rate);
    match &pt.arrivals {
        ArrivalSchedule::Batch => o.str("arrivals", "batch"),
        ArrivalSchedule::Staggered { interval_ms } => o.object("arrivals", |o| {
            o.uint("staggered_ms", *interval_ms);
        }),
        ArrivalSchedule::Trace { offsets_ms } => o.object("arrivals", |o| {
            o.array("trace_ms", |a| {
                for &offset in offsets_ms {
                    a.uint(offset);
                }
            });
        }),
    };
    o.uint("block_mb", pt.block_mb)
        .uint("container_mb", u64::from(pt.container_mb));
}

/// The point members that sort after `debug` and `deprecations`.
fn point_tail(o: &mut ObjectWriter<'_>, p: &PointResult) {
    let pt = &p.point;
    o.opt_num("estimate", p.estimate())
        .str("estimator", pt.estimator.name())
        .uint("index", pt.index as u64)
        .num("map_failure_prob", pt.map_failure_prob)
        .opt_num("measured", p.measured())
        .array("mix", |a| mix_items(a, &pt.mix.entries));
    match &p.model {
        Some(m) => o.object("model", |o| model_members(o, m, &pt.mix.entries)),
        None => o.null("model"),
    };
    o.uint("nodes", pt.nodes as u64)
        .str("scheduler", scheduler_name(pt.scheduler))
        .uint("seed", pt.seed);
    match &p.sim {
        Some(s) => o.object("sim", |o| {
            o.num("makespan", s.makespan)
                .num("mean_response", s.mean_response)
                .num("median_response", s.median_response)
                .array("per_class_median", |a| {
                    for &v in &s.per_class_median {
                        a.num(v);
                    }
                })
                .uint("reps", s.reps as u64);
        }),
        None => o.null("sim"),
    };
    o.num("slow_node_factor", pt.slow_node_factor)
        .uint("total_jobs", pt.total_jobs() as u64);
}

/// A resolved mix's entries, as [`mix_json`] encodes them.
fn mix_items(a: &mut ArrayWriter<'_>, entries: &[ResolvedEntry]) {
    for e in entries {
        a.object(|o| {
            o.uint("count", e.count as u64)
                .uint("input_bytes", e.input_bytes)
                .str("job", e.job.name())
                .uint("reduces", u64::from(e.reduces))
                .uint("submit_offset_ms", e.submit_offset_ms);
        });
    }
}

/// An analytic point's members, as [`model_json`] encodes them.
fn model_members(o: &mut ObjectWriter<'_>, m: &ModelPoint, entries: &[ResolvedEntry]) {
    o.num("aria", m.aria)
        .num("fork_join", m.fork_join)
        .num("herodotou", m.herodotou)
        .num("makespan", m.makespan);
    match m.open {
        Some(open) => o.object("open", |o| {
            o.num("bottleneck_utilization", open.bottleneck_utilization)
                .num("knee_rate", open.knee_rate)
                .num("saturation_rate", open.saturation_rate);
        }),
        None => o.null("open"),
    };
    o.array("per_class", |a| {
        for (c, e) in m.per_class.iter().zip(entries) {
            a.object(|o| {
                o.num("aria", c.aria)
                    .str("class", &e.label())
                    .num("fork_join", c.fork_join)
                    .num("herodotou", c.herodotou)
                    .num("tripathi", c.tripathi);
            });
        }
    })
    .num("tripathi", m.tripathi);
}

/// Fraction of resolved lookups answered from a ready entry (0 when
/// the cache has seen none).
pub fn hit_ratio(s: &CacheStats) -> f64 {
    let lookups = s.hits + s.misses;
    if lookups == 0 {
        0.0
    } else {
        s.hits as f64 / lookups as f64
    }
}

/// Encode cache counters.
pub fn cache_stats_json(s: &CacheStats) -> Json {
    Json::obj([
        ("hits", s.hits.into()),
        ("misses", s.misses.into()),
        ("coalesced", s.coalesced.into()),
        ("evictions", s.evictions.into()),
        ("hit_ratio", Json::num(hit_ratio(s))),
        ("entries", s.entries.into()),
        ("capacity", s.capacity.into()),
        ("schema_version", mr2_scenario::schema_version().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use mr2_scenario::{ResolvedMix, SimResult};

    /// The tree form of [`sweep_reply`] before stamping: the byte-identity
    /// reference for the writer.
    fn sweep_json(sweep: &SweepResult) -> Json {
        let (bands, per_class) = bands_json(sweep);
        Json::obj([
            ("name", Json::str(sweep.name.clone())),
            ("num_points", sweep.points.len().into()),
            (
                "points",
                Json::Arr(sweep.points.iter().map(point_json).collect()),
            ),
            ("error_bands", bands),
            ("class_error_bands", per_class),
        ])
    }

    /// The tree form of [`plan_reply`] before stamping: the byte-identity
    /// reference for the writer.
    fn plan_json(req: &PlanRequest, result: &PlanResult) -> Json {
        let probes: Vec<Json> = result
            .probes
            .iter()
            .map(|p| {
                Json::obj([
                    ("nodes", p.nodes.into()),
                    ("predicted", Json::num(p.predicted)),
                    ("satisfies", p.satisfies.into()),
                ])
            })
            .collect();
        let resolved = req.mix.resolve(result.nodes);
        Json::obj([
            ("feasible", result.feasible.into()),
            ("nodes", result.nodes.into()),
            ("predicted", Json::num(result.predicted)),
            (
                "slo",
                Json::obj([
                    ("metric", Json::str(req.slo.metric.name())),
                    ("threshold", Json::num(req.slo.threshold)),
                ]),
            ),
            ("arrival_rate", Json::num(req.arrival_rate)),
            (
                "search",
                Json::obj([
                    ("min_nodes", req.search.min_nodes.into()),
                    ("max_nodes", req.search.max_nodes.into()),
                ]),
            ),
            ("mix", mix_json(&resolved.entries)),
            ("model", model_json(&result.point, &resolved.entries)),
            ("probes", Json::Arr(probes)),
        ])
    }

    /// A splitmix64 stream for the synthetic replies.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A float of any sign and magnitude; integral, or non-finite,
        /// now and then.
        fn f64(&mut self) -> f64 {
            match self.below(8) {
                0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3) as usize],
                1 => self.below(1 << 20) as f64,
                2 => -0.0,
                3 => f64::from_bits(self.next() >> 2),
                _ => self.next() as f64 / u64::MAX as f64 * 10f64.powi(self.below(16) as i32 - 6),
            }
        }

        /// An integer past 2^53 (where `as f64` rounds) about half the
        /// time.
        fn u64(&mut self) -> u64 {
            if self.below(2) == 0 {
                self.next() | 1 << 53
            } else {
                self.below(1 << 20)
            }
        }
    }

    const JOBS: [JobKind; 3] = [JobKind::WordCount, JobKind::TeraSort, JobKind::Grep];

    fn synthetic_model(rng: &mut Rng, classes: usize, open: bool) -> ModelPoint {
        ModelPoint {
            fork_join: rng.f64(),
            tripathi: rng.f64(),
            aria: rng.f64(),
            herodotou: rng.f64(),
            makespan: rng.f64(),
            per_class: (0..classes)
                .map(|_| mr2_model::ClassPoint {
                    fork_join: rng.f64(),
                    tripathi: rng.f64(),
                    aria: rng.f64(),
                    herodotou: rng.f64(),
                })
                .collect(),
            open: open.then(|| mr2_model::OpenMetrics {
                bottleneck_utilization: rng.f64(),
                knee_rate: rng.f64(),
                saturation_rate: rng.f64(),
            }),
        }
    }

    /// A point with one to three classes, any arrival schedule, an
    /// optional open rate, model and simulator results present or not.
    fn synthetic_point(rng: &mut Rng, index: usize) -> PointResult {
        let entries: Vec<ResolvedEntry> = (0..1 + rng.below(3))
            .map(|_| ResolvedEntry {
                job: JOBS[rng.below(3) as usize],
                input_bytes: rng.u64(),
                count: 1 + rng.below(4) as usize,
                reduces: rng.next() as u32,
                submit_offset_ms: rng.u64(),
            })
            .collect();
        let jobs: usize = entries.iter().map(|e| e.count).sum();
        let arrivals = match rng.below(3) {
            0 => ArrivalSchedule::Batch,
            1 => ArrivalSchedule::Staggered {
                interval_ms: rng.u64(),
            },
            _ => ArrivalSchedule::Trace {
                offsets_ms: (0..jobs).map(|_| rng.u64()).collect(),
            },
        };
        let arrival_rate = (rng.below(3) == 0).then(|| rng.f64());
        let model = (rng.below(4) != 0)
            .then(|| synthetic_model(rng, entries.len(), arrival_rate.is_some()));
        let sim = (rng.below(2) == 0).then(|| SimResult {
            median_response: rng.f64(),
            mean_response: rng.f64(),
            makespan: rng.f64(),
            per_class_median: entries.iter().map(|_| rng.f64()).collect(),
            reps: 1 + rng.below(9) as usize,
        });
        PointResult {
            point: EvalPoint {
                index,
                nodes: 1 + rng.below(64) as usize,
                block_mb: rng.u64(),
                container_mb: rng.next() as u32,
                scheduler: [SchedulerPolicy::CapacityFifo, SchedulerPolicy::Fair]
                    [rng.below(2) as usize],
                mix: ResolvedMix { entries },
                arrivals,
                arrival_rate,
                map_failure_prob: rng.f64(),
                slow_node_factor: rng.f64(),
                estimator: EstimatorKind::ALL[rng.below(4) as usize],
                seed: rng.u64(),
            },
            model,
            sim,
        }
    }

    /// A `debug` object shaped like the server's, from a made-up trace.
    fn synthetic_debug(rng: &mut Rng) -> Json {
        let ms = |rng: &mut Rng| Duration::from_nanos(rng.below(1 << 30));
        let span = |id, parent, name, rng: &mut Rng| mr2_obs::TraceSpan {
            id,
            parent,
            name,
            start: ms(rng),
            duration: ms(rng),
        };
        debug_json(&mr2_obs::Trace {
            request_id: rng.u64(),
            label: "/v1/estimate",
            wall: ms(rng),
            spans: vec![
                span(1, Some(0), "point.model", rng),
                span(2, Some(0), "response.encode", rng),
                span(0, None, "serve.request", rng),
            ],
            dropped: 0,
        })
    }

    const DEPRECATIONS: [&[&str]; 3] =
        [&[], &["job"], &["job", "input_bytes", "n_jobs", "reduces"]];

    /// The tree reference of a reply: `tree` with `debug` attached and
    /// stamped, rendered.
    fn stamped(mut tree: Json, debug: Option<&Json>, deprecations: &[&'static str]) -> String {
        if let (Json::Obj(map), Some(debug)) = (&mut tree, debug) {
            map.insert("debug".into(), debug.clone());
        }
        stamp_reply(&mut tree, deprecations);
        tree.render()
    }

    /// The writer's reply with `debug` attached.
    fn written(mut reply: Reply, debug: Option<&Json>) -> String {
        if let Some(debug) = debug {
            reply.attach_debug(debug);
        }
        reply.body
    }

    #[test]
    fn estimate_request_defaults_mirror_scenario_new() {
        let r = parse_estimate_request("{}").unwrap();
        assert_eq!(r.point.nodes, 4);
        assert_eq!(r.point.block_mb, 128);
        assert_eq!(r.point.container_mb, 1024);
        assert_eq!(r.point.scheduler, SchedulerPolicy::CapacityFifo);
        assert_eq!(r.point.mix.entries.len(), 1);
        assert_eq!(r.point.mix.entries[0].job, JobKind::WordCount);
        assert_eq!(r.point.mix.entries[0].input_bytes, GB);
        assert_eq!(r.point.total_jobs(), 1);
        assert_eq!(r.point.estimator, EstimatorKind::ForkJoin);
        assert_eq!(r.point.mix.entries[0].reduces, 4, "per-node default");
        assert_eq!(r.point.arrivals, ArrivalSchedule::Batch, "absent = batch");
        assert_eq!(r.point.map_failure_prob, 0.0);
        assert_eq!(r.point.slow_node_factor, 1.0);
        assert_eq!(r.point.seed, 1);
        assert_eq!(r.backends, Backends::analytic_only());
    }

    #[test]
    fn estimate_request_decodes_arrivals_and_stragglers() {
        let r = parse_estimate_request(
            r#"{"nodes":4,"n_jobs":3,"arrivals":{"staggered_ms":2000},"slow_node_factor":2.5}"#,
        )
        .unwrap();
        assert_eq!(
            r.point.arrivals,
            ArrivalSchedule::Staggered { interval_ms: 2000 }
        );
        assert_eq!(r.point.slow_node_factor, 2.5);
        assert_eq!(r.point.submit_offsets(), vec![0.0, 2.0, 4.0]);

        let r =
            parse_estimate_request(r#"{"nodes":4,"n_jobs":2,"arrivals":{"trace_ms":[0,1500]}}"#)
                .unwrap();
        assert_eq!(
            r.point.arrivals,
            ArrivalSchedule::Trace {
                offsets_ms: vec![0, 1500]
            }
        );

        // Mix entries carry their own submit offsets.
        let r = parse_estimate_request(
            r#"{"nodes":4,"mix":[
                {"job":"wordcount"},
                {"job":"grep","submit_offset_ms":30000}]}"#,
        )
        .unwrap();
        assert_eq!(r.point.mix.entries[1].submit_offset_ms, 30000);
        assert_eq!(r.point.submit_offsets(), vec![0.0, 30.0]);

        // Explicit batch still decodes.
        let r = parse_estimate_request(r#"{"arrivals":"batch"}"#).unwrap();
        assert_eq!(r.point.arrivals, ArrivalSchedule::Batch);
    }

    #[test]
    fn estimate_request_rejects_bad_arrivals_and_stragglers() {
        for (body, needle) in [
            (r#"{"arrivals":"burst"}"#, "must be `\"batch\"`"),
            (
                r#"{"arrivals":{"staggered_ms":-5}}"#,
                "non-negative integer",
            ),
            (
                r#"{"arrivals":{"staggered_ms":1,"trace_ms":[0]}}"#,
                "must be `\"batch\"`",
            ),
            (r#"{"arrivals":{"later_ms":1}}"#, "unknown arrivals field"),
            (r#"{"n_jobs":3,"arrivals":{"trace_ms":[0,5]}}"#, "2 offsets"),
            (r#"{"slow_node_factor":0.5}"#, ">= 1"),
            (r#"{"slow_node_factor":"slow"}"#, ">= 1"),
            (
                r#"{"mix":[{"job":"grep","submit_offset_ms":-1}]}"#,
                "non-negative integer",
            ),
        ] {
            let err = parse_estimate_request(body).unwrap_err();
            assert!(err.contains(needle), "{body} → {err}");
        }
    }

    #[test]
    fn estimate_request_decodes_every_single_job_field() {
        // The original single-job shape keeps decoding, as a 1-entry
        // mix.
        let r = parse_estimate_request(
            r#"{"nodes":8,"block_mb":64,"container_mb":2048,"scheduler":"fair",
                "job":"terasort","input_bytes":5368709120,"n_jobs":3,
                "estimator":"tripathi","reduces":2,"seed":9,"map_failure_prob":0.25,
                "backends":{"analytic":true,"profile_calibration":true,"simulator":5}}"#,
        )
        .unwrap();
        assert_eq!(r.point.nodes, 8);
        assert_eq!(r.point.scheduler, SchedulerPolicy::Fair);
        assert_eq!(r.point.mix.entries[0].job, JobKind::TeraSort);
        assert_eq!(r.point.mix.entries[0].input_bytes, 5 * GB);
        assert_eq!(r.point.mix.entries[0].count, 3);
        assert_eq!(r.point.estimator, EstimatorKind::Tripathi);
        assert_eq!(
            r.point.mix.entries[0].reduces, 2,
            "fixed count overrides per-node"
        );
        assert_eq!(r.point.map_failure_prob, 0.25);
        assert_eq!(r.backends.simulator, Some(5));
        assert!(r.backends.profile_calibration);
    }

    #[test]
    fn estimate_request_decodes_a_mix() {
        let r = parse_estimate_request(
            r#"{"nodes":4,"mix":[
                {"job":"wordcount","input_bytes":1073741824,"count":2},
                {"job":"terasort","input_bytes":2147483648,"reduces":3},
                {"job":"grep"}]}"#,
        )
        .unwrap();
        assert_eq!(r.point.mix.entries.len(), 3);
        assert_eq!(r.point.total_jobs(), 4);
        assert_eq!(r.point.mix.entries[0].count, 2);
        assert_eq!(r.point.mix.entries[0].reduces, 4, "per-node at 4 nodes");
        assert_eq!(r.point.mix.entries[1].reduces, 3, "fixed");
        assert_eq!(r.point.mix.entries[2].job, JobKind::Grep);
        assert_eq!(r.point.mix.entries[2].input_bytes, GB, "entry default");
    }

    #[test]
    fn estimate_request_rejects_bad_input() {
        for (body, needle) in [
            ("{", "invalid JSON"),
            (r#"{"node":4}"#, "unknown estimate request field `node`"),
            (r#"{"nodes":0}"#, "must be positive"),
            (r#"{"nodes":-2}"#, "non-negative integer"),
            (r#"{"scheduler":"yarn"}"#, "unknown scheduler"),
            (r#"{"job":"sort"}"#, "unknown job"),
            (r#"{"estimator":"magic"}"#, "unknown estimator"),
            (r#"{"reduces":0}"#, "per_node"),
            // 2^32 + 1024: silent truncation would price 4 TiB
            // containers as 1 GiB ones.
            (r#"{"container_mb":4294968320}"#, "fit 32 bits"),
            (r#"{"reduces":4294967296}"#, "per_node"),
            (
                r#"{"backends":{"analytic":false,"simulator":null}}"#,
                "at least one backend",
            ),
            (r#"{"backends":{"sim":1}}"#, "unknown backends field"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"map_failure_prob":1.0}"#, "in [0, 1)"),
            (r#"{"map_failure_prob":"high"}"#, "in [0, 1)"),
            // Mix errors.
            (r#"{"mix":[]}"#, "at least one entry"),
            (r#"{"mix":{}}"#, "array of entry objects"),
            (r#"{"mix":[{"input_bytes":1}]}"#, "needs a `job` field"),
            (r#"{"mix":[{"job":"grep","count":0}]}"#, "must be positive"),
            (
                r#"{"mix":[{"job":"grep","size":1}]}"#,
                "unknown mix entry field `size`",
            ),
            // The two workload styles don't combine.
            (
                r#"{"n_jobs":2,"mix":[{"job":"grep"}]}"#,
                "conflicts with `mix`",
            ),
        ] {
            let err = parse_estimate_request(body).unwrap_err();
            assert!(err.contains(needle), "{body} → {err}");
        }
    }

    #[test]
    fn scenario_request_builds_axes() {
        let s = parse_scenario_request(
            r#"{"name":"grow","nodes":[4,8,16],"n_jobs":[1,2],
                "estimators":["fork_join","tripathi"],"jobs":["grep"],
                "input_bytes":[1073741824],"seed":7}"#,
        )
        .unwrap()
        .scenario;
        assert_eq!(s.name, "grow");
        assert_eq!(s.nodes, vec![4, 8, 16]);
        let mixes = s.workload_values();
        assert_eq!(mixes.len(), 2, "jobs × input_bytes × n_jobs");
        assert_eq!(mixes[0].entries[0].job, JobKind::Grep);
        assert_eq!(mixes[1].total_jobs(), 2);
        assert_eq!(
            s.estimators,
            vec![EstimatorKind::ForkJoin, EstimatorKind::Tripathi]
        );
        assert_eq!(s.seed, 7);
        assert_eq!(s.num_points(), 3 * 2 * 2);
        assert_eq!(s.backends, Backends::analytic_only(), "serving default");
    }

    #[test]
    fn scenario_request_builds_a_mix_axis() {
        let s = parse_scenario_request(
            r#"{"name":"mixed","nodes":[4,8],
                "mixes":[[{"job":"wordcount","count":2},{"job":"grep"}],
                         [{"job":"terasort"}]],
                "map_failure_prob":[0.0,0.1]}"#,
        )
        .unwrap()
        .scenario;
        assert_eq!(s.num_points(), 2 * 2 * 2, "nodes × mixes × failure");
        let mixes = s.workload_values();
        assert_eq!(mixes.len(), 2);
        assert_eq!(mixes[0].entries.len(), 2);
        assert_eq!(mixes[0].total_jobs(), 3);
        assert_eq!(s.map_failure_prob, vec![0.0, 0.1]);
    }

    #[test]
    fn scenario_request_builds_arrival_and_straggler_axes() {
        let s = parse_scenario_request(
            r#"{"name":"arrivals","nodes":[4],"n_jobs":[2],
                "arrivals":["batch",{"staggered_ms":60000},{"trace_ms":[0,90000]}],
                "slow_node_factor":[1.0,4.0]}"#,
        )
        .unwrap()
        .scenario;
        assert_eq!(s.num_points(), 3 * 2, "arrivals × slow_node_factor");
        assert_eq!(s.arrivals.len(), 3);
        assert_eq!(
            s.arrivals[1],
            ArrivalSchedule::Staggered { interval_ms: 60000 }
        );
        assert_eq!(s.slow_node_factor, vec![1.0, 4.0]);

        // Mixes may carry per-entry offsets (trace replay through the
        // service).
        let s = parse_scenario_request(
            r#"{"nodes":[2,4],
                "mixes":[[{"job":"wordcount"},
                          {"job":"grep","submit_offset_ms":45000}]]}"#,
        )
        .unwrap()
        .scenario;
        let mixes = s.workload_values();
        assert_eq!(mixes[0].entries[1].submit_offset_ms, 45000);
    }

    #[test]
    fn scenario_request_builds_an_arrival_rate_axis() {
        let s = parse_scenario_request(
            r#"{"name":"open","nodes":[4],"n_jobs":[1],
                "arrival_rate":[null,0.001,0.002]}"#,
        )
        .unwrap()
        .scenario;
        assert_eq!(s.arrival_rate, vec![None, Some(0.001), Some(0.002)]);
        assert_eq!(s.num_points(), 3);
        for bad in [
            r#"{"arrival_rate":0.1}"#,
            r#"{"arrival_rate":[0.0]}"#,
            r#"{"arrival_rate":["fast"]}"#,
        ] {
            assert!(
                parse_scenario_request(bad)
                    .unwrap_err()
                    .contains("positive finite"),
                "{bad}"
            );
        }
        // The open rate replaces an arrival schedule, never overlays one.
        assert!(parse_scenario_request(
            r#"{"n_jobs":[2],"arrival_rate":[0.1],"arrivals":[{"staggered_ms":1000}]}"#
        )
        .unwrap_err()
        .contains("batch arrivals"));
    }

    #[test]
    fn scenario_request_rejects_invalid_specs() {
        assert!(parse_scenario_request(r#"{"nodes":[]}"#)
            .unwrap_err()
            .contains("nodes axis is empty"));
        assert!(
            parse_scenario_request(r#"{"sweep":"zip","nodes":[1,2],"n_jobs":[1,2,3]}"#)
                .unwrap_err()
                .contains("zip axis")
        );
        assert!(parse_scenario_request(r#"{"axes":{}}"#)
            .unwrap_err()
            .contains("unknown scenario request field"));
        assert!(
            parse_scenario_request(r#"{"container_mb":[1024,4294968320]}"#)
                .unwrap_err()
                .contains("fit 32 bits")
        );
        assert!(
            parse_scenario_request(r#"{"jobs":["grep"],"mixes":[[{"job":"grep"}]]}"#)
                .unwrap_err()
                .contains("conflicts with `mixes`")
        );
        assert!(parse_scenario_request(r#"{"mixes":[[]]}"#)
            .unwrap_err()
            .contains("at least one entry"));
        assert!(parse_scenario_request(r#"{"map_failure_prob":[2.0]}"#)
            .unwrap_err()
            .contains("in [0, 1)"));
        assert!(parse_scenario_request(r#"{"arrivals":"batch"}"#)
            .unwrap_err()
            .contains("array of arrival schedules"));
        assert!(parse_scenario_request(r#"{"slow_node_factor":[0.25]}"#)
            .unwrap_err()
            .contains(">= 1"));
        // A trace schedule must fit every mix it crosses.
        assert!(
            parse_scenario_request(r#"{"n_jobs":[1,2],"arrivals":[{"trace_ms":[0]}]}"#)
                .unwrap_err()
                .contains("1 offsets")
        );
    }

    #[test]
    fn encoded_sweep_is_valid_json_with_bands() {
        use mr2_scenario::{run_scenario, ResultCache, RunnerConfig};
        let s = parse_scenario_request(
            r#"{"nodes":[2],
                "mixes":[[{"job":"wordcount","input_bytes":268435456},
                          {"job":"grep","input_bytes":268435456}]],
                "backends":{"analytic":true,"simulator":2}}"#,
        )
        .unwrap()
        .scenario;
        let sweep = run_scenario(&s, &ResultCache::new(), &RunnerConfig::serial());
        let back = Json::parse(&sweep_reply(&sweep).body).unwrap();
        assert_eq!(back.get("num_points").unwrap().as_u64(), Some(1));
        let pt = &back.get("points").unwrap().as_arr().unwrap()[0];
        assert!(pt.get("estimate").unwrap().as_f64().unwrap() > 0.0);
        assert!(pt.get("measured").unwrap().as_f64().unwrap() > 0.0);
        let mix = pt.get("mix").unwrap().as_arr().unwrap();
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].get("job").unwrap().as_str(), Some("wordcount"));
        assert_eq!(mix[0].get("reduces").unwrap().as_u64(), Some(2));
        assert_eq!(mix[0].get("submit_offset_ms").unwrap().as_u64(), Some(0));
        assert_eq!(pt.get("arrivals").unwrap().as_str(), Some("batch"));
        assert_eq!(pt.get("slow_node_factor").unwrap().as_f64(), Some(1.0));
        assert!(
            pt.get("model")
                .unwrap()
                .get("makespan")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0,
            "model makespan emitted"
        );
        assert!(
            pt.get("sim")
                .unwrap()
                .get("makespan")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0,
            "sim makespan emitted"
        );
        let per_class = pt
            .get("model")
            .unwrap()
            .get("per_class")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(per_class.len(), 2);
        assert!(per_class[1].get("fork_join").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            per_class[1].get("class").unwrap().as_str(),
            Some("grep@256MB")
        );
        assert_eq!(
            pt.get("sim")
                .unwrap()
                .get("per_class_median")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        assert!(!back
            .get("error_bands")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        assert_eq!(
            back.get("class_error_bands")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2 * 4,
            "2 classes × 4 series"
        );
    }

    #[test]
    fn api_errors_classify_damage_and_name_fields() {
        // Transport/JSON damage is 400 "malformed"…
        let e = ApiError::from_parse("invalid JSON: unexpected end".into());
        assert_eq!((e.status, e.code), (400, "malformed"));
        let e = ApiError::from_parse("body is not UTF-8".into());
        assert_eq!((e.status, e.code), (400, "malformed"));
        // …while a well-formed body failing validation is 422, with the
        // offending field lifted out of the backtick convention.
        let e = ApiError::from_parse("field `nodes` must be positive".into());
        assert_eq!((e.status, e.code), (422, "validation"));
        assert_eq!(e.field.as_deref(), Some("nodes"));
        let e = ApiError::from_parse("scenario expands to 99 points".into());
        assert_eq!(e.status, 422);
        assert_eq!(e.field, None);

        // The rendered envelope round-trips as JSON.
        let v = Json::parse(&ApiError::backpressure().body()).unwrap();
        assert_eq!(v.get("api_version").unwrap().as_str(), Some("v1"));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("backpressure"));
        assert!(err.get("field").is_none());

        // HTTP-layer statuses map onto stable codes.
        for (status, code) in [
            (413, "too_large"),
            (431, "too_large"),
            (501, "not_implemented"),
            (505, "unsupported_version"),
            (500, "internal"),
        ] {
            assert_eq!(ApiError::from_status(status, "x".into()).code, code);
        }
    }

    #[test]
    fn stamped_replies_version_and_warn() {
        let mut body = Json::obj([("estimate", Json::num(1.0))]);
        stamp_reply(&mut body, &[]);
        assert_eq!(body.get("api_version").unwrap().as_str(), Some("v1"));
        assert!(body.get("deprecations").is_none(), "no warnings unasked");

        let mut body = Json::obj([("estimate", Json::num(1.0))]);
        stamp_reply(&mut body, &["job", "n_jobs"]);
        let warnings = body.get("deprecations").unwrap().as_arr().unwrap();
        assert_eq!(warnings.len(), 2);
        assert!(warnings[0].as_str().unwrap().contains("`job`"));
        assert!(warnings[0].as_str().unwrap().contains("`mix`"));
    }

    #[test]
    fn plan_request_decodes_with_defaults_and_shares_the_workload_decoder() {
        let r = parse_plan_request(
            r#"{"mix":[{"job":"terasort","input_bytes":2147483648}],
                "arrival_rate":0.05,
                "slo":{"metric":"makespan","threshold":900},
                "search":{"min_nodes":2,"max_nodes":32},
                "scheduler":"fair","seed":9}"#,
        )
        .unwrap();
        assert_eq!(r.plan.arrival_rate, 0.05);
        assert_eq!(r.plan.slo.metric, SloMetric::Makespan);
        assert_eq!(r.plan.slo.threshold, 900.0);
        assert_eq!((r.plan.search.min_nodes, r.plan.search.max_nodes), (2, 32));
        assert_eq!(r.plan.scheduler, SchedulerPolicy::Fair);
        assert_eq!(r.plan.seed, 9);
        assert!(r.deprecations.is_empty());
        assert!(!r.debug);

        // The legacy single-job shape decodes through the same path as
        // /v1/estimate, deprecations noted; search defaults to 1–64.
        let r = parse_plan_request(
            r#"{"job":"grep","input_bytes":1073741824,"n_jobs":2,
                "arrival_rate":0.01,
                "slo":{"metric":"response","threshold":300}}"#,
        )
        .unwrap();
        assert_eq!(r.plan.mix.entries[0].job, JobKind::Grep);
        assert_eq!(r.plan.mix.total_jobs(), 2);
        assert_eq!(r.deprecations, vec!["job", "input_bytes", "n_jobs"]);
        let default = SearchSpace::default();
        assert_eq!(r.plan.search.min_nodes, default.min_nodes);
        assert_eq!(r.plan.search.max_nodes, default.max_nodes);
    }

    #[test]
    fn plan_request_rejects_bad_input() {
        for (body, needle) in [
            ("{", "invalid JSON"),
            (
                r#"{"slo":{"metric":"response","threshold":1}}"#,
                "arrival_rate",
            ),
            (r#"{"arrival_rate":0.1}"#, "`slo` object"),
            (
                r#"{"arrival_rate":"fast","slo":{"metric":"response","threshold":1}}"#,
                "positive finite rate",
            ),
            (
                r#"{"arrival_rate":0.1,"slo":{"metric":"p99","threshold":1}}"#,
                "`response`, `makespan`, or `utilization`",
            ),
            (
                r#"{"arrival_rate":0.1,"slo":{"metric":"response"}}"#,
                "`threshold` must be a number",
            ),
            (
                r#"{"arrival_rate":0.1,"slo":{"metric":"response","threshold":1},"nodes":4}"#,
                "unknown plan request field `nodes`",
            ),
            (
                r#"{"arrival_rate":0.1,"slo":{"metric":"response","threshold":1},
                    "search":{"max":8}}"#,
                "unknown search field `max`",
            ),
            (
                r#"{"arrival_rate":0.1,"slo":{"metric":"response","threshold":1},
                    "mix":[{"job":"grep"}],"n_jobs":2}"#,
                "conflicts with `mix`",
            ),
        ] {
            let err = parse_plan_request(body).unwrap_err();
            assert!(err.contains(needle), "{body} → {err}");
        }
    }

    #[test]
    fn estimate_request_decodes_an_arrival_rate() {
        let r = parse_estimate_request(r#"{"nodes":4,"arrival_rate":0.002}"#).unwrap();
        assert_eq!(r.point.arrival_rate, Some(0.002));
        assert!(
            parse_estimate_request(r#"{"arrival_rate":0}"#)
                .unwrap_err()
                .contains("positive finite rate"),
            "zero rate refused"
        );
        assert!(
            parse_estimate_request(
                r#"{"n_jobs":2,"arrival_rate":0.1,"arrivals":{"staggered_ms":1000}}"#
            )
            .unwrap_err()
            .contains("batch arrivals"),
            "an open rate replaces, not overlays, a schedule"
        );
    }

    #[test]
    fn written_point_replies_match_the_tree_byte_for_byte() {
        let mut rng = Rng(21);
        let mut seen = [0usize; 10];
        for i in 0..600 {
            let p = synthetic_point(&mut rng, i);
            let debug = (rng.below(3) == 0).then(|| synthetic_debug(&mut rng));
            let deprecations = DEPRECATIONS[rng.below(3) as usize];
            assert_eq!(
                written(estimate_reply(&p, deprecations), debug.as_ref()),
                stamped(point_json(&p), debug.as_ref(), deprecations),
                "estimate reply {i}"
            );
            assert_eq!(
                sweep_line(&p),
                point_json(&p).render() + "\n",
                "sweep line {i}"
            );
            let classes = p.point.mix.entries.len();
            let features = [
                classes == 1,
                classes == 3,
                p.point.arrivals != ArrivalSchedule::Batch,
                matches!(p.point.arrivals, ArrivalSchedule::Trace { .. }),
                p.model.as_ref().is_some_and(|m| m.open.is_some()),
                p.model.is_none(),
                p.sim.is_some(),
                debug.is_some() && !deprecations.is_empty(),
                p.point.map_failure_prob.is_nan(),
                p.point.seed > 1 << 53,
            ];
            for (n, hit) in seen.iter_mut().zip(features) {
                *n += usize::from(hit);
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every shape covered: {seen:?}");
    }

    #[test]
    fn written_sweep_and_plan_replies_match_the_tree_byte_for_byte() {
        let mut rng = Rng(56);
        for i in 0..60 {
            let sweep = SweepResult {
                name: ["adhoc", "sweep-α \"q\"\n", ""][i % 3].to_string(),
                points: (0..rng.below(5) as usize)
                    .map(|index| {
                        // Error bands need a positive measured time.
                        let mut p = synthetic_point(&mut rng, index);
                        if let Some(sim) = &mut p.sim {
                            sim.median_response = 1.0 + rng.below(1 << 20) as f64 / 7.0;
                            for m in &mut sim.per_class_median {
                                *m = 1.0 + rng.below(1 << 20) as f64 / 3.0;
                            }
                        }
                        p
                    })
                    .collect(),
            };
            let debug = (rng.below(2) == 0).then(|| synthetic_debug(&mut rng));
            assert_eq!(
                written(sweep_reply(&sweep), debug.as_ref()),
                stamped(sweep_json(&sweep), debug.as_ref(), &[]),
                "sweep reply {i}"
            );

            let entries: Vec<MixEntry> = (0..1 + rng.below(3))
                .map(|_| MixEntry {
                    job: JOBS[rng.below(3) as usize],
                    input_bytes: rng.u64(),
                    count: 1 + rng.below(4) as usize,
                    reduces: [
                        ReducePolicy::PerNode,
                        ReducePolicy::Fixed(rng.next() as u32),
                    ][rng.below(2) as usize],
                    submit_offset_ms: rng.u64(),
                })
                .collect();
            let classes = entries.len();
            let mut req = PlanRequest::new(
                WorkloadMix::new(entries),
                rng.f64(),
                SloSpec {
                    metric: [
                        SloMetric::Response,
                        SloMetric::Makespan,
                        SloMetric::Utilization,
                    ][rng.below(3) as usize],
                    threshold: rng.f64(),
                },
            );
            req.search = SearchSpace {
                min_nodes: rng.u64() as usize,
                max_nodes: rng.u64() as usize,
            };
            let open = rng.below(4) != 0;
            let result = PlanResult {
                feasible: rng.below(2) == 0,
                nodes: 1 + rng.below(64) as usize,
                predicted: rng.f64(),
                point: synthetic_model(&mut rng, classes, open),
                probes: (0..rng.below(8))
                    .map(|_| mr2_scenario::PlanProbe {
                        nodes: rng.u64() as usize,
                        predicted: rng.f64(),
                        satisfies: rng.below(2) == 0,
                    })
                    .collect(),
            };
            let deprecations = DEPRECATIONS[rng.below(3) as usize];
            assert_eq!(
                written(plan_reply(&req, &result, deprecations), debug.as_ref()),
                stamped(plan_json(&req, &result), debug.as_ref(), deprecations),
                "plan reply {i}"
            );
        }
    }

    #[test]
    fn written_replies_of_a_real_sweep_match_the_tree() {
        use mr2_scenario::{run_scenario, ResultCache, RunnerConfig};
        let s = parse_scenario_request(
            r#"{"nodes":[2,3],"arrival_rate":[null,0.001],
                "mixes":[[{"job":"wordcount","input_bytes":268435456},
                          {"job":"grep","input_bytes":268435456,"submit_offset_ms":9}]],
                "backends":{"analytic":true,"simulator":1}}"#,
        )
        .unwrap()
        .scenario;
        let sweep = run_scenario(&s, &ResultCache::new(), &RunnerConfig::serial());
        assert_eq!(
            sweep_reply(&sweep).body,
            stamped(sweep_json(&sweep), None, &[])
        );
        for p in &sweep.points {
            assert_eq!(
                estimate_reply(p, &["n_jobs"]).body,
                stamped(point_json(p), None, &["n_jobs"])
            );
        }
    }
}
