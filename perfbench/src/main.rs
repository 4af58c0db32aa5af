//! `perfbench` — the repository's benchmark: drives the real `mr2-serve`
//! binary over HTTP with three seeded closed-loop workloads and reports
//! end-to-end metrics, or, with `--trace 1`, per-layer metrics from the
//! service's `/metrics` counters and a serial in-process traced replay.
//! See `perfbench/README.md`.
//!
//! ```text
//! perfbench --server PATH --workload estimate_cold|estimate_hot|sweep_sim
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --write-golden            # re-pin golden.txt (default seed)
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (name → value and unit).

mod check;
mod client;
mod gen;
mod prom;
mod rng;
mod traced;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mr2_serve::Json;

use check::{Golden, Tally, DEFAULT_SEED};
use client::{cpu_seconds, peak_rss_mb, pin_to_one_cpu, request_bytes, Conn, Server};
use gen::{Body, Workload};
use prom::Scrape;

/// The benchmark's own directory, relative to the repository root it
/// runs from.
const BENCH_DIR: &str = "perfbench";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
    traced_child: bool,
    probes: bool,
    write_golden: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --server PATH --workload estimate_cold|estimate_hot|sweep_sim \
         [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --write-golden"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        server: None,
        traced_child: false,
        probes: false,
        write_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--server" => a.server = Some(PathBuf::from(value())),
            "--traced-child" => a.traced_child = true,
            "--probes" => a.probes = true,
            "--write-golden" => a.write_golden = true,
            _ => usage(),
        }
    }
    a
}

fn golden_path() -> PathBuf {
    Path::new(BENCH_DIR).join("golden.txt")
}

/// Whether `golden.txt` pins `w`'s replies for `seed`: the cold
/// catalogue is the same for every seed, so its replies are pinned for
/// all of them; the hot set and the sweeps only for the default seed.
fn pinned(w: Workload, seed: u64) -> bool {
    w == Workload::EstimateCold || seed == DEFAULT_SEED
}

fn spans_path(w: Workload, seed: u64, probes: bool) -> PathBuf {
    let run = if probes { "a" } else { "b" };
    Path::new(BENCH_DIR)
        .join("out")
        .join(format!("spans-{}-seed{seed}-{run}.ndjson", w.name()))
}

fn main() {
    let args = parse_args();
    if args.write_golden {
        write_golden();
        return;
    }
    let Some(w) = args.workload else { usage() };
    let golden = if pinned(w, args.seed) {
        match Golden::load(&golden_path()) {
            Ok(g) => Some(g),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    if args.traced_child {
        let out = traced::run(
            w,
            args.seed,
            args.probes,
            golden.as_ref(),
            &spans_path(w, args.seed, args.probes),
        );
        println!("{}", out.to_json().render());
        return;
    }
    let Some(server) = args.server.as_deref() else {
        usage()
    };
    match run(&args, w, server, golden.as_ref()) {
        Ok(report) => {
            let ok = report.correct;
            println!("{}", report.to_json().render());
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The hot set, warmed: bodies, request bytes and verified replies.
struct HotSet {
    /// Replay order over the set (cycled).
    order: Vec<usize>,
    bodies: Vec<Body>,
    requests: Vec<Vec<u8>>,
    replies: Vec<Vec<u8>>,
}

/// Send each hot body once and check every reply; returns the reply
/// bodies in set order.
fn warm(
    server: &Server,
    bodies: &[Body],
    requests: &[Vec<u8>],
    golden: Option<&Golden>,
    tally: &mut Tally,
) -> Result<Vec<Vec<u8>>, String> {
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let mut replies = Vec::with_capacity(requests.len());
    for (b, req) in bodies.iter().zip(requests) {
        let reply = conn.call(req).map_err(|e| e.to_string())?;
        tally.record(
            check::estimate_reply(reply.status, &reply.body).and_then(|v| {
                golden.map_or(Ok(()), |g| g.compare(Workload::EstimateHot, b.id, 0, &v))
            }),
        );
        replies.push(reply.body);
    }
    Ok(replies)
}

/// Start a fresh server and bring it to ready: announced, answering
/// `/healthz`, and for `estimate_hot` holding the warmed hot set.
/// Returns the server, the seconds that took, and the hot set.
fn setup(
    bin: &Path,
    w: Workload,
    seed: u64,
    golden: Option<&Golden>,
    tally: &mut Tally,
) -> Result<(Server, f64, Option<HotSet>), String> {
    let t = Instant::now();
    let server = start(bin)?;
    let hot = if w == Workload::EstimateHot {
        let bodies = gen::hot_bodies(seed);
        let requests: Vec<Vec<u8>> = bodies
            .iter()
            .map(|b| request_bytes("POST", w.path(), &b.json))
            .collect();
        let replies = warm(&server, &bodies, &requests, golden, tally)?;
        Some(HotSet {
            order: gen::hot_order(seed),
            bodies,
            requests,
            replies,
        })
    } else {
        None
    };
    Ok((server, t.elapsed().as_secs_f64(), hot))
}

/// Spawn a server and wait until it answers `/healthz`.
fn start(bin: &Path) -> Result<Server, String> {
    let server = Server::spawn(bin).map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let health = server.get("/healthz").map_err(|e| e.to_string())?;
    if !health.contains("\"status\":\"ok\"") {
        return Err(format!("server not healthy: {health}"));
    }
    Ok(server)
}

/// One round of the timed run: a fixed amount of work, the same for
/// every seed.
struct Round {
    wall_s: f64,
    requests: u64,
    points: u64,
}

/// A slot's fastest reply over the rounds (ns), and its points.
struct Best {
    latency_ns: u64,
    first_point_ns: u64,
    points: u64,
}

/// What the timed run saw.
#[derive(Default)]
struct Timed {
    rounds: Vec<Round>,
    /// Per slot (see [`Body::slot`]): its fastest reply over the rounds.
    best: BTreeMap<usize, Best>,
    /// CPU seconds the server and this client used while the rounds
    /// ran: exactly the work of every request sent.
    server_cpu: f64,
    client_cpu: f64,
    rss_mb: f64,
    /// `/metrics` around the last round (every round does the same work).
    before: Scrape,
    after: Scrape,
}

impl Timed {
    fn requests(&self) -> u64 {
        self.rounds.iter().map(|r| r.requests).sum()
    }

    fn points(&self) -> u64 {
        self.rounds.iter().map(|r| r.points).sum()
    }

    fn last(&self) -> &Round {
        self.rounds.last().expect("at least one round")
    }

    /// The `q` quantile over slots of their fastest `f` (ns), in ms.
    fn best_ms(&self, q: f64, f: impl Fn(&Best) -> u64) -> f64 {
        quantile_ms(&self.best.values().map(f).collect::<Vec<_>>(), q)
    }

    /// The slots' points (or, with `per_point` false, requests) per
    /// second of their summed fastest replies.
    fn best_rate(&self, per_point: bool) -> f64 {
        let secs: f64 = self.best.values().map(|b| b.latency_ns as f64 / 1e9).sum();
        let work: u64 = if per_point {
            self.best.values().map(|b| b.points).sum()
        } else {
            self.best.len() as u64
        };
        work as f64 / secs
    }
}

fn scrape(server: &Server) -> Result<Scrape, String> {
    server
        .get("/metrics")
        .map(|t| Scrape::parse(&t))
        .map_err(|e| format!("scrape failed: {e}"))
}

/// One checked request: its timings (ns), its points, and its verdict.
struct Sample {
    latency_ns: u64,
    first_point_ns: u64,
    points: u64,
    verdict: Result<(), String>,
}

/// Send one request on `conn`, wait for the whole reply, and check it:
/// against `expected` (a hot body's verified warm-up reply) if given,
/// else with the output check and the golden values.
fn call(
    conn: &mut Conn,
    w: Workload,
    body: &Body,
    request: &[u8],
    expected: Option<&[u8]>,
    golden: Option<&Golden>,
) -> Result<Sample, String> {
    let t0 = Instant::now();
    let mut first = None;
    conn.send(request).map_err(|e| e.to_string())?;
    let reply = conn
        .read_reply(&mut |chunk: &[u8]| {
            if first.is_none() && !chunk.windows(6).any(|x| x == b"\"done\"") {
                first = Some(Instant::now());
            }
        })
        .map_err(|e| e.to_string())?;
    let done = Instant::now();
    let verdict = match (w, expected) {
        (_, Some(want)) => {
            if reply.status == 200 && reply.body == want {
                Ok(())
            } else {
                Err(format!(
                    "hot body {}: reply differs from its warm-up reply",
                    body.id
                ))
            }
        }
        (Workload::SweepSim, None) => check::sweep_reply(reply.status, &reply.body, body.points)
            .and_then(|values| {
                golden.map_or(Ok(()), |g| {
                    values
                        .iter()
                        .enumerate()
                        .try_for_each(|(p, v)| g.compare(w, body.id, p, v))
                })
            }),
        (_, None) => check::estimate_reply(reply.status, &reply.body)
            .and_then(|v| golden.map_or(Ok(()), |g| g.compare(w, body.id, 0, &v))),
    };
    Ok(Sample {
        latency_ns: (done - t0).as_nanos() as u64,
        first_point_ns: (first.unwrap_or(done) - t0).as_nanos() as u64,
        points: body.points as u64,
        verdict,
    })
}

/// The measured window: closed-loop rounds over one connection until
/// `seconds` have passed; the round in flight at the deadline finishes
/// and counts. Each `estimate_cold` and `sweep_sim` round runs on a
/// fresh server (the first on the one set-up made), so the memo and
/// the cache start empty and no round inherits another's heap;
/// `estimate_hot` keeps its warmed server. Returns what was timed and
/// the purity guards' complaints.
#[allow(clippy::too_many_arguments)]
fn timed_run(
    bin: &Path,
    mut server: Server,
    w: Workload,
    seed: u64,
    seconds: f64,
    hot: Option<&HotSet>,
    golden: Option<&Golden>,
    tally: &mut Tally,
) -> Result<(Timed, Vec<String>), String> {
    let cold: Vec<(Body, Vec<u8>)> = gen::cold_round(seed)
        .into_iter()
        .map(|b| {
            let req = request_bytes("POST", w.path(), &b.json);
            (b, req)
        })
        .collect();
    let mut sweeps = gen::Sweeps::new(seed);
    let mut t = Timed::default();
    let mut problems = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for r in 0.. {
        if r > 0 && Instant::now() >= deadline {
            break;
        }
        if w != Workload::EstimateHot && r > 0 {
            drop(server); // stop the previous server before starting the next
            server = start(bin)?;
        }
        let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
        let before = scrape(&server)?;
        let pid = server.pid().to_string();
        let cpu0 = (cpu_seconds(&pid), cpu_seconds("self"));
        let mut round = Round {
            wall_s: 0.0,
            requests: 0,
            points: 0,
        };
        let mut solo_lookups = 0;
        let mut record = |slot: usize, s: Sample| {
            let best = t.best.entry(slot).or_insert(Best {
                latency_ns: u64::MAX,
                first_point_ns: u64::MAX,
                points: s.points,
            });
            best.latency_ns = best.latency_ns.min(s.latency_ns);
            best.first_point_ns = best.first_point_ns.min(s.first_point_ns);
            round.requests += 1;
            round.points += s.points;
            tally.record(s.verdict);
        };
        let t0 = Instant::now();
        match w {
            Workload::EstimateCold => {
                for (b, req) in &cold {
                    record(b.slot, call(&mut conn, w, b, req, None, golden)?);
                    solo_lookups += b.solo_lookups;
                }
            }
            Workload::EstimateHot => {
                let hot = hot.expect("the hot set is warmed during set-up");
                for k in 0..gen::HOT_ROUND {
                    let i = hot.order[(r * gen::HOT_ROUND + k) % hot.order.len()];
                    let (b, expected) = (&hot.bodies[i], Some(hot.replies[i].as_slice()));
                    record(b.slot, call(&mut conn, w, b, &hot.requests[i], expected, golden)?);
                }
            }
            Workload::SweepSim => {
                for b in sweeps.next_pass() {
                    let req = request_bytes("POST", w.path(), &b.json);
                    record(b.slot, call(&mut conn, w, &b, &req, None, golden)?);
                }
            }
        }
        round.wall_s = t0.elapsed().as_secs_f64();
        t.server_cpu += cpu_seconds(&pid) - cpu0.0;
        t.client_cpu += cpu_seconds("self") - cpu0.1;
        let after = scrape(&server)?;
        problems.extend(purity(w, &before, &after, &round, solo_lookups));
        t.rss_mb = t.rss_mb.max(peak_rss_mb(server.pid()));
        (t.before, t.after) = (before, after);
        t.rounds.push(round);
    }
    Ok((t, problems))
}

/// The workload-purity guards: each workload must exercise the layer
/// it claims, read from the service's counters around one round.
/// `solo_lookups` bounds the memo hits a cold round may see.
fn purity(
    w: Workload,
    before: &Scrape,
    after: &Scrape,
    round: &Round,
    solo_lookups: u64,
) -> Vec<String> {
    let d = |series: &str| after.delta(before, series);
    let (hits, misses, coalesced) = (
        d("mr2_cache_hits_total"),
        d("mr2_cache_misses_total"),
        d("mr2_cache_coalesced_total"),
    );
    let requests = round.requests as f64;
    let mut bad = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    match w {
        Workload::EstimateCold => {
            expect(
                hits == 0.0 && coalesced == 0.0 && misses == requests,
                format!("estimate_cold: cache hits {hits}, coalesced {coalesced}, misses {misses} for {requests} requests (want 0, 0, {requests})"),
            );
            let memo_hits = d("mr2_endpoint_memo_hits_total");
            expect(
                memo_hits <= solo_lookups as f64,
                format!(
                    "estimate_cold: {memo_hits} memo hits but only {solo_lookups} shareable solo solves"
                ),
            );
        }
        Workload::EstimateHot => {
            expect(
                misses == 0.0 && hits == requests,
                format!("estimate_hot: cache hits {hits}, misses {misses} for {requests} requests (want every request a hit)"),
            );
            let (iters, events) = (d("mr2_solver_iterations_total"), d("mr2_sim_events_total"));
            expect(
                iters == 0.0 && events == 0.0,
                format!("estimate_hot: {iters} solver iterations and {events} sim events while timing (want 0)"),
            );
        }
        Workload::SweepSim => {
            let iters = d("mr2_solver_iterations_total");
            expect(
                iters == 0.0,
                format!("sweep_sim: {iters} solver iterations (want 0)"),
            );
            expect(
                hits == 0.0 && misses == round.points as f64,
                format!("sweep_sim: cache hits {hits}, misses {misses} for {} points (want every point a miss)", round.points),
            );
        }
    }
    bad
}

/// The `q` quantile of `v` (ns), in ms, interpolated between ranks.
fn quantile_ms(v: &[u64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    (s[lo] as f64 * (1.0 - frac) + s[hi] as f64 * frac) / 1e6
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The run's result: verdict, reply counts, and metrics in print order.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Spawn this binary as a traced child and read its outcome.
fn traced_child(w: Workload, seed: u64, probes: bool) -> Result<traced::Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--traced-child",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
    ]);
    if probes {
        cmd.arg("--probes");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("traced run failed to start: {e}"))?;
    if !out.status.success() {
        return Err(format!("traced run exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    Json::parse(line)
        .map(|v| traced::Outcome::from_json(&v))
        .map_err(|e| format!("traced run printed no result: {e}"))
}

fn run(args: &Args, w: Workload, bin: &Path, golden: Option<&Golden>) -> Result<Report, String> {
    let mut tally = Tally::default();
    // Before any server or traced child starts: they inherit the CPU.
    let cpu = pin_to_one_cpu();

    // Set up several times (each a fresh process) and keep the last
    // server for the timed run; setup_s is the median.
    let setups = match (args.trace, w) {
        (true, _) => 1,
        (false, Workload::EstimateHot) => 3,
        (false, _) => 15,
    };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut ready = None;
    for _ in 0..setups {
        drop(ready.take()); // stop the previous server before starting the next
        let (server, s, hot) = setup(bin, w, args.seed, golden, &mut tally)?;
        setup_secs.push(s);
        ready = Some((server, hot));
    }
    let (server, hot) = ready.expect("at least one setup");
    let (t, mut problems) = timed_run(
        bin,
        server,
        w,
        args.seed,
        args.seconds,
        hot.as_ref(),
        golden,
        &mut tally,
    )?;

    let points = t.points() as f64;
    let cpu_ms_per_op = t.server_cpu * 1e3 / points;
    let client_cpu_ms_per_op = t.client_cpu * 1e3 / points;

    println!(
        "{} seed {} on CPU {}: {} rounds, {} requests, {} points over one connection; {} slots, each timed {} times",
        w.name(),
        args.seed,
        cpu.map_or("(unpinned)".to_string(), |c| c.to_string()),
        t.rounds.len(),
        t.requests(),
        t.points(),
        t.best.len(),
        t.requests() / t.best.len().max(1) as u64,
    );
    println!(
        "generator self-check: client {client_cpu_ms_per_op:.4} ms CPU per op, server {cpu_ms_per_op:.4} ms CPU per op"
    );
    if w == Workload::EstimateHot && client_cpu_ms_per_op > cpu_ms_per_op {
        println!("WARNING: the client used more CPU than the server; this run measures the load generator");
    }

    let mut metrics = if !args.trace {
        vec![
            ("setup_s", median(&mut setup_secs), "s"),
            ("req_p50_ms", t.best_ms(0.5, |b| b.latency_ns), "ms"),
            ("req_p90_ms", t.best_ms(0.9, |b| b.latency_ns), "ms"),
            ("ops_per_s", t.best_rate(false), "1/s"),
            (
                "first_point_p50_ms",
                t.best_ms(0.5, |b| b.first_point_ns),
                "ms",
            ),
            ("points_per_s", t.best_rate(true), "1/s"),
            ("rss_peak_mb", t.rss_mb, "MB"),
        ]
    } else {
        let first = traced_child(w, args.seed, true)?;
        let second = traced_child(w, args.seed, false)?;
        if first.exact != second.exact {
            problems.push(format!(
                "traced work counts differ between two runs of seed {}: {:?} vs {:?}",
                args.seed, first.exact, second.exact
            ));
        }
        let metrics = layer_metrics(w, &t, &first, cpu_ms_per_op, client_cpu_ms_per_op);
        tally.merge(first.tally);
        tally.merge(second.tally);
        metrics
    };

    let error_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    let verdict = if tally.failed == 0 && problems.is_empty() {
        "ok".to_string()
    } else {
        format!("FAILED ({} of {} replies)", tally.failed, tally.attempted)
    };
    println!("output check: {verdict}; error_ratio {error_ratio}");
    for m in tally.messages.iter().chain(&problems) {
        println!("  {m}");
    }
    if args.trace {
        metrics.push(("error_ratio", error_ratio, "ratio"));
    }
    for (name, value, unit) in &mut metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
            *value = 0.0;
        }
        println!("  {name:<36} {value:>14.6} {unit}");
    }
    Ok(Report {
        correct: tally.failed == 0 && problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Per-layer metrics: counter deltas of the timed run's last round (per
/// point, the unit `cpu_ms_per_op` uses, unless a total or ratio) and
/// the traced run's self times and exact work counts.
fn layer_metrics(
    w: Workload,
    t: &Timed,
    tr: &traced::Outcome,
    cpu_ms_per_op: f64,
    client_cpu_ms_per_op: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let last = t.last();
    let (requests, points) = (last.requests as f64, last.points as f64);
    let d = |series: &str| t.after.delta(&t.before, series);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ms = |ns: u64, n: f64| ratio(ns as f64 / 1e6, n);
    let us = |ns: u64, n: f64| ratio(ns as f64 / 1e3, n);
    let span = |name: &str| tr.total_ns.get(name).copied().unwrap_or(0);
    let self_ns = |name: &str| tr.self_ns.get(name).copied().unwrap_or(0);
    let q_ms = |name: &str, labels: &str, q: f64| {
        t.after.quantile(&t.before, name, labels, q).unwrap_or(0.0) * 1e3
    };
    let (ops, tpoints) = (tr.ops as f64, tr.points as f64);
    let attributed = tr.attributed_ns();
    let share = |layer: &str| ratio(tr.layer_self_ns(layer) as f64, attributed as f64);
    let exact = |name: &str| tr.exact.get(name).copied().unwrap_or(0);
    let (memo_hits, memo_misses) = (
        d("mr2_endpoint_memo_hits_total"),
        d("mr2_endpoint_memo_misses_total"),
    );
    let (hits, misses) = (d("mr2_cache_hits_total"), d("mr2_cache_misses_total"));
    let path_label = format!("path=\"{}\"", w.path());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let busy = if w == Workload::SweepSim {
        ratio(
            d("mr2_span_seconds_sum{span=\"point.sim\"}"),
            last.wall_s * workers,
        )
    } else {
        0.0
    };
    let sim_run_ns = span("sim.run");
    let scenario_self: u64 = ["scenario.evaluate_point", "point.sim", "point.model"]
        .iter()
        .map(|n| self_ns(n))
        .sum();
    vec![
        // model: the analytic solver
        (
            "model.solve_forkjoin_ms",
            ms(tr.probe_forkjoin_ns, tr.probe_ops as f64),
            "ms",
        ),
        (
            "model.solve_tripathi_ms",
            ms(tr.probe_tripathi_ns, tr.probe_ops as f64),
            "ms",
        ),
        ("model.eval_ms", ms(span("model.eval"), ops), "ms"),
        (
            "model.solver_iterations",
            ratio(d("mr2_solver_iterations_total"), points),
            "count",
        ),
        (
            "queueing.mva_iterations",
            ratio(d("mr2_mva_iterations_total"), points),
            "count",
        ),
        (
            "model.convergence_failures",
            d("mr2_solver_convergence_failures_total"),
            "count",
        ),
        (
            "queueing.mva_convergence_failures",
            d("mr2_mva_convergence_failures_total"),
            "count",
        ),
        ("model.memo_hits", ratio(memo_hits, points), "count"),
        ("model.memo_misses", ratio(memo_misses, points), "count"),
        (
            "model.memo_hit_ratio",
            ratio(memo_hits, memo_hits + memo_misses),
            "ratio",
        ),
        // sim: the discrete-event simulator
        ("sim.eval_ms", ms(sim_run_ns, tpoints), "ms"),
        (
            "sim.events",
            ratio(d("mr2_sim_events_total"), points),
            "count",
        ),
        (
            "sim.events_per_ms",
            ratio(exact("sim.events") as f64, sim_run_ns as f64 / 1e6),
            "1/ms",
        ),
        (
            "sim.heap_depth_peak",
            ratio(
                d("mr2_sim_event_heap_depth_sum"),
                d("mr2_sim_event_heap_depth_count"),
            ),
            "count",
        ),
        // scenario: runner and result cache
        ("scenario.runner_point_ms", ms(scenario_self, tpoints), "ms"),
        ("scenario.runner_busy_ratio", busy, "ratio"),
        ("scenario.cache_hits", ratio(hits, points), "count"),
        ("scenario.cache_misses", ratio(misses, points), "count"),
        (
            "scenario.cache_coalesced",
            d("mr2_cache_coalesced_total"),
            "count",
        ),
        (
            "scenario.cache_evictions",
            d("mr2_cache_evictions_total"),
            "count",
        ),
        (
            "scenario.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        // serve: transport, HTTP, API codec
        (
            "serve.http_parse_us",
            us(span("serve.http_parse"), ops),
            "us",
        ),
        (
            "serve.api_decode_us",
            us(span("serve.api_decode"), ops),
            "us",
        ),
        (
            "serve.api_encode_us",
            us(span("serve.api_encode"), ops),
            "us",
        ),
        (
            "serve.loop_work_us_per_req",
            ratio(d("mr2_serve_loop_work_seconds_sum") * 1e6, requests),
            "us",
        ),
        (
            "serve.handler_ms.p50",
            q_ms("mr2_http_request_seconds", &path_label, 0.5),
            "ms",
        ),
        (
            "serve.handler_ms.p99",
            q_ms("mr2_http_request_seconds", &path_label, 0.99),
            "ms",
        ),
        (
            "serve.queue_wait_ms.p50",
            q_ms("mr2_serve_queue_wait_seconds", "", 0.5),
            "ms",
        ),
        (
            "serve.queue_wait_ms.p99",
            q_ms("mr2_serve_queue_wait_seconds", "", 0.99),
            "ms",
        ),
        ("serve.shed", d("mr2_serve_shed_total"), "count"),
        (
            "serve.unattributed_ms_per_op",
            cpu_ms_per_op - ms(attributed, tpoints),
            "ms",
        ),
        // where the traced run's time went
        ("trace.attributed_ms_per_op", ms(attributed, ops), "ms"),
        ("trace.model_share", share("model"), "ratio"),
        ("trace.sim_share", share("sim"), "ratio"),
        ("trace.scenario_share", share("scenario"), "ratio"),
        ("trace.serve_share", share("serve"), "ratio"),
        // exact work counts of the traced run (repeat for one seed)
        ("exact.ops", ops, "count"),
        (
            "exact.model.solver_iterations",
            exact("model.solver_iterations") as f64,
            "count",
        ),
        (
            "exact.queueing.mva_iterations",
            exact("queueing.mva_iterations") as f64,
            "count",
        ),
        ("exact.sim.events", exact("sim.events") as f64, "count"),
        (
            "exact.scenario.cache_misses",
            exact("scenario.cache_misses") as f64,
            "count",
        ),
        (
            "exact.model.memo_misses",
            exact("model.memo_misses") as f64,
            "count",
        ),
        // CPU time per point: the server's, and the load generator's
        ("serve.cpu_ms_per_op", cpu_ms_per_op, "ms"),
        ("client.cpu_ms_per_op", client_cpu_ms_per_op, "ms"),
        (
            "client.cpu_over_server",
            ratio(client_cpu_ms_per_op, cpu_ms_per_op),
            "ratio",
        ),
    ]
}

/// Re-pin the golden values from an in-process replay of the pinned
/// bodies of the default seed.
fn write_golden() {
    let mut g = Golden::default();
    for w in [
        Workload::EstimateCold,
        Workload::EstimateHot,
        Workload::SweepSim,
    ] {
        for (id, values) in traced::replay_values(w, DEFAULT_SEED) {
            for (p, v) in values.into_iter().enumerate() {
                g.insert(w, id, p, v);
            }
        }
    }
    let path = golden_path();
    std::fs::write(&path, g.render()).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
    eprintln!("perfbench: wrote {}", path.display());
}
