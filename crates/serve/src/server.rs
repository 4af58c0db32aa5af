//! The long-running service: a readiness-based event loop (raw `epoll`
//! over non-blocking sockets, module [`crate::net`]) owning every
//! connection, with a fixed pool of worker threads strictly for
//! CPU-bound evaluation behind a bounded job queue. A kept-alive idle
//! connection costs one file descriptor and a few KB of parser buffer
//! — not a thread — so concurrent connections scale past the worker
//! count by orders of magnitude.
//!
//! ```text
//!                        ┌────────────────────────────┐   job queue    ┌──────────┐
//!  clients ──accept──▶   │  event loop (1 thread)     │ ──(bounded)──▶ │ worker 0 │
//!     ▲                  │  epoll: listener, eventfds,│                │ worker 1 │
//!     │                  │  N connection fds          │ ◀─completions─ │  …       │
//!     └──────responses── │  per-conn state machine    │    (eventfd)   └──────────┘
//!                        │  estimate cache hits       │        evaluate via cache
//!                        └────────────────────────────┘
//! ```
//!
//! Each connection is an explicit state machine — `read_head` →
//! `read_body` → `waiting` (for a worker) → `writing` → `idle`
//! (keep-alive), plus `streaming` for chunked sweeps — driven only by
//! readiness events, worker completions, and deadlines. Cheap `GET`
//! routes are answered inline on the loop. So is a `POST /v1/estimate`
//! whose body (at most [`LOOP_DECODE_MAX`] bytes) fails to decode, or
//! whose every record is ready in the result cache: the loop decodes
//! it, takes its records under one cache lock
//! ([`mr2_scenario::lookup_point`]) and writes the reply, with no job,
//! no worker and no queue slot. Every other `POST` evaluation — an
//! estimate missing a record (with its decoded request), a larger
//! estimate body, a sweep, a plan — is dispatched to the pool, and the
//! loop keeps serving other sockets while it runs. Responses render
//! into one contiguous buffer and are written opportunistically
//! (usually a single `write`), so small answers never stall on
//! Nagle/delayed-ACK interaction.
//!
//! Endpoints (one row of [`ROUTES`] each):
//!
//! | method | path | body | answer |
//! |---|---|---|---|
//! | `GET`  | `/healthz` | — | liveness + uptime + request count |
//! | `GET`  | `/metrics` | — | Prometheus text exposition of the process registry |
//! | `GET`  | `/v1/cache/stats` | — | shared-cache counters |
//! | `POST` | `/v1/estimate` | point spec | one evaluated point |
//! | `POST` | `/v1/scenario` | scenario spec | full sweep + error bands, or NDJSON stream |
//! | `POST` | `/v1/plan` | SLO + search range | cheapest satisfying node count |
//!
//! `POST /v1/scenario` with `"stream": true` answers with chunked
//! NDJSON: one line per completed point as the runner's threads finish
//! them (completion order), then a summary tail line with the error
//! bands — first results leave the process while the rest of the grid
//! is still computing. Non-streaming replies are unchanged. A sweep
//! runs on the worker that took it, helped by the runner's scoped
//! threads when the host has more than one CPU and the sweep more than
//! one distinct point; the points the worker evaluates trace under the
//! request's `serve.request → scenario.run`.
//!
//! Every JSON reply — success or failure — carries `"api_version"`,
//! and every failure is the one envelope
//! `{"error": {"code", "message", "field"?}}` (see [`api::ApiError`]):
//! 400 for malformed transport/JSON, 401 when a configured bearer
//! token ([`ServeConfig::token`]) is missing or wrong on a `/v1/*`
//! route, 422 for well-formed requests that fail validation, 405/404
//! for routing, 503 (with `Retry-After`) when the job queue is over
//! [`ServeConfig::max_queue`] — checked both at accept and at dispatch
//! (an estimate answered from the cache takes no queue slot, so it is
//! never shed at dispatch).
//!
//! Concurrent identical queries cost one evaluation: the cache
//! coalesces in-flight computations, so a thundering herd of the same
//! what-if question does the model solve (or simulator run) once and
//! fans the record out. `/v1/plan` rides the same cache.
//!
//! Observability: per-route counters/latency histograms, the
//! connection-level `mr2_serve_open_connections` gauge and per-state
//! `mr2_serve_connection_states{state=…}` gauges (with
//! `mr2_serve_connection_state_seconds` duration histograms), one
//! structured access-log line per request on stderr
//! ([`ServeConfig::access_log`]), and per-span timing breakdowns on
//! `"debug": true` requests.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mr2_obs as obs;
use mr2_scenario::{
    evaluate_point, lookup_point, run_scenario_streaming, PointResult, ResultCache,
};

use crate::api::{self, ApiError};
use crate::http::{
    chunk, render_response, render_stream_head, HttpError, Request, RequestParser, CHUNKED_END,
    CONTENT_TYPE_JSON, CONTENT_TYPE_METRICS, CONTENT_TYPE_NDJSON, CONTENT_TYPE_TEXT,
};
use crate::json::Json;
use crate::net::{Epoll, Event, EventFd, EV_READ, EV_WRITE};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks one).
    pub addr: String,
    /// Worker threads evaluating requests (the event loop is its own
    /// additional thread).
    pub threads: usize,
    /// Shared-cache entry bound (0 = unbounded).
    pub cache_capacity: usize,
    /// Upper bound on points a single `/v1/scenario` may expand to.
    pub max_points: usize,
    /// Upper bound on concurrent jobs one point's workload mix may
    /// carry (entry counts sum). `max_points` bounds the axis product
    /// only; without this a single `{"count": 10^12}` entry would make
    /// one evaluation allocate per-job state until the process dies.
    pub max_jobs_per_point: usize,
    /// Snapshot the cache here (loaded at startup when present).
    pub cache_file: Option<PathBuf>,
    /// How often the persistence thread snapshots a dirty cache.
    pub persist_every: Duration,
    /// Requests served per kept-alive connection before the service
    /// closes it (0 is treated as 1).
    pub keep_alive_requests: usize,
    /// How long an idle kept-alive connection may sit between requests
    /// before the service closes it.
    pub keep_alive_idle: Duration,
    /// Jobs allowed to wait for a worker before the service sheds
    /// load: over this backlog depth, new connections (at accept) and
    /// new evaluation requests (at dispatch) are answered 503
    /// (`Retry-After: 1`) instead of queued, so an overloaded service
    /// degrades with an explicit signal rather than unbounded queueing
    /// delay. Estimates the event loop answers from the cache need no
    /// job and are answered all the same.
    pub max_queue: usize,
    /// Write one structured line per request to stderr (request id,
    /// method, path, status, response bytes, latency).
    pub access_log: bool,
    /// Bearer token required on every `/v1/*` route when set
    /// (`Authorization: Bearer <token>`); `/healthz` and `/metrics`
    /// stay open for probes and scrapes.
    pub token: Option<String>,
    /// Inactivity budget while a request or response is in flight: a
    /// connection that makes no progress (no bytes read or written)
    /// for this long mid-request is closed. The keep-alive *idle* wait
    /// between requests is configured separately
    /// ([`ServeConfig::keep_alive_idle`]).
    pub request_timeout: Duration,
    /// Trace head-sampling rate: every `1-in-N`th finished request
    /// trace is retained in the recent-trace ring (1 keeps all).
    pub trace_sample_one_in: u64,
    /// Tail-keep threshold: traces at least this slow are always
    /// retained, regardless of sampling.
    pub trace_slow: Duration,
    /// Event-loop stall watchdog: an iteration whose *work* phase
    /// (event dispatch + deadline sweep, excluding the epoll wait)
    /// exceeds this budget increments `mr2_serve_loop_stalls_total`
    /// and logs the offending connection states. Zero disables the
    /// watchdog.
    pub loop_stall_budget: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".into(),
            threads: 4,
            cache_capacity: 65_536,
            max_points: 4_096,
            max_jobs_per_point: 256,
            cache_file: None,
            persist_every: Duration::from_secs(30),
            keep_alive_requests: 32,
            keep_alive_idle: Duration::from_secs(5),
            max_queue: 1_024,
            access_log: true,
            token: None,
            request_timeout: Duration::from_secs(10),
            trace_sample_one_in: 16,
            trace_slow: Duration::from_millis(250),
            loop_stall_budget: Duration::from_millis(100),
        }
    }
}

/// Request-layer metric handles, each resolved once and cached in a
/// `OnceLock` static. A registry lookup builds a label key, takes the
/// registry's read lock and clones a handle: on a cache-hit estimate,
/// the dozen a request used to make cost about a tenth of the request.
/// Labelled series are cached per label value, so each series still
/// appears in `/metrics` at its first use; the route table and the
/// connection state machine bound the label values.
mod metrics {
    use std::sync::OnceLock;

    use super::{obs, state_name, ConnState, RouteLabels, ALL_STATES, METHOD_LABELS, ROUTES};

    /// The statuses requests are answered with: each (method, path)
    /// label pair caches one counter per status, and any other status
    /// takes a registry lookup.
    const STATUSES: [u16; 8] = [200, 400, 401, 404, 405, 422, 500, 503];
    /// Path label values: the route table's paths, then `other`.
    const PATHS: usize = ROUTES.len() + 1;

    /// Count one request (`mr2_http_requests_total`) and observe its
    /// handling latency (`mr2_http_request_seconds`).
    pub fn request(labels: RouteLabels, status: u16, seconds: f64) {
        type ByStatus = [OnceLock<obs::Counter>; STATUSES.len()];
        static REQUESTS: [[ByStatus; PATHS]; METHOD_LABELS.len()] =
            [const { [const { [const { OnceLock::new() }; STATUSES.len()] }; PATHS] };
                METHOD_LABELS.len()];
        static LATENCY: [OnceLock<obs::Histogram>; PATHS] = [const { OnceLock::new() }; PATHS];
        let counter = || {
            obs::counter_with(
                "mr2_http_requests_total",
                "HTTP requests served, by method, route, and status.",
                &[
                    ("method", labels.method_label()),
                    ("path", labels.path_label()),
                    ("status", &status.to_string()),
                ],
            )
        };
        match STATUSES.iter().position(|&s| s == status) {
            Some(i) => REQUESTS[labels.method][labels.path][i]
                .get_or_init(counter)
                .inc(),
            None => counter().inc(),
        }
        LATENCY[labels.path]
            .get_or_init(|| {
                obs::histogram_with(
                    "mr2_http_request_seconds",
                    "Request handling latency, parse to response built, by route.",
                    &[("path", labels.path_label())],
                    obs::Buckets::TIME,
                )
            })
            .observe(seconds);
    }

    pub fn requests_served() -> &'static obs::Counter {
        static C: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
        C.get_or_init(|| {
            obs::counter(
                "mr2_serve_requests_total",
                "HTTP requests served, all routes (the /healthz aggregate).",
            )
        })
    }

    pub fn queue_depth() -> &'static obs::Gauge {
        static G: std::sync::OnceLock<obs::Gauge> = std::sync::OnceLock::new();
        G.get_or_init(|| {
            obs::gauge(
                "mr2_serve_queue_depth",
                "Evaluation jobs waiting for a worker thread.",
            )
        })
    }

    pub fn shed() -> &'static obs::Counter {
        static C: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
        C.get_or_init(|| {
            obs::counter(
                "mr2_serve_shed_total",
                "Requests answered 503 because the worker queue was full.",
            )
        })
    }

    pub fn queue_wait() -> &'static obs::Histogram {
        static H: std::sync::OnceLock<obs::Histogram> = std::sync::OnceLock::new();
        H.get_or_init(|| {
            obs::histogram(
                "mr2_serve_queue_wait_seconds",
                "Time an evaluation job waited for a worker thread.",
                obs::Buckets::TIME,
            )
        })
    }

    pub fn open_connections() -> &'static obs::Gauge {
        static G: std::sync::OnceLock<obs::Gauge> = std::sync::OnceLock::new();
        G.get_or_init(|| {
            obs::gauge(
                "mr2_serve_open_connections",
                "Connections currently registered with the event loop.",
            )
        })
    }

    pub fn conn_state(state: ConnState) -> &'static obs::Gauge {
        static G: [OnceLock<obs::Gauge>; ALL_STATES.len()] =
            [const { OnceLock::new() }; ALL_STATES.len()];
        G[state as usize].get_or_init(|| {
            obs::gauge_with(
                "mr2_serve_connection_states",
                "Open connections by state machine state.",
                &[("state", state_name(state))],
            )
        })
    }

    pub fn conn_state_seconds(state: ConnState) -> &'static obs::Histogram {
        static H: [OnceLock<obs::Histogram>; ALL_STATES.len()] =
            [const { OnceLock::new() }; ALL_STATES.len()];
        H[state as usize].get_or_init(|| {
            obs::histogram_with(
                "mr2_serve_connection_state_seconds",
                "Time connections spent in each state before transitioning.",
                &[("state", state_name(state))],
                obs::Buckets::TIME,
            )
        })
    }

    pub fn workers_total() -> &'static obs::Gauge {
        static G: std::sync::OnceLock<obs::Gauge> = std::sync::OnceLock::new();
        G.get_or_init(|| {
            obs::gauge(
                "mr2_serve_workers_total",
                "Worker threads in the evaluation pool.",
            )
        })
    }

    pub fn workers_busy() -> &'static obs::Gauge {
        static G: std::sync::OnceLock<obs::Gauge> = std::sync::OnceLock::new();
        G.get_or_init(|| {
            obs::gauge(
                "mr2_serve_workers_busy",
                "Worker threads currently executing an evaluation job.",
            )
        })
    }

    pub fn loop_iterations() -> &'static obs::Counter {
        static C: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
        C.get_or_init(|| {
            obs::counter(
                "mr2_serve_loop_iterations_total",
                "Event-loop iterations (one epoll wait plus dispatch).",
            )
        })
    }

    pub fn loop_stalls() -> &'static obs::Counter {
        static C: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
        C.get_or_init(|| {
            obs::counter(
                "mr2_serve_loop_stalls_total",
                "Event-loop iterations whose work phase exceeded the stall budget.",
            )
        })
    }

    pub fn loop_wait() -> &'static obs::Histogram {
        static H: std::sync::OnceLock<obs::Histogram> = std::sync::OnceLock::new();
        H.get_or_init(|| {
            obs::histogram(
                "mr2_serve_loop_wait_seconds",
                "Time each event-loop iteration spent blocked in epoll_wait.",
                obs::Buckets::TIME,
            )
        })
    }

    pub fn loop_work() -> &'static obs::Histogram {
        static H: std::sync::OnceLock<obs::Histogram> = std::sync::OnceLock::new();
        H.get_or_init(|| {
            obs::histogram(
                "mr2_serve_loop_work_seconds",
                "Time each event-loop iteration spent dispatching events and sweeping deadlines.",
                obs::Buckets::TIME,
            )
        })
    }

    pub fn uptime() -> &'static obs::Gauge {
        static G: std::sync::OnceLock<obs::Gauge> = std::sync::OnceLock::new();
        G.get_or_init(|| {
            obs::gauge(
                "mr2_serve_uptime_seconds",
                "Seconds since the service started (set at scrape time).",
            )
        })
    }

    pub fn cache_entries() -> &'static obs::Gauge {
        static G: std::sync::OnceLock<obs::Gauge> = std::sync::OnceLock::new();
        G.get_or_init(|| {
            obs::gauge(
                "mr2_cache_entries",
                "Entries resident in the service's shared result cache (set at scrape time).",
            )
        })
    }

    pub fn cache_hit_ratio() -> &'static obs::Gauge {
        static G: std::sync::OnceLock<obs::Gauge> = std::sync::OnceLock::new();
        G.get_or_init(|| {
            obs::gauge(
                "mr2_cache_hit_ratio",
                "hits / (hits + misses) of the service's shared result cache (set at scrape time).",
            )
        })
    }
}

/// Shared state of the event loop and all workers.
struct State {
    cache: ResultCache,
    cfg: ServeConfig,
    started: Instant,
    /// Evaluation jobs dispatched but not yet picked up by a worker —
    /// the backlog the shed decision reads. Per-instance (unlike the
    /// process-global gauge), so embedded servers don't shed on each
    /// other's load.
    queued: AtomicUsize,
    /// Cache mutation stamp at the last successful snapshot, so clean
    /// caches aren't rewritten. The *count* would go stale once the LRU
    /// bound makes insert+evict churn under a constant entry count.
    persisted_stamp: AtomicU64,
    /// In-flight (and recently finished) scenario sweeps, for
    /// `GET /v1/jobs`.
    jobs: Arc<crate::jobs::Jobs>,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub addr: SocketAddr,
    state: Arc<State>,
    stop: Arc<AtomicBool>,
    shutdown_fd: Arc<EventFd>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Stop the event loop (via its shutdown eventfd — no timeouts or
    /// dummy connections involved), drain the workers, snapshot the
    /// cache one last time, and join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.shutdown_fd.notify();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        persist(&self.state);
    }

    /// The shared cache's counters (for tests and embedding).
    pub fn cache_stats(&self) -> mr2_scenario::CacheStats {
        self.state.cache.stats()
    }
}

/// One evaluation request handed to the worker pool.
struct Job {
    slot: usize,
    generation: u64,
    eval: Eval,
    req: Request,
    /// Assigned on the loop when the request was parsed.
    request_id: u64,
    /// The `/v1/estimate` body the loop decoded before its cache lookup
    /// missed; `None` for a body over [`LOOP_DECODE_MAX`] and for the
    /// other evaluations, which the worker decodes.
    estimate: Option<api::EstimateRequest>,
    /// Close the connection after this response (request or cap said so).
    close: bool,
    queued_at: Instant,
}

/// What a worker hands back to the event loop: one complete wire
/// fragment, which the loop only appends to the connection's output
/// buffer (stale generations are dropped — the slot was reused).
struct Completion {
    slot: usize,
    generation: u64,
    bytes: Vec<u8>,
    /// `Some(close)` on the request's last fragment — a whole response,
    /// or a stream's tail — with whether the connection closes after
    /// it; `None` on a stream's head and point chunks, which more
    /// fragments follow.
    last: Option<bool>,
}

/// The workers' side of the completion path: send a fragment, wake the
/// event loop. Send errors mean the loop is gone (shutdown) — dropped.
#[derive(Clone)]
struct CompletionTx {
    tx: mpsc::Sender<Completion>,
    wakeup: Arc<EventFd>,
}

impl CompletionTx {
    fn send(&self, job: &Job, bytes: Vec<u8>, last: Option<bool>) {
        let c = Completion {
            slot: job.slot,
            generation: job.generation,
            bytes,
            last,
        };
        if self.tx.send(c).is_ok() {
            self.wakeup.notify();
        }
    }
}

/// Bind and start the service; returns once the listener is live.
pub fn serve(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let cache = ResultCache::with_capacity(cfg.cache_capacity);
    if let Some(path) = &cfg.cache_file {
        match cache.load(path) {
            Ok(n) if n > 0 => eprintln!("mr2-serve: warmed {n} cache entries from {path:?}"),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => eprintln!("mr2-serve: cache load failed ({path:?}): {e}"),
        }
    }
    let state = Arc::new(State {
        persisted_stamp: AtomicU64::new(cache.mutation_count()),
        cache,
        cfg: cfg.clone(),
        started: Instant::now(),
        queued: AtomicUsize::new(0),
        jobs: Arc::new(crate::jobs::Jobs::default()),
    });
    obs::configure_tracing(cfg.trace_sample_one_in, cfg.trace_slow);
    metrics::workers_total().set(cfg.threads.max(1) as f64);
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    // Fail fast if the readiness primitives are unavailable: create
    // them here, move them into the event-loop thread.
    let epoll = Epoll::new()?;
    let shutdown_fd = Arc::new(EventFd::new()?);
    let completion_fd = Arc::new(EventFd::new()?);

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
    let done = CompletionTx {
        tx: completion_tx,
        wakeup: Arc::clone(&completion_fd),
    };

    // Worker pool: strictly CPU-bound evaluation, never socket I/O.
    let job_rx = Arc::new(Mutex::new(job_rx));
    for i in 0..cfg.threads.max(1) {
        let job_rx = Arc::clone(&job_rx);
        let state = Arc::clone(&state);
        let done = done.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("mr2-serve-worker-{i}"))
                .spawn(move || loop {
                    let next = job_rx.lock().unwrap().recv();
                    let Ok(job) = next else {
                        break; // event loop gone: drain complete
                    };
                    state.queued.fetch_sub(1, Ordering::SeqCst);
                    metrics::queue_depth().dec();
                    metrics::queue_wait().observe(job.queued_at.elapsed().as_secs_f64());
                    metrics::workers_busy().inc();
                    serve_job(job, &state, &done);
                    metrics::workers_busy().dec();
                })
                .expect("spawn worker"),
        );
    }

    // The event loop: owns the listener and every connection.
    {
        let mut el = EventLoop {
            epoll,
            listener,
            state: Arc::clone(&state),
            job_tx,
            completions: completion_rx,
            completion_fd,
            shutdown_fd: Arc::clone(&shutdown_fd),
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
        };
        threads.push(
            std::thread::Builder::new()
                .name("mr2-serve-eventloop".into())
                .spawn(move || el.run())
                .expect("spawn event loop"),
        );
    }

    // Persistence: snapshot the cache while it keeps growing.
    if state.cfg.cache_file.is_some() {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        threads.push(
            std::thread::Builder::new()
                .name("mr2-serve-persist".into())
                .spawn(move || {
                    let tick = Duration::from_millis(200);
                    let mut elapsed = Duration::ZERO;
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(tick);
                        elapsed += tick;
                        if elapsed >= state.cfg.persist_every {
                            elapsed = Duration::ZERO;
                            persist(&state);
                        }
                    }
                })
                .expect("spawn persister"),
        );
    }

    Ok(ServerHandle {
        addr,
        state,
        stop,
        shutdown_fd,
        threads,
    })
}

/// Snapshot the cache if its content changed since the last successful
/// snapshot. The stamp is read *before* saving (a save racing new
/// inserts re-saves on the next tick) and advanced only on success (a
/// failed save stays dirty and retries).
fn persist(state: &State) {
    let Some(path) = &state.cfg.cache_file else {
        return;
    };
    let stamp = state.cache.mutation_count();
    if stamp == state.persisted_stamp.load(Ordering::SeqCst) {
        return;
    }
    match state.cache.save(path) {
        Ok(()) => state.persisted_stamp.store(stamp, Ordering::SeqCst),
        Err(e) => eprintln!("mr2-serve: cache save failed ({path:?}): {e}"),
    }
}

/// Epoll token of the listener fd.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token of the shutdown eventfd.
const TOKEN_SHUTDOWN: u64 = u64::MAX - 1;
/// Epoll token of the worker-completion eventfd.
const TOKEN_COMPLETION: u64 = u64::MAX - 2;
/// How long one `epoll_wait` may block; bounds deadline-sweep latency.
const TICK_MS: i32 = 50;
/// Read buffer size per readiness event.
const READ_CHUNK: usize = 16 * 1024;
/// Reply bytes a connection may hold before the loop answers no further
/// pipelined request on it until the socket has taken them all.
const MAX_OUT: usize = 1 << 20;
/// The largest `/v1/estimate` body the event loop decodes itself, to
/// answer it from the cache. A typical body decodes in a few
/// microseconds, but decoding grows with the body (a 4 MiB `trace_ms`
/// array takes a tenth of a second), and the loop serves every other
/// connection meanwhile; larger bodies go to the pool undecoded.
const LOOP_DECODE_MAX: usize = 16 * 1024;

/// Connection state machine states (the `state` label on
/// `mr2_serve_connection_states`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for / reading the next request's header block.
    ReadHead,
    /// Header parsed, body bytes outstanding.
    ReadBody,
    /// Request dispatched; a worker is evaluating it.
    Waiting,
    /// Response bytes buffered, draining to the socket.
    Writing,
    /// A chunked NDJSON sweep is in flight: fragments arrive from the
    /// worker as points complete and drain to the socket as they come.
    Streaming,
    /// Kept alive between requests, nothing buffered either way.
    Idle,
}

fn state_name(s: ConnState) -> &'static str {
    match s {
        ConnState::ReadHead => "read_head",
        ConnState::ReadBody => "read_body",
        ConnState::Waiting => "waiting",
        ConnState::Writing => "writing",
        ConnState::Streaming => "streaming",
        ConnState::Idle => "idle",
    }
}

const ALL_STATES: [ConnState; 6] = [
    ConnState::ReadHead,
    ConnState::ReadBody,
    ConnState::Waiting,
    ConnState::Writing,
    ConnState::Streaming,
    ConnState::Idle,
];

/// One client connection owned by the event loop.
struct Connection {
    stream: TcpStream,
    parser: RequestParser,
    state: ConnState,
    state_since: Instant,
    /// Guards worker completions against slot reuse: a completion whose
    /// generation doesn't match the slot's current occupant is stale.
    generation: u64,
    /// Pending output (rendered responses / stream fragments).
    out: Vec<u8>,
    out_pos: usize,
    /// Requests served on this connection (keep-alive cap).
    served: usize,
    /// Close once `out` drains (protocol error, `Connection: close`,
    /// keep-alive cap, or peer EOF).
    close_after_write: bool,
    /// Read side saw EOF; stop reading, finish writing, then close.
    peer_closed: bool,
    /// Inactivity deadline; `None` while a worker owns the request.
    deadline: Option<Instant>,
    /// Currently registered epoll interest (EV_* bits).
    interest: u32,
}

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    state: Arc<State>,
    job_tx: mpsc::Sender<Job>,
    completions: mpsc::Receiver<Completion>,
    completion_fd: Arc<EventFd>,
    shutdown_fd: Arc<EventFd>,
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    next_generation: u64,
}

impl EventLoop {
    fn run(&mut self) {
        if self
            .epoll
            .add(self.listener.as_raw_fd(), TOKEN_LISTENER, EV_READ)
            .and_then(|()| {
                self.epoll
                    .add(self.shutdown_fd.raw(), TOKEN_SHUTDOWN, EV_READ)
            })
            .and_then(|()| {
                self.epoll
                    .add(self.completion_fd.raw(), TOKEN_COMPLETION, EV_READ)
            })
            .is_err()
        {
            eprintln!("mr2-serve: event loop registration failed; not serving");
            return;
        }
        // Touch every state series so a scrape sees the full family
        // from the first request on.
        for s in ALL_STATES {
            metrics::conn_state(s).add(0.0);
        }
        let stall_budget = self.state.cfg.loop_stall_budget;
        'events: loop {
            let wait_started = Instant::now();
            let Ok(events) = self.epoll.wait(TICK_MS) else {
                break;
            };
            metrics::loop_wait().observe(wait_started.elapsed().as_secs_f64());
            let work_started = Instant::now();
            let dispatched = events.len();
            for ev in events {
                match ev.token {
                    TOKEN_SHUTDOWN => break 'events,
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_COMPLETION => self.drain_completions(),
                    slot => self.conn_event(slot as usize, ev),
                }
            }
            self.sweep_deadlines();
            let worked = work_started.elapsed();
            metrics::loop_work().observe(worked.as_secs_f64());
            metrics::loop_iterations().inc();
            if !stall_budget.is_zero() && worked > stall_budget {
                metrics::loop_stalls().inc();
                eprintln!(
                    "mr2-serve: event-loop stall: {:.1}ms work (budget {:.0}ms), \
                     {dispatched} events, conns {}",
                    worked.as_secs_f64() * 1e3,
                    stall_budget.as_secs_f64() * 1e3,
                    self.conn_state_summary(),
                );
            }
        }
        for slot in 0..self.conns.len() {
            self.close_slot(slot);
        }
        // Dropping `job_tx` (with self at thread exit) lets the workers
        // drain and exit; `shutdown` joins them after this thread.
    }

    /// `state=count` pairs for every open connection, for the stall
    /// watchdog's log line (e.g. `waiting=3 streaming=1`).
    fn conn_state_summary(&self) -> String {
        let mut counts = [0usize; ALL_STATES.len()];
        for conn in self.conns.iter().flatten() {
            if let Some(i) = ALL_STATES.iter().position(|s| *s == conn.state) {
                counts[i] += 1;
            }
        }
        let parts: Vec<String> = ALL_STATES
            .iter()
            .zip(counts)
            .filter(|(_, n)| *n > 0)
            .map(|(s, n)| format!("{}={n}", state_name(*s)))
            .collect();
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join(" ")
        }
    }

    /// Accept everything the backlog holds; shed with an immediate 503
    /// when the job queue is over the bound.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    if self.state.queued.load(Ordering::SeqCst) >= self.state.cfg.max_queue {
                        metrics::shed().inc();
                        let err = ApiError::backpressure();
                        let bytes = render_response(
                            err.status,
                            &err.body(),
                            CONTENT_TYPE_JSON,
                            true,
                            &[("Retry-After", "1")],
                        );
                        // Best-effort: a fresh socket's send buffer is
                        // empty, so this lands in one write.
                        let _ = (&stream).write_all(&bytes);
                        continue; // drop = close
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let fd = stream.as_raw_fd();
        if self.epoll.add(fd, slot as u64, EV_READ).is_err() {
            self.free.push(slot);
            return;
        }
        self.next_generation += 1;
        let now = Instant::now();
        self.conns[slot] = Some(Connection {
            stream,
            parser: RequestParser::new(),
            state: ConnState::ReadHead,
            state_since: now,
            generation: self.next_generation,
            out: Vec::new(),
            out_pos: 0,
            served: 0,
            close_after_write: false,
            peer_closed: false,
            deadline: Some(now + self.state.cfg.request_timeout),
            interest: EV_READ,
        });
        metrics::open_connections().inc();
        metrics::conn_state(ConnState::ReadHead).inc();
    }

    fn close_slot(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        metrics::conn_state(conn.state).dec();
        metrics::conn_state_seconds(conn.state).observe(conn.state_since.elapsed().as_secs_f64());
        metrics::open_connections().dec();
        self.free.push(slot);
        // `conn.stream` drops here, closing the fd.
    }

    /// Record a state transition on the per-state gauges/histograms.
    fn enter(&mut self, slot: usize, new: ConnState) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.state == new {
            return;
        }
        metrics::conn_state(conn.state).dec();
        metrics::conn_state_seconds(conn.state).observe(conn.state_since.elapsed().as_secs_f64());
        metrics::conn_state(new).inc();
        conn.state = new;
        conn.state_since = Instant::now();
    }

    /// Readiness on a connection: pull bytes, then make progress.
    fn conn_event(&mut self, slot: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if ev.hung_up() && (conn.peer_closed || conn.parser.is_full()) {
            // The loop is not reading this connection, so no read can
            // fail on the reset: close as a failed read would.
            self.close_slot(slot);
            return;
        }
        if ev.readable() && !conn.peer_closed {
            let mut scratch = [0u8; READ_CHUNK];
            // A full parser holds a request a worker has yet to finish
            // and the largest request that may follow it: leave further
            // bytes in the socket, where TCP flow control pushes back.
            while !conn.parser.is_full() {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.parser.feed(&scratch[..n]);
                        if n < scratch.len() {
                            break; // drained; level-triggered epoll re-reports otherwise
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close_slot(slot);
                        return;
                    }
                }
            }
        }
        self.progress(slot);
    }

    /// Drive one connection as far as it can go right now: parse and
    /// answer/dispatch buffered requests, drain output, then settle
    /// into the resting state (deadline + epoll interest).
    fn progress(&mut self, slot: usize) {
        self.advance_parser(slot);
        if !self.flush(slot) {
            return; // closed on write error
        }
        self.settle(slot);
    }

    /// Parse every complete buffered request, answering inline or
    /// dispatching to the pool, until input runs dry, a worker takes
    /// over, or the connection is marked for close. Pipelined requests
    /// are answered strictly in order: responses append to `out` as
    /// requests complete, and parsing halts while a worker owns one.
    /// Parsing also halts while `out` holds more than [`MAX_OUT`] bytes
    /// the socket will not take: a client that pipelines without
    /// reading its replies then fills the parser, the loop stops reading
    /// it, and TCP flow control holds it back.
    fn advance_parser(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if matches!(conn.state, ConnState::Waiting | ConnState::Streaming)
                || conn.close_after_write
            {
                return;
            }
            if conn.out.len() > MAX_OUT {
                let drained =
                    self.flush(slot) && self.conns[slot].as_ref().is_some_and(|c| c.out.is_empty());
                if !drained {
                    return;
                }
                continue;
            }
            match conn.parser.try_next() {
                Err(HttpError { status, message }) => {
                    // Protocol errors poison the framing; always close.
                    let err = ApiError::from_status(status, message);
                    let bytes =
                        render_response(err.status, &err.body(), CONTENT_TYPE_JSON, true, &[]);
                    conn.out.extend_from_slice(&bytes);
                    conn.close_after_write = true;
                    return;
                }
                Ok(None) => {
                    if conn.parser.take_continue() {
                        conn.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                    }
                    return;
                }
                Ok(Some(req)) => self.handle_request(slot, req),
            }
        }
    }

    /// Answer or dispatch one parsed request.
    fn handle_request(&mut self, slot: usize, req: Request) {
        let max_requests = self.state.cfg.keep_alive_requests.max(1);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.served += 1;
        let close = !req.keep_alive || conn.served >= max_requests;
        if close {
            // Stop parsing past this request; the response carries
            // `Connection: close` and the drain closes the socket.
            conn.close_after_write = true;
        }
        let generation = conn.generation;
        let request_id = obs::next_request_id();

        if !authorized(&req, &self.state.cfg) {
            let resp = Response::error(ApiError::unauthorized());
            self.respond_inline(slot, &req, request_id, resp, close, &[]);
            return;
        }

        let eval = match resolve(&req) {
            Ok(Endpoint::Worker(eval)) => eval,
            // Cheap GET routes, 404s, and 405s are answered inline on
            // the loop — no queue round-trip.
            Ok(Endpoint::Inline(handler)) => {
                let started = Instant::now();
                let resp = guarded(|| handler(&req, &self.state));
                finish_request(&req, &resp, request_id, started, &self.state);
                self.append_response(slot, resp, close, &[]);
                return;
            }
            Err(e) => {
                let resp = Response::error(e);
                return self.respond_inline(slot, &req, request_id, resp, close, &[]);
            }
        };
        // An estimate the cache can answer takes no queue slot, so it is
        // answered even while the queue is full.
        let mut estimate = None;
        if matches!(eval, Eval::Estimate) && req.body.len() <= LOOP_DECODE_MAX {
            let started = Instant::now();
            match guarded(|| estimate_on_loop(&req, &self.state, request_id)) {
                OnLoop::Answered(resp) => {
                    finish_request(&req, &resp, request_id, started, &self.state);
                    self.append_response(slot, resp, close, &[]);
                    return;
                }
                OnLoop::Miss(r) => estimate = Some(r),
            }
        }
        if self.state.queued.load(Ordering::SeqCst) >= self.state.cfg.max_queue {
            metrics::shed().inc();
            let resp = Response::error(ApiError::backpressure());
            self.respond_inline(slot, &req, request_id, resp, close, &[("Retry-After", "1")]);
            return;
        }
        self.state.queued.fetch_add(1, Ordering::SeqCst);
        metrics::queue_depth().inc();
        let job = Job {
            slot,
            generation,
            eval,
            req,
            request_id,
            estimate,
            close,
            queued_at: Instant::now(),
        };
        if self.job_tx.send(job).is_err() {
            // Workers gone (shutdown underway).
            self.state.queued.fetch_sub(1, Ordering::SeqCst);
            metrics::queue_depth().dec();
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.close_after_write = true;
            }
            return;
        }
        self.enter(slot, ConnState::Waiting);
    }

    /// Instrument and buffer an inline (non-worker) response.
    fn respond_inline(
        &mut self,
        slot: usize,
        req: &Request,
        request_id: u64,
        resp: Response,
        close: bool,
        extra_headers: &[(&str, &str)],
    ) {
        finish_request(req, &resp, request_id, Instant::now(), &self.state);
        self.append_response(slot, resp, close, extra_headers);
    }

    fn append_response(
        &mut self,
        slot: usize,
        resp: Response,
        close: bool,
        extra_headers: &[(&str, &str)],
    ) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            let bytes = render_response(
                resp.status,
                &resp.body,
                resp.content_type,
                close,
                extra_headers,
            );
            conn.out.extend_from_slice(&bytes);
        }
    }

    /// Drain the connection's output buffer as far as the socket
    /// accepts. Returns `false` when the connection was closed (write
    /// error / peer reset).
    fn flush(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_slot(slot);
                    return false;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_slot(slot);
                    return false;
                }
            }
        }
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        }
        true
    }

    /// Put a connection to rest after activity: close it if it's done,
    /// otherwise pick its state, inactivity deadline, and epoll
    /// interest. Deadlines measure inactivity — any read/write progress
    /// re-arms them.
    fn settle(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let drained = conn.out.is_empty();
        let busy = matches!(conn.state, ConnState::Waiting | ConnState::Streaming);
        if drained && !busy && (conn.close_after_write || conn.peer_closed) {
            self.close_slot(slot);
            return;
        }
        let new_state = if busy {
            conn.state
        } else if !drained {
            ConnState::Writing
        } else if conn.parser.in_body() {
            ConnState::ReadBody
        } else if conn.parser.mid_request() || conn.served == 0 {
            ConnState::ReadHead
        } else {
            ConnState::Idle
        };
        self.enter(slot, new_state);
        let cfg = &self.state.cfg;
        let (keep_alive_idle, request_timeout) = (cfg.keep_alive_idle, cfg.request_timeout);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        conn.deadline = match new_state {
            // The evaluation's duration is the worker's business, and a
            // streaming sweep produces chunks at its own pace.
            ConnState::Waiting | ConnState::Streaming if drained => None,
            ConnState::Idle => Some(Instant::now() + keep_alive_idle),
            _ => Some(Instant::now() + request_timeout),
        };
        let mut interest = 0;
        if !conn.peer_closed && !conn.parser.is_full() {
            interest |= EV_READ;
        }
        if !drained {
            interest |= EV_WRITE;
        }
        if interest != conn.interest {
            let fd = conn.stream.as_raw_fd();
            let _ = self.epoll.modify(fd, slot as u64, interest);
            conn.interest = interest;
        }
    }

    /// Apply worker completions: append rendered bytes to the right
    /// connection (dropping stale generations) and make progress.
    fn drain_completions(&mut self) {
        self.completion_fd.drain();
        while let Ok(c) = self.completions.try_recv() {
            let slot = c.slot;
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                continue; // connection closed while the worker ran
            };
            if conn.generation != c.generation {
                continue; // slot reused; response belongs to a dead conn
            }
            conn.out.extend_from_slice(&c.bytes);
            match c.last {
                Some(close) => {
                    if close {
                        conn.close_after_write = true;
                    }
                    self.enter(slot, ConnState::Writing);
                }
                None => self.enter(slot, ConnState::Streaming),
            }
            // `Writing` re-opens the parser: pipelined requests queued
            // behind the finished one are answered now, in order.
            self.progress(slot);
        }
    }

    /// Close connections whose inactivity deadline expired (slow-loris
    /// headers, stalled bodies, idle keep-alives, wedged writes).
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let expired = self.conns[slot]
                .as_ref()
                .and_then(|c| c.deadline)
                .is_some_and(|d| now >= d);
            if expired {
                self.close_slot(slot);
            }
        }
    }
}

/// Bearer-token check: `/v1/*` routes require the configured token;
/// `/healthz` and `/metrics` stay open (liveness probes and scrapes
/// shouldn't need secrets). The scheme is case-insensitive, the token
/// itself is not.
fn authorized(req: &Request, cfg: &ServeConfig) -> bool {
    let Some(token) = &cfg.token else {
        return true;
    };
    if !req.path.starts_with("/v1/") {
        return true;
    }
    let Some(auth) = &req.authorization else {
        return false;
    };
    match auth.split_once(' ') {
        Some((scheme, value)) => scheme.eq_ignore_ascii_case("bearer") && value.trim() == token,
        None => false,
    }
}

/// Per-request bookkeeping shared by the inline and worker paths:
/// route metrics, the request-served aggregate, and the access log.
fn finish_request(
    req: &Request,
    resp: &Response,
    request_id: u64,
    started: Instant,
    state: &State,
) {
    let latency = started.elapsed();
    metrics::request(RouteLabels::of(req), resp.status, latency.as_secs_f64());
    metrics::requests_served().inc();
    if state.cfg.access_log {
        eprintln!(
            "mr2-serve: request id={request_id} method={} path={} status={} bytes={} micros={}",
            req.method,
            req.path,
            resp.status,
            resp.body.len(),
            latency.as_micros(),
        );
    }
}

/// Evaluate one dispatched request on a worker thread and hand the
/// rendered response (or stream fragments) back to the event loop.
fn serve_job(mut job: Job, state: &State, done: &CompletionTx) {
    let request_id = job.request_id;
    let started = Instant::now();
    let resp = match job.eval {
        // The loop passes on the body it decoded; a body over
        // `LOOP_DECODE_MAX` is decoded here.
        Eval::Estimate => {
            let decoded = job.estimate.take();
            guarded(
                || match decoded.map_or_else(|| decode_estimate(&job.req, state), Ok) {
                    Ok(r) => traced_estimate(&r, request_id, || {
                        evaluate_point(&r.point, &r.backends, &state.cache)
                    }),
                    Err(e) => Response::error(e),
                },
            )
        }
        Eval::Plan => guarded(|| plan_response(&job.req, state, request_id)),
        // A scenario body is decoded once, here: `"stream": true` takes
        // the chunked NDJSON path; a non-streaming or undecodable
        // scenario is a single rendered response.
        Eval::Scenario => match decode_scenario(&job.req) {
            Ok(r) if r.stream => {
                return stream_scenario(job, r, state, done, request_id, started);
            }
            Ok(r) => guarded(|| scenario_response(&r, state, request_id)),
            Err(e) => Response::error(e),
        },
    };
    finish_request(&job.req, &resp, request_id, started, state);
    let bytes = render_response(resp.status, &resp.body, resp.content_type, job.close, &[]);
    done.send(&job, bytes, Some(job.close));
}

/// Run a request handler, answering a panic with a 500. A panicked
/// debug request may strand its thread-local trace; clear it so later
/// requests start clean.
fn guarded<T: From<Response>>(handler: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        let _ = obs::end_trace();
        Response::error(ApiError::internal("internal error: evaluation panicked")).into()
    })
}

/// Run a `"stream": true` scenario: validation errors are ordinary
/// one-shot responses; past validation, the response head goes out
/// immediately and every completed point follows as its own NDJSON
/// chunk, with the error-band summary as the tail line. The `debug`
/// trace breakdown only applies to non-streaming replies (there is no
/// single reply object to attach it to).
fn stream_scenario(
    job: Job,
    r: api::ScenarioRequest,
    state: &State,
    done: &CompletionTx,
    request_id: u64,
    started: Instant,
) {
    let scenario = &r.scenario;
    if let Some(resp) = scenario_bounds_error(scenario, state) {
        finish_request(&job.req, &resp, request_id, started, state);
        let bytes = render_response(resp.status, &resp.body, resp.content_type, job.close, &[]);
        done.send(&job, bytes, Some(job.close));
        return;
    }

    let head = render_stream_head(200, CONTENT_TYPE_NDJSON, job.close);
    done.send(&job, head, None);
    // The stream traces like any other request (visible in
    // /v1/trace/recent when retained) and registers with the jobs
    // registry so /v1/jobs shows its progress while chunks flow.
    let traced = obs::begin_trace(request_id, "/v1/scenario");
    let progress = state.jobs.register(
        request_id,
        scenario.name.clone(),
        scenario.num_points(),
        true,
    );
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let _root = obs::span("serve.request");
        let _run = obs::span("scenario.run");
        run_scenario_streaming(scenario, &state.cache, &|pr: PointResult| {
            progress.point_done(&pr);
            let line = api::sweep_line(&pr);
            done.send(&job, chunk(line.as_bytes()), None);
        })
    }));
    drop(progress);
    if traced {
        let _ = obs::finish_trace();
    }
    let (mut tail_line, status, close) = match &result {
        Ok(sweep) => (api::sweep_tail_json(sweep).render(), 200, job.close),
        // The head (a 200) is on the wire; all that's left is to make
        // the failure explicit in-band and close.
        Err(_) => (
            ApiError::internal("internal error: evaluation panicked").body(),
            200,
            true,
        ),
    };
    tail_line.push('\n');
    let mut bytes = chunk(tail_line.as_bytes());
    bytes.extend_from_slice(CHUNKED_END);
    let resp = Response {
        status,
        body: tail_line,
        content_type: CONTENT_TYPE_NDJSON,
    };
    finish_request(&job.req, &resp, request_id, started, state);
    done.send(&job, bytes, Some(close));
}

/// A routed response: status, body, and the body's content type
/// (everything but `/metrics` is JSON).
struct Response {
    status: u16,
    body: String,
    content_type: &'static str,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            content_type: CONTENT_TYPE_JSON,
        }
    }

    /// Render an [`ApiError`] as the unified error envelope.
    fn error(err: ApiError) -> Response {
        Response::json(err.status, err.body())
    }

    /// Render a success reply, stamping the versioned envelope fields
    /// (`api_version`, plus `deprecations` when the request leaned on
    /// deprecated fields) onto the body first.
    fn ok(mut body: Json, deprecations: &[&'static str]) -> Response {
        api::stamp_reply(&mut body, deprecations);
        Response::json(200, body.render())
    }

    /// Finish the request's trace (when `traced`) and send a written
    /// reply, with the trace breakdown under `"debug"` when asked for.
    fn reply(mut reply: api::Reply, traced: bool, debug: bool) -> Response {
        if let Some(trace) = traced.then(obs::finish_trace).flatten() {
            if debug {
                reply.attach_debug(&api::debug_json(&trace));
            }
        }
        Response::json(200, reply.body)
    }
}

fn jobs_bound_error(jobs: usize, state: &State) -> ApiError {
    ApiError::validation(format!(
        "workload mix carries {jobs} concurrent jobs, above the service bound of {}",
        state.cfg.max_jobs_per_point
    ))
}

/// The scenario-level resource bounds shared by the streaming and
/// non-streaming paths.
fn scenario_bounds_error(scenario: &mr2_scenario::Scenario, state: &State) -> Option<Response> {
    let n = scenario.num_points();
    if n > state.cfg.max_points {
        return Some(Response::error(ApiError::validation(format!(
            "scenario expands to {n} points, above the service bound of {}",
            state.cfg.max_points
        ))));
    }
    // `max_points` bounds the axis product; each mix value must also
    // keep its job total within the per-point bound.
    scenario
        .workload_jobs()
        .into_iter()
        .map(|(jobs, _)| jobs)
        .find(|&jobs| jobs > state.cfg.max_jobs_per_point)
        .map(|jobs| Response::error(jobs_bound_error(jobs, state)))
}

/// Where a route is answered.
#[derive(Clone, Copy)]
enum Endpoint {
    /// A cheap read, answered inline on the event loop.
    Inline(fn(&Request, &State) -> Response),
    /// An evaluation, dispatched to the worker pool unless the loop can
    /// answer it ([`Eval::Estimate`]).
    Worker(Eval),
}

/// The evaluations the worker pool serves.
#[derive(Clone, Copy)]
enum Eval {
    /// `/v1/estimate`: the loop answers a body it fails to decode, or
    /// whose records are all cached ([`estimate_on_loop`]); the pool
    /// evaluates the rest.
    Estimate,
    Scenario,
    Plan,
}

/// The route table: dispatch, the 405 fallback, and the metric path
/// labels all read these rows, so adding an endpoint is one new row.
const ROUTES: &[(&str, &str, Endpoint)] = &[
    ("GET", "/healthz", Endpoint::Inline(healthz_response)),
    ("GET", "/metrics", Endpoint::Inline(metrics_response)),
    (
        "GET",
        "/v1/cache/stats",
        Endpoint::Inline(cache_stats_response),
    ),
    (
        "GET",
        "/v1/trace/recent",
        Endpoint::Inline(trace_recent_response),
    ),
    ("GET", "/v1/jobs", Endpoint::Inline(jobs_response)),
    ("GET", "/debug/profile", Endpoint::Inline(profile_response)),
    ("POST", "/v1/estimate", Endpoint::Worker(Eval::Estimate)),
    ("POST", "/v1/scenario", Endpoint::Worker(Eval::Scenario)),
    ("POST", "/v1/plan", Endpoint::Worker(Eval::Plan)),
];

/// The `method` label values: the route table's methods, then `other`.
const METHOD_LABELS: [&str; 3] = ["GET", "POST", "other"];

/// A request's metric labels, as indices into [`METHOD_LABELS`] and
/// into [`ROUTES`] for the path (`ROUTES.len()` stands for `other`).
/// Methods and paths the route table does not name collapse to
/// `other`, so a client sending random ones can't mint unbounded label
/// values.
#[derive(Clone, Copy)]
struct RouteLabels {
    method: usize,
    path: usize,
}

impl RouteLabels {
    fn of(req: &Request) -> RouteLabels {
        let other_method = METHOD_LABELS.len() - 1;
        RouteLabels {
            method: METHOD_LABELS[..other_method]
                .iter()
                .position(|m| *m == req.method)
                .unwrap_or(other_method),
            path: ROUTES
                .iter()
                .position(|(_, p, _)| *p == req.path)
                .unwrap_or(ROUTES.len()),
        }
    }

    fn method_label(self) -> &'static str {
        METHOD_LABELS[self.method]
    }

    fn path_label(self) -> &'static str {
        ROUTES.get(self.path).map_or("other", |&(_, p, _)| p)
    }
}

/// The request's endpoint, or the routing error it earns: the same path
/// under another method is a 405, an unknown path a 404.
fn resolve(req: &Request) -> Result<Endpoint, ApiError> {
    match ROUTES
        .iter()
        .find(|(m, p, _)| *m == req.method && *p == req.path)
    {
        Some(&(_, _, endpoint)) => Ok(endpoint),
        None if ROUTES.iter().any(|(_, p, _)| *p == req.path) => {
            Err(ApiError::method_not_allowed())
        }
        None => Err(ApiError::not_found()),
    }
}

fn healthz_response(_: &Request, state: &State) -> Response {
    Response::ok(
        Json::obj([
            ("status", Json::str("ok")),
            (
                "uptime_secs",
                Json::num(state.started.elapsed().as_secs_f64()),
            ),
            ("requests_total", metrics::requests_served().value().into()),
        ]),
        &[],
    )
}

fn cache_stats_response(_: &Request, state: &State) -> Response {
    Response::ok(api::cache_stats_json(&state.cache.stats()), &[])
}

fn jobs_response(_: &Request, state: &State) -> Response {
    Response::ok(api::jobs_json(&state.jobs.snapshot()), &[])
}

/// Render the process registry, refreshing the scrape-time gauges
/// (uptime, cache entries, hit ratio) first. The cache's monotonic
/// counters are incremented live by the cache itself.
fn metrics_response(_: &Request, state: &State) -> Response {
    metrics::uptime().set(state.started.elapsed().as_secs_f64());
    let stats = state.cache.stats();
    metrics::cache_entries().set(stats.entries as f64);
    metrics::cache_hit_ratio().set(api::hit_ratio(&stats));
    Response {
        status: 200,
        body: obs::render(),
        content_type: CONTENT_TYPE_METRICS,
    }
}

/// `GET /v1/trace/recent` — retained request traces as span trees.
/// With `?id=<request_id>` returns just the matching trace (an empty
/// list when it wasn't retained — still a 200, absence is an answer);
/// without it, the sampling knobs, the newest retained traces, and the
/// all-time slowest.
fn trace_recent_response(req: &Request, _: &State) -> Response {
    if let Some(id) = req.query_param("id") {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(ApiError::validation("`id` must be an unsigned integer"));
        };
        let traces: Vec<Json> = obs::find_trace(id)
            .iter()
            .map(|t| api::trace_json(t))
            .collect();
        return Response::ok(Json::obj([("traces", Json::Arr(traces))]), &[]);
    }
    let (one_in, slow) = obs::tracing_config();
    let render = |traces: Vec<std::sync::Arc<obs::Trace>>| {
        Json::Arr(traces.iter().map(|t| api::trace_json(t)).collect())
    };
    Response::ok(
        Json::obj([
            (
                "sampling",
                Json::obj([
                    ("one_in", one_in.into()),
                    ("slow_ms", Json::num(slow.as_secs_f64() * 1e3)),
                ]),
            ),
            ("recent", render(obs::recent_traces(16))),
            ("slowest", render(obs::slowest_traces())),
        ]),
        &[],
    )
}

/// `GET /debug/profile` — the span-path continuous profiler. The
/// default render is collapsed-stack lines (`a;b;c <self_micros>`)
/// that pipe straight into `flamegraph.pl`; `?format=json` renders the
/// merged call tree instead, and `?reset=1` clears the aggregate.
fn profile_response(req: &Request, _: &State) -> Response {
    if req.query_param("reset") == Some("1") {
        obs::profile::reset();
        return Response {
            status: 200,
            body: "profile reset\n".into(),
            content_type: CONTENT_TYPE_TEXT,
        };
    }
    if req.query_param("format") == Some("json") {
        let forest = obs::profile::tree();
        return Response::ok(Json::obj([("profile", api::profile_json(&forest))]), &[]);
    }
    Response {
        status: 200,
        body: obs::profile::render_collapsed(),
        content_type: CONTENT_TYPE_TEXT,
    }
}

/// Decode a `/v1/estimate` body and hold its workload to the per-point
/// jobs bound; failures map to the 400/422 envelope.
fn decode_estimate(req: &Request, state: &State) -> Result<api::EstimateRequest, ApiError> {
    let r = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(api::parse_estimate_request)
        .map_err(ApiError::from_parse)?;
    let jobs = r.point.total_jobs();
    if jobs > state.cfg.max_jobs_per_point {
        return Err(jobs_bound_error(jobs, state));
    }
    Ok(r)
}

/// Evaluate a decoded estimate and write its reply. Every evaluation
/// runs under a trace context (retention decides what survives); the
/// root serve.request span nests the evaluation spans (point.model,
/// point.sim) and the encode span into the breakdown tree.
fn traced_estimate(
    r: &api::EstimateRequest,
    request_id: u64,
    evaluate: impl FnOnce() -> PointResult,
) -> Response {
    let traced = obs::begin_trace(request_id, "/v1/estimate");
    let reply = {
        let _root = obs::span("serve.request");
        let result = evaluate();
        let _enc = obs::span("response.encode");
        api::estimate_reply(&result, &r.deprecations)
    };
    Response::reply(reply, traced, r.debug)
}

/// What the event loop made of a `/v1/estimate` body.
enum OnLoop {
    /// Answered on the loop: a decode or validation error, or a reply
    /// from records all ready in the cache (or a panic's 500).
    Answered(Response),
    /// A record is missing or in flight: the pool evaluates the decoded
    /// request.
    Miss(api::EstimateRequest),
}

impl From<Response> for OnLoop {
    fn from(resp: Response) -> OnLoop {
        OnLoop::Answered(resp)
    }
}

/// Decode a `/v1/estimate` body on the event loop, and answer it there
/// when it does not decode or when every record it needs is ready in
/// the cache. A request passed on leaves no span, trace or count.
fn estimate_on_loop(req: &Request, state: &State, request_id: u64) -> OnLoop {
    let r = match decode_estimate(req, state) {
        Ok(r) => r,
        Err(e) => return OnLoop::Answered(Response::error(e)),
    };
    match lookup_point(&r.point, &r.backends, &state.cache) {
        Some(cached) => OnLoop::Answered(traced_estimate(&r, request_id, || {
            cached.into_result(&r.point)
        })),
        None => OnLoop::Miss(r),
    }
}

/// Decode a `/v1/scenario` body; failures map to the 400/422 envelope.
fn decode_scenario(req: &Request) -> Result<api::ScenarioRequest, ApiError> {
    std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(api::parse_scenario_request)
        .map_err(ApiError::from_parse)
}

/// Run a decoded non-streaming scenario and render the whole sweep.
fn scenario_response(r: &api::ScenarioRequest, state: &State, request_id: u64) -> Response {
    let scenario = &r.scenario;
    if let Some(resp) = scenario_bounds_error(scenario, state) {
        return resp;
    }
    // This worker evaluates points itself, so their spans nest under
    // scenario.run; points a runner helper thread evaluates record
    // into the profiler only, since helpers do not inherit the trace.
    // The sweep also registers with the jobs registry so
    // GET /v1/jobs can watch its progress mid-flight.
    let traced = obs::begin_trace(request_id, "/v1/scenario");
    let reply = {
        let _root = obs::span("serve.request");
        let progress = state.jobs.register(
            request_id,
            scenario.name.clone(),
            scenario.num_points(),
            false,
        );
        let sweep = {
            let _run = obs::span("scenario.run");
            run_scenario_streaming(scenario, &state.cache, &|pr| progress.point_done(&pr))
        };
        drop(progress);
        let _enc = obs::span("response.encode");
        api::sweep_reply(&sweep)
    };
    Response::reply(reply, traced, r.debug)
}

fn plan_response(req: &Request, state: &State, request_id: u64) -> Response {
    match std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(api::parse_plan_request)
    {
        Ok(r) => {
            let jobs = r.plan.mix.total_jobs();
            if jobs > state.cfg.max_jobs_per_point {
                return Response::error(jobs_bound_error(jobs, state));
            }
            // Each bisection probe is a cached analytic point
            // evaluation; under the trace the probes show up inside
            // the plan.solve span.
            let traced = obs::begin_trace(request_id, "/v1/plan");
            let root = obs::span("serve.request");
            let result = {
                let _solve = obs::span("plan.solve");
                mr2_scenario::plan(&r.plan, &state.cache)
            };
            match result {
                Ok(result) => {
                    let reply = {
                        let _enc = obs::span("response.encode");
                        api::plan_reply(&r.plan, &result, &r.deprecations)
                    };
                    drop(root);
                    Response::reply(reply, traced, r.debug)
                }
                Err(e) => {
                    drop(root);
                    if traced {
                        let _ = obs::finish_trace();
                    }
                    Response::error(ApiError::validation(e))
                }
            }
        }
        Err(e) => Response::error(ApiError::from_parse(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_route_method_keeps_its_metric_label() {
        for (method, path, _) in ROUTES {
            let req = Request {
                method: method.to_string(),
                path: path.to_string(),
                query: String::new(),
                body: Vec::new(),
                keep_alive: true,
                authorization: None,
            };
            let labels = RouteLabels::of(&req);
            assert_eq!(
                (labels.method_label(), labels.path_label()),
                (*method, *path)
            );
        }
    }
}
