//! # mr2-serve — online capacity planning over the scenario engine
//!
//! The paper's models exist to answer capacity-planning questions —
//! "how long will this job mix take on that cluster?" — and this crate
//! answers them online: a long-running, dependency-free HTTP/1.1
//! service (`std::net` + a fixed thread pool, hand-rolled JSON — the
//! build environment has no crates.io access) wrapping
//! [`mr2_scenario`]'s batch runner with its
//! [`mr2_scenario::ResultCache`] as shared state.
//!
//! * [`serve`] / [`ServeConfig`] (module [`server`]): the service —
//!   `POST /v1/estimate` (one point, open-arrival λ supported),
//!   `POST /v1/scenario` (a full declarative sweep, answered by the
//!   batch runner on the worker that took it), `POST /v1/plan` (the *inverse* question:
//!   the cheapest node count meeting an SLO at a given arrival rate,
//!   solved by bisection over cached point evaluations),
//!   `GET /v1/cache/stats`, `GET /healthz`;
//! * [`json`]: minimal RFC 8259 encode/decode;
//! * [`http`]: just-enough HTTP/1.1: a push-based request parser and
//!   response rendering for the event loop;
//! * [`api`]: the wire types — strict request decoding into
//!   [`mr2_scenario::Scenario`] / [`mr2_scenario::EvalPoint`] /
//!   [`mr2_scenario::PlanRequest`], response encoding of sweeps, error
//!   bands, plans, and cache counters, and the unified versioned
//!   envelope: every reply carries `"api_version"`, every failure is
//!   `{"error": {"code", "message", "field"?}}` ([`api::ApiError`]),
//!   and legacy request shapes draw a `"deprecations"` list.
//!
//! The shared cache is schema-versioned, LRU-bounded, and coalesces
//! in-flight evaluations, so concurrent identical queries cost exactly
//! one model solve (or simulator run), and a configured snapshot file
//! makes warm answers survive restarts.
//!
//! ```
//! use mr2_serve::{serve, ServeConfig};
//! use std::io::{Read, Write};
//!
//! let handle = serve(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let mut conn = std::net::TcpStream::connect(handle.addr).unwrap();
//! write!(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.contains("\"status\":\"ok\""));
//! handle.shutdown();
//! ```

pub mod api;
pub mod http;
pub mod jobs;
pub mod json;
pub mod net;
pub mod server;

pub use json::{Json, JsonError};
pub use server::{serve, ServeConfig, ServerHandle};
