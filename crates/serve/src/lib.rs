//! # mule-serve
//!
//! Planning-as-a-service: the CHB/WTCTP planning pipeline behind a
//! dependency-free HTTP/1.1 daemon, with a deterministic plan cache,
//! request coalescing, explicit backpressure and a load generator.
//!
//! Every prior layer of this workspace runs as a one-shot process; this
//! crate is the serving dimension of the ROADMAP's north star. The
//! layers, bottom-up:
//!
//! * [`json`] — the JSON value (parse + serialise) of
//!   [`mule_obs::json`], re-exported: the vendored `serde` shim is a
//!   no-op, so the wire format lives there. Objects preserve insertion
//!   order, which makes serialisation deterministic.
//! * [`api`] — request/response documents. [`api::plan_response_json`]
//!   is a pure function of the [`mule_workload::ScenarioSpec`]; equal
//!   specs produce byte-identical documents.
//! * [`cache`] — a deterministic LRU over response **bytes**, keyed by
//!   the spec's canonical-form fingerprint, with single-flight
//!   coalescing: concurrent identical requests compute once and share
//!   the result — plus a last-good side store backing stale-on-error.
//! * [`http`] — minimal HTTP/1.1 framing with hard size limits.
//! * [`breaker`] — per-route circuit breakers: K consecutive compute
//!   panics/timeouts open a route (fast 503) until a half-open probe
//!   succeeds.
//! * [`server`] — the daemon: bounded admission (`503` + `Retry-After`
//!   beyond `queue_depth`), connection handlers on a long-lived
//!   [`mule_par::TaskPool`], `/healthz`, `/metrics`, `/v1/plan` and
//!   `/v1/simulate`.
//! * [`loadgen`] — the benchmarking client: N requests over M keep-alive
//!   connections, merged latency histograms, client-observed hit rate,
//!   the tracked `BENCH_server.json`.
//!
//! `patrolctl serve` and `patrolctl loadgen` drive the two ends;
//! `docs/SERVER.md` is the API reference and ops guide,
//! `docs/RELIABILITY.md` covers fault injection and graceful
//! degradation (deadlines, breakers, stale-on-error).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod api;
pub mod breaker;
pub mod cache;
pub mod http;
pub mod loadgen;
pub mod server;

pub use api::{plan_response_json, ApiError};
pub use breaker::{BreakerSnapshot, BreakerState, CircuitBreaker};
pub use cache::{CacheOutcome, PlanCache};
pub use loadgen::{run_loadgen, LoadReport, LoadgenParams};
pub use mule_obs::json;
pub use mule_obs::json::{JsonError, JsonValue};
pub use server::{start, ServerConfig, ServerHandle};
