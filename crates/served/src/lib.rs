//! `rake-served` — an HTTP/1.1 JSON compilation service over the
//! [`driver`] layer, built entirely on `std` (no external crates, like
//! the rest of the workspace).
//!
//! The binary [`rake-served`](../rake_served/index.html) serves:
//!
//! * `POST /compile` — S-expression Halide exprs plus per-request knobs
//!   (`lanes`, `timeout_ms`, `validate`) → synthesized HVX programs with
//!   cost and cache statistics, or the baseline program for an expression
//!   that did not compile. Duplicate
//!   expressions are deduplicated within a request by the driver and
//!   across concurrent requests by a single-flight key registry.
//! * `GET /metrics` — Prometheus text exposition ([`metrics`]).
//! * `GET /healthz` — liveness (503 while draining).
//!
//! Admission control bounds concurrent synthesis with a permit gate and
//! a bounded wait queue (429 + `Retry-After` past it); oversized bodies
//! are 413; a client that disconnects mid-compile has its synthesis
//! cooperatively cancelled via [`synth::cancel`]. One process-wide
//! content-addressed cache backs every connection, and `--cache`/`--log`
//! make the warm state survive restarts. Each compilation verifies against
//! a cold memo of its own; only the verifier's SMT proof cache is shared
//! process-wide.
//!
//! The companion binary `rake-client` speaks the same protocol from the
//! command line; rakebench's serving workloads drive a server for its
//! latency and throughput.

pub mod http;
pub mod metrics;
pub mod server;
pub mod supervisor;
pub mod worker;

pub use metrics::Metrics;
pub use server::{serve, ServerConfig, ServerHandle};
pub use supervisor::{PoolConfig, WorkerPool};
