//! `hintm-serve`: the sweep-as-a-service daemon (`hintm serve`).
//!
//! This crate turns the sweep runner into a long-lived HTTP service —
//! std-only, hand-rolled HTTP/1.1 on [`std::net::TcpListener`]:
//!
//! - `queue` — the shared `JobQueue`: submitted sweeps become cells
//!   handed out to the daemon's executor threads, with cross-job
//!   deduplication (an in-flight cell key blocks identical queued cells
//!   until its report lands in the result cache, so they resolve as
//!   instant hits).
//! - [`http`] — minimal request/response plumbing plus the blocking
//!   client the tests and the benchmark drive the daemon with.
//! - `api` — JSON ↔ domain mapping (sweep specs, job snapshots).
//! - `server` — the daemon itself: acceptor, handler pool, executor
//!   threads, and the route table (`POST /sweeps`, `GET /sweeps/{id}`,
//!   `GET /sweeps/{id}/report`, `GET /sweeps/{id}/cells/{idx}/trace`,
//!   `GET /stats`, `POST /shutdown`).
//!
//! The `hintm` binary lives here (this is the top crate of the
//! workspace's runner stack: `hintm` → `hintm-runner` → `hintm-serve`),
//! so `hintm serve` can reach both the CLI layer and the daemon.

mod api;
pub mod http;
mod queue;
mod server;

pub use server::{ServeConfig, Server};
