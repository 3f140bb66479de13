//! `sllt-server`: a persistent CTS job daemon (`slltd`), the
//! workspace's one batch runner, and its robustness primitives.
//!
//! The daemon accepts jobs over a Unix-domain or localhost TCP socket
//! speaking line-delimited JSON ([`proto`]), schedules them on a
//! bounded worker pool where **every attempt runs in a re-exec'd child
//! process** ([`supervise`]) so a panic or runaway allocation in one
//! job can never take down the service or its neighbors, and journals
//! every job transition through the PR-5 checksummed appender
//! ([`state`]) so a SIGKILLed daemon restarts with `--resume` and picks
//! up exactly where the journal ends.
//!
//! Robustness building blocks, public so tests and benchmarks can drive
//! them directly:
//!
//! * [`supervise::run_supervised`] — deadline-SIGKILL and
//!   SIGINT-then-SIGKILL child supervision;
//! * [`backoff::backoff_ms`] — deterministic jittered exponential
//!   retry backoff (pure function of seed and attempt);
//! * [`jobs::config_by_name`] — the named constraint configs.
//!
//! Everything here is std-only: sockets, threads, and processes from
//! the standard library, JSON from `sllt-obs`.

pub mod backoff;
pub mod cache;
pub mod client;
pub mod jobs;
pub mod net;
pub mod proto;
pub mod server;
pub mod state;
pub mod supervise;

pub use client::Client;
pub use net::Endpoint;
pub use server::{serve, ServerConfig};
