//! # aesz-server
//!
//! Compression-as-a-service for the AE-SZ reproduction: a std-only TCP
//! daemon speaking the length-prefixed [`AESP`
//! protocol](aesz_repro::metrics::protocol) with existing `AESC`/`AESA`
//! container bytes as payloads.
//!
//! The deployment story of the paper (one trained network serving every
//! snapshot of an application) needs models to be *resident*: training
//! dominates end-to-end latency, so a per-file CLI pays it on every
//! invocation while a daemon pays it once. [`Server`] keeps a
//! [`SharedRegistry`](aesz_repro::SharedRegistry) behind an `RwLock` and
//! forks per-request instances under a read lock. Models trained over the
//! wire stay registered there and are shared by every worker; a model
//! found in the `--models` sidecar directory of the content-addressed
//! [`ModelStore`](aesz_repro::ModelStore) is built by each request that
//! names it, through the same resolver as every library decode path.
//!
//! Resource discipline:
//!
//! * **caps before allocation** — the declared body length is checked
//!   against [`ServerConfig::max_request_bytes`] before a single body byte
//!   is read, and raw fields against [`ServerConfig::max_field_elems`]
//!   before their data is touched;
//! * **bounded concurrency** — a fixed worker pool
//!   ([`rayon::pool::WorkPool`]) serves connections; past the connection
//!   cap or the queue cap the acceptor answers with a typed `Busy`
//!   response instead of buffering, so load sheds at the edge;
//! * **bounded per-connection memory** — `Decompress` bodies stream from
//!   the socket through
//!   [`StreamFieldDecoder`](aesz_repro::StreamFieldDecoder) in fixed
//!   slabs; the input is never buffered whole.
//!
//! `health` and `stats` endpoints expose uptime, request/byte counters,
//! per-codec counts, queue depth, and model-cache hit/resolution counts
//! summed over the decodes' resolvers
//! ([`ServerStats`](aesz_repro::metrics::protocol::ServerStats)).

#![forbid(unsafe_code)]

pub mod client;
pub mod config;
// Socket-facing parse paths carry the workspace's no-panic contract (the
// `aesz-lint` deny-set plus the clippy header, mirroring the wire modules).
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod conn;
pub mod handler;
pub mod server;
pub mod state;

pub use client::{ClientError, RemoteClient};
pub use config::ServerConfig;
pub use server::{Server, ServerHandle};
pub use state::ServerState;
