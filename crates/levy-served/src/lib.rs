//! `levy-served`: a std-only HTTP service around the Lévy-walk
//! simulation engine.
//!
//! The crate packages the deterministic simulation core (`levy-sim` and
//! friends) behind a small daemon, `levyd`, with the properties a
//! shared deployment needs:
//!
//! - **Canonical queries.** Request bodies are validated into one
//!   canonical form ([`request::Query`]); field order, defaulted
//!   fields, and result-irrelevant knobs (timeouts) never change the
//!   identity of a query.
//! - **Content-addressed results.** The canonical form hashes to a
//!   cache key; because simulation is seeded and bit-identical across
//!   thread counts, a cached body is byte-for-byte the body a fresh
//!   run would produce ([`cache`]).
//! - **Request coalescing.** Identical queries in flight share one
//!   simulation; N concurrent cold requests cost one run ([`server`]).
//! - **Backpressure and cancellation.** A bounded queue rejects
//!   overload with `503 + Retry-After`; abandoned jobs are cancelled
//!   cooperatively mid-simulation ([`levy_sim::CancelToken`]).
//!
//! Everything is built on `std` alone: HTTP framing ([`http`]), JSON
//! (re-used from `levy-sim`), signal handling ([`signal`]), and the
//! client ([`client`]) used by `levyc` and the tests.
//!
//! Module map of the daemon:
//!
//! - [`server`]: lifecycle, the accept loop (with its open-connection
//!   cap) and one request per connection; its private `query` module
//!   owns the `POST /v1/query` path (admission, the job queue and
//!   workers, waiting, the cluster hop and relay, buffered and streamed
//!   rendering), its private `routes` module every other endpoint and
//!   the JSON renderers;
//! - [`cluster`]: ring placement, peer health, and the peer calls, each
//!   of which records its own outcome against the peer's health;
//! - `background` (private): the replicator (write-behind, handoff),
//!   the peer prober and the metrics-history ticker, each given only
//!   the handles it uses;
//! - [`engine`], [`request`], [`cache`], [`wirecodec`]: query execution,
//!   validation, the two-tier result cache and the binary codec.

// `signal` needs two libc declarations; everything else is safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod background;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod engine;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod request;
pub mod server;
#[allow(unsafe_code)]
pub mod signal;
pub mod wirecodec;

pub use cache::{CacheConfig, CacheTier, CachedBody, DiskStore, ResultCache, StdDisk};
pub use client::{Client, StreamReader};
pub use cluster::{Cluster, ClusterConfig, RemoteRoute, RoutePlan};
pub use fault::{Fault, FaultPlan};
pub use http::{Request, Response};
pub use metrics::Stats;
pub use request::Query;
pub use server::{Server, ServerConfig};
