//! Fault-tolerant dynamic-batching query serving for the IVF index.
//!
//! This crate is the traffic-facing layer of the workspace: a hand-rolled
//! `std::net` TCP server speaking the checksummed [`protocol`] (GKSQ frames),
//! a [`batcher`] that groups whatever is queued into the IVF engine's
//! 64-query blocks whenever the backend is free (an idle server answers a
//! lone request at once), and a [`client`] with
//! classification-aware retries.  Robustness is the design centre:
//!
//! * **Deadlines** — a per-request budget bounds how long the request may
//!   queue behind a busy backend; expired requests are answered
//!   `DEADLINE_EXCEEDED`, never dropped.
//! * **Backpressure** — a bounded admission queue sheds `OVERLOADED` with
//!   two-watermark hysteresis instead of queueing without bound.
//! * **Hostile clients** — frames are length-capped before allocation and
//!   CRC-32C-checksummed; slow-loris and silent connections hit typed
//!   timeouts.
//! * **Panic containment** — search runs through
//!   [`ivf::IvfIndex::try_batch_search`], so a worker panic fails one batch
//!   with `INTERNAL` and the process keeps serving.
//! * **Graceful drain** — a signal or `Shutdown` frame stops admission,
//!   answers everything in flight, then joins every thread.
//! * **Durable mutation** — a [`MutableBackend`] serves INSERT/DELETE/COMPACT
//!   frames through the same batcher under an `RwLock`'d
//!   [`ivf::MutableStore`]: every mutation is journalled and fsynced before
//!   its ack is sent (so acks are non-idempotent — [`retry_mutation`] retries
//!   only `OVERLOADED`), and compaction hot-swaps the checkpoint atomically
//!   while searches keep flowing.
//!
//! A minimal round trip against an in-process server:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use serve::batcher::SearchBackend;
//! use serve::client::Client;
//! use serve::protocol::SearchRequest;
//! use serve::server::{Server, ServerConfig};
//!
//! // Any SearchBackend serves; production wraps ivf::IvfIndex in IvfBackend.
//! struct Nearest;
//! impl SearchBackend for Nearest {
//!     fn dim(&self) -> usize { 2 }
//!     fn search_batch(
//!         &self,
//!         queries: &vecstore::VectorSet,
//!         r: usize,
//!         _nprobe: usize,
//!     ) -> vecstore::Result<Vec<Vec<knn_graph::Neighbor>>> {
//!         Ok(queries.rows().map(|_| vec![knn_graph::Neighbor::new(0, 0.0); r]).collect())
//!     }
//! }
//!
//! let mut server = Server::start(Arc::new(Nearest), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr(), Duration::from_secs(5)).unwrap();
//! let results = client.search(&SearchRequest {
//!     id: 1, deadline_ms: 0, r: 3, nprobe: 1, dim: 2, queries: vec![0.5, 0.5],
//! }).unwrap();
//! assert_eq!(results[0].len(), 3);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod signal;

pub use batcher::{
    Batcher, BatcherConfig, BatcherStats, IvfBackend, MutableBackend, MutableIvfBackend,
    MutationOutcome, Reply, SearchBackend,
};
pub use client::{
    retry_mutation, retry_search, Client, ClientError, RetryPolicy, Sleeper, ThreadSleeper,
};
pub use metrics::MetricsServer;
pub use protocol::{
    MutateResponse, MutationRequest, SearchRequest, SearchResponse, StatsFormat, StatsRequest,
    StatsResponse, Status, TracedSearchRequest, TracedSearchResponse, WireMutation,
};
pub use server::{Server, ServerConfig, ServerStats, StopReason};
