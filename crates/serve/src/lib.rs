//! `wsccl-serve` — batched low-latency embedding/ETA serving.
//!
//! A [`Server`] owns one dedicated thread: a plain blocking loop that waits
//! on the request queue, answers requests in batches, and (optionally)
//! polls a checkpoint file for hot reload between batches. Any number of
//! threads hold cheap [`Client`] handles; their embed/ETA calls are
//! coalesced into batched f32 forward passes through the active SIMD kernel
//! backend, answered from a sharded LRU path-embedding cache when warm, and
//! keep flowing across hot checkpoint reloads (atomic `Arc` swap; zero
//! dropped requests). When the thread exits — by shutdown or by a panic —
//! the queue closes: queued and later calls return
//! [`ServeError::Closed`] instead of blocking forever.
//!
//! ```no_run
//! # use wsccl_serve::{Server, ServeConfig};
//! # fn demo(rep: wsccl_core::TrainedRepresenter,
//! #         path: wsccl_roadnet::Path, dep: wsccl_traffic::SimTime) {
//! let server = Server::spawn(rep, ServeConfig::default());
//! let client = server.client();
//! let embedding = client.embed(&path, dep).unwrap();
//! let stats = server.shutdown();
//! # let _ = (embedding, stats);
//! # }
//! ```
//!
//! See DESIGN.md §12 for the architecture (serve loop, batcher, cache key
//! semantics, reload protocol, error budget).

pub mod cache;
pub mod channel;
pub mod server;

pub use cache::{path_hash, CacheKey, CacheStats, EmbeddingCache};
pub use server::{Client, ServeConfig, ServeError, ServeStats, Server};

/// Crate version baked into `BENCH_serve.json`; the bench runner warns when
/// the recorded numbers come from a different version than the tree.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
