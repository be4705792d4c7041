//! # rambo-server — serving over a fold-over tier catalog
//!
//! The paper's operational story has two halves. Construction ends with
//! "a one-time processing allows us to create several versions of RAMBO
//! with varying sizes and FP rates" (§5.3, Table 4) — the fold-over
//! catalog. Serving 170TB "at interactive speed" to many concurrent
//! clients then requires a query path that picks the right version per
//! request and answers repeated work from a cache instead of re-probing
//! it. This crate is that serving path, std-only:
//!
//! * [`Catalog`] — several fold-over versions of one index opened
//!   **zero-copy** out of a single shared `Arc<[u8]>` buffer
//!   ([`rambo_core::Rambo::open_view_at`]), each tier annotated with its
//!   metadata-predicted Lemma-4.1 query FPR. A
//!   request's FPR budget routes it to the *smallest* tier that satisfies
//!   the budget: loose budgets run in the folded, cache-friendlier
//!   versions, tight budgets in the full build.
//! * [`Server`] — **one evaluation path**: every query runs on the thread
//!   that asks it, with a query scratch borrowed from a shared pool (the
//!   index is immutable, so no query waits for another). A request already
//!   past its deadline is answered [`ServerError::DeadlineExceeded`]
//!   unevaluated. Leaving [`Server::scope`] returns a final [`ServerStats`]
//!   snapshot of per-tier latency, throughput, hit and evaluated/cached
//!   counters and the slow-query log ([`SlowQuery`]).
//! * [`ResultCache`] — a sharded, byte-bounded LRU over answered queries,
//!   keyed by `(tier, canonical term-set key)` and invalidated by a
//!   catalog version stamp: hot §3.3.1 sequence windows are answered
//!   without evaluating at all.
//! * [`TenantRegistry`] — many named **mutable** indexes in one process
//!   (one RAMBO matrix each, behind per-tenant quotas and result caches). A
//!   single live index is a one-tenant registry; [`TenantRegistry::freeze`]
//!   snapshots a tenant for [`Catalog::builder`].
//! * [`serve_tcp`] / [`serve_tenant_tcp`] — optional TCP fronts over
//!   `std::net`: length-prefixed binary frames ([`wire`]) over a catalog
//!   server or one tenant, RESP2 text over a registry, all on one
//!   single-threaded readiness reactor that answers each request as it
//!   decodes and blocks in `poll(2)` until a socket is ready (a stalled
//!   client holds a buffer, not a thread, and cannot block shutdown).
//!   [`TcpClient`] is the matching blocking client, with connect/read/write
//!   timeouts so a dead peer can never block a caller indefinitely — the
//!   building block of the `rambo-cluster` coordinator's connection pools.
//!   A cluster shard node registers its identity via
//!   [`ServeOptions::manifest`], served to `HELLO` requests.
//!
//! Every tier evaluator probes through the portable word-parallel kernels
//! of [`rambo_core::kernel`] — one compilation, no server configuration.
//!
//! ```
//! use rambo_core::{Rambo, RamboParams};
//! use rambo_server::{Catalog, Server, ServerConfig};
//! use std::time::Duration;
//!
//! // A small index: 16 buckets, 3 repetitions.
//! let mut index = Rambo::new(RamboParams::flat(16, 3, 1 << 12, 2, 7)).unwrap();
//! for d in 0..32u64 {
//!     index
//!         .insert_document(&format!("doc{d}"), (0..50).map(|t| d << 16 | t))
//!         .unwrap();
//! }
//! // Three fold-over tiers: 16, 8 and 4 buckets.
//! let catalog = Catalog::builder().base(&index).halving(2).build().unwrap();
//! let (reply, stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
//!     handle
//!         .query(&[3 << 16 | 9], 0.0, Duration::from_secs(1))
//!         .unwrap()
//! });
//! assert!(reply.docs.contains(&3));
//! assert_eq!(reply.tier, 0); // budget 0.0 → most accurate tier
//! assert_eq!(stats.total_completed(), 1);
//! ```

// One foreign call, `poll(2)`, confined to `poll.rs` — the only `allow`
// below; CI fails if the keyword shows up in any other file of this crate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod catalog;
#[allow(unsafe_code)]
mod poll;
mod reactor;
mod resp;
mod server;
mod stats;
mod tcp;
mod tenant;
pub mod wire;

pub use cache::{CacheStats, ResultCache};
pub use catalog::{Catalog, CatalogBuilder, CatalogError, TierInfo, DEFAULT_CACHE_BYTES};
pub use resp::{serve_tenant_tcp, term_of, TenantServeOptions};
pub use server::{
    QueryOptions, QueryReply, Server, ServerConfig, ServerConfigBuilder, ServerError, ServerHandle,
};
pub use stats::{ServerStats, SlowQuery, TierStats};
pub use tcp::{serve_tcp, serve_tcp_with, ServeOptions, TcpClient, TcpClientError};
pub use tenant::{TenantError, TenantOptions, TenantQuotas, TenantRegistry, TenantStats};
