//! High-throughput query serving over persisted multi-placement
//! structures.
//!
//! The paper's economics are *generate once, query many* (Fig. 1): the
//! expensive nested-annealing generation runs offline; synthesis loops
//! then instantiate placements in microseconds. This crate is the "many"
//! side — the serving subsystem the ROADMAP's north star ("heavy traffic
//! from millions of users") needs:
//!
//! * [`CompiledQueryIndex`] — a structure's own query index, its
//!   interval rows in flat sorted arrays plus fixed-width candidate
//!   bitsets, built from the entries when the structure loads: one
//!   binary search and one bitset `AND` per block dimension (the paper's
//!   Eq. 4), **zero heap allocation per query**. It is the structure's
//!   only row form, so [`mps_core::MultiPlacementStructure::query`]
//!   answers from it too. Re-exported from `mps-core`.
//! * [`StructureRegistry`] — the set of persisted artifacts a
//!   server answers for, loaded from a directory and hot-swapped behind
//!   an `Arc`: readers take lock-free snapshots; a reload swaps the whole
//!   set atomically while in-flight queries finish on the old one.
//! * [`AnswerCache`] — a sharded LRU answer cache keyed by
//!   `(structure, Dims)` in front of the compiled index: hits replay the
//!   exact stored answer (bit-identical by construction), a registry
//!   hot-reload invalidates all-or-nothing, and hit/miss/eviction
//!   counters surface through `metrics`.
//! * [`Server`] + the `mps-serve` binary — a line-delimited JSON protocol
//!   (`query`, `batch_query`, `instantiate`, `reload`,
//!   `list_structures`, `metrics`, `trace`, `refine`) over stdin/stdout
//!   and localhost TCP, with
//!   request ids + pipelining (many requests in flight per connection,
//!   responses tagged and out of order on TCP) and a [`WorkerPool`]
//!   behind heavy tagged TCP requests: a tagged batch of 256+ vectors
//!   or a `refine` run takes one worker slot. Every connection runs one I/O-free connection
//!   engine (bytes in, replies out). TCP connections are owned by a
//!   fixed pool of shared-nothing shard event loops (one per core by
//!   default) that drive it from sockets, so tens of thousands of idle
//!   or bursty clients cost no stacks and no context-switch storms; TCP
//!   needs a unix readiness backend (epoll on Linux, `poll(2)`
//!   elsewhere). Stdin drives the same engine through a blocking
//!   adapter and answers in request order. Malformed input of any
//!   kind is answered with a typed error line; the server never dies on
//!   input — a panicking handler costs one `internal` error response,
//!   never a poisoned lock. The full wire contract is specified in
//!   `crates/serve/PROTOCOL.md`.
//!
//! # Quickstart
//!
//! ```sh
//! cargo run --release -p mps-bench --bin table2 -- --effort 0.3 --save out/structures
//! cargo run --release -p mps-serve -- out/structures
//! # then, per line on stdin:
//! # {"kind":"query","structure":"circ02","dims":[[30,40],[25,25],[25,25],[60,20],[40,40],[40,40]]}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
#[cfg(feature = "serde")]
pub mod frame;
mod pool;
#[cfg(feature = "serde")]
mod protocol;
#[cfg(feature = "serde")]
mod refine;
#[cfg(feature = "serde")]
mod registry;
#[cfg(feature = "serde")]
mod server;
#[cfg(feature = "serde")]
mod shard;
mod telemetry;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning. Every mutex in this crate
/// guards data that is valid at any interleaving (monotonic counters, an
/// id high-water mark, fully rendered response lines, an LRU map), so a
/// panic on one connection's thread must cost that one request — not,
/// via a poisoned `.expect`, every other connection that ever touches
/// the lock again.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

pub use cache::{AnswerCache, CacheClass, CacheLookup, CacheStats, MissToken};
#[doc(hidden)]
pub use mps_core::IndexPlan;
pub use mps_core::{CompiledQueryIndex, QueryScratch};
pub use pool::{PoolError, WorkerPool};
#[cfg(feature = "serde")]
pub use protocol::{
    error_response, parse_envelope, parse_request, tagged_error_response, Envelope, EnvelopeError,
    ErrorKind, Request, RequestError, REQUEST_KINDS,
};
#[cfg(feature = "serde")]
pub use registry::{ReloadReport, ServeError, ServedStructure, StructureRegistry};
#[cfg(feature = "serde")]
pub use server::{Server, ServerConfig};
pub use telemetry::{
    HeatSnapshot, HistogramSnapshot, LaneStats, LatencyHistogram, SlowRing, Stage, StageTrace,
    StructureHeat, Telemetry, TraceEntry, HEAT_BINS, HISTOGRAM_BUCKETS, STAGE_COUNT,
};
