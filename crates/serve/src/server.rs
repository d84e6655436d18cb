//! Request dispatch: the engine behind the `mps-serve` binary.
//!
//! [`Server::handle_line`] turns one protocol line into one response
//! line. Streams run through one per-connection engine, the
//! [`Connection`](crate::shard::Connection) state machine, which has two
//! callers: [`Server::serve`] pumps any `BufRead`/`Write` pair through
//! it, answering in request order (stdin and tests), and
//! [`Server::serve_tcp`] accepts connections onto a fixed pool of
//! shared-nothing [shard](crate::shard) event loops, where heavy tagged
//! requests run on the worker pool and come back out of order, matched
//! by their `req` tag. All of them share the same registry snapshots,
//! worker pool and [`AnswerCache`]. TCP needs a unix readiness backend
//! (epoll on Linux, `poll(2)` elsewhere); without one `serve_tcp` returns
//! the `Unsupported` error. The server
//! never dies on input: a malformed line yields a typed error response,
//! and a panicking handler is caught and answered as an `internal`
//! error. A panic can also never poison the server: every shared lock
//! recovers via [`lock_recover`](crate::lock_recover) (the guarded
//! data — counters, rendered lines, id high-water marks — is valid at
//! any interleaving), so one crashing request cannot take down the
//! other connections.

use crate::cache::{AnswerCache, CacheClass, CacheLookup};
use crate::pool::WorkerPool;
use crate::protocol::{
    id_value, ok_header, parse_envelope, tagged_error_response, ErrorKind, Request, RequestError,
};
use crate::registry::{ServedStructure, StructureRegistry};
use crate::shard::{Connection, ShardSet};
use crate::telemetry::{HistogramSnapshot, Stage, StageTrace, Telemetry};
use mps_core::PlacementId;
use mps_geom::Dims;
use mps_placer::Placement;
use serde::{Map, Serialize, Value};
use std::io::{self, BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tagged TCP batches at or above this many vectors run on the worker
/// pool, one job per batch, instead of on the shard thread.
pub(crate) const HEAVY_BATCH_THRESHOLD: usize = 256;

/// How many worst-request records the telemetry slow ring keeps between
/// two `trace` drains.
const SLOW_RING_CAPACITY: usize = 32;

/// Nanoseconds elapsed since `t`, saturated into `u64` (584 years).
pub(crate) fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds between two instants, saturating both ways — for spans
/// that share one clock read as the end of one and the start of the
/// next.
fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// How one rendered reply leaves a heavy (pooled) request: the shard
/// event loop hands completions back to the owning shard's inbox.
/// [`Server::submit_heavy`] guarantees exactly one invocation per
/// submitted request, panics included.
pub(crate) type ResponseSink = Arc<dyn Fn(Reply) + Send + Sync>;

/// One fully rendered response, ready for the wire: a JSON line (the
/// writer appends the `\n`) or a self-delimiting binary frame (see
/// [`crate::frame`]) for requests that opted in with `"encoding":"bin"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Reply {
    Line(String),
    Frame(Vec<u8>),
}

/// Construction knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker pool threads behind heavy tagged TCP requests: batches of
    /// 256+ vectors and triggered refinement runs, one job each (clamped
    /// to at least 1).
    pub workers: usize,
    /// Total answer-cache capacity in entries; 0 disables the cache.
    pub cache_entries: usize,
    /// Answer-cache shard count (clamped to `[1, cache_entries]`).
    pub cache_shards: usize,
    /// Connection-shard event loops behind [`Server::serve_tcp`]: each
    /// owns a subset of the accepted connections via a non-blocking
    /// readiness loop. 0 means one per available core.
    pub shards: usize,
    /// Ceiling on concurrently open TCP connections; an accept beyond it
    /// is answered with a single typed `overloaded` error line and
    /// closed (counted under `connections.refused` in `metrics`). 0 means
    /// unlimited.
    pub max_connections: usize,
    /// Whether the telemetry layer records (per-stage latency
    /// histograms, per-structure query tallies and dimension heatmaps,
    /// the slow-request ring).
    /// Defaults to on — recording is a handful of relaxed atomic adds
    /// per request. Off, every recording call short-circuits and the
    /// `metrics` response reports `"enabled":false` (the loadgen
    /// overhead gate measures exactly this difference).
    pub telemetry: bool,
    /// Whether [`Server::spawn_refiner`] actually starts the background
    /// refinement worker (off by default — refinement spends anneal
    /// cycles and rewrites artifacts, so it is strictly opt-in). The
    /// synchronous `refine` protocol request works either way.
    pub refine: bool,
    /// Seconds between background refinement passes (clamped to at
    /// least 1). Only meaningful with `refine` on.
    pub refine_interval_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            cache_entries: 4096,
            cache_shards: 8,
            shards: 0,
            max_connections: 4096,
            telemetry: true,
            refine: false,
            refine_interval_secs: 30,
        }
    }
}

impl ServerConfig {
    /// The effective shard count: `shards`, or the core count when 0.
    #[must_use]
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.shards
        }
    }
}

/// What [`Server::admit`] decided about one input line.
pub(crate) enum Admitted {
    /// Blank line: ignored, no response.
    Blank,
    /// Refused at the framing layer; the rendered error response.
    Reply(String),
    /// Accepted; dispatch it (pooled when tagged and heavy on TCP,
    /// inline otherwise).
    Run {
        id: Option<u64>,
        request: Request,
        /// Time `admit` spent parsing the line, carried so the request's
        /// slow-ring record can account for it (the parse stage
        /// histogram was already fed on the admitting thread).
        parse_ns: u64,
    },
}

/// Telemetry context one admitted request carries into
/// [`Server::complete`]: where it runs and how long admission and the
/// pool queue already cost it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReqCtx {
    /// Parse time from `admit`, for the slow-ring total.
    pub parse_ns: u64,
    /// Queue wait between `submit_heavy` and the worker picking the job
    /// up; 0 for inline requests.
    pub pool_ns: u64,
}

impl ReqCtx {
    /// Context for a request dispatched inline on the admitting thread.
    pub(crate) fn inline(parse_ns: u64) -> Self {
        Self {
            parse_ns,
            pool_ns: 0,
        }
    }
}

/// Ties the `connections_open` gauge to a connection's actual lifetime:
/// the decrement lives in `Drop`, so it runs on clean close, on I/O
/// error, and — the case a plain `fetch_sub` after the serve call used
/// to miss — when the connection's thread panics mid-serve. A leaked
/// gauge is not cosmetic: `max_connections` admission reads it.
#[derive(Debug)]
pub(crate) struct OpenConnGuard {
    server: Arc<Server>,
}

impl OpenConnGuard {
    fn new(server: Arc<Server>) -> Self {
        server.connections_open.fetch_add(1, Ordering::Relaxed);
        Self { server }
    }
}

impl Drop for OpenConnGuard {
    fn drop(&mut self) {
        self.server.connections_open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A successful dispatch: a response object still to render, a cached
/// line replayed verbatim (byte-identical to the render that produced
/// it), or an already-encoded binary frame awaiting its request tag.
enum Outcome {
    Map(Map),
    Rendered(String),
    Frame(Vec<u8>),
}

/// The query-serving engine: a registry snapshot discipline on the read
/// side, a sharded LRU [`AnswerCache`] in front of the compiled query
/// indexes, a worker pool for heavy tagged requests, and
/// counters for the `metrics` request.
#[derive(Debug)]
pub struct Server {
    registry: Arc<StructureRegistry>,
    config: ServerConfig,
    pool: WorkerPool,
    cache: AnswerCache,
    requests: AtomicU64,
    errors: AtomicU64,
    queries: AtomicU64,
    instantiations: AtomicU64,
    reloads: AtomicU64,
    connections_total: AtomicU64,
    connections_open: AtomicU64,
    connections_refused: AtomicU64,
    telemetry: Arc<Telemetry>,
    refine_stats: crate::refine::RefineStats,
}

impl Server {
    /// Creates a server over `registry` with `workers` pool threads
    /// (clamped to at least 1) and the default cache configuration.
    #[must_use]
    pub fn new(registry: Arc<StructureRegistry>, workers: usize) -> Self {
        Self::with_config(
            registry,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
    }

    /// Creates a server over `registry` with explicit worker and
    /// answer-cache knobs.
    #[must_use]
    pub fn with_config(registry: Arc<StructureRegistry>, config: ServerConfig) -> Self {
        let shards = config.effective_shards();
        let telemetry = Arc::new(Telemetry::new(
            shards,
            config.workers.max(1),
            config.telemetry,
            SLOW_RING_CAPACITY,
        ));
        // Each worker binds its telemetry lane before taking jobs, so
        // per-lane histograms attribute pooled work to the worker that
        // did it (lane 0 = inline, 1..=shards = shard loops, then
        // workers — see the telemetry module docs).
        let pool = {
            let telemetry = Arc::clone(&telemetry);
            WorkerPool::with_thread_init(config.workers, move |i| {
                telemetry.bind_lane(1 + shards + i);
            })
        };
        let cache = AnswerCache::new(config.cache_entries, config.cache_shards);
        Self {
            registry,
            config,
            pool,
            cache,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            instantiations: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            telemetry,
            refine_stats: crate::refine::RefineStats::default(),
        }
    }

    /// The refinement counters (see [`crate::refine`]).
    pub(crate) fn refine_stats(&self) -> &crate::refine::RefineStats {
        &self.refine_stats
    }

    /// Starts the background refinement worker when the configuration
    /// enables it ([`ServerConfig::refine`]): a detached thread that
    /// wakes every [`ServerConfig::refine_interval_secs`], runs one
    /// refinement pass (select a hot concentrated structure, re-anneal
    /// its hot region, publish on strict hot-set improvement — the
    /// `refine` module documents the pass), and exits when the server is
    /// dropped. Returns `None` when refinement is off.
    pub fn spawn_refiner(self: &Arc<Self>) -> Option<std::thread::JoinHandle<()>> {
        if !self.config.refine {
            return None;
        }
        let weak = Arc::downgrade(self);
        let interval = std::time::Duration::from_secs(self.config.refine_interval_secs.max(1));
        Some(
            std::thread::Builder::new()
                .name("mps-serve-refine".to_owned())
                .spawn(move || crate::refine::worker_loop(&weak, interval))
                .expect("spawning the refinement worker thread"),
        )
    }

    /// Counts and renders a refusal that never reached `admit` — the
    /// connection's oversized-line guard drops the buffered bytes
    /// before they could be parsed as a request. The refusal still
    /// costs one request + one error in the counters and records a
    /// zero-length parse span, so refused traffic stays visible in the
    /// `metrics` parse-stage counts exactly like parse failures that
    /// did reach the parser.
    pub(crate) fn refuse_preadmission(&self, error: &RequestError) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.telemetry.record(Stage::Parse, 0);
        tagged_error_response(None, error)
    }

    /// The telemetry hub shared by every serving thread.
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The configuration this server was built with.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The registry this server answers from.
    #[must_use]
    pub fn registry(&self) -> &Arc<StructureRegistry> {
        &self.registry
    }

    /// The answer cache in front of the compiled query indexes.
    #[must_use]
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Hot-swaps the registry from its backing directory and invalidates
    /// the answer cache all-or-nothing — the engine behind the `reload`
    /// request. On error the old snapshot (and the cache over it) keeps
    /// serving untouched.
    ///
    /// # Errors
    ///
    /// Returns the registry's [`crate::ServeError`] when the rescan or
    /// any artifact load fails.
    pub fn reload(&self) -> Result<crate::registry::ReloadReport, crate::ServeError> {
        let report = self.registry.reload()?;
        // Invalidate *after* the swap: any answer computed against the
        // old snapshot either lands before this clear (and is cleared)
        // or fails the generation check and is dropped.
        self.cache.invalidate_all();
        self.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// Answers one protocol line with no connection context (each call
    /// is its own one-request connection). Returns `None` for blank
    /// lines (no response is written for them); every non-blank line
    /// gets exactly one response line, errors included. This
    /// convenience path answers in JSON only: the `"encoding":"bin"`
    /// frame opt-in is a transport feature of the streams (`serve`,
    /// `serve_tcp`) and is ignored here.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> Option<String> {
        match self.admit(&mut None, line) {
            Admitted::Blank => None,
            Admitted::Reply(response) => Some(response),
            Admitted::Run {
                id,
                mut request,
                parse_ns,
            } => {
                if let Request::BatchQuery { binary, .. } = &mut request {
                    *binary = false;
                }
                match self.complete(id, request, ReqCtx::inline(parse_ns)) {
                    Reply::Line(line) => Some(line),
                    // Unreachable — the flag was cleared above — but
                    // stay total rather than panic on a future kind.
                    Reply::Frame(_) => Some(tagged_error_response(
                        id,
                        &RequestError::new(
                            ErrorKind::Internal,
                            "binary reply on the JSON-only convenience path",
                        ),
                    )),
                }
            }
        }
    }

    /// Framing-layer admission: parses the line, enforces the
    /// tagged-request contract against the connection's `last_id` (ids
    /// strictly increasing; once tagged, always tagged), and counts the
    /// request.
    pub(crate) fn admit(&self, last_id: &mut Option<u64>, line: &str) -> Admitted {
        let line = line.trim();
        if line.is_empty() {
            return Admitted::Blank;
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Parse is timed (and its histogram fed) right here on the
        // admitting thread — the shard loop or blocking adapter that
        // actually did the work — not on whichever worker later runs the
        // request.
        let parse_started = self.telemetry.enabled().then(Instant::now);
        let parsed = parse_envelope(line);
        let parse_ns = parse_started.map_or(0, ns_since);
        self.telemetry.record(Stage::Parse, parse_ns);
        let envelope = match parsed {
            Ok(envelope) => envelope,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Admitted::Reply(tagged_error_response(e.id, &e.error));
            }
        };
        match envelope.id {
            Some(id) => {
                if let Some(prev) = *last_id {
                    if id <= prev {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        let message = if id == prev {
                            format!("duplicate request id {id} on this connection")
                        } else {
                            format!(
                                "request id {id} is not strictly increasing \
                                 (the last accepted id was {prev})"
                            )
                        };
                        // Deliberately untagged: echoing the id would
                        // collide with the response the earlier request
                        // with this id already got (or will get).
                        return Admitted::Reply(tagged_error_response(
                            None,
                            &RequestError::new(ErrorKind::BadId, message),
                        ));
                    }
                }
                *last_id = Some(id);
            }
            None => {
                if last_id.is_some() {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    return Admitted::Reply(tagged_error_response(
                        None,
                        &RequestError::new(
                            ErrorKind::BadId,
                            "missing `id`: this connection uses tagged requests, so every \
                             later request must carry a strictly increasing id",
                        ),
                    ));
                }
            }
        }
        Admitted::Run {
            id: envelope.id,
            request: envelope.request,
            parse_ns,
        }
    }

    /// Dispatches an admitted request and renders its reply (a JSON
    /// line, or a binary frame for batches that opted in), echoing the
    /// request id as `req` on tagged requests. Errors are always JSON
    /// lines, whatever encoding the request asked for.
    ///
    /// This is also where the request's stage trace is sealed: the
    /// dispatch span (which contains the index/cache/render interior
    /// spans) is measured around everything below, recorded on the
    /// *executing* thread's telemetry lane, and the finished trace is
    /// offered to the slow-request ring.
    pub(crate) fn complete(&self, id: Option<u64>, request: Request, ctx: ReqCtx) -> Reply {
        let enabled = self.telemetry.enabled();
        // Captured before dispatch consumes the request; the clone only
        // happens when telemetry is on (it feeds the slow ring).
        let slow_kind = request.kind_str();
        let slow_structure = if enabled {
            request.structure_name().map(str::to_owned)
        } else {
            None
        };
        let mut trace = StageTrace::default();
        trace.add(Stage::Parse, ctx.parse_ns);
        trace.add(Stage::Pool, ctx.pool_ns);
        let dispatch_started = enabled.then(Instant::now);
        // A handler bug must cost one error response, not the server.
        let result = catch_unwind(AssertUnwindSafe(|| self.dispatch(request, &mut trace)))
            .unwrap_or_else(|_| {
                Err(RequestError::new(
                    ErrorKind::Internal,
                    "request handler panicked; the server keeps serving",
                ))
            });
        let reply = match result {
            Ok(Outcome::Map(mut map)) => {
                if let Some(id) = id {
                    map.insert("req", id.to_value());
                }
                let render_started = enabled.then(Instant::now);
                let line = crate::protocol::render(map);
                if let Some(t) = render_started {
                    trace.add(Stage::Render, ns_since(t));
                }
                Reply::Line(line)
            }
            Ok(Outcome::Rendered(line)) => Reply::Line(match id {
                None => line,
                // Splice the tag into the cached line: `{"req":N,` +
                // everything after the opening brace. Member order is
                // irrelevant in JSON; the payload bytes stay verbatim.
                Some(id) => format!("{{\"req\":{id},{}", &line[1..]),
            }),
            Ok(Outcome::Frame(mut frame)) => {
                if let Some(id) = id {
                    // The binary analogue of the JSON tag splice.
                    crate::frame::tag_frame(&mut frame, id);
                }
                Reply::Frame(frame)
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Reply::Line(tagged_error_response(id, &e))
            }
        };
        if let Some(t) = dispatch_started {
            // The dispatch span covers handling *and* the reply render
            // above, so stage sums can account for a request end to end.
            trace.add(Stage::Dispatch, ns_since(t));
            self.telemetry.record_completion(&trace);
            self.telemetry
                .observe_slow(slow_kind, slow_structure, id, &trace);
        }
        reply
    }

    /// Pumps requests from `reader` to `writer` until EOF through the
    /// connection engine TCP uses: each chunk the reader holds is fed
    /// whole, every request in it is answered inline — heavy ones
    /// included — and the replies are written and flushed before the
    /// next blocking read, so responses come back in request order,
    /// tagged or not. The input guards are the TCP ones: invalid UTF-8
    /// costs one typed error line, and a line over 8 MiB is refused with
    /// one `protocol` error that ends the stream.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error on either side.
    pub fn serve<R: BufRead, W: Write>(&self, mut reader: R, mut writer: W) -> io::Result<()> {
        let mut conn = Connection::new(false);
        while conn.wants_read() {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let n = chunk.len();
            if n == 0 {
                conn.close_read(self);
            } else {
                conn.receive(self, chunk);
                reader.consume(n);
            }
            if !conn.flush_to(&mut writer)? {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            writer.flush()?;
        }
        Ok(())
    }

    /// Accepts TCP connections forever onto a fixed pool of
    /// shared-nothing shard event loops (see [`ServerConfig::shards`]),
    /// all sharing the same registry snapshots, pool and cache.
    /// [`ServerConfig::max_connections`] caps the open set: an accept
    /// beyond it is answered with one `overloaded` error line and closed.
    ///
    /// # Errors
    ///
    /// Fails when the shards cannot start: a shard thread cannot spawn,
    /// or the platform has no readiness backend ([`netpoll::Poller::new`]
    /// reports `Unsupported` outside unix).
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        let shards = ShardSet::spawn(self, self.config.effective_shards())?;
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            // Response lines are small; Nagle + delayed ACK would add
            // ~40ms stalls per exchange on a chatty protocol like this.
            let _ = stream.set_nodelay(true);
            let Some(guard) = self.admit_connection(&stream) else {
                continue;
            };
            shards.assign(stream, guard);
        }
        Ok(())
    }

    /// Admission control at accept time: counts the connection and
    /// either grants it an [`OpenConnGuard`] or — at the
    /// [`ServerConfig::max_connections`] ceiling — answers it with a
    /// single typed `overloaded` error line and refuses it (the caller
    /// drops the stream, closing it).
    fn admit_connection(self: &Arc<Self>, stream: &TcpStream) -> Option<OpenConnGuard> {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        let max = self.config.max_connections;
        if max != 0 && self.connections_open.load(Ordering::Relaxed) >= max as u64 {
            self.connections_refused.fetch_add(1, Ordering::Relaxed);
            self.errors.fetch_add(1, Ordering::Relaxed);
            let line = tagged_error_response(
                None,
                &RequestError::new(
                    ErrorKind::Overloaded,
                    format!("the server is at its ceiling of {max} open connections; retry later"),
                ),
            );
            let mut writer = stream;
            let _ = writer.write_all(line.as_bytes());
            let _ = writer.write_all(b"\n");
            return None;
        }
        Some(self.track_connection())
    }

    /// Registers one open connection on the gauge; the returned guard
    /// decrements it when dropped, panics included.
    pub(crate) fn track_connection(self: &Arc<Self>) -> OpenConnGuard {
        OpenConnGuard::new(Arc::clone(self))
    }

    /// Whether a tagged TCP request deserves a worker-pool slot instead
    /// of the shard thread: only work that takes long enough to
    /// head-of-line-block the pipelined stream behind it. An
    /// `instantiate` never does, cached or not: a miss is one index
    /// lookup plus at most one sequence-pair packing (about N²/2
    /// comparisons), measured at 2.9–3.5 µs on `benchmark24`, the
    /// largest Table-1 circuit, against a pool handoff of 15–16 µs.
    /// Answering it inline took the closed-loop `instantiate` walk from
    /// 3.4 to 1.0 context switches per request and from 11.8k to 19.2k
    /// requests/s on a 2-core host.
    pub(crate) fn is_heavy(request: &Request) -> bool {
        match request {
            Request::BatchQuery { dims_list, .. } => dims_list.len() >= HEAVY_BATCH_THRESHOLD,
            // A triggered refinement pass re-anneals a structure —
            // milliseconds to seconds of CPU; it must never block the
            // pipelined stream behind it.
            Request::Refine { run, .. } => *run,
            _ => false,
        }
    }

    /// Routes one heavy tagged request off the calling thread as one
    /// worker-pool job that runs [`Server::complete`], guaranteeing
    /// `sink` receives the rendered response exactly once — even when a
    /// worker panics.
    pub(crate) fn submit_heavy(
        self: &Arc<Self>,
        id: u64,
        request: Request,
        parse_ns: u64,
        sink: ResponseSink,
    ) {
        let server = Arc::clone(self);
        let submitted = self.telemetry.enabled().then(Instant::now);
        self.pool.execute(move || {
            // The queue wait (submit → job start) is the pool stage of
            // this request's trace.
            let pool_ns = submitted.map_or(0, ns_since);
            // Deliver from Drop so a panic anywhere in the render still
            // produces a response (complete() already catches handler
            // panics; this covers the rest of the job body).
            struct DeliverOnDrop {
                sink: ResponseSink,
                id: u64,
                reply: Option<Reply>,
            }
            impl Drop for DeliverOnDrop {
                fn drop(&mut self) {
                    let reply = self.reply.take().unwrap_or_else(|| {
                        Reply::Line(tagged_error_response(
                            Some(self.id),
                            &RequestError::new(
                                ErrorKind::Internal,
                                "request handler panicked; the server keeps serving",
                            ),
                        ))
                    });
                    // A second panic while already unwinding would abort
                    // the process; the sinks only move bytes behind
                    // recovered locks, but stay paranoid.
                    let _ = catch_unwind(AssertUnwindSafe(|| (self.sink)(reply)));
                }
            }
            let mut delivery = DeliverOnDrop {
                sink,
                id,
                reply: None,
            };
            delivery.reply = Some(server.complete(Some(id), request, ReqCtx { parse_ns, pool_ns }));
        });
    }

    fn dispatch(&self, request: Request, trace: &mut StageTrace) -> Result<Outcome, RequestError> {
        let enabled = self.telemetry.enabled();
        match request {
            Request::Query { structure, dims } => {
                // Cache first, registry snapshot second — the order
                // matters: a miss token taken *before* the snapshot
                // cannot outlive a reload (the generation check or the
                // shard clear drops the insert). The reverse order
                // could accept an answer computed from the pre-reload
                // snapshot into the post-reload cache.
                let cache_started = (enabled && self.cache.enabled()).then(Instant::now);
                let looked_up = self.cache.lookup(CacheClass::Query, &structure, &dims);
                if let Some(t) = cache_started {
                    trace.add(Stage::Cache, ns_since(t));
                }
                let token = match looked_up {
                    // A hit replays the stored line verbatim, skipping
                    // the registry lookup, the query *and* the response
                    // render (only successful requests are ever cached,
                    // so the stored line's checks all passed).
                    CacheLookup::Hit(line) => {
                        self.queries.fetch_add(1, Ordering::Relaxed);
                        // The heat grid exists: the entry this hit
                        // replays was stored by an earlier miss, which
                        // created the grid.
                        if let Some(heat) = self.telemetry.heat_get(&structure) {
                            heat.record(&dims);
                        }
                        return Ok(Outcome::Rendered(line));
                    }
                    CacheLookup::Miss(token) => Some(token),
                    CacheLookup::Disabled => None,
                };
                let served = self.lookup(&structure)?;
                self.check_arity(&served, &dims)?;
                self.queries.fetch_add(1, Ordering::Relaxed);
                if let Some(heat) = self.telemetry.heat_for(&structure, || heat_bounds(&served)) {
                    heat.record(&dims);
                }
                let index_started = enabled.then(Instant::now);
                let id = served.index().query(&dims);
                // One clock read ends the index span and starts the
                // render span — the two are adjacent on this thread.
                let render_started = index_started.map(|t| {
                    let now = Instant::now();
                    trace.add(Stage::Index, ns_between(t, now));
                    now
                });
                let mut map = ok_header("query");
                map.insert("structure", Value::String(structure.clone()));
                map.insert("id", id_value(id));
                let line = crate::protocol::render(map);
                if let Some(t) = render_started {
                    trace.add(Stage::Render, ns_since(t));
                }
                if let Some(token) = token {
                    self.cache
                        .insert(token, CacheClass::Query, &structure, &dims, &line);
                }
                Ok(Outcome::Rendered(line))
            }
            Request::BatchQuery {
                structure,
                dims_list,
                binary,
            } => {
                let served = self.lookup(&structure)?;
                for dims in &dims_list {
                    self.check_arity(&served, dims)?;
                }
                self.queries
                    .fetch_add(dims_list.len() as u64, Ordering::Relaxed);
                if let Some(heat) = self.telemetry.heat_for(&structure, || heat_bounds(&served)) {
                    for dims in &dims_list {
                        heat.record(dims);
                    }
                }
                // One sequential pass through one scratch buffer: batches
                // bypass the answer cache deliberately — the compiled
                // index answers an element in ~150ns, cheaper than any
                // per-element cache lookup could be. Large tagged TCP
                // batches run here too, on a pool worker (see `is_heavy`).
                let index_started = enabled.then(Instant::now);
                let ids = served.index().query_batch(&dims_list);
                if let Some(t) = index_started {
                    trace.add(Stage::Index, ns_since(t));
                }
                if binary {
                    let render_started = enabled.then(Instant::now);
                    // The request tag is patched in by complete(),
                    // exactly like the JSON splice.
                    let frame = crate::frame::encode_batch_ids(None, &ids);
                    if let Some(t) = render_started {
                        trace.add(Stage::Render, ns_since(t));
                    }
                    return Ok(Outcome::Frame(frame));
                }
                let mut map = ok_header("batch_query");
                map.insert("structure", Value::String(structure));
                map.insert("ids", Value::Array(ids.into_iter().map(id_value).collect()));
                Ok(Outcome::Map(map))
            }
            Request::Instantiate { structure, dims } => {
                // Cache before registry snapshot — same stale-insert
                // race as the query arm (see the comment there).
                let cache_started = (enabled && self.cache.enabled()).then(Instant::now);
                let looked_up = self
                    .cache
                    .lookup(CacheClass::Instantiate, &structure, &dims);
                if let Some(t) = cache_started {
                    trace.add(Stage::Cache, ns_since(t));
                }
                let token = match looked_up {
                    // The biggest cache win: a hit skips the registry
                    // lookup, the bounds checks (they passed when the
                    // line was stored), the placement clone *and* the
                    // coordinate render — it replays the stored bytes.
                    CacheLookup::Hit(line) => {
                        self.instantiations.fetch_add(1, Ordering::Relaxed);
                        if let Some(heat) = self.telemetry.heat_get(&structure) {
                            heat.record(&dims);
                        }
                        return Ok(Outcome::Rendered(line));
                    }
                    CacheLookup::Miss(token) => Some(token),
                    CacheLookup::Disabled => None,
                };
                let served = self.lookup(&structure)?;
                self.check_arity(&served, &dims)?;
                self.check_bounds(&served, &dims)?;
                self.instantiations.fetch_add(1, Ordering::Relaxed);
                if let Some(heat) = self.telemetry.heat_for(&structure, || heat_bounds(&served)) {
                    heat.record(&dims);
                }
                // Computed right here, on the calling thread: a pool
                // handoff costs several times the packing itself (see
                // `is_heavy`).
                let index_started = enabled.then(Instant::now);
                let (id, placement) = materialize(&served, &dims);
                // Shared clock read: index span end = render span start.
                let render_started = index_started.map(|t| {
                    let now = Instant::now();
                    trace.add(Stage::Index, ns_between(t, now));
                    now
                });
                let mut map = ok_header("instantiate");
                map.insert("structure", Value::String(structure.clone()));
                map.insert("id", id_value(id));
                map.insert("fallback", Value::Bool(id.is_none()));
                map.insert(
                    "coords",
                    Value::Array(
                        placement
                            .coords()
                            .iter()
                            .map(|p| Value::Array(vec![p.x.to_value(), p.y.to_value()]))
                            .collect(),
                    ),
                );
                let line = crate::protocol::render(map);
                if let Some(t) = render_started {
                    trace.add(Stage::Render, ns_since(t));
                }
                if let Some(token) = token {
                    self.cache
                        .insert(token, CacheClass::Instantiate, &structure, &dims, &line);
                }
                Ok(Outcome::Rendered(line))
            }
            Request::Reload => {
                let report = self.reload().map_err(|e| {
                    RequestError::new(
                        ErrorKind::Internal,
                        format!("reload failed; the previous snapshot keeps serving: {e}"),
                    )
                })?;
                let mut map = ok_header("reload");
                map.insert("serving", report.serving.to_value());
                map.insert(
                    "added",
                    Value::Array(report.added.into_iter().map(Value::String).collect()),
                );
                map.insert(
                    "removed",
                    Value::Array(report.removed.into_iter().map(Value::String).collect()),
                );
                map.insert("load_ms", report.load_ms.to_value());
                Ok(Outcome::Map(map))
            }
            Request::Metrics => Ok(Outcome::Map(self.metrics())),
            Request::Trace => Ok(Outcome::Map(self.trace_map())),
            Request::Refine { run, structure } => {
                let mut map = ok_header("refine");
                map.insert("ran", Value::Bool(run));
                if run {
                    match crate::refine::run_pass(self, structure.as_deref()) {
                        crate::refine::RefineOutcome::NoCandidate { reason } => {
                            map.insert("outcome", Value::String("no_candidate".to_owned()));
                            map.insert("reason", Value::String(reason));
                        }
                        crate::refine::RefineOutcome::Rejected { structure, reason } => {
                            map.insert("outcome", Value::String("rejected".to_owned()));
                            map.insert("structure", Value::String(structure));
                            map.insert("reason", Value::String(reason));
                        }
                        crate::refine::RefineOutcome::Accepted {
                            structure,
                            cost_before,
                            cost_after,
                            gain_ppm,
                            generation,
                        } => {
                            map.insert("outcome", Value::String("accepted".to_owned()));
                            map.insert("structure", Value::String(structure));
                            map.insert("cost_before", cost_before.to_value());
                            map.insert("cost_after", cost_after.to_value());
                            map.insert("gain_ppm", gain_ppm.to_value());
                            map.insert("generation", generation.to_value());
                        }
                    }
                }
                map.insert("refinement", Value::Object(self.refinement_map()));
                Ok(Outcome::Map(map))
            }
            Request::ListStructures => {
                let mut map = ok_header("list_structures");
                map.insert(
                    "names",
                    Value::Array(
                        self.registry
                            .names()
                            .into_iter()
                            .map(Value::String)
                            .collect(),
                    ),
                );
                Ok(Outcome::Map(map))
            }
        }
    }

    fn lookup(&self, name: &str) -> Result<Arc<ServedStructure>, RequestError> {
        self.registry.get(name).ok_or_else(|| {
            RequestError::new(
                ErrorKind::UnknownStructure,
                format!(
                    "no structure `{name}` in the registry (serving: {})",
                    self.registry.names().join(", ")
                ),
            )
        })
    }

    fn check_arity(&self, served: &ServedStructure, dims: &Dims) -> Result<(), RequestError> {
        let blocks = served.structure().block_count();
        if dims.len() != blocks {
            return Err(RequestError::new(
                ErrorKind::BadArity,
                format!(
                    "structure `{}` covers {blocks} blocks, got {} dimension pairs",
                    served.name(),
                    dims.len()
                ),
            ));
        }
        Ok(())
    }

    fn check_bounds(&self, served: &ServedStructure, dims: &Dims) -> Result<(), RequestError> {
        for (i, (&(w, h), b)) in dims.iter().zip(served.structure().bounds()).enumerate() {
            if !b.w.contains(w) || !b.h.contains(h) {
                return Err(RequestError::new(
                    ErrorKind::OutOfBounds,
                    format!(
                        "block {i} dimensions ({w}, {h}) escape the designer bounds \
                         w{:?} x h{:?} of structure `{}`",
                        b.w,
                        b.h,
                        served.name()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The refinement gauge object of the `metrics` and `refine`
    /// responses: the background-worker knobs plus the pass counters
    /// (see [`crate::refine`] and PROTOCOL.md).
    fn refinement_map(&self) -> Map {
        let s = self.refine_stats();
        let mut map = Map::new();
        map.insert("enabled", Value::Bool(self.config.refine));
        map.insert("interval_secs", self.config.refine_interval_secs.to_value());
        map.insert("attempted", s.attempted.load(Ordering::Relaxed).to_value());
        map.insert("accepted", s.accepted.load(Ordering::Relaxed).to_value());
        map.insert("rejected", s.rejected.load(Ordering::Relaxed).to_value());
        map.insert(
            "last_gain_ppm",
            s.last_gain_ppm.load(Ordering::Relaxed).to_value(),
        );
        map.insert(
            "last_generation",
            s.last_generation.load(Ordering::Relaxed).to_value(),
        );
        map.insert(
            "active",
            match crate::lock_recover(&s.active).as_deref() {
                Some(name) => Value::String(name.to_owned()),
                None => Value::Null,
            },
        );
        map
    }

    /// The `metrics` response, the server's one introspection view: the
    /// always-on request counters, the registry with each structure's
    /// static facts, the telemetry snapshot, and the cache, connection
    /// and refinement gauges. Stage histograms are reported merged
    /// across lanes and per active lane; `structures` entries carry the
    /// query tally and the dimension heatmap of each structure queried.
    /// With telemetry off `enabled` reads false and the histograms,
    /// lanes and `structures` stay empty; everything else keeps its
    /// meaning.
    fn metrics(&self) -> Map {
        let mut map = ok_header("metrics");
        map.insert("enabled", Value::Bool(self.telemetry.enabled()));
        map.insert("uptime_ms", self.telemetry.uptime_ms().to_value());
        map.insert("workers", self.pool.workers().to_value());
        map.insert("shards", self.config.effective_shards().to_value());
        let mut counters = Map::new();
        for (name, counter) in [
            ("requests", &self.requests),
            ("errors", &self.errors),
            ("queries", &self.queries),
            ("instantiations", &self.instantiations),
            ("reloads", &self.reloads),
        ] {
            counters.insert(name, counter.load(Ordering::Relaxed).to_value());
        }
        map.insert("counters", Value::Object(counters));
        // What each served structure is, in name order.
        let snapshot = self.registry.snapshot();
        let mut names: Vec<&String> = snapshot.keys().collect();
        names.sort_unstable();
        let mut served_map = Map::new();
        for name in names {
            let served = &snapshot[name];
            let mut s = Map::new();
            s.insert("blocks", served.structure().block_count().to_value());
            s.insert(
                "placements",
                served.structure().placement_count().to_value(),
            );
            s.insert(
                "compiled_segments",
                served.index().segment_count().to_value(),
            );
            s.insert("bitset_words", served.index().bitset_words().to_value());
            s.insert(
                "compiled_heap_bytes",
                served.index().heap_bytes().to_value(),
            );
            served_map.insert(name.clone(), Value::Object(s));
        }
        let mut registry = Map::new();
        registry.insert("structures", Value::Object(served_map));
        registry.insert("generation", self.registry.generation().to_value());
        map.insert("registry", Value::Object(registry));
        // Whole-server per-stage distributions (merged across lanes);
        // stages nothing has recorded yet are omitted.
        let mut stages = Map::new();
        for stage in Stage::ALL {
            let merged = self.telemetry.merged_stage(stage);
            if merged.count() > 0 {
                stages.insert(stage.as_str(), histogram_value(&merged));
            }
        }
        map.insert("stages", Value::Object(stages));
        // The same distributions split by recording lane (inline /
        // shard-N / worker-N); idle lanes are omitted.
        let mut lanes = Vec::new();
        for lane_index in 0..self.telemetry.lane_count() {
            let lane = self.telemetry.lane(lane_index);
            let mut lane_stages = Map::new();
            for stage in Stage::ALL {
                let snap = lane.stage(stage).snapshot();
                if snap.count() > 0 {
                    lane_stages.insert(stage.as_str(), histogram_value(&snap));
                }
            }
            if lane_stages.is_empty() {
                continue;
            }
            let mut entry = Map::new();
            entry.insert("name", Value::String(self.telemetry.lane_name(lane_index)));
            entry.insert("stages", Value::Object(lane_stages));
            lanes.push(Value::Object(entry));
        }
        map.insert("lanes", Value::Array(lanes));
        // Per-structure traffic: the query tally is the heat grid's
        // vector count, and the heatmap itself (in name order — the
        // BTreeMap behind the snapshot makes this deterministic, which
        // the byte-stability test relies on).
        let mut structures = Map::new();
        for (name, heat) in self.telemetry.heat_snapshot() {
            let mut entry = Map::new();
            entry.insert("queries", heat.total.to_value());
            let mut heat_map = Map::new();
            heat_map.insert("total", heat.total.to_value());
            heat_map.insert("bins", crate::telemetry::HEAT_BINS.to_value());
            heat_map.insert(
                "blocks",
                Value::Array(
                    heat.blocks
                        .iter()
                        .map(|(w, h)| {
                            let axis = |bins: &[u64]| {
                                Value::Array(bins.iter().map(|n| n.to_value()).collect())
                            };
                            let mut block = Map::new();
                            block.insert("w", axis(w));
                            block.insert("h", axis(h));
                            Value::Object(block)
                        })
                        .collect(),
                ),
            );
            entry.insert("heat", Value::Object(heat_map));
            structures.insert(name, Value::Object(entry));
        }
        map.insert("structures", Value::Object(structures));
        // The hit-rate is computed from per-shard-coherent (hits,
        // misses) pairs — see `AnswerCache::stats` and PROTOCOL.md §
        // "Telemetry consistency model".
        let c = self.cache.stats();
        let mut cache = Map::new();
        cache.insert("enabled", Value::Bool(self.cache.enabled()));
        cache.insert("capacity", c.capacity.to_value());
        cache.insert("shards", c.shards.to_value());
        cache.insert("entries", c.entries.to_value());
        cache.insert("hits", c.hits.to_value());
        cache.insert("misses", c.misses.to_value());
        cache.insert("evictions", c.evictions.to_value());
        cache.insert("invalidations", c.invalidations.to_value());
        let lookups = c.hits + c.misses;
        cache.insert(
            "hit_rate",
            if lookups == 0 {
                0.0f64.to_value()
            } else {
                // Two decimals of percentage is plenty for a counter view.
                #[allow(clippy::cast_precision_loss)]
                (((c.hits as f64 / lookups as f64) * 10_000.0).round() / 10_000.0).to_value()
            },
        );
        map.insert("cache", Value::Object(cache));
        let mut connections = Map::new();
        for (name, gauge) in [
            ("total", &self.connections_total),
            ("open", &self.connections_open),
            ("refused", &self.connections_refused),
        ] {
            connections.insert(name, gauge.load(Ordering::Relaxed).to_value());
        }
        connections.insert("max", self.config.max_connections.to_value());
        map.insert("connections", Value::Object(connections));
        map.insert("refinement", Value::Object(self.refinement_map()));
        map
    }

    /// The `trace` response: drains the slow-request ring (worst
    /// first). Draining resets the ring, so two back-to-back traces
    /// never report the same request twice.
    fn trace_map(&self) -> Map {
        let entries = self.telemetry.slow_ring().drain();
        let mut map = ok_header("trace");
        map.insert("enabled", Value::Bool(self.telemetry.enabled()));
        map.insert("capacity", self.telemetry.slow_ring().capacity().to_value());
        map.insert(
            "entries",
            Value::Array(
                entries
                    .into_iter()
                    .map(|e| {
                        let mut entry = Map::new();
                        entry.insert("kind", Value::String(e.kind.to_owned()));
                        if let Some(structure) = e.structure {
                            entry.insert("structure", Value::String(structure));
                        }
                        if let Some(req) = e.req {
                            entry.insert("req", req.to_value());
                        }
                        entry.insert("total_ns", e.total_ns.to_value());
                        entry.insert("at_ms", e.at_ms.to_value());
                        let mut stages = Map::new();
                        for (i, stage) in Stage::ALL.iter().enumerate() {
                            if e.stages[i] > 0 {
                                stages.insert(stage.as_str(), e.stages[i].to_value());
                            }
                        }
                        entry.insert("stages", Value::Object(stages));
                        Value::Object(entry)
                    })
                    .collect(),
            ),
        );
        map
    }
}

/// A histogram snapshot as its `metrics` JSON object: totals, the
/// p50/p99/p999 bucket upper bounds, and the non-empty buckets as
/// `[upper_bound_ns, count]` pairs.
fn histogram_value(snap: &HistogramSnapshot) -> Value {
    let mut map = Map::new();
    map.insert("count", snap.count().to_value());
    map.insert("sum_ns", snap.sum().to_value());
    map.insert("max_ns", snap.max().to_value());
    map.insert("p50_ns", snap.percentile(0.5).to_value());
    map.insert("p99_ns", snap.percentile(0.99).to_value());
    map.insert("p999_ns", snap.percentile(0.999).to_value());
    map.insert(
        "buckets",
        Value::Array(
            snap.nonzero_buckets()
                .into_iter()
                .map(|(bound, count)| Value::Array(vec![bound.to_value(), count.to_value()]))
                .collect(),
        ),
    );
    Value::Object(map)
}

/// A structure's designer bounds flattened for a
/// [`crate::telemetry::StructureHeat`] grid.
fn heat_bounds(served: &ServedStructure) -> Vec<(i64, i64, i64, i64)> {
    served
        .structure()
        .bounds()
        .iter()
        .map(|b| (b.w.lo(), b.w.hi(), b.h.lo(), b.h.hi()))
        .collect()
}

/// One compiled lookup decides both the id and the placement; only
/// uncovered space falls through to the structure's fallback path.
fn materialize(served: &ServedStructure, dims: &Dims) -> (Option<PlacementId>, Placement) {
    let id = served.index().query(dims);
    let placement = match id.and_then(|id| served.structure().entry(id)) {
        Some(entry) => entry.placement.clone(),
        None => served.structure().fallback_placement(dims),
    };
    (id, placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_core::{GeneratorConfig, MpsGenerator};
    use mps_geom::Coord;
    use mps_netlist::benchmarks;
    use std::io::BufReader;

    fn test_registry() -> Arc<StructureRegistry> {
        let circuit = benchmarks::circ01();
        let config = GeneratorConfig::builder()
            .outer_iterations(30)
            .inner_iterations(30)
            .seed(11)
            .build();
        let mps = MpsGenerator::new(&circuit, config).generate().unwrap();
        let registry = StructureRegistry::in_memory();
        registry.publish(ServedStructure::from_structure("circ01", mps));
        Arc::new(registry)
    }

    fn test_server() -> Server {
        Server::new(test_registry(), 2)
    }

    fn parse(line: &str) -> Value {
        serde_json::parse(line).expect("responses are valid JSON")
    }

    fn midpoint_dims(server: &Server) -> Dims {
        server
            .registry()
            .get("circ01")
            .unwrap()
            .structure()
            .bounds()
            .iter()
            .map(|b| (b.w.midpoint(), b.h.midpoint()))
            .collect()
    }

    fn query_line(dims: &Dims) -> String {
        let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
        format!(
            r#"{{"kind":"query","structure":"circ01","dims":[{}]}}"#,
            pairs.join(",")
        )
    }

    #[test]
    fn query_answers_match_direct_path() {
        let server = test_server();
        let served = server.registry().get("circ01").unwrap();
        let dims = midpoint_dims(&server);
        let response = parse(&server.handle_line(&query_line(&dims)).unwrap());
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        let expected = served.structure().query(&dims);
        assert_eq!(
            response.get("id").and_then(Value::as_u64),
            expected.map(|id| u64::from(id.0))
        );
    }

    #[test]
    fn cached_answers_stay_bit_identical_and_count_hits() {
        let server = test_server();
        let dims = midpoint_dims(&server);
        let line = query_line(&dims);
        let first = parse(&server.handle_line(&line).unwrap());
        let second = parse(&server.handle_line(&line).unwrap());
        assert_eq!(
            first.get("id"),
            second.get("id"),
            "a cache hit must replay the stored answer"
        );
        let stats = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("entries").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn reload_request_invalidates_the_cache() {
        let server = test_server();
        let dims = midpoint_dims(&server);
        let _ = server.handle_line(&query_line(&dims)).unwrap();
        let reload = parse(&server.handle_line(r#"{"kind":"reload"}"#).unwrap());
        assert_eq!(reload.get("ok").and_then(Value::as_bool), Some(true));
        // In-memory registry reloads to itself; the cache still empties.
        assert_eq!(reload.get("serving").and_then(Value::as_u64), Some(1));
        assert_eq!(reload.get("load_ms").and_then(Value::as_f64), Some(0.0));
        let stats = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("entries").and_then(Value::as_u64), Some(0));
        assert_eq!(cache.get("invalidations").and_then(Value::as_u64), Some(1));
        assert_eq!(
            stats
                .get("counters")
                .and_then(|c| c.get("reloads"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn refine_status_and_refinement_blocks_are_reported() {
        let server = test_server();
        let status = parse(
            &server
                .handle_line(r#"{"kind":"refine","action":"status"}"#)
                .unwrap(),
        );
        assert_eq!(status.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(status.get("kind").and_then(Value::as_str), Some("refine"));
        assert_eq!(status.get("ran").and_then(Value::as_bool), Some(false));
        let block = status.get("refinement").unwrap();
        assert_eq!(block.get("enabled").and_then(Value::as_bool), Some(false));
        assert_eq!(block.get("attempted").and_then(Value::as_u64), Some(0));
        assert_eq!(block.get("accepted").and_then(Value::as_u64), Some(0));
        assert!(matches!(block.get("active"), Some(Value::Null)));
        // With no recorded traffic a triggered run has nothing to refine.
        let run = parse(&server.handle_line(r#"{"kind":"refine"}"#).unwrap());
        assert_eq!(run.get("ran").and_then(Value::as_bool), Some(true));
        assert_eq!(
            run.get("outcome").and_then(Value::as_str),
            Some("no_candidate")
        );
        // An unknown explicit target is a no_candidate too, not a panic.
        let missing = parse(
            &server
                .handle_line(r#"{"kind":"refine","structure":"nope"}"#)
                .unwrap(),
        );
        assert_eq!(
            missing.get("outcome").and_then(Value::as_str),
            Some("no_candidate")
        );
        // metrics carries the refinement block too.
        let stats = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        let stats_block = stats.get("refinement").unwrap();
        assert_eq!(
            stats_block.get("interval_secs").and_then(Value::as_u64),
            Some(30)
        );
        let metrics = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        assert!(metrics.get("refinement").is_some());
    }

    #[test]
    fn refine_publishes_an_improvement_under_concentrated_traffic() {
        // A deliberately under-annealed structure: its hot-region
        // coverage is poor, so refinement has room to win.
        let circuit = benchmarks::circ01();
        let config = GeneratorConfig::builder()
            .outer_iterations(10)
            .inner_iterations(10)
            .seed(21)
            .build();
        let mps = MpsGenerator::new(&circuit, config).generate().unwrap();
        let registry = StructureRegistry::in_memory();
        registry.publish(ServedStructure::from_structure("circ01", mps));
        let server = Server::new(Arc::new(registry), 2);
        let generation_before = server.registry().generation();
        // Concentrated traffic: every axis stays in its lowest tenth.
        let bounds = server
            .registry()
            .get("circ01")
            .unwrap()
            .structure()
            .bounds()
            .to_vec();
        for k in 0..48 {
            let dims: Dims = bounds
                .iter()
                .map(|b| {
                    let probe = |i: &mps_geom::Interval| {
                        #[allow(clippy::cast_possible_wrap)]
                        let tenth = (i.len() as i64 / 10).max(1);
                        i.lo() + (k * 5) % tenth
                    };
                    (probe(&b.w), probe(&b.h))
                })
                .collect();
            let response = parse(&server.handle_line(&query_line(&dims)).unwrap());
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        }
        // Each pass re-seeds deterministically from the attempt counter,
        // so a handful of triggers reaches an accepted publish.
        let mut accepted = None;
        for _ in 0..6 {
            let run = parse(&server.handle_line(r#"{"kind":"refine"}"#).unwrap());
            assert_eq!(
                run.get("ok").and_then(Value::as_bool),
                Some(true),
                "{run:?}"
            );
            match run.get("outcome").and_then(Value::as_str) {
                Some("accepted") => {
                    accepted = Some(run);
                    break;
                }
                Some("rejected") => {}
                other => panic!("unexpected refine outcome {other:?}: {run:?}"),
            }
        }
        let run = accepted.expect("refinement of a weak structure under hot traffic must accept");
        assert_eq!(run.get("structure").and_then(Value::as_str), Some("circ01"));
        let cost_before = run.get("cost_before").and_then(Value::as_u64).unwrap();
        let cost_after = run.get("cost_after").and_then(Value::as_u64).unwrap();
        assert!(cost_after < cost_before, "{run:?}");
        // The publish bumped the registry generation and cleared the
        // answer cache (publish itself does not touch caches; the
        // refiner must invalidate explicitly).
        assert!(server.registry().generation() > generation_before);
        assert_eq!(server.cache.stats().entries, 0);
        // The refined structure still answers every probe consistently
        // with its own direct query path.
        let served = server.registry().get("circ01").unwrap();
        served.structure().check_invariants().unwrap();
        let dims = midpoint_dims(&server);
        let response = parse(&server.handle_line(&query_line(&dims)).unwrap());
        assert_eq!(
            response.get("id").and_then(Value::as_u64),
            served.structure().query(&dims).map(|id| u64::from(id.0))
        );
        // And the counters reflect the accepted pass.
        let stats = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        let block = stats.get("refinement").unwrap();
        assert!(block.get("accepted").and_then(Value::as_u64) >= Some(1));
        assert_eq!(block.get("active").and_then(Value::as_str), Some("circ01"));
        assert!(block.get("last_generation").and_then(Value::as_u64) > Some(generation_before));
    }

    #[test]
    fn error_traffic_is_visible_in_parse_telemetry() {
        let server = test_server();
        let unknown = parse(&server.handle_line(r#"{"kind":"frobnicate"}"#).unwrap());
        assert_eq!(
            unknown
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("unknown_kind")
        );
        let refused = parse(
            &server
                .handle_line(
                    r#"{"kind":"batch_query","structure":"circ01","dims_list":[[[1,2]]],"encoding":"protobuf"}"#,
                )
                .unwrap(),
        );
        assert_eq!(
            refused
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("protocol")
        );
        // Both refusals recorded a parse span on the admitting thread;
        // the metrics request itself is the third.
        let metrics = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        let parse_stage = metrics
            .get("stages")
            .and_then(|s| s.get("parse"))
            .expect("error traffic must appear in the parse stage");
        assert_eq!(parse_stage.get("count").and_then(Value::as_u64), Some(3));
        let stats = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        assert_eq!(
            stats
                .get("counters")
                .and_then(|c| c.get("errors"))
                .and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn oversized_lines_are_refused_counted_and_recorded() {
        let server = Arc::new(Server::with_config(
            test_registry(),
            ServerConfig {
                workers: 1,
                shards: 1,
                ..ServerConfig::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept_server = Arc::clone(&server);
        std::thread::spawn(move || accept_server.serve_tcp(listener));
        let mut client = TcpStream::connect(addr).unwrap();
        // 9 MiB without a newline: past the 8 MiB line cap.
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..9 {
            client.write_all(&chunk).unwrap();
        }
        client.flush().unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = parse(&line);
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        let error = response.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Value::as_str), Some("protocol"));
        assert!(error
            .get("message")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("exceeds")));
        // The refusal is counted and its parse span recorded even
        // though the bytes never reached the parser — error traffic
        // must stay visible in `metrics`.
        assert_eq!(server.requests.load(Ordering::Relaxed), 1);
        assert_eq!(server.errors.load(Ordering::Relaxed), 1);
        assert_eq!(server.telemetry().merged_stage(Stage::Parse).count(), 1);
    }

    #[test]
    fn tagged_requests_echo_req_and_enforce_increasing_ids() {
        let server = test_server();
        let input = concat!(
            "{\"id\":1,\"kind\":\"metrics\"}\n",
            "{\"id\":5,\"kind\":\"list_structures\"}\n",
            "{\"id\":5,\"kind\":\"metrics\"}\n", // duplicate
            "{\"id\":3,\"kind\":\"metrics\"}\n", // decreasing
            "{\"kind\":\"metrics\"}\n",          // missing id after tagged
            "{\"id\":9,\"kind\":\"metrics\"}\n", // recovers
        )
        .as_bytes()
        .to_vec();
        let mut output = Vec::new();
        server.serve(&input[..], &mut output).unwrap();
        let lines: Vec<Value> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(parse)
            .collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0].get("req").and_then(Value::as_u64), Some(1));
        assert_eq!(lines[1].get("req").and_then(Value::as_u64), Some(5));
        for (i, expected) in [(2, "duplicate"), (3, "increasing"), (4, "missing `id`")] {
            assert_eq!(lines[i].get("ok").and_then(Value::as_bool), Some(false));
            let error = lines[i].get("error").unwrap();
            assert_eq!(error.get("kind").and_then(Value::as_str), Some("bad_id"));
            assert!(
                error
                    .get("message")
                    .and_then(Value::as_str)
                    .is_some_and(|m| m.contains(expected)),
                "line {i}: {:?}",
                lines[i]
            );
        }
        assert_eq!(lines[5].get("req").and_then(Value::as_u64), Some(9));
        assert_eq!(lines[5].get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn blank_lines_are_ignored_and_stats_count_requests() {
        let server = test_server();
        assert!(server.handle_line("").is_none());
        assert!(server.handle_line("   ").is_none());
        let _ = server.handle_line(r#"{"kind":"list_structures"}"#).unwrap();
        let _ = server.handle_line("not json").unwrap();
        let stats = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        let counters = stats.get("counters").unwrap();
        assert_eq!(counters.get("requests").and_then(Value::as_u64), Some(3));
        assert_eq!(counters.get("errors").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn serve_pumps_a_stream() {
        let server = test_server();
        let input = b"{\"kind\":\"list_structures\"}\n\n{\"kind\":\"metrics\"}\n".to_vec();
        let mut output = Vec::new();
        server.serve(&input[..], &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one response per non-blank request line");
        assert!(lines[0].contains("circ01"));
        assert!(lines[1].contains("\"kind\":\"metrics\""));
    }

    /// Invalid UTF-8 used to end the whole `serve` stream with an I/O
    /// error; now it costs one typed error line, exactly as on TCP.
    #[test]
    fn serve_answers_invalid_utf8_with_one_error_and_keeps_going() {
        let server = test_server();
        let input = b"{\"kind\":\"metrics\"\xff}\n{\"kind\":\"list_structures\"}\n".to_vec();
        let mut output = Vec::new();
        server.serve(&input[..], &mut output).unwrap();
        let lines: Vec<Value> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(parse)
            .collect();
        assert_eq!(lines.len(), 2, "one reply per line: {lines:?}");
        assert_eq!(lines[0].get("ok").and_then(Value::as_bool), Some(false));
        assert!(lines[0].get("error").and_then(|e| e.get("kind")).is_some());
        assert_eq!(
            lines[1].get("kind").and_then(Value::as_str),
            Some("list_structures")
        );
    }

    /// `serve` caps request lines like the shard loop does: one
    /// `protocol` error for a line past 8 MiB, then the stream ends.
    #[test]
    fn serve_refuses_an_oversized_line_with_one_protocol_error() {
        let server = test_server();
        let input = vec![b'x'; 9 << 20];
        let mut output = Vec::new();
        server.serve(&input[..], &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<Value> = text.lines().map(parse).collect();
        assert_eq!(lines.len(), 1, "exactly one reply: {text}");
        let error = lines[0].get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Value::as_str), Some("protocol"));
        assert!(error
            .get("message")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("exceeds")));
        assert_eq!(server.requests.load(Ordering::Relaxed), 1);
        assert_eq!(server.errors.load(Ordering::Relaxed), 1);
    }

    /// Through `serve`, heavy tagged requests (a batch past the heavy
    /// threshold) run inline like everything else, so every reply comes
    /// back in request order.
    #[test]
    fn serve_answers_tagged_heavy_requests_in_request_order() {
        let server = test_server();
        let dims = midpoint_dims(&server);
        let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
        let dims_json = format!("[{}]", pairs.join(","));
        let batch = vec![dims_json.as_str(); HEAVY_BATCH_THRESHOLD + 1].join(",");
        let input = format!(
            "{{\"id\":1,\"kind\":\"instantiate\",\"structure\":\"circ01\",\"dims\":{dims_json}}}\n\
             {{\"id\":2,\"kind\":\"list_structures\"}}\n\
             {{\"id\":3,\"kind\":\"batch_query\",\"structure\":\"circ01\",\"dims_list\":[{batch}]}}\n\
             {{\"id\":4,\"kind\":\"query\",\"structure\":\"circ01\",\"dims\":{dims_json}}}\n"
        );
        let mut output = Vec::new();
        server.serve(input.as_bytes(), &mut output).unwrap();
        let lines: Vec<Value> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(parse)
            .collect();
        let reqs: Vec<Option<u64>> = lines
            .iter()
            .map(|v| v.get("req").and_then(Value::as_u64))
            .collect();
        assert_eq!(reqs, [Some(1), Some(2), Some(3), Some(4)]);
        let kinds: Vec<Option<&str>> = lines
            .iter()
            .map(|v| v.get("kind").and_then(Value::as_str))
            .collect();
        assert_eq!(
            kinds,
            [
                Some("instantiate"),
                Some("list_structures"),
                Some("batch_query"),
                Some("query")
            ]
        );
    }

    #[test]
    fn pipelined_serving_answers_every_tagged_request() {
        let server = Arc::new(test_server());
        let served = server.registry().get("circ01").unwrap();
        let bounds = served.structure().bounds().to_vec();
        let vector = |k: usize| -> Dims {
            bounds
                .iter()
                .map(|b| {
                    (
                        b.w.lo() + (k as Coord * 5) % (b.w.len() as Coord),
                        b.h.lo() + (k as Coord * 11) % (b.h.len() as Coord),
                    )
                })
                .collect()
        };
        let n = 60;
        let mut input = String::new();
        for k in 0..n {
            let dims = vector(k);
            let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
            input.push_str(&format!(
                "{{\"id\":{k},\"kind\":\"query\",\"structure\":\"circ01\",\"dims\":[{}]}}\n",
                pairs.join(",")
            ));
        }
        let mut buf = Vec::new();
        server.serve(input.as_bytes(), &mut buf).unwrap();
        let output = String::from_utf8(buf).unwrap();
        let mut seen = vec![false; n];
        for line in output.lines() {
            let value = parse(line);
            assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
            let req = value.get("req").and_then(Value::as_u64).expect("tagged") as usize;
            assert!(!seen[req], "request {req} answered twice");
            seen[req] = true;
            let expected = served.structure().query(&vector(req));
            assert_eq!(
                value.get("id").and_then(Value::as_u64),
                expected.map(|id| u64::from(id.0)),
                "pipelined answer for request {req} diverges"
            );
        }
        assert!(seen.iter().all(|&s| s), "every request must be answered");
    }

    /// A tagged batch answered by one pool job, as the shard loop
    /// submits it, decoded from its binary frame.
    fn pooled_ids(server: &Arc<Server>, dims_list: Vec<Dims>) -> Vec<Option<PlacementId>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let request = Request::BatchQuery {
            structure: "circ01".to_owned(),
            dims_list,
            binary: true,
        };
        server.submit_heavy(
            1,
            request,
            0,
            Arc::new(move |reply| tx.send(reply).unwrap()),
        );
        let Reply::Frame(frame) = rx.recv().unwrap() else {
            panic!("a binary batch answers with a frame");
        };
        crate::frame::decode_batch_ids(&frame).unwrap().1
    }

    /// The same batch answered inline on the calling thread.
    fn inline_ids(server: &Server, dims_list: Vec<Dims>) -> Vec<Option<PlacementId>> {
        let request = Request::BatchQuery {
            structure: "circ01".to_owned(),
            dims_list,
            binary: true,
        };
        let Reply::Frame(frame) = server.complete(None, request, ReqCtx::inline(0)) else {
            panic!("a binary batch answers with a frame");
        };
        crate::frame::decode_batch_ids(&frame).unwrap().1
    }

    #[test]
    fn large_pooled_batch_matches_inline() {
        let server = Arc::new(test_server());
        let served = server.registry().get("circ01").unwrap();
        let bounds = served.structure().bounds().to_vec();
        let vector = |k: usize| -> Dims {
            bounds
                .iter()
                .map(|b| {
                    (
                        b.w.lo() + (k as Coord * 7) % (b.w.len() as Coord),
                        b.h.lo() + (k as Coord * 13) % (b.h.len() as Coord),
                    )
                })
                .collect()
        };
        let dims_list: Vec<Dims> = (0..HEAVY_BATCH_THRESHOLD + 100).map(vector).collect();
        let expected = served.structure().query_batch(&dims_list);
        let pooled = pooled_ids(&server, dims_list.clone());
        assert_eq!(pooled, expected);
        // The inline path answers identically.
        let inline = inline_ids(&server, dims_list);
        assert_eq!(inline, expected);
    }

    /// A pooled large batch keeps the telemetry contract of every other
    /// request: one `dispatch` span, one `pool` span and a slow-ring
    /// entry under its own kind and tag.
    #[test]
    fn pooled_batch_is_dispatched_and_traced_like_any_request() {
        let server = Arc::new(test_server());
        let dims = midpoint_dims(&server);
        let ids = pooled_ids(&server, vec![dims; HEAVY_BATCH_THRESHOLD]);
        assert_eq!(ids.len(), HEAVY_BATCH_THRESHOLD);
        // A fresh server: the batch is the only request recorded before
        // this `metrics` request builds its snapshot.
        let metrics = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        let stages = metrics.get("stages").unwrap();
        let stage_count = |stage: &str| {
            stages
                .get(stage)
                .and_then(|s| s.get("count"))
                .and_then(Value::as_u64)
        };
        assert_eq!(stage_count("dispatch"), Some(1), "{stages:?}");
        assert_eq!(stage_count("pool"), Some(1), "{stages:?}");
        let trace = parse(&server.handle_line(r#"{"kind":"trace"}"#).unwrap());
        let entries = trace.get("entries").and_then(Value::as_array).unwrap();
        let batch = entries
            .iter()
            .find(|e| e.get("req").and_then(Value::as_u64) == Some(1))
            .expect("the pooled batch is in the slow ring");
        assert_eq!(
            batch.get("kind").and_then(Value::as_str),
            Some("batch_query")
        );
        assert_eq!(
            batch.get("structure").and_then(Value::as_str),
            Some("circ01")
        );
    }

    /// Regression: the per-structure query counters used to sit behind
    /// one shared `Mutex<BTreeMap>`, so a handler panicking while holding
    /// it poisoned every later request. The one lock left on the
    /// per-structure path is the heat-grid map's write lock, taken only
    /// to create a grid; a bounds closure that panics inside it poisons
    /// it, and later requests and `metrics` must still answer.
    #[test]
    fn requests_survive_a_panicking_handler_thread() {
        let server = Arc::new(test_server());
        let dims = midpoint_dims(&server);
        let first = parse(&server.handle_line(&query_line(&dims)).unwrap());
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        let counting = Arc::clone(&server);
        let handle = std::thread::spawn(move || {
            counting.telemetry().heat_for("poisoned", || {
                panic!("bounds panic under the heat write lock")
            });
        });
        assert!(handle.join().is_err(), "the thread must have panicked");
        let after = parse(&server.handle_line(&query_line(&dims)).unwrap());
        assert_eq!(
            after.get("ok").and_then(Value::as_bool),
            Some(true),
            "a dead counter-touching thread must not fail later requests: {after:?}"
        );
        let stats = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
    }

    /// Regression: the open-connection gauge was decremented by a plain
    /// `fetch_sub` after the serve call, which never ran when the
    /// connection thread panicked — the gauge leaked upward forever
    /// (and, with `max_connections`, leaked slots toward a permanent
    /// `overloaded` state). The drop guard decrements on every path.
    #[test]
    fn connection_gauge_survives_a_panicking_connection_thread() {
        let server = Arc::new(test_server());
        let tracked = server.track_connection();
        assert_eq!(server.connections_open.load(Ordering::Relaxed), 1);
        drop(tracked);
        assert_eq!(server.connections_open.load(Ordering::Relaxed), 0);
        let guard_server = Arc::clone(&server);
        let handle = std::thread::spawn(move || {
            let _guard = guard_server.track_connection();
            panic!("connection thread dies mid-serve");
        });
        assert!(handle.join().is_err(), "the thread must have panicked");
        assert_eq!(
            server.connections_open.load(Ordering::Relaxed),
            0,
            "a panicking connection must still release its gauge slot"
        );
    }

    fn wait_for_open(server: &Server, expected: u64) {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while server.connections_open.load(Ordering::Relaxed) != expected {
            assert!(Instant::now() < deadline, "gauge never reached {expected}");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    #[test]
    fn accepts_beyond_max_connections_get_one_overloaded_line() {
        let circuit = benchmarks::circ01();
        let config = GeneratorConfig::builder()
            .outer_iterations(30)
            .inner_iterations(30)
            .seed(12)
            .build();
        let mps = MpsGenerator::new(&circuit, config).generate().unwrap();
        let registry = StructureRegistry::in_memory();
        registry.publish(ServedStructure::from_structure("circ01", mps));
        let server = Arc::new(Server::with_config(
            Arc::new(registry),
            ServerConfig {
                workers: 1,
                shards: 1,
                max_connections: 2,
                ..ServerConfig::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept_server = Arc::clone(&server);
        std::thread::spawn(move || accept_server.serve_tcp(listener));
        let first = TcpStream::connect(addr).unwrap();
        let second = TcpStream::connect(addr).unwrap();
        wait_for_open(&server, 2);
        // The ceiling is reached: the next accept is answered with one
        // typed `overloaded` line and closed.
        let refused = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(&refused);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = parse(&line);
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("overloaded"),
            "refusal must be typed: {response:?}"
        );
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).unwrap(),
            0,
            "a refused connection is closed after its one error line"
        );
        assert_eq!(server.connections_refused.load(Ordering::Relaxed), 1);
        // Closing an admitted connection frees capacity for new ones.
        drop(first);
        wait_for_open(&server, 1);
        let mut replacement = TcpStream::connect(addr).unwrap();
        replacement.write_all(b"{\"kind\":\"metrics\"}\n").unwrap();
        let mut reader = BufReader::new(replacement.try_clone().unwrap());
        line.clear();
        reader.read_line(&mut line).unwrap();
        let stats = parse(&line);
        assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
        let connections = stats.get("connections").unwrap();
        assert_eq!(connections.get("refused").and_then(Value::as_u64), Some(1));
        assert_eq!(connections.get("max").and_then(Value::as_u64), Some(2));
        drop(second);
    }

    /// End-to-end over the sharded event loops: pipelined tagged
    /// queries, a pooled large batch, an untagged request, and a
    /// request line deliberately split across TCP segments — every
    /// answer must match the direct query path.
    #[test]
    fn sharded_tcp_serving_matches_direct_answers() {
        let server = Arc::new(Server::with_config(
            {
                let circuit = benchmarks::circ01();
                let config = GeneratorConfig::builder()
                    .outer_iterations(30)
                    .inner_iterations(30)
                    .seed(13)
                    .build();
                let mps = MpsGenerator::new(&circuit, config).generate().unwrap();
                let registry = StructureRegistry::in_memory();
                registry.publish(ServedStructure::from_structure("circ01", mps));
                Arc::new(registry)
            },
            ServerConfig {
                workers: 2,
                shards: 2,
                ..ServerConfig::default()
            },
        ));
        let served = server.registry().get("circ01").unwrap();
        let bounds = served.structure().bounds().to_vec();
        let vector = |k: usize| -> Dims {
            bounds
                .iter()
                .map(|b| {
                    (
                        b.w.lo() + (k as mps_geom::Coord * 3) % (b.w.len() as mps_geom::Coord),
                        b.h.lo() + (k as mps_geom::Coord * 7) % (b.h.len() as mps_geom::Coord),
                    )
                })
                .collect()
        };
        let dims_json = |dims: &Dims| -> String {
            let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
            format!("[{}]", pairs.join(","))
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept_server = Arc::clone(&server);
        std::thread::spawn(move || accept_server.serve_tcp(listener));

        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        // A burst of pipelined tagged queries...
        let n = 40;
        let mut burst = String::new();
        for k in 0..n {
            burst.push_str(&format!(
                "{{\"id\":{k},\"kind\":\"query\",\"structure\":\"circ01\",\"dims\":{}}}\n",
                dims_json(&vector(k))
            ));
        }
        // ...then one batch big enough to run on the pool.
        let batch_id = n;
        let batch: Vec<Dims> = (0..HEAVY_BATCH_THRESHOLD + 50).map(vector).collect();
        let batch_dims: Vec<String> = batch.iter().map(dims_json).collect();
        burst.push_str(&format!(
            "{{\"id\":{batch_id},\"kind\":\"batch_query\",\"structure\":\"circ01\",\
             \"dims_list\":[{}]}}\n",
            batch_dims.join(",")
        ));
        client.write_all(burst.as_bytes()).unwrap();
        // One more tagged query split mid-line across two TCP segments
        // with a pause between them: framing must reassemble it.
        let split_id = n + 1;
        let split = format!(
            "{{\"id\":{split_id},\"kind\":\"query\",\"structure\":\"circ01\",\"dims\":{}}}\n",
            dims_json(&vector(split_id))
        );
        let (head, tail) = split.split_at(split.len() / 2);
        client.write_all(head.as_bytes()).unwrap();
        client.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        client.write_all(tail.as_bytes()).unwrap();

        let mut answered = std::collections::HashMap::new();
        let mut line = String::new();
        for _ in 0..n + 2 {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
            let value = parse(&line);
            assert_eq!(
                value.get("ok").and_then(Value::as_bool),
                Some(true),
                "unexpected error response: {line}"
            );
            let req = value.get("req").and_then(Value::as_u64).expect("tagged");
            answered.insert(req as usize, value);
        }
        for k in (0..n).chain([split_id]) {
            let expected = served.structure().query(&vector(k));
            assert_eq!(
                answered[&k].get("id").and_then(Value::as_u64),
                expected.map(|id| u64::from(id.0)),
                "sharded answer for request {k} diverges"
            );
        }
        let expected_batch: Vec<Value> = served
            .structure()
            .query_batch(&batch)
            .into_iter()
            .map(id_value)
            .collect();
        assert_eq!(
            answered[&batch_id].get("ids"),
            Some(&Value::Array(expected_batch)),
            "the pooled batch must carry ids in request order"
        );
        // An untagged connection still gets in-order inline answers.
        let mut plain = TcpStream::connect(addr).unwrap();
        plain
            .write_all(b"{\"kind\":\"list_structures\"}\n")
            .unwrap();
        let mut plain_reader = BufReader::new(plain.try_clone().unwrap());
        line.clear();
        plain_reader.read_line(&mut line).unwrap();
        assert!(line.contains("circ01"), "untagged answer: {line}");
    }

    /// `"encoding":"bin"`: the sequential pump answers a batch with a
    /// binary frame, leaves JSON requests on the same stream untouched,
    /// and splices the request tag into the frame header.
    #[test]
    fn binary_batch_answers_with_a_frame_on_the_stream_pumps() {
        let server = test_server();
        let served = server.registry().get("circ01").unwrap();
        let dims = midpoint_dims(&server);
        let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
        let dims_json = format!("[{}]", pairs.join(","));
        let input = format!(
            "{{\"kind\":\"batch_query\",\"structure\":\"circ01\",\"dims_list\":[{dims_json},{dims_json}],\
             \"encoding\":\"bin\"}}\n\
             {{\"kind\":\"metrics\"}}\n"
        );
        let mut output = Vec::new();
        server.serve(input.as_bytes(), &mut output).unwrap();
        assert_eq!(&output[..4], b"MPSF", "the batch answer is a frame");
        let payload_len = u32::from_le_bytes(output[16..20].try_into().unwrap()) as usize;
        let frame_len = crate::frame::HEADER_LEN + payload_len;
        let (req, ids) = crate::frame::decode_batch_ids(&output[..frame_len]).unwrap();
        assert_eq!(req, None, "untagged request, untagged frame");
        let expected = served.structure().query(&dims);
        assert_eq!(ids, vec![expected, expected]);
        // The JSON response right after the frame is undisturbed.
        let rest = std::str::from_utf8(&output[frame_len..]).unwrap();
        assert!(
            rest.starts_with('{') && rest.contains("\"kind\":\"metrics\""),
            "{rest}"
        );

        // Tagged: the tag lands in the frame header, not a JSON member.
        let mut output = Vec::new();
        let tagged = format!(
            "{{\"id\":3,\"kind\":\"batch_query\",\"structure\":\"circ01\",\
             \"dims_list\":[{dims_json}],\"encoding\":\"bin\"}}\n"
        );
        server.serve(tagged.as_bytes(), &mut output).unwrap();
        let (req, ids) = crate::frame::decode_batch_ids(&output).unwrap();
        assert_eq!(req, Some(3));
        assert_eq!(ids, vec![expected]);

        // handle_line is the JSON-only convenience path: same request,
        // JSON answer.
        let line = server
            .handle_line(&format!(
                "{{\"kind\":\"batch_query\",\"structure\":\"circ01\",\
                 \"dims_list\":[{dims_json}],\"encoding\":\"bin\"}}"
            ))
            .unwrap();
        let value = parse(&line);
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
    }

    /// A binary batch big enough to run on the worker pool comes
    /// back as one frame through the shard completion path, with ids in
    /// request order — exercised end-to-end over TCP.
    #[test]
    fn binary_pooled_batch_frames_over_tcp() {
        let server = Arc::new(Server::with_config(
            {
                let circuit = benchmarks::circ01();
                let config = GeneratorConfig::builder()
                    .outer_iterations(30)
                    .inner_iterations(30)
                    .seed(14)
                    .build();
                let mps = MpsGenerator::new(&circuit, config).generate().unwrap();
                let registry = StructureRegistry::in_memory();
                registry.publish(ServedStructure::from_structure("circ01", mps));
                Arc::new(registry)
            },
            ServerConfig {
                workers: 2,
                shards: 1,
                ..ServerConfig::default()
            },
        ));
        let served = server.registry().get("circ01").unwrap();
        let bounds = served.structure().bounds().to_vec();
        let vector = |k: usize| -> Dims {
            bounds
                .iter()
                .map(|b| {
                    (
                        b.w.lo() + (k as mps_geom::Coord * 5) % (b.w.len() as mps_geom::Coord),
                        b.h.lo() + (k as mps_geom::Coord * 9) % (b.h.len() as mps_geom::Coord),
                    )
                })
                .collect()
        };
        let batch: Vec<Dims> = (0..HEAVY_BATCH_THRESHOLD + 30).map(vector).collect();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept_server = Arc::clone(&server);
        std::thread::spawn(move || accept_server.serve_tcp(listener));

        let mut client = TcpStream::connect(addr).unwrap();
        let dims_json: Vec<String> = batch
            .iter()
            .map(|dims| {
                let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
                format!("[{}]", pairs.join(","))
            })
            .collect();
        client
            .write_all(
                format!(
                    "{{\"id\":7,\"kind\":\"batch_query\",\"structure\":\"circ01\",\
                     \"dims_list\":[{}],\"encoding\":\"bin\"}}\n",
                    dims_json.join(",")
                )
                .as_bytes(),
            )
            .unwrap();
        use std::io::Read as _;
        let mut header = [0u8; crate::frame::HEADER_LEN];
        client.read_exact(&mut header).unwrap();
        assert_eq!(&header[..4], b"MPSF");
        let payload_len = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
        let mut frame = header.to_vec();
        frame.resize(crate::frame::HEADER_LEN + payload_len, 0);
        client
            .read_exact(&mut frame[crate::frame::HEADER_LEN..])
            .unwrap();
        let (req, ids) = crate::frame::decode_batch_ids(&frame).unwrap();
        assert_eq!(req, Some(7));
        assert_eq!(
            ids,
            served.structure().query_batch(&batch),
            "the pooled frame must carry ids in request order"
        );
    }

    #[test]
    fn cached_instantiate_replays_identical_bytes_and_skips_nothing_observable() {
        let server = test_server();
        let dims = midpoint_dims(&server);
        let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
        let line = format!(
            r#"{{"kind":"instantiate","structure":"circ01","dims":[{}]}}"#,
            pairs.join(",")
        );
        let first = server.handle_line(&line).unwrap();
        let second = server.handle_line(&line).unwrap();
        assert_eq!(
            first, second,
            "a cached instantiate must replay byte-identical coordinates"
        );
        let stats = server.cache().stats();
        assert_eq!(stats.hits, 1);
        // Tagged replay splices the tag without touching the payload.
        let tagged = server
            .handle_line(&format!("{{\"id\":9,{}", &line[1..]))
            .unwrap();
        assert_eq!(tagged, format!("{{\"req\":9,{}", &first[1..]));
    }

    /// After a pipelined burst of `K` queries, the `metrics` response
    /// accounts for exactly them: the dispatch histogram holds `K`
    /// samples, the recorded stage time fits inside the wall clock the
    /// burst actually took, and the dimension heatmap is non-empty for
    /// exactly the structures queried.
    #[test]
    fn metrics_account_for_a_pipelined_burst() {
        let server = test_server();
        let dims = midpoint_dims(&server);
        const BURST: usize = 12;
        let started = Instant::now();
        let mut one_line = query_line(&dims);
        one_line.push('\n');
        let stream = one_line.repeat(BURST).into_bytes();
        let mut output = Vec::new();
        server.serve(&stream[..], &mut output).unwrap();
        assert_eq!(String::from_utf8(output).unwrap().lines().count(), BURST);
        let metrics = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap();
        assert_eq!(metrics.get("enabled").and_then(Value::as_bool), Some(true));
        let stages = metrics.get("stages").and_then(Value::as_object).unwrap();
        let dispatch = stages.get("dispatch").unwrap();
        assert_eq!(
            dispatch.get("count").and_then(Value::as_u64),
            Some(BURST as u64),
            "every burst request (and nothing else) dispatched: {dispatch:?}"
        );
        // The metrics request's own parse is recorded at admission,
        // before its dispatch builds this snapshot.
        let parse_stage = stages.get("parse").unwrap();
        assert_eq!(
            parse_stage.get("count").and_then(Value::as_u64),
            Some(BURST as u64 + 1)
        );
        let recorded_ns = dispatch.get("sum_ns").and_then(Value::as_u64).unwrap()
            + parse_stage.get("sum_ns").and_then(Value::as_u64).unwrap();
        assert!(
            recorded_ns <= wall_ns,
            "stage sums ({recorded_ns} ns) cannot exceed the wall clock ({wall_ns} ns): \
             every span was measured inside the burst on this one thread"
        );
        let structures = metrics
            .get("structures")
            .and_then(Value::as_object)
            .unwrap();
        assert_eq!(
            structures.iter().map(|(name, _)| name).collect::<Vec<_>>(),
            ["circ01"],
            "the heatmap exists for exactly the structures queried"
        );
        let circ = structures.get("circ01").unwrap();
        assert_eq!(
            circ.get("queries").and_then(Value::as_u64),
            Some(BURST as u64)
        );
        let heat = circ.get("heat").unwrap();
        assert_eq!(
            heat.get("total").and_then(Value::as_u64),
            Some(BURST as u64)
        );
        let blocks = heat.get("blocks").and_then(Value::as_array).unwrap();
        assert_eq!(blocks.len(), dims.len(), "one heat block per query axis");
        for block in blocks {
            let w_bins = block.get("w").and_then(Value::as_array).unwrap();
            let total: u64 = w_bins.iter().filter_map(Value::as_u64).sum();
            assert_eq!(total, BURST as u64, "every recorded vector lands in a bin");
        }
    }

    /// Two fresh servers fed byte-identical request streams render
    /// byte-identical `structures` sections: the heat grids and query
    /// tallies are a pure function of the workload, so replaying a
    /// capture reproduces them exactly.
    #[test]
    fn metrics_structures_section_is_byte_stable_across_replays() {
        let probe = test_server();
        let base = midpoint_dims(&probe);
        let mut stream = String::new();
        for spread in 0..6i64 {
            let shifted: Dims = base
                .iter()
                .map(|&(w, h)| (w + spread, h - spread))
                .collect();
            stream.push_str(&query_line(&shifted));
            stream.push('\n');
        }
        let replay = || {
            let server = test_server();
            let mut output = Vec::new();
            server.serve(stream.as_bytes(), &mut output).unwrap();
            let metrics = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
            serde_json::to_string(metrics.get("structures").unwrap()).unwrap()
        };
        assert_eq!(
            replay(),
            replay(),
            "replayed workloads must agree byte-for-byte"
        );
    }

    /// `trace` drains the slow-request ring worst-first; the next drain
    /// holds only what completed in between (here: the first `trace`
    /// request itself).
    #[test]
    fn trace_drains_the_slow_ring_worst_first() {
        let server = test_server();
        let dims = midpoint_dims(&server);
        for _ in 0..5 {
            let _ = server.handle_line(&query_line(&dims)).unwrap();
        }
        let first = parse(&server.handle_line(r#"{"kind":"trace"}"#).unwrap());
        assert_eq!(first.get("enabled").and_then(Value::as_bool), Some(true));
        let entries = first.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 5, "every query is in the (unfilled) ring");
        let totals: Vec<u64> = entries
            .iter()
            .map(|e| e.get("total_ns").and_then(Value::as_u64).unwrap())
            .collect();
        assert!(
            totals.windows(2).all(|pair| pair[0] >= pair[1]),
            "entries drain worst-first: {totals:?}"
        );
        for entry in entries {
            assert_eq!(entry.get("kind").and_then(Value::as_str), Some("query"));
            assert_eq!(
                entry.get("structure").and_then(Value::as_str),
                Some("circ01")
            );
            let stages = entry.get("stages").and_then(Value::as_object).unwrap();
            assert!(
                stages.get("dispatch").and_then(Value::as_u64).unwrap() > 0,
                "a drained entry carries its stage breakdown"
            );
        }
        let second = parse(&server.handle_line(r#"{"kind":"trace"}"#).unwrap());
        let entries = second.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(
            entries.len(),
            1,
            "only the first trace request completed since"
        );
        assert_eq!(
            entries[0].get("kind").and_then(Value::as_str),
            Some("trace")
        );
    }

    /// With `telemetry: false` every recording call short-circuits:
    /// requests still answer, but `metrics` reports `enabled: false`
    /// with empty histograms and `trace` drains nothing.
    #[test]
    fn disabled_telemetry_records_nothing_but_keeps_serving() {
        let server = Server::with_config(
            test_registry(),
            ServerConfig {
                workers: 2,
                telemetry: false,
                ..ServerConfig::default()
            },
        );
        let dims = midpoint_dims(&server);
        let response = parse(&server.handle_line(&query_line(&dims)).unwrap());
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        let metrics = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        assert_eq!(metrics.get("enabled").and_then(Value::as_bool), Some(false));
        assert!(
            metrics
                .get("stages")
                .and_then(Value::as_object)
                .unwrap()
                .is_empty(),
            "no stage histogram may record while telemetry is off"
        );
        assert!(
            metrics
                .get("structures")
                .and_then(Value::as_object)
                .unwrap()
                .is_empty(),
            "no heat grid may exist while telemetry is off"
        );
        let trace = parse(&server.handle_line(r#"{"kind":"trace"}"#).unwrap());
        assert_eq!(trace.get("enabled").and_then(Value::as_bool), Some(false));
        assert!(trace
            .get("entries")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
        // The counters and gauges are independent of the telemetry
        // knob and keep their meaning either way.
        let stats = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
    }

    /// `metrics` is the one introspection response: with telemetry off
    /// it still carries the always-on counters, the cache and
    /// connection gauges and each served structure's static facts, and
    /// the retired `stats` kind is refused like any unknown kind.
    #[test]
    fn metrics_carries_the_counters_without_telemetry_and_stats_is_gone() {
        let server = Server::with_config(
            test_registry(),
            ServerConfig {
                workers: 1,
                telemetry: false,
                ..ServerConfig::default()
            },
        );
        let metrics = parse(&server.handle_line(r#"{"kind":"metrics"}"#).unwrap());
        assert_eq!(metrics.get("enabled").and_then(Value::as_bool), Some(false));
        let requests = metrics
            .get("counters")
            .and_then(|c| c.get("requests"))
            .and_then(Value::as_u64);
        assert_eq!(requests, Some(1), "{metrics:?}");
        for section in ["cache", "connections"] {
            assert!(
                metrics.get(section).and_then(Value::as_object).is_some(),
                "metrics lacks `{section}`: {metrics:?}"
            );
        }
        let blocks = metrics
            .get("registry")
            .and_then(|r| r.get("structures"))
            .and_then(|s| s.get("circ01"))
            .and_then(|c| c.get("blocks"))
            .and_then(Value::as_u64);
        let expected = server
            .registry()
            .get("circ01")
            .unwrap()
            .structure()
            .block_count();
        assert_eq!(blocks, Some(expected as u64), "{metrics:?}");
        let stats = parse(&server.handle_line(r#"{"kind":"stats"}"#).unwrap());
        assert_eq!(
            stats
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("unknown_kind"),
            "{stats:?}"
        );
    }
}
