//! One connection's protocol engine, and the shard event loops that
//! drive it from sockets.
//!
//! [`Connection`] is everything one connection does, with no I/O in it:
//! request bytes in, rendered replies out. It reassembles request lines
//! across whatever byte splits the transport chose, admits each line
//! (parse, the tagged-id contract, counting), answers cheap requests
//! inline, hands heavy tagged requests (batches of 256+ vectors and
//! `refine` with `run`, see [`Server::is_heavy`]) to its caller for the
//! worker pool, counts the replies still owed, refuses a line longer
//! than 8 MiB, and answers a final line that has no newline at EOF.
//! Everything else, `instantiate` included whether cached or not, is
//! answered on the connection's own thread (why: [`Server::is_heavy`]).
//! Two loops feed it:
//!
//! * the shard loops behind [`Server::serve_tcp`]. Accepted connections
//!   are handed round-robin to a fixed pool of shard threads; each shard
//!   owns its subset outright (no connection is ever touched by two
//!   shards) and pumps all of them through one non-blocking readiness
//!   loop over a [`netpoll::Poller`]. Partial request lines wait in a
//!   [`RecvBuffer`] until their newline arrives, and responses queue in
//!   a [`SendBuffer`] that drains as far as the socket accepts and parks
//!   the rest behind write-readiness. Each readiness event reads the
//!   socket until a read comes back shorter than the scratch chunk;
//!   whatever arrives later is reported by the next wait. Heavy tagged
//!   requests leave through [`Server::submit_heavy`] and come back as
//!   completions through the shard's inbox plus a [`Poller::wake`] —
//!   the shard thread itself never blocks on anything but the poller;
//! * [`Server::serve`], the blocking adapter behind stdin: read a chunk,
//!   feed it, run every request inline, write and flush before the next
//!   read.
//!
//! Ordering: untagged requests (and framing errors) are answered in
//! arrival order because they never leave the connection's thread;
//! tagged heavy responses on TCP come back out of order, matched by
//! `req`. Through [`Server::serve`] every response comes back in request
//! order. A heavy request is one pool job that renders its whole
//! response, so a large batch comes back as one line or frame.

use crate::lock_recover;
use crate::protocol::{ErrorKind, Request, RequestError};
use crate::server::{ns_since, Admitted, OpenConnGuard, Reply, ReqCtx, ResponseSink, Server};
use crate::telemetry::Stage;
use netpoll::{raw_fd, Interest, Poller, WAKE_TOKEN};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A request line longer than this without a newline ends the
/// connection's read side: nothing in the protocol is remotely this
/// large, so the peer is broken or hostile, and the alternative is
/// unbounded buffering.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Stack scratch for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// One connection's protocol state machine: bytes in through
/// [`receive`](Self::receive) and [`close_read`](Self::close_read),
/// replies out through [`flush_to`](Self::flush_to). It owns no socket
/// and never blocks; its caller does the I/O.
pub(crate) struct Connection {
    /// The highest accepted request id, once the connection went tagged.
    /// The first tagged request flips a connection into tagged mode for
    /// good; ids must then be strictly increasing.
    last_id: Option<u64>,
    recv: RecvBuffer,
    out: SendBuffer,
    /// Whether heavy tagged requests are handed to the caller for the
    /// worker pool (the shard loop) or answered inline like everything
    /// else ([`Server::serve`]).
    offload_heavy: bool,
    /// Heavy tagged requests admitted for the pool and not yet taken by
    /// the caller.
    offloaded: Vec<Offloaded>,
    /// Offloaded requests whose replies have not come back yet.
    pending: usize,
    /// The read side is finished: EOF, a read error, or an oversized
    /// line.
    read_closed: bool,
}

/// One heavy tagged request the caller must run off its own thread and
/// hand back through [`Connection::deliver`].
pub(crate) struct Offloaded {
    pub id: u64,
    pub request: Request,
    pub parse_ns: u64,
}

impl Connection {
    /// A fresh untagged connection. With `offload_heavy`, heavy tagged
    /// requests queue for [`take_offloaded`](Self::take_offloaded);
    /// without it every request is answered inline, in request order.
    pub(crate) fn new(offload_heavy: bool) -> Self {
        Self {
            last_id: None,
            recv: RecvBuffer::default(),
            out: SendBuffer::default(),
            offload_heavy,
            offloaded: Vec::new(),
            pending: 0,
            read_closed: false,
        }
    }

    /// Feeds request bytes, answering every line they complete. A
    /// partial line stays buffered until its newline arrives; one that
    /// outgrows [`MAX_LINE_BYTES`] is refused with a `protocol` error and
    /// closes the read side.
    pub(crate) fn receive(&mut self, server: &Server, bytes: &[u8]) {
        if self.read_closed {
            return;
        }
        // The buffer is moved out while its lines are answered: they
        // borrow from it, and answering needs the rest of `self`.
        let mut recv = std::mem::take(&mut self.recv);
        recv.extend(bytes);
        while let Some(line) = recv.next_line() {
            self.answer_line(server, &line);
        }
        recv.compact();
        self.recv = recv;
        if self.recv.len() > MAX_LINE_BYTES {
            // This refusal never reaches admit() — the buffered bytes are
            // dropped unparsed — so the server counts it and records its
            // parse span explicitly, keeping refused traffic visible in
            // `metrics` like every other error.
            self.out
                .push_line(&server.refuse_preadmission(&RequestError::new(
                    ErrorKind::Protocol,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                )));
            self.recv.clear();
            self.read_closed = true;
        }
    }

    /// Ends the read side (EOF or a read error). A final line without a
    /// trailing newline still gets its answer.
    pub(crate) fn close_read(&mut self, server: &Server) {
        if self.read_closed {
            return;
        }
        if let Some(line) = self.recv.take_trailing() {
            self.answer_line(server, &line);
        }
        self.read_closed = true;
    }

    /// Admits and answers one request line: inline for everything cheap
    /// (and for untagged requests, whose responses must stay in arrival
    /// order), queued for the caller's worker pool for heavy tagged work
    /// when this connection offloads.
    fn answer_line(&mut self, server: &Server, line: &str) {
        match server.admit(&mut self.last_id, line) {
            Admitted::Blank => {}
            Admitted::Reply(response) => self.out.push_line(&response),
            Admitted::Run {
                id: Some(id),
                request,
                parse_ns,
            } if self.offload_heavy && Server::is_heavy(&request) => {
                self.pending += 1;
                self.offloaded.push(Offloaded {
                    id,
                    request,
                    parse_ns,
                });
            }
            Admitted::Run {
                id,
                request,
                parse_ns,
            } => {
                let reply = server.complete(id, request, ReqCtx::inline(parse_ns));
                self.out.push_reply(&reply);
            }
        }
    }

    /// The heavy requests queued since the last call; each owes one
    /// [`deliver`](Self::deliver).
    pub(crate) fn take_offloaded(&mut self) -> std::vec::Drain<'_, Offloaded> {
        self.offloaded.drain(..)
    }

    /// Queues the reply of one offloaded request.
    pub(crate) fn deliver(&mut self, reply: &Reply) {
        self.pending -= 1;
        self.out.push_reply(reply);
    }

    /// Writes as much queued output as `writer` accepts; see
    /// [`SendBuffer::flush_to`].
    pub(crate) fn flush_to<W: Write>(&mut self, writer: &mut W) -> io::Result<bool> {
        self.out.flush_to(writer)
    }

    /// Whether more request bytes are welcome.
    pub(crate) fn wants_read(&self) -> bool {
        !self.read_closed
    }

    /// Whether replies are queued and not yet written.
    pub(crate) fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Nothing left to read, write or wait for: the connection can close.
    pub(crate) fn is_finished(&self) -> bool {
        self.read_closed && self.out.is_empty() && self.pending == 0
    }
}

/// The fixed pool of shard event loops serving one listener.
pub(crate) struct ShardSet {
    shards: Vec<Arc<Shard>>,
    next: AtomicUsize,
}

impl ShardSet {
    /// Spawns `count` shard threads (clamped to at least 1), each with
    /// its own poller and inbox.
    ///
    /// # Errors
    ///
    /// Fails when the platform has no readiness backend (`Unsupported`,
    /// outside unix) or a thread cannot spawn.
    pub(crate) fn spawn(server: &Arc<Server>, count: usize) -> io::Result<ShardSet> {
        let count = count.max(1);
        let mut shards = Vec::with_capacity(count);
        for i in 0..count {
            let shard = Arc::new(Shard {
                poller: Poller::new()?,
                inbox: Mutex::new(Inbox::default()),
            });
            let server = Arc::clone(server);
            let loop_shard = Arc::clone(&shard);
            std::thread::Builder::new()
                .name(format!("mps-serve-shard-{i}"))
                .spawn(move || {
                    // Lane 0 is the inline lane; shard lanes follow.
                    server.telemetry().bind_lane(1 + i);
                    shard_loop(&server, &loop_shard);
                })?;
            shards.push(shard);
        }
        Ok(ShardSet {
            shards,
            next: AtomicUsize::new(0),
        })
    }

    /// Hands one accepted connection (and its open-gauge guard) to the
    /// next shard round-robin and wakes that shard's loop.
    pub(crate) fn assign(&self, stream: TcpStream, guard: OpenConnGuard) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[i];
        lock_recover(&shard.inbox).joins.push((stream, guard));
        let _ = shard.poller.wake();
    }
}

/// One shard: a poller the loop blocks on, and the inbox other threads
/// feed (new connections from the acceptor, completions from pool
/// workers), always paired with a [`Poller::wake`].
struct Shard {
    poller: Poller,
    inbox: Mutex<Inbox>,
}

#[derive(Default)]
struct Inbox {
    /// Connections accepted but not yet owned by the shard loop.
    joins: Vec<(TcpStream, OpenConnGuard)>,
    /// Rendered replies (JSON lines or binary frames) from pooled heavy
    /// requests, by token.
    completions: Vec<(usize, Reply)>,
}

/// What [`Conn::finalize`] decided about the connection's future.
#[derive(PartialEq, Eq)]
enum ConnFate {
    Alive,
    Closed,
}

/// One connection as a shard owns it: the socket, the protocol engine,
/// and the poller registration.
struct Conn {
    stream: TcpStream,
    engine: Connection,
    /// The interest currently registered with the poller, if any.
    registered: Option<Interest>,
    /// Ties the open-connection gauge to this struct's lifetime.
    _guard: OpenConnGuard,
}

impl Conn {
    fn new(stream: TcpStream, guard: OpenConnGuard) -> Conn {
        Conn {
            stream,
            engine: Connection::new(true),
            registered: None,
            _guard: guard,
        }
    }

    /// Reads what the socket holds, answering every complete line as it
    /// appears. A read that fills the whole scratch chunk loops for
    /// more; a shorter one ends the drain without the extra `read` that
    /// would only report `WouldBlock`. The poller is level-triggered, so
    /// bytes that arrive after the short read, and EOF, are reported
    /// again on the next wait.
    fn drain_socket(&mut self, server: &Arc<Server>, shard: &Arc<Shard>, token: usize) {
        let mut scratch = [0u8; READ_CHUNK];
        // One recv-stage sample per drain: the summed time the read()
        // syscalls themselves took, not the inline request handling
        // between them (that is parse/dispatch time, counted there).
        let telemetry_on = server.telemetry().enabled();
        let mut read_ns: u64 = 0;
        let mut did_read = false;
        while self.engine.wants_read() {
            let t = telemetry_on.then(Instant::now);
            let outcome = self.stream.read(&mut scratch);
            if let Some(t) = t {
                read_ns = read_ns.saturating_add(ns_since(t));
                did_read = true;
            }
            let mut drained = false;
            match outcome {
                Ok(0) => self.engine.close_read(server),
                Ok(n) => {
                    self.engine.receive(server, &scratch[..n]);
                    drained = n < READ_CHUNK;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.engine.close_read(server),
            }
            self.submit_offloaded(server, shard, token);
            if drained {
                break;
            }
        }
        if did_read {
            server.telemetry().record(Stage::Recv, read_ns);
        }
    }

    /// Sends the engine's heavy tagged requests to the worker pool; each
    /// reply comes back through the shard inbox as a completion.
    fn submit_offloaded(&mut self, server: &Arc<Server>, shard: &Arc<Shard>, token: usize) {
        for job in self.engine.take_offloaded() {
            let shard = Arc::clone(shard);
            let sink: ResponseSink = Arc::new(move |reply: Reply| {
                lock_recover(&shard.inbox).completions.push((token, reply));
                let _ = shard.poller.wake();
            });
            server.submit_heavy(job.id, job.request, job.parse_ns, sink);
        }
    }

    /// Settles the connection after any activity: flushes as much output
    /// as the socket accepts, decides whether the connection is done,
    /// and keeps the poller registration in sync with what the
    /// connection actually waits for. A connection with nothing to read
    /// (EOF) and nothing to write but responses still in the pool is
    /// deregistered entirely — the completion wake-up is its only next
    /// event, and a level-triggered EOF socket would otherwise spin the
    /// loop hot.
    fn finalize(&mut self, server: &Arc<Server>, poller: &Poller, token: usize) -> ConnFate {
        let t = (self.engine.has_output() && server.telemetry().enabled()).then(Instant::now);
        let flushed = self.engine.flush_to(&mut self.stream);
        if let Some(t) = t {
            server.telemetry().record(Stage::Write, ns_since(t));
        }
        if flushed.is_err() || self.engine.is_finished() {
            return ConnFate::Closed;
        }
        let desired = match (self.engine.wants_read(), self.engine.has_output()) {
            (true, true) => Some(Interest::BOTH),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None, // waiting only on pooled completions
        };
        if desired == self.registered {
            return ConnFate::Alive;
        }
        let fd = raw_fd(&self.stream);
        let outcome = match (self.registered, desired) {
            (None, Some(interest)) => poller.register(fd, token, interest),
            (Some(_), Some(interest)) => poller.reregister(fd, token, interest),
            (Some(_), None) => poller.deregister(fd),
            (None, None) => Ok(()),
        };
        if outcome.is_err() {
            return ConnFate::Closed;
        }
        self.registered = desired;
        ConnFate::Alive
    }
}

/// The heart of one shard: block on the poller, absorb whatever the
/// inbox brought (new connections, completions), then service readiness
/// per connection. Every iteration ends with each touched connection
/// either settled (buffers flushed as far as the socket allows,
/// registration matching its remaining interests) or closed.
fn shard_loop(server: &Arc<Server>, shard: &Arc<Shard>) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token: usize = 0;
    let mut events = Vec::new();
    loop {
        if shard.poller.wait(&mut events, None).is_err() {
            // Pathological (the poller fd itself failed). Back off so a
            // persistent error cannot spin the core; the inbox drain
            // below still makes progress.
            std::thread::sleep(Duration::from_millis(10));
        }
        let (joins, completions) = {
            let mut inbox = lock_recover(&shard.inbox);
            (
                std::mem::take(&mut inbox.joins),
                std::mem::take(&mut inbox.completions),
            )
        };
        for (stream, guard) in joins {
            if stream.set_nonblocking(true).is_err() {
                continue; // guard drops: the admission slot frees
            }
            let token = next_token;
            // WAKE_TOKEN is usize::MAX: unreachable by increment in any
            // realistic process lifetime, but skip it all the same.
            next_token = next_token.wrapping_add(1);
            if next_token == WAKE_TOKEN {
                next_token = 0;
            }
            let mut conn = Conn::new(stream, guard);
            // The socket may already hold data (or EOF) from before the
            // handoff; level-triggered registration inside finalize
            // surfaces it on the next wait either way, but draining now
            // answers the common connect-send-immediately case without
            // an extra loop turn.
            conn.drain_socket(server, shard, token);
            if conn.finalize(server, &shard.poller, token) == ConnFate::Alive {
                conns.insert(token, conn);
            }
        }
        for (token, reply) in completions {
            // A completion for a connection that died while its request
            // was in the pool is discarded: there is no one to answer.
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            conn.engine.deliver(&reply);
            if conn.finalize(server, &shard.poller, token) == ConnFate::Closed {
                remove_conn(&shard.poller, &mut conns, token);
            }
        }
        for &event in &events {
            let Some(conn) = conns.get_mut(&event.token) else {
                continue; // closed earlier this iteration
            };
            if event.readable {
                conn.drain_socket(server, shard, event.token);
            } else if event.hangup {
                // Pure error report (no data): the next read would only
                // error; stop reading and let finalize settle the rest.
                conn.engine.close_read(server);
                conn.submit_offloaded(server, shard, event.token);
            }
            if conn.finalize(server, &shard.poller, event.token) == ConnFate::Closed {
                remove_conn(&shard.poller, &mut conns, event.token);
            }
        }
    }
}

/// Drops one connection, unhooking it from the poller first. Dropping
/// the [`Conn`] closes the socket and releases its open-gauge guard.
fn remove_conn(poller: &Poller, conns: &mut HashMap<usize, Conn>, token: usize) {
    if let Some(conn) = conns.remove(&token) {
        if conn.registered.is_some() {
            let _ = poller.deregister(raw_fd(&conn.stream));
        }
    }
}

/// Accumulates request bytes until a full `\n`-terminated line exists.
/// The split points TCP chooses are invisible to the protocol layer: a
/// line may arrive in one segment with ten siblings or one byte at a
/// time. Lines are handed out as slices behind a read cursor, and the
/// consumed prefix is dropped once per [`compact`](Self::compact), so a
/// chunk of many lines is not copied once per line.
#[derive(Default)]
struct RecvBuffer {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    start: usize,
    /// How far the newline scan has already looked (never before
    /// `start`), so a long line arriving in many segments is not
    /// rescanned from the start.
    scanned: usize,
}

impl RecvBuffer {
    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet consumed as lines.
    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
    }

    /// Drops the consumed lines, moving the partial line (if any) to the
    /// front.
    fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
    }

    /// Takes the next complete line off the front (newline consumed, a
    /// trailing `\r` stripped), or `None` until one exists. A valid line
    /// is borrowed from the buffer; invalid UTF-8 is replaced lossily and
    /// flows through to the parser, which answers it with a typed error,
    /// and the connection lives on.
    fn next_line(&mut self) -> Option<Cow<'_, str>> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let end = self.scanned + rel;
                let mut line = &self.buf[self.start..end];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                self.start = end + 1;
                self.scanned = self.start;
                Some(String::from_utf8_lossy(line))
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// At EOF: the final unterminated line, if any.
    fn take_trailing(&mut self) -> Option<String> {
        if self.len() == 0 {
            return None;
        }
        let line = String::from_utf8_lossy(&self.buf[self.start..]).into_owned();
        self.clear();
        Some(line)
    }
}

/// Buffers rendered response lines toward one socket, surviving partial
/// writes: `flush_to` pushes as much as the peer accepts and the
/// unwritten tail waits for the next write-readiness event.
#[derive(Default)]
struct SendBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    pos: usize,
}

impl SendBuffer {
    fn push_line(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// Queues one reply: a newline-terminated JSON line, or a binary
    /// frame's raw bytes (self-delimiting, no terminator).
    fn push_reply(&mut self, reply: &Reply) {
        match reply {
            Reply::Line(line) => self.push_line(line),
            Reply::Frame(frame) => self.buf.extend_from_slice(frame),
        }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Writes as much as `writer` accepts. `Ok(true)` means everything
    /// is out; `Ok(false)` means the socket pushed back (WouldBlock) and
    /// the rest is parked; `Err` is fatal for the connection.
    fn flush_to<W: Write>(&mut self, writer: &mut W) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match writer.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.compact();
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }

    /// Drops the already-written prefix so a long-lived slow reader
    /// cannot grow the buffer without bound.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ServedStructure, StructureRegistry};
    use crate::server::HEAVY_BATCH_THRESHOLD;
    use crate::ServerConfig;
    use mps_core::{GeneratorConfig, MpsGenerator};
    use mps_geom::{Coord, Dims};
    use mps_netlist::benchmarks;
    use proptest::prelude::*;
    use serde::Value;
    use std::sync::OnceLock;

    /// One server for every property case. The answer cache is off, so
    /// every `instantiate` these tests send is an uncached one.
    fn engine_server() -> &'static Server {
        static SERVER: OnceLock<Server> = OnceLock::new();
        SERVER.get_or_init(|| {
            let config = GeneratorConfig::builder()
                .outer_iterations(30)
                .inner_iterations(30)
                .seed(11)
                .build();
            let mps = MpsGenerator::new(&benchmarks::circ01(), config)
                .generate()
                .unwrap();
            let registry = StructureRegistry::in_memory();
            registry.publish(ServedStructure::from_structure("circ01", mps));
            Server::with_config(
                Arc::new(registry),
                ServerConfig {
                    workers: 1,
                    shards: 1,
                    cache_entries: 0,
                    ..ServerConfig::default()
                },
            )
        })
    }

    /// What one untagged reply must say: an answered query's id, or an
    /// error's kind.
    #[derive(Debug, PartialEq)]
    enum Untagged {
        Query(Option<u64>),
        Batch(Vec<Option<u64>>),
        Error(String),
    }

    /// Renders a random line mix (valid, malformed, blank, invalid
    /// UTF-8, tagged and untagged, heavy and cheap) and what it must
    /// produce: the untagged replies in request order, the number of
    /// tagged replies, and how many of those an offloading connection
    /// hands to the pool.
    fn script(
        server: &Server,
        picks: &[(u8, usize)],
        newline_at_end: bool,
    ) -> (Vec<u8>, Vec<Untagged>, usize, usize) {
        let served = server.registry().get("circ01").unwrap();
        let bounds = served.structure().bounds().to_vec();
        let dims_json = |k: usize| -> (Dims, String) {
            let dims: Dims = bounds
                .iter()
                .map(|b| {
                    (
                        b.w.lo() + (k as Coord * 7) % (b.w.len() as Coord),
                        b.h.lo() + (k as Coord * 13) % (b.h.len() as Coord),
                    )
                })
                .collect();
            let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
            (dims, format!("[{}]", pairs.join(",")))
        };
        let mut bytes = Vec::new();
        let mut untagged = Vec::new();
        let mut next_id: u64 = 0;
        let mut tagged_replies = 0;
        let mut heavy = 0;
        for (i, &(pick, k)) in picks.iter().enumerate() {
            let (dims, json) = dims_json(k);
            let line: Vec<u8> = match pick {
                0 => {
                    untagged.push(if next_id == 0 {
                        Untagged::Query(served.structure().query(&dims).map(|id| u64::from(id.0)))
                    } else {
                        Untagged::Error("bad_id".to_owned())
                    });
                    format!(r#"{{"kind":"query","structure":"circ01","dims":{json}}}"#).into()
                }
                1 | 2 => {
                    let kind = if pick == 1 { "query" } else { "instantiate" };
                    next_id += 1 + (k % 3) as u64;
                    tagged_replies += 1;
                    format!(
                        r#"{{"id":{next_id},"kind":"{kind}","structure":"circ01","dims":{json}}}"#
                    )
                    .into()
                }
                3 => {
                    untagged.push(Untagged::Error("parse".to_owned()));
                    b"{oops".to_vec()
                }
                4 => b"   ".to_vec(),
                5 if next_id > 0 => {
                    untagged.push(Untagged::Error("bad_id".to_owned()));
                    format!(r#"{{"id":{next_id},"kind":"list_structures"}}"#).into()
                }
                // A batch at the heavy threshold: heavy when tagged,
                // answered inline and in order when untagged.
                7 | 8 => {
                    let batch = vec![json.as_str(); HEAVY_BATCH_THRESHOLD].join(",");
                    let body = format!(
                        r#""kind":"batch_query","structure":"circ01","dims_list":[{batch}]"#
                    );
                    if pick == 7 {
                        next_id += 1 + (k % 3) as u64;
                        tagged_replies += 1;
                        heavy += 1;
                        format!(r#"{{"id":{next_id},{body}}}"#).into()
                    } else {
                        untagged.push(if next_id == 0 {
                            let id = served.structure().query(&dims).map(|id| u64::from(id.0));
                            Untagged::Batch(vec![id; HEAVY_BATCH_THRESHOLD])
                        } else {
                            Untagged::Error("bad_id".to_owned())
                        });
                        format!("{{{body}}}").into()
                    }
                }
                _ => {
                    untagged.push(Untagged::Error("parse".to_owned()));
                    b"{\"kind\":\xff\xfe}".to_vec()
                }
            };
            bytes.extend_from_slice(&line);
            let last = i + 1 == picks.len();
            if !last || newline_at_end {
                bytes.extend_from_slice(if k % 2 == 0 { b"\n" } else { b"\r\n" });
            }
        }
        (bytes, untagged, tagged_replies, heavy)
    }

    /// Drives one offloading connection through `pieces`, then answers
    /// its parked heavy requests last, as a pool would after the fact.
    /// Returns the output and how many requests were parked.
    fn feed<'a>(server: &Server, pieces: impl Iterator<Item = &'a [u8]>) -> (Vec<u8>, usize) {
        let mut conn = Connection::new(true);
        let mut parked = Vec::new();
        let mut out = Vec::new();
        for piece in pieces {
            conn.receive(server, piece);
            parked.extend(conn.take_offloaded());
            assert!(conn.flush_to(&mut out).unwrap());
        }
        conn.close_read(server);
        parked.extend(conn.take_offloaded());
        let offloaded = parked.len();
        for job in parked {
            let reply = server.complete(Some(job.id), job.request, ReqCtx::inline(job.parse_ns));
            conn.deliver(&reply);
        }
        assert!(conn.flush_to(&mut out).unwrap());
        assert!(conn.is_finished());
        (out, offloaded)
    }

    proptest! {
        #[test]
        fn connection_output_ignores_byte_splits(
            picks in prop::collection::vec((0u8..9, 0usize..1000), 0..24),
            cuts in prop::collection::vec(1usize..48, 1..16),
            newline_at_end in prop::bool::ANY,
        ) {
            let server = engine_server();
            let (bytes, untagged, tagged_replies, heavy) = script(server, &picks, newline_at_end);
            let (whole, offloaded) = feed(server, std::iter::once(&bytes[..]));
            prop_assert_eq!(offloaded, heavy);
            let mut rest = &bytes[..];
            let mut split = Vec::new();
            for &cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                split.push(head);
                rest = tail;
            }
            let (split, _) = feed(server, split.into_iter());
            let (bytewise, _) = feed(server, bytes.chunks(1));
            prop_assert_eq!(&whole, &split);
            prop_assert_eq!(&whole, &bytewise);

            let replies: Vec<Value> = String::from_utf8(whole)
                .unwrap()
                .lines()
                .map(|line| serde_json::parse(line).unwrap())
                .collect();
            let (tagged, plain): (Vec<&Value>, Vec<&Value>) =
                replies.iter().partition(|v| v.get("req").is_some());
            prop_assert_eq!(tagged.len(), tagged_replies);
            let plain: Vec<Untagged> = plain
                .into_iter()
                .map(|v| match v.get("error") {
                    Some(e) => Untagged::Error(
                        e.get("kind").and_then(Value::as_str).unwrap().to_owned(),
                    ),
                    None => match v.get("ids").and_then(Value::as_array) {
                        Some(ids) => Untagged::Batch(ids.iter().map(Value::as_u64).collect()),
                        None => Untagged::Query(v.get("id").and_then(Value::as_u64)),
                    },
                })
                .collect();
            prop_assert_eq!(plain, untagged);
        }
    }

    /// One in-bounds vector of `circ01` as a JSON dims array.
    fn first_vector_json(server: &Server) -> (Dims, String) {
        let served = server.registry().get("circ01").unwrap();
        let dims: Dims = served
            .structure()
            .bounds()
            .iter()
            .map(|b| (b.w.lo(), b.h.lo()))
            .collect();
        let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
        (dims, format!("[{}]", pairs.join(",")))
    }

    /// An offloading connection answers a tagged, uncached `instantiate`
    /// within the `receive` that carried it: nothing goes to the pool and
    /// nothing is left pending.
    #[test]
    fn offloading_connection_answers_uncached_instantiate_inline() {
        let server = engine_server();
        let (dims, json) = first_vector_json(server);
        let mut conn = Connection::new(true);
        conn.receive(
            server,
            format!(
                "{{\"id\":7,\"kind\":\"instantiate\",\"structure\":\"circ01\",\"dims\":{json}}}\n"
            )
            .as_bytes(),
        );
        assert_eq!(conn.take_offloaded().count(), 0, "nothing offloaded");
        assert!(conn.has_output(), "the reply is already queued");
        let mut out = Vec::new();
        assert!(conn.flush_to(&mut out).unwrap());
        let reply = serde_json::parse(std::str::from_utf8(&out).unwrap().trim_end()).unwrap();
        assert_eq!(reply.get("req").and_then(Value::as_u64), Some(7));
        let coords: Vec<(Coord, Coord)> = reply
            .get("coords")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|p| {
                let p = p.as_array().unwrap();
                (p[0].as_i64().unwrap(), p[1].as_i64().unwrap())
            })
            .collect();
        let served = server.registry().get("circ01").unwrap();
        let expected: Vec<(Coord, Coord)> = served
            .structure()
            .instantiate_or_fallback(&dims)
            .coords()
            .iter()
            .map(|p| (p.x, p.y))
            .collect();
        assert_eq!(coords, expected);
        conn.close_read(server);
        assert!(conn.is_finished(), "no reply is owed");
    }

    /// A tagged batch at the heavy threshold and a tagged triggered
    /// `refine` still leave the shard thread for the pool.
    #[test]
    fn offloading_connection_still_offloads_large_batches_and_refine_runs() {
        let server = engine_server();
        let (_, json) = first_vector_json(server);
        let batch = vec![json.as_str(); HEAVY_BATCH_THRESHOLD].join(",");
        let mut conn = Connection::new(true);
        conn.receive(
            server,
            format!(
                "{{\"id\":1,\"kind\":\"batch_query\",\"structure\":\"circ01\",\"dims_list\":[{batch}]}}\n\
                 {{\"id\":2,\"kind\":\"refine\",\"action\":\"run\",\"structure\":\"circ01\"}}\n"
            )
            .as_bytes(),
        );
        let offloaded: Vec<(u64, &str)> = conn
            .take_offloaded()
            .map(|job| (job.id, job.request.kind_str()))
            .collect();
        assert_eq!(offloaded, [(1, "batch_query"), (2, "refine")]);
        assert!(!conn.has_output(), "both replies come from the pool");
        conn.close_read(server);
        assert!(!conn.is_finished(), "two replies are still owed");
    }

    #[test]
    fn recv_buffer_reassembles_a_line_split_across_segments() {
        let mut recv = RecvBuffer::default();
        recv.extend(b"{\"kind\":\"met");
        assert_eq!(recv.next_line(), None, "no newline yet");
        recv.extend(b"rics\"}");
        assert_eq!(recv.next_line(), None, "still no newline");
        recv.extend(b"\n{\"kind\":");
        assert_eq!(recv.next_line().as_deref(), Some("{\"kind\":\"metrics\"}"));
        assert_eq!(recv.next_line(), None);
        assert_eq!(recv.len(), b"{\"kind\":".len(), "the tail stays buffered");
    }

    #[test]
    fn recv_buffer_yields_multiple_lines_from_one_segment() {
        let mut recv = RecvBuffer::default();
        recv.extend(b"one\r\ntwo\n\nthree");
        assert_eq!(recv.next_line().as_deref(), Some("one"), "CR stripped");
        assert_eq!(recv.next_line().as_deref(), Some("two"));
        assert_eq!(recv.next_line().as_deref(), Some(""), "blank line kept");
        assert_eq!(recv.next_line(), None);
        assert_eq!(recv.take_trailing().as_deref(), Some("three"));
        assert_eq!(recv.take_trailing(), None);
    }

    #[test]
    fn recv_buffer_handles_byte_at_a_time_arrival() {
        let mut recv = RecvBuffer::default();
        for &b in b"{\"kind\":\"metrics\"}" {
            recv.extend(&[b]);
            assert_eq!(recv.next_line(), None);
        }
        recv.extend(b"\n");
        assert_eq!(recv.next_line().as_deref(), Some("{\"kind\":\"metrics\"}"));
    }

    /// Many pipelined lines in one chunk are all answered, in order, and
    /// the buffer holds nothing afterwards.
    #[test]
    fn a_chunk_of_1000_tagged_lines_is_answered_in_order() {
        let server = engine_server();
        let chunk: String = (1..=1000)
            .map(|id| format!("{{\"id\":{id},\"kind\":\"list_structures\"}}\n"))
            .collect();
        let mut conn = Connection::new(true);
        conn.receive(server, chunk.as_bytes());
        assert_eq!(conn.recv.len(), 0, "every line was consumed");
        let mut out = Vec::new();
        assert!(conn.flush_to(&mut out).unwrap());
        let reqs: Vec<Option<u64>> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|line| {
                let reply = serde_json::parse(line).unwrap();
                assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
                reply.get("req").and_then(Value::as_u64)
            })
            .collect();
        assert_eq!(reqs, (1..=1000).map(Some).collect::<Vec<_>>());
    }

    /// A writer that accepts a budget of bytes, then reports WouldBlock
    /// — a full socket send buffer in miniature.
    struct Throttled {
        accept: usize,
        out: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.accept == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.accept);
            self.accept -= n;
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_buffer_parks_the_tail_on_a_full_socket_and_resumes() {
        let mut out = SendBuffer::default();
        out.push_line("{\"ok\":true,\"kind\":\"metrics\"}");
        out.push_line("{\"ok\":true,\"kind\":\"query\"}");
        let mut sock = Throttled {
            accept: 10,
            out: Vec::new(),
        };
        assert!(!out.flush_to(&mut sock).unwrap(), "socket filled up");
        assert!(!out.is_empty());
        assert_eq!(sock.out.len(), 10);
        // The peer drained its receive queue: writability returns.
        sock.accept = usize::MAX;
        assert!(out.flush_to(&mut sock).unwrap());
        assert!(out.is_empty());
        assert_eq!(
            sock.out,
            b"{\"ok\":true,\"kind\":\"metrics\"}\n{\"ok\":true,\"kind\":\"query\"}\n"
        );
    }

    #[test]
    fn send_buffer_treats_write_zero_as_fatal() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = SendBuffer::default();
        out.push_line("x");
        let err = out.flush_to(&mut Zero).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn send_buffer_retries_interrupted_writes() {
        struct InterruptOnce {
            interrupted: bool,
            out: Vec<u8>,
        }
        impl Write for InterruptOnce {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !self.interrupted {
                    self.interrupted = true;
                    return Err(io::ErrorKind::Interrupted.into());
                }
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = SendBuffer::default();
        out.push_line("ping");
        let mut sock = InterruptOnce {
            interrupted: false,
            out: Vec::new(),
        };
        assert!(out.flush_to(&mut sock).unwrap());
        assert_eq!(sock.out, b"ping\n");
    }
}
