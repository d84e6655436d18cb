//! Load against the real `mps-serve` binary: spawning it, the `walk`
//! closed loop, the `sweep` batch loop with its paced neighbour, and the
//! checks of every buffered reply after the window closes.

use crate::inputs::{InstantiateAnswer, Step};
use crate::report::Tally;
use crate::sys;
use serde_json::Value;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned `mps-serve --tcp 0`, killed and reaped on drop. Its stdin
/// stays open so it keeps serving TCP.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    _stdin: ChildStdin,
}

impl ServerProc {
    /// Spawns the server and waits for its `listening` announce; returns
    /// it with the set-up time (spawn until announce).
    pub fn spawn(bin: &Path, dir: &Path, args: &[&str]) -> (Self, Duration) {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg(dir)
            .args(["--tcp", "0"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut announce = String::new();
        let _ = stdout.read_line(&mut announce);
        let setup = started.elapsed();
        let value = serde_json::parse(announce.trim()).ok();
        let addr = value
            .as_ref()
            .filter(|v| v.get("kind").and_then(Value::as_str) == Some("listening"))
            .and_then(|v| v.get("addr").and_then(Value::as_str))
            .map(str::to_owned);
        // Owned before the announce is checked, so that a server that
        // failed to start is still killed and reaped by `Drop`.
        let mut proc = Self {
            child,
            addr: String::new(),
            _stdin: stdin,
        };
        proc.addr = addr.unwrap_or_else(|| {
            panic!("mps-serve did not announce a listening address: {announce:?}")
        });
        (proc, setup)
    }

    /// Spawns `times` servers one after another, keeping the last; the
    /// set-up times of all of them come back in spawn order.
    pub fn spawn_repeated(bin: &Path, dir: &Path, args: &[&str], times: usize) -> (Self, Vec<f64>) {
        let mut setups = Vec::with_capacity(times);
        let mut last = None;
        for _ in 0..times.max(1) {
            drop(last.take());
            let (proc, setup) = Self::spawn(bin, dir, args);
            setups.push(setup.as_secs_f64());
            last = Some(proc);
        }
        (last.expect("spawned at least once"), setups)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn sample(&self) -> sys::ProcSample {
        sys::sample(&self.pid())
    }

    /// The server's `metrics` telemetry snapshot over a fresh connection.
    pub fn metrics(&self) -> Value {
        let stream = connect(&self.addr);
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        writer
            .write_all(b"{\"kind\":\"metrics\"}\n")
            .expect("metrics request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("metrics response");
        serde_json::parse(line.trim_end()).expect("metrics response is JSON")
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream
}

/// Request lines rendered before the clock: each line is the part after
/// the `{"id":<k>,` tag, newline included. Only the integer tag is
/// written at send time, so ids stay strictly increasing per
/// connection however many lines a window uses.
#[derive(Default)]
pub struct Lines {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Lines {
    pub fn push(&mut self, suffix: &str) {
        self.bytes.extend_from_slice(suffix.as_bytes());
        self.bytes.push(b'\n');
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Line `i` as an untagged request, without its newline: what
    /// `Server::handle_line` and `parse_envelope` take.
    pub fn untagged(&self, i: usize) -> String {
        let suffix = std::str::from_utf8(self.get(i)).expect("rendered as UTF-8");
        format!("{{{}", suffix.trim_end())
    }

    /// Writes the tagged line `k` into `out`.
    fn render(&self, k: usize, line: usize, out: &mut Vec<u8>) {
        out.clear();
        let _ = write!(out, "{{\"id\":{k},");
        out.extend_from_slice(self.get(line));
    }
}

/// Replies buffered during a window, one slice per reply.
#[derive(Default)]
pub struct Replies {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Replies {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// Fingerprint of an `instantiate` answer, so the references of a long
/// stream cost eight bytes each.
pub fn answer_hash(id: Option<u64>, coords: impl IntoIterator<Item = (i64, i64)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(id.map_or(u64::MAX, |id| id));
    for (x, y) in coords {
        eat(x as u64);
        eat(y as u64);
    }
    h
}

pub fn reference_hash(answer: &InstantiateAnswer) -> u64 {
    answer_hash(answer.id, answer.coords.iter().copied())
}

/// Checks one `instantiate` reply against the expected tag and answer;
/// `Some(fallback)` when it matches.
pub fn check_instantiate(reply: &[u8], req: u64, want: u64) -> Option<bool> {
    let text = std::str::from_utf8(reply).ok()?;
    let v = serde_json::parse(text.trim_end()).ok()?;
    if v.get("ok").and_then(Value::as_bool) != Some(true)
        || v.get("req").and_then(Value::as_u64) != Some(req)
    {
        return None;
    }
    let id = v.get("id").and_then(Value::as_u64);
    let coords = v.get("coords")?.as_array()?;
    let mut pairs = Vec::with_capacity(coords.len());
    for p in coords {
        let xy = p.as_array()?;
        pairs.push((xy.first()?.as_i64()?, xy.get(1)?.as_i64()?));
    }
    (answer_hash(id, pairs) == want)
        .then(|| v.get("fallback").and_then(Value::as_bool) == Some(true))
}

/// One closed-loop `walk` window.
pub struct WalkRun {
    /// Round trip of each request, in send order.
    pub rtt_ns: Vec<u64>,
    /// When each reply arrived, in ns from the window start.
    pub done_ns: Vec<u64>,
    pub replies: Replies,
    pub wall: Duration,
    /// Per request: send start, send end, reply end, in ns from the
    /// window start. Recorded only in the traced run.
    pub spans: Vec<[u64; 3]>,
}

/// Sends the line of each step in order on one connection, one request
/// in flight, until `window` passes or the steps run out.
pub fn run_walk(
    addr: &str,
    lines: &Lines,
    steps: &[Step],
    window: Duration,
    traced: bool,
) -> WalkRun {
    let stream = connect(addr);
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut line = Vec::with_capacity(1024);
    let mut run = WalkRun {
        rtt_ns: Vec::with_capacity(steps.len()),
        done_ns: Vec::with_capacity(steps.len()),
        replies: Replies::default(),
        wall: Duration::ZERO,
        spans: Vec::new(),
    };
    let start = Instant::now();
    for (k, step) in steps.iter().enumerate() {
        lines.render(k, step.dims, &mut line);
        let sent = Instant::now();
        if sent - start >= window {
            break;
        }
        writer.write_all(&line).expect("walk write");
        let written = traced.then(Instant::now);
        let n = reader
            .read_until(b'\n', &mut run.replies.bytes)
            .expect("walk read");
        let done = Instant::now();
        assert!(n > 0, "server closed the walk connection");
        run.replies.ends.push(run.replies.bytes.len());
        run.rtt_ns.push((done - sent).as_nanos() as u64);
        run.done_ns.push((done - start).as_nanos() as u64);
        if let Some(written) = written {
            run.spans.push([
                (sent - start).as_nanos() as u64,
                (written - start).as_nanos() as u64,
                (done - start).as_nanos() as u64,
            ]);
        }
    }
    run.wall = start.elapsed();
    run
}

/// Verifies a walk window: reply `k` must carry tag `k` and the answer
/// `want` holds for step `k`'s vector. Returns the tally and how many
/// answers were covered by a stored placement.
pub fn verify_walk(replies: &Replies, want: &[u64], steps: &[Step]) -> (Tally, u64) {
    let mut tally = Tally::default();
    let mut covered = 0;
    for (k, step) in steps.iter().enumerate().take(replies.len()) {
        tally.attempted += 1;
        match check_instantiate(replies.get(k), k as u64, want[step.dims]) {
            Some(fallback) => covered += u64::from(!fallback),
            None => {
                tally.failed += 1;
                if tally.failed <= 3 {
                    eprintln!(
                        "perfbench: walk reply {k} diverges: {}",
                        String::from_utf8_lossy(replies.get(k)).trim_end()
                    );
                }
            }
        }
    }
    (tally, covered)
}

/// Reads one reply, a binary frame (first byte `M`) or a JSON line,
/// into `out` and returns its request tag. Only the fixed frame header
/// is looked at; a JSON line is an error reply, whose tag is read after
/// the window (`None` here).
fn read_reply(reader: &mut BufReader<TcpStream>, out: &mut Vec<u8>) -> Option<usize> {
    let first = reader.fill_buf().expect("sweep read").first().copied();
    if first.expect("server closed the batch connection") != b'M' {
        reader.read_until(b'\n', out).expect("sweep read");
        return None;
    }
    let start = out.len();
    out.resize(start + mps_serve::frame::HEADER_LEN, 0);
    reader.read_exact(&mut out[start..]).expect("frame header");
    let header = &out[start..];
    let req = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
    let body = out.len();
    out.resize(body + len, 0);
    reader.read_exact(&mut out[body..]).expect("frame payload");
    usize::try_from(req).ok()
}

/// One `sweep` window: the batch connection's outcome and the paced
/// neighbour's.
pub struct SweepRun {
    pub batch_rtt_ns: Vec<u64>,
    /// When each batch reply arrived, in ns from the window start.
    pub batch_done_ns: Vec<u64>,
    pub batch_replies: Replies,
    /// Batch requests sent; request `k` sent line `k % batch_lines`.
    pub batch_sent: usize,
    pub batch_lines: usize,
    pub batch_wall: Duration,
    pub neighbour: PacedRun,
}

/// The paced neighbour's outcome: per request its due time and send
/// time, and the replies with the time each arrived.
pub struct PacedRun {
    pub due_ns: Vec<u64>,
    pub sent_ns: Vec<u64>,
    pub replies: Replies,
    pub reply_ns: Vec<u64>,
}

impl PacedRun {
    /// Send lateness behind the schedule, in ns.
    pub fn lateness_ns(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.sent_ns)
            .map(|(&due, &sent)| sent.saturating_sub(due) as f64)
            .collect()
    }
}

/// Runs the batch closed loop (two in flight) on a second thread and the
/// open-loop neighbour at `rate` requests per second on this one, both
/// for `window`.
pub fn run_sweep(
    addr: &str,
    batches: &Lines,
    neighbour: (&Lines, &[Step]),
    rate: f64,
    window: Duration,
) -> SweepRun {
    std::thread::scope(|scope| {
        let batch = scope.spawn(|| {
            let stream = connect(addr);
            let mut reader =
                BufReader::with_capacity(1 << 20, stream.try_clone().expect("clone stream"));
            let mut writer = stream;
            let mut line = Vec::with_capacity(1 << 20);
            let mut replies = Replies::default();
            // Indexed by request tag: when each was sent, and its
            // round trip once the reply arrived.
            let mut sent_at: Vec<Instant> = Vec::new();
            let mut rtt = Vec::new();
            let mut done = Vec::new();
            let mut in_flight = 0;
            let start = Instant::now();
            loop {
                while in_flight < 2 && start.elapsed() < window {
                    let k = sent_at.len();
                    batches.render(k, k % batches.len(), &mut line);
                    sent_at.push(Instant::now());
                    writer.write_all(&line).expect("batch write");
                    in_flight += 1;
                }
                if in_flight == 0 {
                    break;
                }
                let req = read_reply(&mut reader, &mut replies.bytes);
                in_flight -= 1;
                replies.ends.push(replies.bytes.len());
                if let Some(sent) = req.and_then(|k| sent_at.get(k)) {
                    rtt.push(sent.elapsed().as_nanos() as u64);
                    done.push(start.elapsed().as_nanos() as u64);
                }
            }
            (rtt, done, replies, sent_at.len(), start.elapsed())
        });
        let paced = run_paced(addr, neighbour.0, neighbour.1, rate, window);
        let (batch_rtt_ns, batch_done_ns, batch_replies, batch_sent, batch_wall) =
            batch.join().expect("batch thread");
        SweepRun {
            batch_rtt_ns,
            batch_done_ns,
            batch_replies,
            batch_sent,
            batch_lines: batches.len(),
            batch_wall,
            neighbour: paced,
        }
    })
}

/// Open loop: request `k` is due at `k / rate` seconds and is sent then
/// whether or not earlier replies have come back.
fn run_paced(addr: &str, lines: &Lines, steps: &[Step], rate: f64, window: Duration) -> PacedRun {
    sys::tighten_timer_slack();
    let mut stream = connect(addr);
    stream.set_nonblocking(true).expect("nonblocking socket");
    let period = Duration::from_secs_f64(1.0 / rate);
    let total = ((window.as_secs_f64() * rate) as usize).min(steps.len());
    let mut run = PacedRun {
        due_ns: Vec::with_capacity(total),
        sent_ns: Vec::with_capacity(total),
        replies: Replies::default(),
        reply_ns: Vec::with_capacity(total),
    };
    let mut line = Vec::with_capacity(1024);
    let mut buf = vec![0u8; 1 << 16];
    let mut pending = Vec::new();
    let start = Instant::now();
    // Replies may trail the last send; give them a bounded grace period.
    let give_up = window + Duration::from_secs(5);
    while run.reply_ns.len() < total && start.elapsed() < give_up {
        let k = run.sent_ns.len();
        let due = period * k as u32;
        let now = start.elapsed();
        if k < total && now >= due {
            lines.render(k, steps[k].dims, &mut line);
            write_all_nonblocking(&mut stream, &line);
            run.due_ns.push(due.as_nanos() as u64);
            run.sent_ns.push(now.as_nanos() as u64);
            continue;
        }
        match stream.read(&mut buf) {
            Ok(0) => panic!("server closed the neighbour connection"),
            Ok(n) => {
                let at = start.elapsed().as_nanos() as u64;
                for &b in &buf[..n] {
                    pending.push(b);
                    if b == b'\n' {
                        run.replies.bytes.append(&mut pending);
                        run.replies.ends.push(run.replies.bytes.len());
                        run.reply_ns.push(at);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let wait = if k < total {
                    due.saturating_sub(start.elapsed())
                } else {
                    Duration::from_millis(10)
                };
                if !wait.is_zero() {
                    sys::wait_readable(&stream, wait);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("neighbour read: {e}"),
        }
    }
    run
}

fn write_all_nonblocking(stream: &mut TcpStream, mut data: &[u8]) {
    while !data.is_empty() {
        match stream.write(data) {
            Ok(n) => data = &data[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::yield_now();
            }
            Err(e) => panic!("neighbour write: {e}"),
        }
    }
}

/// Verifies the neighbour's replies (tagged, possibly out of order) and
/// returns, per request answered correctly, its due time and its latency
/// from due time; a request that failed or never came back is counted as
/// failed.
pub fn verify_paced(run: &PacedRun, want: &[u64], steps: &[Step]) -> (Tally, Vec<(u64, f64)>, u64) {
    let mut latency = vec![None; run.due_ns.len()];
    let mut covered = 0;
    for i in 0..run.replies.len() {
        let reply = run.replies.get(i);
        let req = std::str::from_utf8(reply)
            .ok()
            .and_then(|t| serde_json::parse(t.trim_end()).ok())
            .and_then(|v| v.get("req").and_then(Value::as_u64))
            .map(|r| r as usize);
        let Some(req) = req.filter(|&r| r < latency.len()) else {
            continue;
        };
        if let Some(fallback) = check_instantiate(reply, req as u64, want[steps[req].dims]) {
            covered += u64::from(!fallback);
            let due = run.due_ns[req];
            latency[req] = Some((due, run.reply_ns[i].saturating_sub(due) as f64));
        }
    }
    let tally = Tally {
        attempted: latency.len() as u64,
        failed: latency.iter().filter(|l| l.is_none()).count() as u64,
    };
    (tally, latency.into_iter().flatten().collect(), covered)
}

/// Verifies the batch replies: each must be a frame for a distinct tag
/// `k` that was sent, carrying the ids of batch line `k % lines`; a
/// request without such a reply counts as failed. Returns the tally (one
/// per batch) and the number of vectors answered correctly, and of those
/// covered.
pub fn verify_batches(run: &SweepRun, want: &[Vec<Option<u32>>]) -> (Tally, u64, u64) {
    let mut answered = vec![false; run.batch_sent];
    let mut vectors = 0;
    let mut covered = 0;
    for i in 0..run.batch_replies.len() {
        let reply = run.batch_replies.get(i);
        let matched = mps_serve::frame::decode_batch_ids(reply)
            .ok()
            .and_then(|(req, ids)| {
                let k = usize::try_from(req?)
                    .ok()
                    .filter(|&k| k < answered.len() && !answered[k])?;
                let expect = &want[k % run.batch_lines];
                let same = ids.len() == expect.len()
                    && ids
                        .iter()
                        .zip(expect)
                        .all(|(got, w)| got.map(|id| id.0) == *w);
                same.then_some((k, expect))
            });
        match matched {
            Some((k, expect)) => {
                answered[k] = true;
                vectors += expect.len() as u64;
                covered += expect.iter().filter(|id| id.is_some()).count() as u64;
            }
            None => eprintln!(
                "perfbench: batch reply {i} diverges: {}",
                String::from_utf8_lossy(&reply[..reply.len().min(120)])
            ),
        }
    }
    let tally = Tally {
        attempted: answered.len() as u64,
        failed: answered.iter().filter(|a| !**a).count() as u64,
    };
    (tally, vectors, covered)
}
