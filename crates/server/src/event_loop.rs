//! The nonblocking serving core: one epoll thread multiplexing every
//! connection through a per-connection state machine.
//!
//! ```text
//!  epoll_wait ──► accept (listener)            completions (eventfd)
//!       │              │                              ▲
//!       │              ▼                              │ posted by sim
//!       │        Conn slab entry                      │ workers / fuzz
//!       │   reading-head → reading-body → dispatched → writing
//!       │        │                │                    │
//!       │        └── timer wheel deadlines (408 / idle close)
//!       └── pipelined slots: ordered responses, bounded depth
//! ```
//!
//! Design rules the loop lives by:
//!
//! * **Level-triggered epoll, explicit interest.** The loop never leaves
//!   readable bytes unread while subscribed to `EPOLLIN`; when a
//!   connection's pipeline is full (or it is closing) read interest is
//!   dropped and TCP backpressure holds the rest.
//! * **Responses are ordered.** Each parsed request occupies one slot in
//!   a per-connection queue; only the front slot may write. A streaming
//!   slot (chunked sweep / fuzz progress) writes incrementally as
//!   completions arrive.
//! * **Errors close.** A framing error (400/408/413) is answered after
//!   the responses already owed, then the connection closes — nothing
//!   after untrusted framing is believed.
//! * **Deadlines are absolute.** The timer wheel arms one deadline per
//!   connection (request read, idle keep-alive, write stall) measured
//!   from the state transition, so a slow drip cannot extend it the way
//!   per-read `SO_RCVTIMEO` could.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, Response};
use crate::poll::{Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLOUT};
use crate::server::{dispatch_request, RequestAction, ServerState};
use crate::timer::{TimerEntry, TimerWheel};
use crate::wire;

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Timer-wheel granularity; also the idle epoll timeout.
const TICK: Duration = Duration::from_millis(50);
/// How long a quiescing drain waits before force-closing connections.
const DRAIN_FORCE_AFTER: Duration = Duration::from_secs(30);

/// Addresses one pipelined request slot on one connection, across slab
/// reuse (`generation`) — completions carrying a stale token are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotToken {
    pub(crate) conn: usize,
    pub(crate) generation: u64,
    pub(crate) seq: u64,
}

/// What a worker thread sends back to the loop for a dispatched slot.
pub(crate) enum Completion {
    /// A complete response for a `Waiting` slot.
    Respond(SlotToken, Response),
    /// Begin a chunked streaming response on a `Waiting` slot.
    StreamStart(SlotToken, u16, &'static str),
    /// One payload chunk of a streaming slot (not yet chunk-framed).
    StreamChunk(SlotToken, Vec<u8>),
    /// Terminate a streaming slot.
    StreamEnd(SlotToken),
}

/// The worker → loop channel: a mutex-guarded queue plus an eventfd that
/// wakes `epoll_wait`.
pub(crate) struct CompletionQueue {
    items: Mutex<VecDeque<Completion>>,
    wake: EventFd,
}

impl CompletionQueue {
    pub(crate) fn new() -> std::io::Result<Self> {
        Ok(CompletionQueue {
            items: Mutex::new(VecDeque::new()),
            wake: EventFd::new()?,
        })
    }

    /// Post one completion and wake the loop.
    pub(crate) fn post(&self, c: Completion) {
        self.items.lock().unwrap().push_back(c);
        self.wake.wake();
    }

    /// Wake the loop without posting (shutdown, flag changes).
    pub(crate) fn wake_now(&self) {
        self.wake.wake();
    }

    /// The eventfd, for epoll registration and the signal handler.
    pub(crate) fn wake_fd(&self) -> std::os::fd::RawFd {
        self.wake.raw_fd()
    }

    fn drain(&self) -> VecDeque<Completion> {
        self.wake.drain();
        std::mem::take(&mut *self.items.lock().unwrap())
    }
}

/// Per-client token buckets: fairness above the queue's global 429.
///
/// Each client IP accrues `rate` tokens/second up to `burst`; a
/// job-bearing request spends one. A dry bucket means 429 with a
/// computed `Retry-After` — one greedy client can no longer starve the
/// queue for everyone behind the same load balancer tier. `rate <= 0`
/// disables the policy (the default: single-tenant benches).
pub(crate) struct TokenBuckets {
    rate: f64,
    burst: f64,
    buckets: HashMap<IpAddr, (f64, Instant)>,
}

impl TokenBuckets {
    pub(crate) fn new(rate: f64, burst: f64) -> Self {
        TokenBuckets {
            rate,
            burst: burst.max(1.0),
            buckets: HashMap::new(),
        }
    }

    /// Spend one token for `ip`, or report how many whole seconds until
    /// one accrues.
    pub(crate) fn try_take(&mut self, ip: IpAddr, now: Instant) -> Result<(), u64> {
        if self.rate <= 0.0 {
            return Ok(());
        }
        if self.buckets.len() > 10_000 {
            let burst = self.burst;
            let rate = self.rate;
            // Drop buckets that have already refilled completely.
            self.buckets.retain(|_, (tokens, last)| {
                *tokens + now.saturating_duration_since(*last).as_secs_f64() * rate < burst
            });
        }
        let (tokens, last) = self.buckets.entry(ip).or_insert((self.burst, now));
        let dt = now.saturating_duration_since(*last).as_secs_f64();
        *tokens = (*tokens + dt * self.rate).min(self.burst);
        *last = now;
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            Ok(())
        } else {
            Err(((1.0 - *tokens) / self.rate).ceil().max(1.0) as u64)
        }
    }
}

enum SlotState {
    /// Dispatched; a completion will fill it.
    Waiting,
    /// A full response ready to serialize.
    Ready(Response),
    /// A chunked response in flight.
    Streaming {
        head: Option<Vec<u8>>,
        chunks: VecDeque<Vec<u8>>,
        done: bool,
    },
}

struct PipeSlot {
    seq: u64,
    keep_alive: bool,
    /// Close the connection after this slot is written (framing errors).
    close_after: bool,
    state: SlotState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    /// A request is (or should start) arriving: 408 on expiry.
    Request,
    /// Idle keep-alive connection: close silently on expiry.
    Idle,
    /// Flushing bytes the peer will not take: close on expiry.
    Write,
}

struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    slots: VecDeque<PipeSlot>,
    next_seq: u64,
    requests_served: u64,
    /// EOF seen (or reads abandoned after a framing error).
    read_closed: bool,
    /// No further requests will be parsed from this connection.
    stop_parsing: bool,
    /// Close once every owed byte is flushed.
    close_pending: bool,
    /// Drain mode: serve what is in flight, admit nothing new.
    draining: bool,
    dead: bool,
    registered: u32,
    deadline: Option<(u64, DeadlineKind)>,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }
}

/// Everything a connection step needs besides the connection itself.
struct Env<'a> {
    state: &'a Arc<ServerState>,
    ep: &'a Epoll,
    wheel: &'a mut TimerWheel,
    fair: &'a mut TokenBuckets,
    loop_started: Instant,
    scratch: &'a mut [u8],
}

impl Env<'_> {
    fn limits(&self) -> &http::Limits {
        &self.state.cfg.limits
    }

    fn read_cap(&self) -> usize {
        self.limits().max_head_bytes + self.limits().max_body_bytes + 4096
    }
}

/// The loop body of the serving thread. Returns when quiescing finishes:
/// listener closed, every connection drained or force-closed.
pub(crate) fn run_event_loop(listener: TcpListener, state: Arc<ServerState>) {
    let ep = Epoll::new().expect("epoll_create1");
    ep.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .expect("register listener");
    ep.add(state.completions.wake_fd(), EPOLLIN, TOKEN_WAKE)
        .expect("register wake eventfd");

    let mut listener = Some(listener);
    let loop_started = Instant::now();
    let mut wheel = TimerWheel::new(TICK);
    let mut fair = TokenBuckets::new(state.cfg.client_rate, state.cfg.client_burst);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut gens: Vec<u64> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live: usize = 0;
    let mut events = vec![EpollEvent::zeroed(); 256];
    let mut scratch = vec![0u8; 16 * 1024];
    let mut quiesce_started: Option<Instant> = None;
    let mut touched: Vec<usize> = Vec::new();

    loop {
        touched.clear();
        let timeout_ms = TICK.as_millis() as i32;
        let ready = match ep.wait(&mut events, timeout_ms) {
            Ok(r) => r,
            Err(_) => &[],
        };

        let mut accept_ready = false;
        for ev in ready {
            match ev.token() {
                TOKEN_LISTENER => accept_ready = true,
                TOKEN_WAKE => {} // drained with the completion queue below
                idx => touched.push(idx as usize),
            }
        }

        // Quiesce transition: triggered by shutdown_and_wait, or directly
        // by SIGINT/SIGTERM when the daemon opted in (the handler wrote
        // our eventfd, so we get here within one wakeup).
        let quiescing = state.quiesce.load(Ordering::SeqCst)
            || (state.cfg.drain_on_signal && crate::signal::triggered());
        if quiescing && quiesce_started.is_none() {
            quiesce_started = Some(Instant::now());
            state.draining.store(true, Ordering::SeqCst);
            if let Some(l) = listener.take() {
                let _ = ep.del(l.as_raw_fd());
            }
            for (idx, entry) in conns.iter_mut().enumerate() {
                if let Some(conn) = entry {
                    conn.draining = true;
                    touched.push(idx);
                }
            }
        }

        if accept_ready {
            if let Some(l) = &listener {
                accept_all(
                    l,
                    &state,
                    &ep,
                    &mut conns,
                    &mut gens,
                    &mut free,
                    &mut live,
                    &mut touched,
                );
            }
        }

        for completion in state.completions.drain() {
            if let Some(idx) = apply_completion(completion, &mut conns, &gens) {
                touched.push(idx);
            }
        }

        // Timer wheel: fire every expired deadline.
        let now_tick = wheel.now_tick(loop_started.elapsed());
        for entry in wheel.advance(now_tick) {
            if entry.conn < conns.len() && gens[entry.conn] == entry.generation {
                if let Some(conn) = conns[entry.conn].as_mut() {
                    // Lazy cancellation: fire only if this entry still IS
                    // the armed deadline (same tick); re-armed or cleared
                    // deadlines abandon their old wheel entries.
                    if let Some((tick, kind)) = conn.deadline {
                        if tick == entry.tick {
                            fire_deadline(conn, kind, &state);
                            touched.push(entry.conn);
                        }
                    }
                }
            }
        }

        // Drive every touched connection through its state machine.
        touched.sort_unstable();
        touched.dedup();
        for &idx in &touched {
            if idx >= conns.len() {
                continue;
            }
            let Some(conn) = conns[idx].as_mut() else {
                continue;
            };
            let mut env = Env {
                state: &state,
                ep: &ep,
                wheel: &mut wheel,
                fair: &mut fair,
                loop_started,
                scratch: &mut scratch,
            };
            step_conn(conn, idx, gens[idx], &mut env);
            if conn.dead {
                close_conn(
                    idx, &state, &ep, &mut conns, &mut gens, &mut free, &mut live,
                );
            }
        }

        // A drain that cannot complete (peer holding a stream hostage)
        // is force-closed after a generous deadline.
        if let Some(t0) = quiesce_started {
            if t0.elapsed() > DRAIN_FORCE_AFTER {
                for idx in 0..conns.len() {
                    if conns[idx].is_some() {
                        close_conn(
                            idx, &state, &ep, &mut conns, &mut gens, &mut free, &mut live,
                        );
                    }
                }
            }
            if listener.is_none() && live == 0 {
                return;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_all(
    listener: &TcpListener,
    state: &ServerState,
    ep: &Epoll,
    conns: &mut Vec<Option<Conn>>,
    gens: &mut Vec<u64>,
    free: &mut Vec<usize>,
    live: &mut usize,
    touched: &mut Vec<usize>,
) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if *live >= state.cfg.max_connections {
                    overloaded(stream, state);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stream.set_nodelay(true).ok();
                let conn = Conn {
                    stream,
                    peer: peer.ip(),
                    read_buf: Vec::new(),
                    write_buf: Vec::new(),
                    write_pos: 0,
                    slots: VecDeque::new(),
                    next_seq: 0,
                    requests_served: 0,
                    read_closed: false,
                    stop_parsing: false,
                    close_pending: false,
                    draining: false,
                    dead: false,
                    registered: EPOLLIN,
                    deadline: None,
                };
                let idx = match free.pop() {
                    Some(i) => {
                        conns[i] = Some(conn);
                        i
                    }
                    None => {
                        conns.push(Some(conn));
                        gens.push(0);
                        conns.len() - 1
                    }
                };
                let fd = conns[idx].as_ref().unwrap().stream.as_raw_fd();
                if ep.add(fd, EPOLLIN, idx as u64).is_err() {
                    conns[idx] = None;
                    free.push(idx);
                    continue;
                }
                *live += 1;
                state.active_connections.fetch_add(1, Ordering::SeqCst);
                touched.push(idx);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// Reject a connection over the concurrency cap without admitting it.
fn overloaded(mut stream: TcpStream, state: &ServerState) {
    let resp = Response::json(503, wire::error_json("server at connection capacity"))
        .with_header("retry-after", "1");
    let bytes = http::encode_response(&resp, false);
    let _ = stream.set_nonblocking(true);
    let _ = stream.write(&bytes);
    state.metrics.record_request("overload", 503);
}

/// Route a completion to its slot; returns the connection to re-step.
fn apply_completion(c: Completion, conns: &mut [Option<Conn>], gens: &[u64]) -> Option<usize> {
    let token = match &c {
        Completion::Respond(t, _)
        | Completion::StreamStart(t, _, _)
        | Completion::StreamChunk(t, _)
        | Completion::StreamEnd(t) => *t,
    };
    if token.conn >= conns.len() || gens[token.conn] != token.generation {
        return None; // connection is gone; drop the result
    }
    let conn = conns[token.conn].as_mut()?;
    let slot = conn.slots.iter_mut().find(|s| s.seq == token.seq)?;
    match c {
        Completion::Respond(_, resp) => {
            if matches!(slot.state, SlotState::Waiting) {
                slot.state = SlotState::Ready(resp);
            }
        }
        Completion::StreamStart(_, status, content_type) => {
            if matches!(slot.state, SlotState::Waiting) {
                let ka = slot.keep_alive && !slot.close_after;
                slot.state = SlotState::Streaming {
                    head: Some(http::encode_stream_head(status, content_type, ka)),
                    chunks: VecDeque::new(),
                    done: false,
                };
            }
        }
        Completion::StreamChunk(_, data) => {
            if let SlotState::Streaming { chunks, .. } = &mut slot.state {
                chunks.push_back(data);
            }
        }
        Completion::StreamEnd(_) => {
            if let SlotState::Streaming { done, .. } = &mut slot.state {
                *done = true;
            }
        }
    }
    Some(token.conn)
}

/// One full pass of a connection's state machine: read, parse+dispatch,
/// serialize+write, then decide interest, deadline, and liveness.
fn step_conn(conn: &mut Conn, idx: usize, generation: u64, env: &mut Env<'_>) {
    pump_read(conn, env);
    // Alternate parse and write until the parser stops making progress.
    // One pass is not enough: a peer that pipelines deeper than
    // max_pipeline parks the excess bytes in read_buf, and no further
    // EPOLLIN will arrive to revisit them (the peer is waiting on these
    // very responses) — the write pump freeing slots is what re-opens
    // the window, so re-parse after it.
    while !conn.dead {
        let buffered = conn.read_buf.len();
        let slots = conn.slots.len();
        parse_and_dispatch(conn, idx, generation, env);
        if conn.dead {
            break;
        }
        pump_write(conn, env);
        let progressed = conn.read_buf.len() < buffered || conn.slots.len() < slots;
        if conn.dead || conn.read_buf.is_empty() || !progressed {
            break;
        }
    }
    if !conn.dead {
        let drained = conn.slots.is_empty() && conn.flushed();
        if drained && (conn.close_pending || conn.read_closed || conn.draining) {
            conn.dead = true;
        }
    }
    if conn.dead {
        return;
    }
    update_interest(conn, idx, env);
    update_deadline(conn, idx, generation, env);
}

fn wants_read(conn: &Conn, env: &Env<'_>) -> bool {
    !conn.read_closed
        && !conn.stop_parsing
        && !conn.close_pending
        && !conn.draining
        && conn.slots.len() < env.limits().max_pipeline
        && conn.read_buf.len() < env.read_cap()
}

fn pump_read(conn: &mut Conn, env: &mut Env<'_>) {
    if !wants_read(conn, env) {
        return;
    }
    loop {
        if conn.read_buf.len() >= env.read_cap() {
            return;
        }
        match conn.stream.read(env.scratch) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => conn.read_buf.extend_from_slice(&env.scratch[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Queue an error response as the connection's final slot.
fn push_error_slot(conn: &mut Conn, status: u16, detail: &str, env: &Env<'_>) {
    conn.stop_parsing = true;
    conn.read_closed = true;
    let seq = conn.next_seq;
    conn.next_seq += 1;
    conn.slots.push_back(PipeSlot {
        seq,
        keep_alive: false,
        close_after: true,
        state: SlotState::Ready(Response::json(status, wire::error_json(detail))),
    });
    env.state.pipeline_depth.fetch_add(1, Ordering::Relaxed);
    env.state.metrics.record_request("unparsed", status);
}

fn parse_and_dispatch(conn: &mut Conn, idx: usize, generation: u64, env: &mut Env<'_>) {
    while !conn.stop_parsing
        && !conn.draining
        && conn.slots.len() < env.limits().max_pipeline
        && !conn.read_buf.is_empty()
    {
        match http::parse_request_buf(&conn.read_buf, env.limits()) {
            Ok(None) => {
                if conn.read_closed {
                    // EOF mid-request: answer 400 like the blocking
                    // reader's "truncated request head" and close.
                    push_error_slot(conn, 400, "truncated request head", env);
                }
                return;
            }
            Ok(Some((request, consumed))) => {
                conn.read_buf.drain(..consumed);
                conn.deadline = None; // the next request re-arms fresh
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let keep_alive = request.wants_keep_alive();
                conn.slots.push_back(PipeSlot {
                    seq,
                    keep_alive,
                    close_after: false,
                    state: SlotState::Waiting,
                });
                env.state.pipeline_depth.fetch_add(1, Ordering::Relaxed);
                let token = SlotToken {
                    conn: idx,
                    generation,
                    seq,
                };
                match dispatch_request(env.state, &request, token, conn.peer, env.fair) {
                    RequestAction::Respond(resp) => {
                        let slot = conn.slots.back_mut().expect("just pushed");
                        slot.state = SlotState::Ready(resp);
                    }
                    RequestAction::Pending => {}
                }
                if !keep_alive {
                    conn.stop_parsing = true;
                }
            }
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    push_error_slot(conn, status, &e.detail(), env);
                } else {
                    conn.dead = true;
                }
                return;
            }
        }
    }
    if conn.read_closed && conn.read_buf.is_empty() && conn.slots.is_empty() && conn.flushed() {
        conn.dead = true; // peer hung up cleanly with nothing owed
    }
}

fn pump_write(conn: &mut Conn, env: &mut Env<'_>) {
    // Serialize every front slot that can produce bytes, in order.
    while let Some(front) = conn.slots.front_mut() {
        match &mut front.state {
            SlotState::Waiting => break,
            SlotState::Ready(resp) => {
                let ka = front.keep_alive && !front.close_after && !conn.draining;
                let bytes = http::encode_response(resp, ka);
                conn.write_buf.extend_from_slice(&bytes);
                if !ka {
                    conn.close_pending = true;
                }
                conn.requests_served += 1;
                env.state.pipeline_depth.fetch_sub(1, Ordering::Relaxed);
                conn.slots.pop_front();
            }
            SlotState::Streaming { head, chunks, done } => {
                if let Some(h) = head.take() {
                    conn.write_buf.extend_from_slice(&h);
                }
                while let Some(data) = chunks.pop_front() {
                    conn.write_buf.extend_from_slice(&http::encode_chunk(&data));
                }
                if !*done {
                    break; // stay front until the stream ends
                }
                conn.write_buf.extend_from_slice(http::CHUNK_END);
                let ka = front.keep_alive && !front.close_after && !conn.draining;
                if !ka {
                    conn.close_pending = true;
                }
                conn.requests_served += 1;
                env.state.pipeline_depth.fetch_sub(1, Ordering::Relaxed);
                conn.slots.pop_front();
            }
        }
    }

    // Flush as much as the socket takes.
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.write_pos += n;
                if matches!(conn.deadline, Some((_, DeadlineKind::Write))) {
                    conn.deadline = None; // progress: re-arm from now
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.flushed() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
}

fn update_interest(conn: &mut Conn, idx: usize, env: &Env<'_>) {
    let mut mask = 0;
    if wants_read(conn, env) {
        mask |= EPOLLIN;
    }
    if !conn.flushed() {
        mask |= EPOLLOUT;
    }
    if mask != conn.registered {
        if env
            .ep
            .modify(conn.stream.as_raw_fd(), mask, idx as u64)
            .is_err()
        {
            conn.dead = true;
            return;
        }
        conn.registered = mask;
    }
}

fn update_deadline(conn: &mut Conn, idx: usize, generation: u64, env: &mut Env<'_>) {
    let limits = env.limits();
    let desired: Option<(Duration, DeadlineKind)> = if !conn.read_closed
        && !conn.stop_parsing
        && !conn.read_buf.is_empty()
        && conn.slots.len() < limits.max_pipeline
    {
        // A request has started arriving: absolute receive deadline.
        // With the pipeline window full the buffered bytes are complete
        // requests parked on slow jobs, not a slow-dripping peer — the
        // simulator watchdog bounds those, so no receive deadline then.
        Some((limits.read_timeout, DeadlineKind::Request))
    } else if !conn.flushed() {
        Some((limits.write_timeout, DeadlineKind::Write))
    } else if !conn.slots.is_empty() {
        None // waiting on jobs: the simulator watchdog bounds those
    } else if conn.requests_served == 0 && !conn.read_closed && !conn.stop_parsing {
        // A fresh connection must speak within the read timeout.
        Some((limits.read_timeout, DeadlineKind::Request))
    } else if !conn.read_closed && !conn.stop_parsing && !conn.draining {
        Some((limits.idle_timeout, DeadlineKind::Idle))
    } else {
        None
    };

    match desired {
        None => conn.deadline = None,
        Some((timeout, kind)) => {
            // Same kind ⇒ the armed deadline stays absolute; a kind
            // change re-arms from now.
            if conn.deadline.map(|(_, k)| k) != Some(kind) {
                let tick = env.wheel.tick_after(env.loop_started.elapsed(), timeout);
                env.wheel.schedule(TimerEntry {
                    conn: idx,
                    generation,
                    tick,
                });
                conn.deadline = Some((tick, kind));
            }
        }
    }
}

fn fire_deadline(conn: &mut Conn, kind: DeadlineKind, state: &ServerState) {
    conn.deadline = None;
    match kind {
        DeadlineKind::Request => {
            conn.stop_parsing = true;
            conn.read_closed = true;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.slots.push_back(PipeSlot {
                seq,
                keep_alive: false,
                close_after: true,
                state: SlotState::Ready(Response::json(
                    408,
                    wire::error_json("timed out reading request"),
                )),
            });
            state.pipeline_depth.fetch_add(1, Ordering::Relaxed);
            state.metrics.record_request("unparsed", 408);
        }
        DeadlineKind::Idle | DeadlineKind::Write => {
            conn.dead = true;
        }
    }
}

fn close_conn(
    idx: usize,
    state: &ServerState,
    ep: &Epoll,
    conns: &mut [Option<Conn>],
    gens: &mut [u64],
    free: &mut Vec<usize>,
    live: &mut usize,
) {
    let Some(conn) = conns[idx].take() else {
        return;
    };
    let _ = ep.del(conn.stream.as_raw_fd());
    gens[idx] += 1;
    free.push(idx);
    *live -= 1;
    state.active_connections.fetch_sub(1, Ordering::SeqCst);
    if !conn.slots.is_empty() {
        state
            .pipeline_depth
            .fetch_sub(conn.slots.len(), Ordering::Relaxed);
    }
    state
        .metrics
        .requests_per_conn
        .observe_count(conn.requests_served);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_throttles_and_refills() {
        let ip: IpAddr = "127.0.0.1".parse().unwrap();
        let t0 = Instant::now();
        let mut b = TokenBuckets::new(10.0, 2.0);
        assert!(b.try_take(ip, t0).is_ok());
        assert!(b.try_take(ip, t0).is_ok());
        let retry = b.try_take(ip, t0).unwrap_err();
        assert!(retry >= 1);
        // 100 ms at 10 tokens/s refills one token.
        assert!(b.try_take(ip, t0 + Duration::from_millis(150)).is_ok());
    }

    #[test]
    fn token_bucket_disabled_at_zero_rate() {
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        let mut b = TokenBuckets::new(0.0, 1.0);
        for _ in 0..1000 {
            assert!(b.try_take(ip, Instant::now()).is_ok());
        }
    }

    #[test]
    fn buckets_are_per_client() {
        let a: IpAddr = "10.0.0.1".parse().unwrap();
        let b_ip: IpAddr = "10.0.0.2".parse().unwrap();
        let t0 = Instant::now();
        let mut b = TokenBuckets::new(1.0, 1.0);
        assert!(b.try_take(a, t0).is_ok());
        assert!(b.try_take(a, t0).is_err(), "a is dry");
        assert!(b.try_take(b_ip, t0).is_ok(), "b has its own bucket");
    }
}
