//! The event-driven connection core: one thread, every socket.
//!
//! A single event-loop thread owns the listener and all connection
//! sockets (nonblocking, registered with the [`crate::poller::Poller`]):
//!
//! * **Reads** append into each connection's persistent
//!   [`RequestParser`] buffer; complete requests are routed through
//!   [`crate::respond`]. Inline outcomes (cache hits, introspection,
//!   refusals) are answered immediately; queue-admitted jobs park the
//!   connection on the job's [`Slot`] — the slot's notify hook pushes
//!   the connection token onto [`crate::Shared::completions`] and wakes
//!   the loop's event fd, so the loop thread never blocks on compute.
//! * **Writes** drain a per-connection output buffer; `EPOLLOUT`
//!   interest exists only while bytes are pending, so idle connections
//!   cost nothing.
//! * **Keep-alive + pipelining**: HTTP/1.1 connections persist by
//!   default; bytes past one request's body stay in the parser buffer
//!   and become the next request. Responses go out in request order
//!   (one request is in flight per connection at a time — pipelined
//!   requests are buffered, bounded by [`PIPELINE_READAHEAD`]).
//! * **Timeouts** are deadline-driven, not polled: the poll-wait
//!   timeout is the nearest of any pending job deadline (`504`), idle
//!   keep-alive expiry (silent close, or `408` when a partial request
//!   is buffered), or write-stall expiry. With nothing to do the loop
//!   parks indefinitely — 10k idle connections burn zero CPU.
//! * **Shutdown drain**: the listener is deregistered, idle connections
//!   close immediately, in-flight requests complete on the workers and
//!   are answered; pipelined requests arriving behind them get `503` +
//!   `Retry-After`, then the connection closes. The loop exits when the
//!   last connection does.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{self, HttpError, RequestParser};
use crate::poller::Poller;
use crate::queue::Slot;
use crate::routes::REFUSED;
use crate::{error_reply, Outcome, Reply, RequestTrace, Shared};

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Bytes a connection may buffer *beyond* the request currently being
/// computed before the loop stops reading from it (interest is dropped,
/// TCP backpressure does the rest). One full head + body of headroom
/// keeps honest pipelining fast while bounding per-connection memory.
const PIPELINE_READAHEAD: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES + 4096;

/// A request admitted to the worker queue, parked on its slot.
struct Pending {
    slot: Arc<Slot>,
    deadline: Instant,
    /// When the job was admitted (the `wait` stage runs from here).
    dispatched: Instant,
    /// When request processing began (end-to-end latency runs from
    /// here).
    started: Instant,
    trace: RequestTrace,
    keep_alive: bool,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Encoded responses not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    pending: Option<Pending>,
    /// Last byte received (idle timeout baseline).
    last_activity: Instant,
    /// Last write progress (write-stall timeout baseline).
    last_write_progress: Instant,
    /// Requests served on this connection (max-requests cap).
    served: u32,
    /// Close once `out` drains (final response already queued).
    close_after_write: bool,
    /// The peer half-closed; no further bytes will arrive.
    peer_eof: bool,
    /// Currently registered (read, write) interest.
    interest: (bool, bool),
}

/// Entry point: runs until shutdown has been requested *and* every
/// connection has drained. Owns the listener and the poller.
pub(crate) fn run(listener: TcpListener, poller: Poller, shared: &Arc<Shared>) {
    EventLoop {
        shared: Arc::clone(shared),
        poller,
        listener,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        draining: false,
    }
    .run();
}

struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    draining: bool,
}

impl EventLoop {
    fn run(&mut self) {
        self.listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        self.poller
            .add(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false)
            .expect("register listener");
        self.poller
            .add(self.shared.wake.fd(), WAKE_TOKEN, true, false)
            .expect("register wake fd");
        let mut events = Vec::new();
        // Watchdog: the poll wait is capped at the sentinel tick, so the
        // loop self-times its own processing at least that often even
        // when idle. An iteration spending longer than the stall
        // threshold *processing* (sleep excluded) means every other
        // connection waited that long — it counts as a stall and leaves
        // a wide event behind.
        let tick = Duration::from_millis(self.shared.config.watchdog_tick_ms.max(1));
        let stall = Duration::from_millis(self.shared.config.watchdog_stall_ms.max(1));
        let lag_hist = self.shared.trace.histogram(
            "scpg_eventloop_lag_seconds",
            "Event-loop iteration processing time (poll return to next poll entry).",
            "thread",
            "event",
        );
        // The nearest connection deadline, cached between iterations.
        // While nothing happens (sentinel ticks on an idle server) the
        // cached value stays valid, so an idle wakeup never scans the
        // connection table — the 10k-parked-connections CPU budget
        // survives the watchdog tick.
        let mut cached_due: Option<Option<Instant>> = None;
        loop {
            if !self.draining && self.shared.shutdown.load(Ordering::SeqCst) {
                self.enter_drain();
                cached_due = None;
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
            let due = *cached_due.get_or_insert_with(|| self.next_due());
            let timeout = Some(due.map_or(tick, |d| {
                d.saturating_duration_since(Instant::now()).min(tick)
            }));
            if self.poller.wait(&mut events, timeout).is_err() {
                // A fatal poll error has no recovery story; back off so a
                // persistent failure cannot spin the thread.
                std::thread::sleep(Duration::from_millis(1));
            }
            let iter_started = Instant::now();
            if self.shared.config.debug_loop_stall_ms > 0 {
                // Test hook: an injected stall, observed like a real one.
                std::thread::sleep(Duration::from_millis(
                    self.shared.config.debug_loop_stall_ms,
                ));
            }
            let mut dirty = !events.is_empty();
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.shared.wake.drain(),
                    token => self.conn_event(token, ev.readable, ev.writable),
                }
            }
            // Worker completions, drained every iteration (cheap when
            // empty, and it makes the wake event itself stateless).
            let completions = self.shared.take_completions();
            dirty |= !completions.is_empty();
            for token in completions {
                self.finish_completion(token);
            }
            // Connection state only changes through the arms above, so a
            // quiet sentinel tick before the cached deadline has nothing
            // to sweep and nothing to recompute.
            if dirty || due.is_some_and(|d| iter_started >= d) {
                self.sweep_timeouts();
                cached_due = None;
            }
            self.observe_iteration(iter_started.elapsed(), stall, &lag_hist);
        }
        // Dropping the loop closes the listener and any stragglers.
    }

    /// Feeds one iteration's processing time to the lag histogram, the
    /// `/v1/status` gauges and — past the stall threshold — the stall
    /// counter plus a `watchdog` wide event an operator can find in
    /// `/v1/logs` next to the requests the stall delayed.
    fn observe_iteration(
        &self,
        lag: Duration,
        stall: Duration,
        lag_hist: &Arc<scpg_trace::Histogram>,
    ) {
        lag_hist.observe(lag);
        let lag_us = scpg_trace::duration_us(lag);
        self.shared
            .loop_lag_last_us
            .store(lag_us, Ordering::Relaxed);
        self.shared
            .loop_lag_max_us
            .fetch_max(lag_us, Ordering::Relaxed);
        if lag >= stall {
            self.shared
                .metrics
                .eventloop_stalls
                .fetch_add(1, Ordering::Relaxed);
            let mut ev = scpg_trace::WideEvent::new("watchdog", "(loop)", 0);
            ev.total_us = lag_us;
            ev.fields.push((
                "stall_threshold_ms".to_string(),
                self.shared.config.watchdog_stall_ms.to_string(),
            ));
            ev.fields
                .push(("connections".to_string(), self.conns.len().to_string()));
            self.shared.events.record(ev);
        }
    }

    /// Shutdown observed: stop accepting and close every connection that
    /// has nothing in flight. Connections with a queued job (or
    /// unflushed bytes) stay until they finish.
    fn enter_drain(&mut self) {
        self.draining = true;
        let _ = self.poller.delete(self.listener.as_raw_fd());
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.pending.is_none() && c.out_pos >= c.out.len())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    /// The nearest deadline across every connection, or `None` when
    /// there are none. The poll wait sleeps until this instant (capped
    /// at the watchdog tick); the caller caches the result across quiet
    /// iterations so idle sentinel wakeups never pay this scan.
    fn next_due(&self) -> Option<Instant> {
        let idle = Duration::from_millis(self.shared.config.idle_timeout_ms.max(1));
        let mut next: Option<Instant> = None;
        for conn in self.conns.values() {
            let due = if let Some(p) = &conn.pending {
                p.deadline
            } else if conn.out_pos < conn.out.len() {
                conn.last_write_progress + http::WRITE_TIMEOUT
            } else {
                conn.last_activity + idle
            };
            next = Some(match next {
                None => due,
                Some(cur) => cur.min(due),
            });
        }
        next
    }

    fn accept_ready(&mut self) {
        if self.draining {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Small pipelined requests must not wait out Nagle.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    let now = Instant::now();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            parser: RequestParser::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            pending: None,
                            last_activity: now,
                            last_write_progress: now,
                            served: 0,
                            close_after_write: false,
                            peer_eof: false,
                            interest: (true, false),
                        },
                    );
                    self.shared.in_flight_conns.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient (ECONNABORTED) or resource (EMFILE)
                    // error: brief pause so a persistent failure cannot
                    // spin against a level-triggered listener event.
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
            }
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        if writable {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if flush_out(conn).is_err() {
                self.close_conn(token);
                return;
            }
        }
        if readable {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if read_ready(conn).is_err() {
                self.close_conn(token);
                return;
            }
        }
        self.drive(token);
    }

    /// Advances one connection's state machine as far as it will go:
    /// flush pending output, then parse-and-answer requests until the
    /// buffer runs dry, a job is queued, or the connection closes.
    fn drive(&mut self, token: u64) {
        loop {
            enum Step {
                Close,
                Park,
                Respond(http::Request, Instant),
                Refuse(HttpError),
                Drain503(http::Request),
            }
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if flush_out(conn).is_err() {
                    Step::Close
                } else if conn.out_pos < conn.out.len() && conn.close_after_write {
                    // Final response still draining; wait for EPOLLOUT.
                    Step::Park
                } else if conn.close_after_write {
                    Step::Close
                } else if conn.pending.is_some() {
                    Step::Park
                } else {
                    let parse_started = Instant::now();
                    match conn.parser.try_next() {
                        Ok(Some(req)) => {
                            if self.draining {
                                Step::Drain503(req)
                            } else {
                                conn.served += 1;
                                Step::Respond(req, parse_started)
                            }
                        }
                        Ok(None) => {
                            if conn.peer_eof && conn.parser.has_partial() {
                                // The request can never complete.
                                Step::Refuse(HttpError::Malformed("EOF inside the request"))
                            } else if (conn.peer_eof || self.draining)
                                && conn.out_pos >= conn.out.len()
                            {
                                Step::Close
                            } else {
                                // Either waiting for more bytes, or
                                // letting the last bytes flush first.
                                Step::Park
                            }
                        }
                        Err(e) => Step::Refuse(e),
                    }
                }
            };
            match step {
                Step::Close => {
                    self.close_conn(token);
                    return;
                }
                Step::Park => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        update_interest(&mut self.poller, token, conn);
                    }
                    return;
                }
                Step::Respond(req, parse_started) => {
                    self.process_request(token, req, parse_started);
                }
                Step::Drain503(req) => {
                    self.refuse(
                        token,
                        request_trace_id(&req),
                        503,
                        "server is shutting down; retry elsewhere",
                    );
                }
                Step::Refuse(err) => {
                    let (status, why) = match err {
                        HttpError::Malformed(why) => (400, why),
                        HttpError::TooLarge => (413, "request exceeds the size limits"),
                        HttpError::UnsupportedVersion => {
                            (505, "this service speaks HTTP/1.1; retry with HTTP/1.1")
                        }
                        HttpError::NotImplemented(why) => (501, why),
                        // try_next never returns these; treat as fatal.
                        HttpError::Closed | HttpError::Io(_) => {
                            self.close_conn(token);
                            return;
                        }
                    };
                    self.refuse(token, String::new(), status, why);
                }
            }
        }
    }

    /// Routes one parsed request. Inline outcomes are answered now;
    /// queued jobs park the connection on the slot.
    fn process_request(&mut self, token: u64, req: http::Request, parse_started: Instant) {
        let mut trace = RequestTrace {
            parse: Some(parse_started.elapsed()),
            trace_id: request_trace_id(&req),
            ..RequestTrace::default()
        };
        let at_cap = self
            .conns
            .get(&token)
            .is_some_and(|c| c.served >= self.shared.config.max_requests_per_conn.max(1));
        let keep = !(req.wants_close() || at_cap || self.draining);
        // A panicking handler must not kill the event loop (it owns
        // every socket): it becomes a 500 like any other failure.
        let cpu_before = scpg_trace::thread_cpu_time();
        let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::respond(&self.shared, &req, &mut trace)
        })) {
            Ok(outcome) => outcome,
            Err(_) => {
                self.shared
                    .metrics
                    .handler_panics
                    .fetch_add(1, Ordering::Relaxed);
                Outcome::Ready(error_reply(500, "internal error"))
            }
        };
        // The loop-side CPU cost of routing this request (cache lookup,
        // parse/validate, inline handlers) — the event-loop half of the
        // wide event's CPU columns.
        trace.loop_cpu = Some(scpg_trace::thread_cpu_time().saturating_sub(cpu_before));
        match outcome {
            Outcome::Ready(reply) => self.finish(token, trace, parse_started, reply, keep),
            Outcome::Queued { slot, deadline } => {
                let shared = Arc::clone(&self.shared);
                slot.set_notify(move || shared.push_completion(token));
                // The worker may have fulfilled the slot *before* the
                // notify hook landed; re-check so that race cannot
                // strand the connection until its deadline.
                let already_done = slot.try_take().is_some();
                let Some(conn) = self.conns.get_mut(&token) else {
                    // Connection vanished mid-route; drop the job.
                    let _ = slot.abandon_or_take();
                    return;
                };
                conn.pending = Some(Pending {
                    slot,
                    deadline,
                    dispatched: Instant::now(),
                    started: parse_started,
                    trace,
                    keep_alive: keep,
                });
                if already_done {
                    self.shared.push_completion(token);
                }
            }
        }
    }

    /// A queued job completed (or the notify hook raced a completion):
    /// take the result and answer.
    fn finish_completion(&mut self, token: u64) {
        let pending = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return; // connection closed while the job ran
            };
            match conn.pending.take() {
                Some(p) => p,
                None => return, // duplicate notification
            }
        };
        let Pending {
            slot,
            deadline,
            dispatched,
            started,
            mut trace,
            keep_alive,
        } = pending;
        match slot.try_take() {
            Some(out) => {
                trace.wait = Some(dispatched.elapsed());
                trace.job = out.timing;
                trace.annotations.extend(out.annotations);
                self.finish(
                    token,
                    trace,
                    started,
                    (out.status, "application/json", out.body),
                    keep_alive,
                );
                self.drive(token);
            }
            None => {
                // Spurious wake; park again.
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.pending = Some(Pending {
                        slot,
                        deadline,
                        dispatched,
                        started,
                        trace,
                        keep_alive,
                    });
                }
            }
        }
    }

    /// Answers a request the loop refused without routing it, and closes
    /// the connection after the reply. Such refusals are first-class in
    /// the request accounting: counted under [`REFUSED`] rather than
    /// vanishing into "other" with no request count.
    fn refuse(&mut self, token: u64, trace_id: String, status: u16, why: &str) {
        self.shared.metrics.inc_request(REFUSED);
        let trace = RequestTrace {
            endpoint: Some(REFUSED),
            trace_id,
            ..RequestTrace::default()
        };
        self.finish(
            token,
            trace,
            Instant::now(),
            error_reply(status, why),
            false,
        );
    }

    /// Records metrics/histograms/spans for one finished request and
    /// queues its encoded response bytes on the connection.
    fn finish(
        &mut self,
        token: u64,
        mut trace: RequestTrace,
        started: Instant,
        reply: Reply,
        keep_alive: bool,
    ) {
        let total = started.elapsed();
        let bytes = crate::finish_reply(&self.shared, &mut trace, total, &reply, keep_alive);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.out.extend_from_slice(&bytes);
        conn.last_activity = Instant::now();
        conn.last_write_progress = conn.last_activity;
        if !keep_alive {
            conn.close_after_write = true;
        }
    }

    /// Deadline sweep: expired job deadlines answer `504`, expired idle
    /// connections close (with `408` first when a partial request is
    /// buffered), stalled writers are cut off.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let idle = Duration::from_millis(self.shared.config.idle_timeout_ms.max(1));
        let mut expired_jobs = Vec::new();
        let mut stalled_writes = Vec::new();
        let mut idle_partial = Vec::new();
        let mut idle_silent = Vec::new();
        for (&token, conn) in &self.conns {
            if let Some(p) = &conn.pending {
                if now >= p.deadline {
                    expired_jobs.push(token);
                }
            } else if conn.out_pos < conn.out.len() {
                if now >= conn.last_write_progress + http::WRITE_TIMEOUT {
                    stalled_writes.push(token);
                }
            } else if now >= conn.last_activity + idle {
                if conn.parser.has_partial() {
                    idle_partial.push(token);
                } else {
                    idle_silent.push(token);
                }
            }
        }
        for token in stalled_writes {
            self.close_conn(token);
        }
        for token in idle_silent {
            self.close_conn(token);
        }
        for token in idle_partial {
            // A stalled mid-request client gets told why before the
            // close — the old blocking server dropped it voiceless.
            self.refuse(
                token,
                String::new(),
                408,
                "timed out waiting for a complete request",
            );
            self.drive(token);
        }
        for token in expired_jobs {
            let pending = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                match conn.pending.take() {
                    Some(p) => p,
                    None => continue,
                }
            };
            // Atomic take-or-abandon: either the result landed just in
            // time (serve it — it is already computed and cached), or
            // the slot is abandoned so the worker skips stale work.
            match pending.slot.abandon_or_take() {
                Some(out) => {
                    let mut trace = pending.trace;
                    trace.wait = Some(pending.dispatched.elapsed());
                    trace.job = out.timing;
                    trace.annotations.extend(out.annotations);
                    self.finish(
                        token,
                        trace,
                        pending.started,
                        (out.status, "application/json", out.body),
                        pending.keep_alive,
                    );
                }
                None => {
                    self.shared
                        .metrics
                        .deadline_expirations
                        .fetch_add(1, Ordering::Relaxed);
                    let mut trace = pending.trace;
                    trace.wait = Some(pending.dispatched.elapsed());
                    self.finish(
                        token,
                        trace,
                        pending.started,
                        error_reply(504, "deadline expired before the job completed"),
                        pending.keep_alive,
                    );
                }
            }
            self.drive(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            if let Some(p) = conn.pending {
                // Client gone with a job in flight: abandon so a worker
                // reaching it later skips the stale computation (a 200
                // already computed has warmed the cache either way).
                let _ = p.slot.abandon_or_take();
            }
            self.shared.in_flight_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The request's trace id: the validated client-supplied header, or a
/// fresh one.
fn request_trace_id(req: &http::Request) -> String {
    match req.header("x-scpg-trace-id") {
        Some(id) if scpg_trace::valid_trace_id(id) => id.to_string(),
        _ => scpg_trace::generate_trace_id(),
    }
}

/// Reads everything currently available into the parser buffer.
/// `Err` means the connection is beyond saving.
fn read_ready(conn: &mut Conn) -> Result<(), ()> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if conn.pending.is_some() && conn.parser.buffered() >= PIPELINE_READAHEAD {
            // Readahead cap reached; interest update will pause reads.
            break;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                conn.parser.extend(&chunk[..n]);
                conn.last_activity = Instant::now();
                if n < chunk.len() {
                    break; // socket buffer drained; save a syscall
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

/// Writes as much pending output as the socket accepts.
/// `Err` means the connection is beyond saving.
fn flush_out(conn: &mut Conn) -> Result<(), ()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.out_pos += n;
                conn.last_write_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    if conn.out_pos >= conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    Ok(())
}

/// Re-registers the connection's poll interest when it changed: reads
/// pause at the readahead cap (and permanently at EOF), write interest
/// exists only while output is buffered.
fn update_interest(poller: &mut Poller, token: u64, conn: &mut Conn) {
    let readahead_full = conn.pending.is_some() && conn.parser.buffered() >= PIPELINE_READAHEAD;
    let desired = (
        !conn.peer_eof && !readahead_full,
        conn.out_pos < conn.out.len(),
    );
    if desired != conn.interest
        && poller
            .modify(conn.stream.as_raw_fd(), token, desired.0, desired.1)
            .is_ok()
    {
        conn.interest = desired;
    }
}
