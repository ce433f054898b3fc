//! The serve workloads: an in-process `scpg-serve` on loopback driven by
//! an open-loop load generator.
//!
//! * `serve_hot` — a small warmed working set (96 requests, far below
//!   the 8×128-entry result cache) over `/v1/sweep`, `/v1/table`,
//!   `/v1/compare` and `/v1/activity`, plus 1 % idempotent re-uploads of
//!   a stored netlist and 0.5 % fresh sweeps. After warm-up nearly every
//!   read is a cache hit.
//! * `serve_mixed` — reads with a 30 % repeat share over 40 designs (more
//!   than `DesignRegistry::MAX_DESIGNS`) and 10 technique models per
//!   design (more than the 8-model technique LRU), small-lane activity and
//!   small-sample variation requests, and 6 % writes: Liberty uploads,
//!   Verilog uploads and batch sweep jobs checkpointing to a store in
//!   the run's temp directory.
//!
//! Every request body, the request mix and the send schedule are pure
//! functions of the seed ([`Plan::new`]). Latency is timed from the
//! moment a request was due, not from when it was sent.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use scpg_json::Json;
use scpg_liberty::Library;
use scpg_rng::StdRng;
use scpg_serve::designs::DesignRegistry;
use scpg_serve::{api, client, ServeConfig, Server, ServerHandle};

use crate::reference::{Kernel, Reference};
use crate::report::{peak_rss_mb, RunReport};
use crate::spans::{self, span};
use crate::stats::{median, percentile, sorted, supported_percentile};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warmed working set, nearly all cache hits.
    Hot,
    /// Seeded reads and writes with misses, evictions and uploads.
    Mixed,
}

impl Workload {
    /// Requests per second of the nominal-rate phase.
    pub fn nominal_rps(self) -> f64 {
        match self {
            Workload::Hot => 6000.0,
            Workload::Mixed => 150.0,
        }
    }

    /// Requests due together in the open loop. `serve_hot` sends
    /// pipelined bursts, so its latencies measure request handling
    /// rather than how fast an idle machine wakes up.
    pub fn burst(self) -> usize {
        match self {
            Workload::Hot => 12,
            Workload::Mixed => 1,
        }
    }

    /// The fixed SLO ladder above the nominal rate (req/s). Its top sits
    /// at a third (hot) to a half (mixed) of the capacity a 2-vCPU host
    /// shows, so `slo_rps` reads the top rung unless a change costs that
    /// much.
    pub fn ladder(self) -> &'static [f64] {
        match self {
            Workload::Hot => &[9000.0, 12000.0],
            Workload::Mixed => &[250.0, 300.0],
        }
    }

    /// The reference kernel slowed the way the requests `p50_rel` times
    /// are: socket round trips for cache hits, memory-bound simulation
    /// for misses.
    pub fn reference_kernel(self) -> Kernel {
        match self {
            Workload::Hot => Kernel::Loopback,
            Workload::Mixed => Kernel::EventSim,
        }
    }

    /// `p99_ms` limit a ladder rung must meet.
    pub fn p99_limit_ms(self) -> f64 {
        match self {
            Workload::Hot => 50.0,
            Workload::Mixed => 100.0,
        }
    }
}

/// What kind of operation a request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `POST /v1/sweep`.
    Sweep,
    /// `POST /v1/table`.
    Table,
    /// `POST /v1/compare`.
    Compare,
    /// `POST /v1/activity`.
    Activity,
    /// `POST /v1/variation`.
    Variation,
    /// `POST /v1/libraries` with new content.
    Library,
    /// `POST /v1/netlists` with new content.
    Netlist,
    /// `POST /v1/netlists` with content already stored.
    Reupload,
    /// `POST /v1/jobs` (a batch sweep).
    Job,
}

impl Kind {
    /// Uploads and job submissions.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Kind::Library | Kind::Netlist | Kind::Reupload | Kind::Job
        )
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Sweep => "/v1/sweep",
            Kind::Table => "/v1/table",
            Kind::Compare => "/v1/compare",
            Kind::Activity => "/v1/activity",
            Kind::Variation => "/v1/variation",
            Kind::Library => "/v1/libraries",
            Kind::Netlist | Kind::Reupload => "/v1/netlists",
            Kind::Job => "/v1/jobs",
        }
    }
}

/// One distinct request of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Operation kind.
    pub kind: Kind,
    /// Request body.
    pub body: String,
    /// For a job: the interactive `/v1/sweep` body it must match.
    pub job_sweep: Option<String>,
}

impl Request {
    /// The request as bytes on a keep-alive connection.
    pub fn raw(&self) -> Vec<u8> {
        let extra = match self.kind {
            Kind::Netlist | Kind::Reupload => "content-type: text/plain\r\nx-scpg-clock: clk\r\n",
            Kind::Library => "content-type: text/plain\r\n",
            _ => "content-type: application/json\r\n",
        };
        format!(
            "POST {} HTTP/1.1\r\nhost: scpg\r\n{extra}content-length: {}\r\n\r\n{}",
            self.kind.path(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// One send: when it is due (from the phase start) and which request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    /// Due time from the start of its phase.
    pub due: Duration,
    /// Index into [`Plan::requests`].
    pub request: usize,
}

/// Everything a serve run sends, generated from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Distinct requests; schedules refer to them by index.
    pub requests: Vec<Request>,
    /// Warm-up sends (closed loop, in order).
    pub warm: Vec<usize>,
    /// The nominal-rate phase, which is also the ladder's first rung.
    pub nominal: Vec<Send>,
    /// The SLO ladder's further rungs: (offered rate, sends).
    pub ladder: Vec<(f64, Vec<Send>)>,
}

/// Multiplier widths of the `serve_hot` working set.
const HOT_BITS: [u64; 4] = [4, 8, 12, 16];
/// Distinct `serve_hot` reads.
const HOT_WORKING_SET: usize = 96;
/// Multiplier widths × `e_dyn` values of `serve_mixed`: 5 × 8 = 40
/// designs, more than the 32 the design registry keeps. Small widths keep
/// a miss cheap enough that the nominal rate stays far below capacity
/// when the host slows down.
const MIXED_BITS: std::ops::RangeInclusive<u64> = 4..=8;
const MIXED_E_DYN_PJ: [f64; 8] = [1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0];
/// `ctsg` cluster counts of `serve_mixed`: with `baseline` and `scpg`,
/// 10 technique models per design, more than the 8 a design keeps.
const MIXED_CLUSTERS: std::ops::RangeInclusive<u64> = 1..=8;
/// Share of `serve_mixed` reads that repeat an earlier read.
pub const MIXED_REPEAT_SHARE: f64 = 0.3;
/// Share of `serve_mixed` operations that are writes.
pub const MIXED_WRITE_SHARE: f64 = 0.06;
/// Share of `serve_hot` operations that re-upload a stored netlist.
pub const HOT_REUPLOAD_SHARE: f64 = 0.01;
/// Share of `serve_hot` operations that are fresh sweeps (cache misses
/// on compiled designs), few enough that `p99_ms` stays a hit latency.
pub const HOT_MISS_SHARE: f64 = 0.005;

struct Generator {
    workload: Workload,
    rng: StdRng,
    requests: Vec<Request>,
    reads: Vec<usize>,
    hot: Vec<usize>,
    reupload: usize,
    uploads: u64,
    libraries: Vec<usize>,
    netlists: Vec<usize>,
}

/// Distinct Liberty sources `serve_mixed` uploads (the store keeps 32).
const MIXED_LIBRARIES: usize = 24;
/// Distinct Verilog sources `serve_mixed` uploads (the store keeps 64).
const MIXED_NETLISTS: usize = 48;

impl Generator {
    fn new(workload: Workload, seed: u64) -> Self {
        let mut g = Self {
            workload,
            rng: StdRng::seed_from_u64(seed ^ 0x5C96_BE4C_4000_0000),
            requests: Vec::new(),
            reads: Vec::new(),
            hot: Vec::new(),
            reupload: 0,
            uploads: 0,
            libraries: Vec::new(),
            netlists: Vec::new(),
        };
        let netlist = g.netlist_source();
        g.reupload = g.push(Request {
            kind: Kind::Reupload,
            body: netlist,
            job_sweep: None,
        });
        if workload == Workload::Mixed {
            for _ in 0..MIXED_LIBRARIES {
                g.uploads += 1;
                let tag = g.rng.below(1 << 30);
                let body = format!(
                    "/* perfbench upload {} {tag} */\n{}",
                    g.uploads,
                    liberty_kit()
                );
                let idx = g.push(Request {
                    kind: Kind::Library,
                    body,
                    job_sweep: None,
                });
                g.libraries.push(idx);
            }
            for _ in 0..MIXED_NETLISTS {
                let body = g.netlist_source();
                let idx = g.push(Request {
                    kind: Kind::Netlist,
                    body,
                    job_sweep: None,
                });
                g.netlists.push(idx);
            }
        }
        if workload == Workload::Hot {
            for i in 0..HOT_WORKING_SET {
                let kind = [Kind::Sweep, Kind::Table, Kind::Compare, Kind::Activity][i % 4];
                let design = format!(
                    r#"{{"kind": "multiplier", "bits": {}}}"#,
                    HOT_BITS[g.below(HOT_BITS.len())]
                );
                let req = g.read(kind, &design);
                let idx = g.push(req);
                g.hot.push(idx);
            }
        }
        g
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.f64() < p
    }

    fn push(&mut self, req: Request) -> usize {
        self.requests.push(req);
        self.requests.len() - 1
    }

    fn frequencies(&mut self, n: usize) -> String {
        let list: Vec<String> = (0..n)
            .map(|_| {
                // Log-uniform over 10 kHz..10 MHz, whole hertz.
                let exp = 4.0 + 3.0 * self.rng.f64();
                format!("{}", 10f64.powf(exp).round())
            })
            .collect();
        list.join(", ")
    }

    fn read(&mut self, kind: Kind, design: &str) -> Request {
        let body = match kind {
            Kind::Sweep | Kind::Table => {
                let n = 2 + self.below(4);
                let f = self.frequencies(n);
                format!(r#"{{"design": {design}, "frequencies_hz": [{f}]}}"#)
            }
            Kind::Compare => {
                let f = self.frequencies(2);
                let clusters = match self.workload {
                    Workload::Hot => 4,
                    Workload::Mixed => {
                        MIXED_CLUSTERS.start()
                            + self
                                .rng
                                .below(MIXED_CLUSTERS.end() - MIXED_CLUSTERS.start() + 1)
                    }
                };
                format!(
                    r#"{{"design": {design}, "frequencies_hz": [{f}], "techniques": ["baseline", "scpg", {{"name": "ctsg", "params": {{"clusters": {clusters}}}}}]}}"#
                )
            }
            Kind::Activity => {
                let cycles = [8, 16, 32][self.below(3)];
                let lanes = [4, 8][self.below(2)];
                let seed = self.rng.below(1 << 20);
                format!(
                    r#"{{"design": {design}, "cycles": {cycles}, "lanes": {lanes}, "seed": {seed}}}"#
                )
            }
            Kind::Variation => {
                let seed = self.rng.below(1 << 20);
                format!(r#"{{"design": {design}, "samples": 2, "seed": {seed}}}"#)
            }
            _ => unreachable!("reads only"),
        };
        Request {
            kind,
            body,
            job_sweep: None,
        }
    }

    fn mixed_design(&mut self, max_bits: u64) -> String {
        let span = max_bits.min(*MIXED_BITS.end()) - MIXED_BITS.start() + 1;
        let bits = MIXED_BITS.start() + self.rng.below(span);
        let e_dyn = MIXED_E_DYN_PJ[self.below(MIXED_E_DYN_PJ.len())];
        format!(r#"{{"kind": "multiplier", "bits": {bits}, "e_dyn_pj": {e_dyn}}}"#)
    }

    /// A small seeded pipeline in the built-in cell kit.
    fn netlist_source(&mut self) -> String {
        self.uploads += 1;
        let stages = 2 + self.below(6);
        let mut v = format!(
            "module pb{}_{} (clk, d, q);\n  input clk;\n  input d;\n  output q;\n",
            self.uploads,
            self.rng.below(1 << 30)
        );
        for i in 0..stages {
            v.push_str(&format!("  wire s{i};\n  wire n{i};\n"));
        }
        let mut prev = "d".to_string();
        for i in 0..stages {
            v.push_str(&format!(
                "  DFF_X1 r{i} (.D({prev}), .CK(clk), .Q(s{i}));\n  INV_X1 g{i} (.A(s{i}), .Y(n{i}));\n"
            ));
            prev = format!("n{i}");
        }
        v.push_str(&format!("  INV_X1 gout (.A({prev}), .Y(q));\nendmodule\n"));
        v
    }

    /// A write: an upload from the seeded pools (the first upload of a
    /// source stores it, later ones find it stored) or, 1 write in 10, a
    /// batch sweep job, so submissions stay under the server's
    /// active-job limit (8) at every rate the run offers.
    fn write(&mut self) -> usize {
        match self.below(10) {
            0..=4 => {
                let i = self.below(self.libraries.len());
                self.libraries[i]
            }
            5..=8 => {
                let i = self.below(self.netlists.len());
                self.netlists[i]
            }
            _ => {
                let design = self.mixed_design(8);
                let f = self.frequencies(4);
                let sweep = format!(r#"{{"design": {design}, "frequencies_hz": [{f}]}}"#);
                self.push(Request {
                    kind: Kind::Job,
                    body: format!(r#"{{"kind": "sweep", "request": {sweep}, "chunk_units": 2}}"#),
                    job_sweep: Some(sweep),
                })
            }
        }
    }

    /// The next operation of the workload mix.
    fn next(&mut self) -> usize {
        match self.workload {
            Workload::Hot => {
                if self.chance(HOT_REUPLOAD_SHARE) {
                    return self.reupload;
                }
                if self.chance(HOT_MISS_SHARE) {
                    let design = format!(
                        r#"{{"kind": "multiplier", "bits": {}}}"#,
                        HOT_BITS[self.below(HOT_BITS.len())]
                    );
                    let req = self.read(Kind::Sweep, &design);
                    return self.push(req);
                }
                let i = self.below(self.hot.len());
                self.hot[i]
            }
            Workload::Mixed => {
                if self.chance(MIXED_WRITE_SHARE) {
                    return self.write();
                }
                if !self.reads.is_empty() && self.chance(MIXED_REPEAT_SHARE) {
                    let i = self.below(self.reads.len());
                    return self.reads[i];
                }
                let roll = self.below(100);
                let (kind, max_bits) = match roll {
                    0..=32 => (Kind::Sweep, *MIXED_BITS.end()),
                    33..=50 => (Kind::Table, *MIXED_BITS.end()),
                    51..=74 => (Kind::Compare, *MIXED_BITS.end()),
                    75..=89 => (Kind::Activity, *MIXED_BITS.end()),
                    _ => (Kind::Variation, 6),
                };
                let design = self.mixed_design(max_bits);
                let req = self.read(kind, &design);
                let idx = self.push(req);
                self.reads.push(idx);
                idx
            }
        }
    }
}

/// The kit library as Liberty text (the upload template).
fn liberty_kit() -> &'static str {
    use std::sync::OnceLock;
    static KIT: OnceLock<String> = OnceLock::new();
    KIT.get_or_init(|| scpg_liberty::write_liberty(&Library::ninety_nm()))
}

/// A ladder rung lasts at least this long...
const RUNG_MIN_SECS: f64 = 1.0;
/// ...and sends at least this many requests, so its p99 has at least
/// 10 samples beyond it.
const RUNG_MIN_SAMPLES: usize = 1000;
/// Share of `--seconds` spent at the nominal rate.
pub const NOMINAL_SHARE: f64 = 0.6;

/// Requests a rung at `rate` sends.
pub fn rung_len(rate: f64) -> usize {
    RUNG_MIN_SAMPLES.max((rate * RUNG_MIN_SECS).round() as usize)
}

/// Sends `requests` at `rate`, in bursts of `burst` due together and
/// spaced uniformly.
pub fn schedule(requests: &[usize], rate: f64, burst: usize) -> Vec<Send> {
    requests
        .iter()
        .enumerate()
        .map(|(i, &request)| Send {
            due: Duration::from_secs_f64((i / burst * burst) as f64 / rate),
            request,
        })
        .collect()
}

impl Plan {
    /// The whole plan of a run, a pure function of its arguments.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        let mut g = Generator::new(workload, seed);
        let warm: Vec<usize> = match workload {
            Workload::Hot => std::iter::once(g.reupload)
                .chain(g.hot.iter().copied())
                .collect(),
            Workload::Mixed => {
                let mut warm = vec![g.reupload];
                while warm.len() < 25 {
                    let idx = g.next();
                    if !g.requests[idx].kind.is_write() && !warm.contains(&idx) {
                        warm.push(idx);
                    }
                }
                warm
            }
        };
        let rate = workload.nominal_rps();
        let n = rung_len(rate).max((rate * seconds * NOMINAL_SHARE).round() as usize);
        let nominal: Vec<usize> = (0..n).map(|_| g.next()).collect();
        let nominal = schedule(&nominal, rate, workload.burst());
        let ladder = workload
            .ladder()
            .iter()
            .map(|&r| {
                let sends: Vec<usize> = (0..rung_len(r)).map(|_| g.next()).collect();
                (r, schedule(&sends, r, workload.burst()))
            })
            .collect();
        Plan {
            requests: g.requests,
            warm,
            nominal,
            ladder,
        }
    }
}

/// The outcome of one send.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Index into [`Plan::requests`].
    pub request: usize,
    /// Due time from the phase start.
    pub due: Duration,
    /// Send time from the phase start.
    pub sent: Duration,
    /// Reply time from the phase start (`None`: no reply).
    pub done: Option<Duration>,
    /// HTTP status (0 without a reply).
    pub status: u16,
    /// FNV-1a hash of the reply body.
    pub body_hash: u64,
}

impl Outcome {
    /// Due-to-reply latency in ms (`None` without a reply).
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_sub(self.due).as_secs_f64() * 1e3)
    }

    /// A 2xx reply arrived.
    pub fn ok(&self) -> bool {
        self.done.is_some() && (200..300).contains(&self.status)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Splits one complete HTTP response off the front of `buf`:
/// (status, body range, bytes consumed).
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let len = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    (buf.len() >= head_end + len).then_some((status, head_end..head_end + len, head_end + len))
}

/// Bodies kept for oracles: the first full reply body per request.
pub type FirstBodies = HashMap<usize, Vec<u8>>;

/// Drives one keep-alive connection through `sends` (already in due
/// order): requests go out when due, pipelined, with at most `window`
/// awaiting replies; replies are matched in order. With a bounded
/// window the loop is closed and latency counts from the send.
fn drive_connection(
    addr: SocketAddr,
    raw: &[Vec<u8>],
    sends: &[Send],
    window: usize,
    start: Instant,
    give_up: Duration,
) -> (Vec<Outcome>, FirstBodies) {
    let mut outcomes: Vec<Outcome> = sends
        .iter()
        .map(|s| Outcome {
            request: s.request,
            due: s.due,
            sent: Duration::ZERO,
            done: None,
            status: 0,
            body_hash: 0,
        })
        .collect();
    let mut first = FirstBodies::new();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (outcomes, first);
    };
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next, mut replied) = (0usize, 0usize);
    while replied < sends.len() {
        let now = start.elapsed();
        if now > give_up {
            break;
        }
        while next < sends.len() && sends[next].due <= now && next - replied < window {
            if stream.write_all(&raw[sends[next].request]).is_err() {
                return (outcomes, first);
            }
            let sent = start.elapsed();
            outcomes[next].sent = sent;
            if window != usize::MAX {
                outcomes[next].due = sent;
            }
            next += 1;
        }
        let wait = if next < sends.len() && next - replied < window {
            sends[next].due.saturating_sub(start.elapsed())
        } else {
            Duration::from_millis(50)
        };
        if !wait_readable(&stream, wait) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
        let mut consumed = 0;
        while let Some((status, body, used)) = parse_response(&buf[consumed..]) {
            if replied >= next {
                break;
            }
            let body = &buf[consumed + body.start..consumed + body.end];
            let o = &mut outcomes[replied];
            o.done = Some(start.elapsed());
            o.status = status;
            o.body_hash = fnv1a(body);
            first.entry(o.request).or_insert_with(|| body.to_vec());
            replied += 1;
            consumed += used;
        }
        buf.drain(..consumed);
    }
    (outcomes, first)
}

/// Blocks until `stream` has bytes to read or `timeout` passes
/// (microsecond resolution: socket read timeouts tick in scheduler
/// jiffies, too coarse for an open-loop schedule).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the whole call; nfds is 1 and a
    // null signal mask leaves the mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready != 0
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let _ = stream.set_read_timeout(Some(timeout.max(Duration::from_micros(1))));
    true
}

/// Requests one connection carries before the load generator opens a
/// new one (the server closes a connection after 10 000).
const SENDS_PER_CONNECTION: usize = 8000;

/// Sends a phase over `conns` connections (round-robin), one thread per
/// connection, and returns the outcomes in send order.
fn run_phase(
    addr: SocketAddr,
    raw: &[Vec<u8>],
    sends: &[Send],
    conns: usize,
    window: usize,
) -> (Vec<Outcome>, FirstBodies) {
    let last_due = sends.last().map_or(Duration::ZERO, |s| s.due);
    let give_up = last_due + Duration::from_secs(20);
    let start = Instant::now();
    let per_conn: Vec<Vec<Send>> = (0..conns)
        .map(|c| sends.iter().skip(c).step_by(conns).copied().collect())
        .collect();
    let results: Vec<(Vec<Outcome>, FirstBodies)> = std::thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|mine| {
                s.spawn(move || {
                    // A fresh connection before the server's per-connection
                    // request cap (`max_requests_per_conn`) closes it.
                    let mut outcomes = Vec::with_capacity(mine.len());
                    let mut first = FirstBodies::new();
                    for piece in mine.chunks(SENDS_PER_CONNECTION) {
                        let (o, f) = drive_connection(addr, raw, piece, window, start, give_up);
                        outcomes.extend(o);
                        for (k, v) in f {
                            first.entry(k).or_insert(v);
                        }
                    }
                    (outcomes, first)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut outcomes = Vec::with_capacity(sends.len());
    let mut first = FirstBodies::new();
    for (o, f) in results {
        outcomes.extend(o);
        for (k, v) in f {
            first.entry(k).or_insert(v);
        }
    }
    outcomes.sort_by_key(|o| o.due);
    (outcomes, first)
}

fn closed_sends(requests: &[usize]) -> Vec<Send> {
    requests
        .iter()
        .map(|&request| Send {
            due: Duration::ZERO,
            request,
        })
        .collect()
}

/// A started server plus what its set-up measured.
struct Started {
    handle: ServerHandle,
    warm: Vec<Outcome>,
    first: FirstBodies,
}

fn start_server(store: &Path, plan: &Plan, raw: &[Vec<u8>]) -> Result<Started, String> {
    std::fs::create_dir_all(store).map_err(|e| format!("create {store:?}: {e}"))?;
    let config = ServeConfig {
        store_dir: Some(store.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let handle = Server::bind(config)
        .map_err(|e| format!("bind: {e}"))?
        .spawn();
    let (warm, first) = run_phase(handle.addr(), raw, &closed_sends(&plan.warm), 1, 1);
    Ok(Started {
        handle,
        warm,
        first,
    })
}

/// `/metrics` text as `series → value` (series keeps its labels).
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let resp = client::get(addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    Ok(resp
        .text()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// p99 of the event-loop lag histogram delta, as the upper edge of the
/// bucket holding it (ms).
fn lag_p99_ms(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> f64 {
    let prefix = "scpg_eventloop_lag_seconds_bucket{thread=\"event\",le=\"";
    let mut buckets: Vec<(f64, f64)> = after
        .keys()
        .filter_map(|k| {
            let le = k.strip_prefix(prefix)?.strip_suffix("\"}")?;
            let edge = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((edge, delta(before, after, k)))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    buckets
        .iter()
        .find(|(_, c)| *c >= 0.99 * total)
        .map_or(0.0, |(edge, _)| edge * 1e3)
}

/// Checks one phase: 2xx, and every reply byte-identical to the first
/// reply seen for its request. Returns failures and records problems.
fn check_phase(
    name: &str,
    kinds: &[Kind],
    outcomes: &[Outcome],
    reference: &mut HashMap<usize, u64>,
    report: &mut RunReport,
    count_failures: bool,
) -> usize {
    let mut failed = 0;
    let mut statuses: BTreeMap<u16, usize> = BTreeMap::new();
    for o in outcomes {
        if !o.ok() {
            failed += 1;
            *statuses.entry(o.status).or_default() += 1;
            continue;
        }
        if kinds[o.request].is_write() {
            // Upload replies differ by design (201 stores, 200 finds it
            // stored) and every job gets its own id.
            continue;
        }
        let first = *reference.entry(o.request).or_insert(o.body_hash);
        if first != o.body_hash {
            failed += 1;
            report.fail(format!(
                "{name}: a replay of request {} differs from its first reply",
                o.request
            ));
        }
    }
    for (status, n) in statuses {
        eprintln!("perfbench: {name}: {n} replies with status {status} (0 = none)");
    }
    if count_failures {
        report.attempted += outcomes.len() as u64;
        report.failed += failed as u64;
    }
    failed
}

/// The direct answer the server must give for a sweep, table or activity
/// body: the `scpg::service` call passed through the `api` builders.
fn direct_body(req: &Request) -> Result<Option<Vec<u8>>, String> {
    let body = Json::parse(&req.body).map_err(|e| e.to_string())?;
    let limits = ServeConfig::default().limits;
    let registry = DesignRegistry::new();
    let doc = match req.kind {
        Kind::Sweep | Kind::Table => {
            let (spec, query) = if req.kind == Kind::Sweep {
                api::parse_sweep(&body, &limits)?
            } else {
                api::parse_table(&body, &limits)?
            };
            let analysis = registry.get(&spec, None, None)?.analysis()?;
            match query.run(&analysis) {
                scpg::service::QueryOutcome::Points(points) => {
                    let scpg::service::Query::Sweep { mode, .. } = query else {
                        return Err("points from a non-sweep query".to_string());
                    };
                    api::sweep_response(&spec, mode, &points)
                }
                scpg::service::QueryOutcome::Rows(rows) => api::table_response(&spec, &rows),
                scpg::service::QueryOutcome::Headline(h) => {
                    api::headline_response(&spec, h.as_ref())
                }
            }
        }
        Kind::Activity => {
            let (spec, a) = api::parse_activity(&body, &limits)?;
            let artifact = registry.get(&spec, None, None)?;
            let compiled = artifact.compiled()?;
            let report = scpg::extract_activity(
                &compiled,
                &artifact.clock,
                a.cycles,
                a.lanes,
                a.seed,
                scpg_sim::EngineChoice::Auto,
            )?;
            api::activity_response(&spec, &report)
        }
        _ => return Ok(None),
    };
    Ok(Some(doc.write().into_bytes()))
}

fn latencies(outcomes: &[Outcome], pick: impl Fn(&Outcome) -> bool) -> Vec<f64> {
    sorted(
        outcomes
            .iter()
            .filter(|o| pick(o))
            .filter_map(Outcome::latency_ms)
            .collect(),
    )
}

/// Sorted latencies of the outcomes whose index `pick` accepts.
fn latencies_where(outcomes: &[Outcome], pick: impl Fn(usize) -> bool) -> Vec<f64> {
    sorted(
        outcomes
            .iter()
            .enumerate()
            .filter(|&(i, _)| pick(i))
            .filter_map(|(_, o)| o.latency_ms())
            .collect(),
    )
}

/// Everything one serve run measured.
struct Measured {
    setup_s: Vec<f64>,
    /// Reference slices: `REFERENCE_SLICES` before the first segment and
    /// after each one.
    reference_ms: Vec<f64>,
    /// Index ranges of the nominal phase's segments.
    segments: Vec<std::ops::Range<usize>>,
    warm: Vec<Outcome>,
    nominal: Vec<Outcome>,
    rungs: Vec<(f64, Vec<Outcome>)>,
    slo: f64,
    first: FirstBodies,
    metrics_before: BTreeMap<String, f64>,
    metrics_after: BTreeMap<String, f64>,
}

/// Set-ups per run (`setup_s` is their median).
pub const SETUPS: usize = 9;
/// Pieces the nominal phase runs in.
const SEGMENTS: usize = 16;
/// Reference-kernel slices before the first segment and after each one.
const REFERENCE_SLICES: usize = 3;

/// Runs a serve workload and fills `report`.
///
/// # Errors
///
/// The server could not start or be scraped.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    report: &mut RunReport,
) -> Result<(), String> {
    let conns = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .clamp(1, 2);
    let plan = Plan::new(workload, seed, seconds);
    let raw: Vec<Vec<u8>> = plan.requests.iter().map(Request::raw).collect();
    let rate = workload.nominal_rps();

    // Set-up, `SETUPS` times: server start, store open, cache warm-up.
    // The last server is the one measured.
    let mut setup_s = Vec::new();
    let mut started: Option<Started> = None;
    for i in 0..SETUPS {
        if let Some(Started { handle, .. }) = started.take() {
            handle.shutdown();
        }
        let t = Instant::now();
        let s = start_server(&scratch.join(format!("store{i}")), &plan, &raw)?;
        setup_s.push(t.elapsed().as_secs_f64());
        started = Some(s);
    }
    let Started {
        handle,
        warm,
        mut first,
    } = started.expect("set-up ran");
    let addr = handle.addr();
    let mut keep = |f: FirstBodies| {
        for (k, v) in f {
            first.entry(k).or_insert(v);
        }
    };

    // The nominal phase in `SEGMENTS` pieces, with reference slices
    // before the first and after each one while no load runs.
    let mut reference = Reference::new(workload.reference_kernel())?;
    reference.samples(REFERENCE_SLICES)?;
    let metrics_before = scrape(addr)?;
    let per_segment = plan.nominal.len().div_ceil(SEGMENTS * workload.burst()) * workload.burst();
    let mut nominal = Vec::with_capacity(plan.nominal.len());
    let mut segments = Vec::new();
    for piece in plan.nominal.chunks(per_segment) {
        let offset = piece[0].due;
        let shifted: Vec<Send> = piece
            .iter()
            .map(|s| Send {
                due: s.due - offset,
                ..*s
            })
            .collect();
        let (mut out, f) = run_phase(addr, &raw, &shifted, conns, usize::MAX);
        keep(f);
        for o in &mut out {
            o.due += offset;
            o.sent += offset;
            o.done = o.done.map(|d| d + offset);
        }
        segments.push(nominal.len()..nominal.len() + out.len());
        nominal.extend(out);
        reference.samples(REFERENCE_SLICES)?;
    }
    let metrics_after = scrape(addr)?;

    // SLO ladder: the nominal phase is the first rung; climb the fixed
    // rungs until one fails.
    let limit = workload.p99_limit_ms();
    let mut rungs = vec![(rate, nominal.clone())];
    if rung_passes(&nominal, limit) {
        for (r, sends) in &plan.ladder {
            let (out, f) = run_phase(addr, &raw, sends, conns, usize::MAX);
            keep(f);
            let pass = rung_passes(&out, limit);
            rungs.push((*r, out));
            if !pass {
                break;
            }
        }
    }
    let slo = match rungs.iter().rposition(|(_, out)| rung_passes(out, limit)) {
        Some(i) => achieved_rps(&rungs[i].1),
        // Even the nominal rate missed the limit: scale it to the limit.
        None => rate * (limit / windowed_p99(&nominal).max(1e-9)).min(1.0),
    };

    let measured = Measured {
        setup_s,
        reference_ms: reference.samples_ms().to_vec(),
        segments,
        warm,
        nominal,
        rungs,
        slo,
        first,
        metrics_before,
        metrics_after,
    };
    let result = finish(workload, &plan, &handle, &measured, traced, report);
    handle.shutdown();
    result
}

/// Samples per window of [`windowed_p99`].
const P99_WINDOW: usize = 1000;

/// p99 latency robust to one host stall: the median of the p99s of
/// consecutive windows of at least 1 000 sends (each p99 has 10 samples
/// beyond it). Infinite when any request failed or fewer than 1 000 were
/// sent.
pub fn windowed_p99(outcomes: &[Outcome]) -> f64 {
    if outcomes.len() < P99_WINDOW || outcomes.iter().any(|o| !o.ok()) {
        return f64::INFINITY;
    }
    let windows = outcomes.len() / P99_WINDOW;
    let size = outcomes.len() / windows;
    let p99s: Vec<f64> = outcomes
        .chunks(size)
        .filter(|c| c.len() >= P99_WINDOW)
        .map(|c| supported_percentile(&latencies(c, |_| true), 0.99).unwrap_or(f64::INFINITY))
        .collect();
    median(&p99s)
}

/// A ladder rung passes when every request got a 2xx, its windowed p99
/// meets `limit`, and the generator kept up: its sends' p99 lag behind
/// schedule is within `limit` too.
fn rung_passes(outcomes: &[Outcome], limit: f64) -> bool {
    let lag = sorted(
        outcomes
            .iter()
            .map(|o| o.sent.saturating_sub(o.due).as_secs_f64() * 1e3)
            .collect(),
    );
    windowed_p99(outcomes) <= limit && percentile(&lag, 0.99) <= limit
}

/// Wall time from a phase's first due send to its last reply.
fn phase_wall_s(outcomes: &[Outcome]) -> f64 {
    let first = outcomes.iter().map(|o| o.due).min().unwrap_or_default();
    let last = outcomes
        .iter()
        .filter_map(|o| o.done)
        .max()
        .unwrap_or_default();
    last.saturating_sub(first).as_secs_f64()
}

/// Achieved rate of a phase: 2xx replies over the time from the first
/// due send to the last reply.
fn achieved_rps(outcomes: &[Outcome]) -> f64 {
    let ok = outcomes.iter().filter(|o| o.ok()).count() as f64;
    ok / phase_wall_s(outcomes).max(1e-9)
}

fn finish(
    workload: Workload,
    plan: &Plan,
    handle: &ServerHandle,
    m: &Measured,
    traced: bool,
    report: &mut RunReport,
) -> Result<(), String> {
    let addr = handle.addr();
    let mut reference: HashMap<usize, u64> = HashMap::new();
    let kinds: Vec<Kind> = plan.requests.iter().map(|r| r.kind).collect();
    check_phase("warm-up", &kinds, &m.warm, &mut reference, report, true);
    check_phase("nominal", &kinds, &m.nominal, &mut reference, report, true);
    for (rate, out) in m.rungs.iter().skip(1) {
        // Overloaded rungs may refuse (429/504): they fail the rung, not
        // the run. Their 2xx replies must still be byte-identical.
        check_phase(
            &format!("rung {rate}"),
            &kinds,
            out,
            &mut reference,
            report,
            false,
        );
    }

    // Direct oracle on a seeded sample of sweep/table/activity bodies.
    let mut rng = StdRng::seed_from_u64(plan.requests.len() as u64);
    let mut candidates: Vec<usize> = m
        .first
        .keys()
        .copied()
        .filter(|&i| {
            matches!(
                plan.requests[i].kind,
                Kind::Sweep | Kind::Table | Kind::Activity
            )
        })
        .collect();
    candidates.sort_unstable();
    for _ in 0..8.min(candidates.len()) {
        let i = candidates.swap_remove(rng.below(candidates.len() as u64) as usize);
        report.attempted += 1;
        match direct_body(&plan.requests[i]) {
            Ok(Some(bytes)) if bytes == m.first[&i] => {}
            Ok(_) => {
                report.failed += 1;
                report.fail(format!(
                    "request {i}: reply differs from the direct service call"
                ));
            }
            Err(e) => {
                report.failed += 1;
                report.fail(format!("request {i}: direct call failed: {e}"));
            }
        }
    }

    // Every job's result must be byte-identical to the interactive sweep.
    let mut job_ids = Vec::new();
    for o in &m.nominal {
        if plan.requests[o.request].kind == Kind::Job && o.ok() {
            if let Some(body) = m.first.get(&o.request) {
                let id = Json::parse(&String::from_utf8_lossy(body))
                    .ok()
                    .and_then(|d| d.get("id").and_then(Json::as_str).map(String::from));
                if let Some(id) = id {
                    job_ids.push((id, o.request));
                }
            }
        }
    }
    job_ids.sort();
    job_ids.dedup();
    for (id, req) in &job_ids {
        report.attempted += 1;
        let sweep = plan.requests[*req]
            .job_sweep
            .as_deref()
            .expect("jobs carry their sweep");
        let ok = client::poll_job(addr, id, Duration::from_secs(60))
            .ok()
            .filter(|r| r.text().contains("\"done\""))
            .and_then(|_| client::job_result(addr, id).ok())
            .zip(client::post(addr, "/v1/sweep", sweep).ok())
            .is_some_and(|(job, direct)| {
                job.status == 200 && direct.status == 200 && job.body == direct.body
            });
        if !ok {
            report.failed += 1;
            report.fail(format!(
                "job {id}: result differs from the interactive sweep"
            ));
        }
    }
    if !report.problems.is_empty() || report.failed > 0 {
        report.correct = false;
    }

    let nominal_lat = latencies(&m.nominal, |_| true);
    // A miss is the first send of a read the warm-up did not make.
    let mut seen: std::collections::HashSet<usize> = m.warm.iter().map(|o| o.request).collect();
    let is_miss: Vec<bool> = m
        .nominal
        .iter()
        .map(|o| !plan.requests[o.request].kind.is_write() && seen.insert(o.request))
        .collect();
    let misses = latencies_where(&m.nominal, |i| is_miss[i]);
    // hot times every request (nearly all hits), mixed its cache misses:
    // each segment's median over the mean reference slice either side.
    let rel: Vec<f64> = m
        .segments
        .iter()
        .enumerate()
        .map(|(k, range)| {
            let timed = latencies_where(&m.nominal[range.clone()], |i| {
                workload == Workload::Hot || is_miss[range.start + i]
            });
            let around = &m.reference_ms[k * REFERENCE_SLICES..(k + 2) * REFERENCE_SLICES];
            percentile(&timed, 0.5) / (around.iter().sum::<f64>() / around.len() as f64)
        })
        .collect();
    let writes = latencies(&m.nominal, |o| plan.requests[o.request].kind.is_write());

    let p99 = windowed_p99(&m.nominal);
    if !p99.is_finite() {
        return Err(format!(
            "{} nominal sends cannot support a p99",
            nominal_lat.len()
        ));
    }
    let p50 = percentile(&nominal_lat, 0.5);
    let miss_p50 = percentile(&misses, 0.5);
    let write_p50 = if writes.is_empty() {
        0.0
    } else {
        percentile(&writes, 0.5)
    };
    report.e2e("setup_s", median(&m.setup_s));
    report.e2e("p50_rel", median(&rel));
    report.e2e("peak_rss_mb", peak_rss_mb());
    report.note("wall_s", phase_wall_s(&m.nominal), "s");
    report.note("p50_ms", p50, "ms");
    report.note("p99_ms", p99, "ms");
    report.note("miss_p50_ms", miss_p50, "ms");
    report.note("write_p50_ms", write_p50, "ms");
    report.note("slo_rps", m.slo, "1/s");
    report.note("reference_ms", median(&m.reference_ms), "ms");
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.note("failed_share", failed_share, "ratio");
    report.note("samples.nominal", nominal_lat.len() as f64, "count");
    report.note("samples.miss", misses.len() as f64, "count");
    report.note("samples.write", writes.len() as f64, "count");
    report.note("rungs.run", m.rungs.len() as f64, "count");

    if traced {
        layers(workload, plan, m, report);
    }
    Ok(())
}

/// The traced run's per-layer metrics: `/metrics` deltas across the
/// live nominal phase for what only the server can time, and a replay of
/// the workload's distinct requests through each crate's public entry
/// points for the rest. Times are seconds per nominal-phase request.
fn layers(workload: Workload, plan: &Plan, m: &Measured, report: &mut RunReport) {
    let (b, a) = (&m.metrics_before, &m.metrics_after);
    let n = m.nominal.len().max(1) as f64;
    let stage = |s: &str| {
        delta(
            b,
            a,
            &format!("scpg_stage_duration_seconds_sum{{stage=\"{s}\"}}"),
        )
    };
    let engine = |s: &str| {
        delta(
            b,
            a,
            &format!("scpg_engine_stage_duration_seconds_sum{{stage=\"{s}\"}}"),
        )
    };
    let hits = delta(b, a, "scpg_cache_hits_total");
    let misses = delta(b, a, "scpg_cache_misses_total");
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("serve.queue_wait_s", stage("queue_wait") / n);
    v.insert("serve.execute_s", stage("execute") / n);
    v.insert("serve.design_get_s", stage("compile") / n);
    v.insert("serve.eventloop_lag_p99_ms", lag_p99_ms(b, a));
    v.insert(
        "serve.eventloop_stalls",
        delta(b, a, "scpg_eventloop_stalls_total"),
    );
    v.insert(
        "serve.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    v.insert(
        "serve.design_evictions",
        delta(
            b,
            a,
            "scpg_store_evictions_total{store=\"design_registry\"}",
        ),
    );
    v.insert("technique.prepare_s", engine("technique_prepare") / n);
    v.insert(
        "technique.models_built",
        delta(b, a, "scpg_store_misses_total{store=\"technique_models\"}"),
    );
    v.insert(
        "jobs.chunk_s",
        delta(b, a, "scpg_job_stage_duration_seconds_sum{stage=\"chunk\"}") / n,
    );
    let lag = sorted(
        m.nominal
            .iter()
            .map(|o| o.sent.saturating_sub(o.due).as_secs_f64() * 1e3)
            .collect(),
    );
    v.insert("loadgen.lag_p99_ms", percentile(&lag, 0.99));
    v.insert("loadgen.sent", m.nominal.len() as f64);
    let jobs: Vec<f64> = latencies(&m.nominal, |o| plan.requests[o.request].kind == Kind::Job);
    v.insert(
        "jobs.admit_s",
        if jobs.is_empty() {
            0.0
        } else {
            percentile(&jobs, 0.5) / 1e3
        },
    );

    // Replay the nominal phase's requests through the public entry
    // points, one span per layer.
    spans::set_enabled(true);
    let sample: Vec<&Request> = m
        .nominal
        .iter()
        .map(|o| &plan.requests[o.request])
        .collect();
    let raw: Vec<Vec<u8>> = sample.iter().map(|r| r.raw()).collect();
    span("serve.http_parse", || {
        for bytes in &raw {
            let mut p = scpg_serve::http::RequestParser::new();
            p.extend(bytes);
            std::hint::black_box(p.try_next().ok());
        }
    });
    let reads: Vec<&&Request> = sample.iter().filter(|r| !r.kind.is_write()).collect();
    let docs: Vec<Json> = span("json.parse", || {
        reads
            .iter()
            .filter_map(|r| Json::parse(&r.body).ok())
            .collect()
    });
    let keys: Vec<String> = span("json.canonical", || {
        docs.iter().map(Json::canonical).collect()
    });
    let cache = scpg_serve::cache::ShardedCache::new(8, 128);
    for k in &keys {
        cache.insert(k.clone(), std::sync::Arc::new(Vec::new()));
    }
    span("serve.cache_lookup", || {
        for k in &keys {
            std::hint::black_box(cache.get(k));
        }
    });
    let replies: Vec<Json> = m
        .nominal
        .iter()
        .filter_map(|o| m.first.get(&o.request))
        .filter_map(|b| Json::parse(&String::from_utf8_lossy(b)).ok())
        .collect();
    span("json.serialize", || {
        for d in &replies {
            std::hint::black_box(d.write());
        }
    });
    let events = scpg_trace::EventLog::new(4096);
    span("trace.event_record", || {
        for o in &m.nominal {
            let mut e = scpg_trace::WideEvent::new("request", "sweep", o.status);
            e.total_us = o.latency_ms().map_or(0, |ms| (ms * 1e3) as u64);
            events.record(e);
        }
    });
    let traces = scpg_trace::TraceStore::new(1024);
    span("trace.span_record", || {
        for (i, o) in m.nominal.iter().enumerate() {
            let id = format!("t{i:08x}");
            for stage in [
                "parse",
                "cache_lookup",
                "queue_wait",
                "execute",
                "serialize",
            ] {
                traces.record_at(&id, "request", stage, 0, o.status as u64, Vec::new());
            }
        }
    });
    let lib = Library::ninety_nm();
    span("liberty.parse", || {
        for r in sample.iter().filter(|r| r.kind == Kind::Library) {
            std::hint::black_box(scpg_liberty::parse_liberty(&r.body).is_ok());
        }
    });
    span("netlist.parse", || {
        for r in sample
            .iter()
            .filter(|r| matches!(r.kind, Kind::Netlist | Kind::Reupload))
        {
            std::hint::black_box(scpg_netlist::parse_verilog(&r.body, &lib).is_ok());
        }
    });
    if workload == Workload::Mixed {
        // The server computes each distinct request once; so does the
        // replay. Designs are built before the spans open.
        let limits = ServeConfig::default().limits;
        let registry = DesignRegistry::new();
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<&Request> = m
            .nominal
            .iter()
            .filter(|o| seen.insert(o.request))
            .map(|o| &plan.requests[o.request])
            .collect();
        let of_kind = |kind: Kind| {
            distinct
                .iter()
                .filter(move |r| r.kind == kind)
                .filter_map(|r| Json::parse(&r.body).ok())
        };
        let studies: Vec<_> = of_kind(Kind::Variation)
            .filter_map(|doc| {
                let (spec, cfg) = api::parse_variation(&doc, &limits).ok()?;
                Some((registry.get(&spec, None, None).ok()?, cfg))
            })
            .collect();
        span("power.variation", || {
            for (artifact, cfg) in &studies {
                std::hint::black_box(
                    scpg_power::VariationStudy::run(
                        &artifact.baseline,
                        &artifact.lib,
                        artifact.spec.e_dyn,
                        cfg,
                    )
                    .is_ok(),
                );
            }
        });
        let extractions: Vec<_> = of_kind(Kind::Activity)
            .filter_map(|doc| {
                let (spec, req) = api::parse_activity(&doc, &limits).ok()?;
                let artifact = registry.get(&spec, None, None).ok()?;
                Some((artifact.compiled().ok()?, artifact.clock.clone(), req))
            })
            .collect();
        // Bit-parallel words are an exact count: two replays of the same
        // requests must agree word for word.
        let words = || {
            let before = scpg::service::EngineWork::snapshot();
            span("sim.bitpar", || {
                for (compiled, clock, req) in &extractions {
                    std::hint::black_box(
                        scpg::extract_activity(
                            compiled,
                            clock,
                            req.cycles,
                            req.lanes,
                            req.seed,
                            scpg_sim::EngineChoice::Auto,
                        )
                        .is_ok(),
                    );
                }
            });
            scpg::service::EngineWork::snapshot()
                .delta_since(before)
                .bitpar
                .words_evaluated
        };
        let (first, second) = (words(), words());
        if first != second {
            report.fail(format!(
                "bit-parallel words differ between two replays: {first} vs {second}"
            ));
        }
        v.insert("sim.bitpar_words", first as f64);
    }
    let replay = spans::take();
    spans::set_enabled(false);
    for (metric, span_name) in [
        ("serve.http_parse_s", "serve.http_parse"),
        ("json.parse_s", "json.parse"),
        ("json.canonical_s", "json.canonical"),
        ("serve.cache_lookup_s", "serve.cache_lookup"),
        ("json.serialize_s", "json.serialize"),
        ("trace.event_record_s", "trace.event_record"),
        ("trace.span_record_s", "trace.span_record"),
        ("liberty.parse_s", "liberty.parse"),
        ("netlist.parse_s", "netlist.parse"),
        ("power.variation_s", "power.variation"),
    ] {
        v.insert(metric, replay.secs(span_name) / n);
    }
    // Two bit-parallel replays ran.
    v.insert("sim.bitpar_s", replay.secs("sim.bitpar") / 2.0 / n);
    for (k, val) in v {
        report.layer(k, val);
    }
}
