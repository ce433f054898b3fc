//! The reference kernels: fixed work that lives in this package and
//! nothing in the workspace calls, timed between the workload's own
//! operations to track how fast the host runs right now.
//!
//! A shared host slows memory-bound code by tens of percent for minutes
//! at a time while a plain arithmetic loop keeps its speed, so
//! seconds measured minutes apart do not compare. The end-to-end
//! latencies are therefore reported as multiples of a kernel's time in
//! the same run (`p50_rel`). Each workload uses the kernel that is slowed
//! the way its own work is ([`Kernel`]). The kernels never change with
//! the program: a faster program lowers the ratio, a faster host lowers
//! both terms.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Gates of the simulated network.
const GATES: usize = 400_000;
/// Primary inputs (the first gates).
const INPUTS: usize = 200;
/// Input vectors one simulation slice applies.
const CYCLES: usize = 2;
/// Distinct gate delays (the time wheel has this many slots).
const WHEEL: usize = 8;
/// Round trips one loopback slice makes.
const ROUND_TRIPS: usize = 2_000;
/// Bytes each loopback round trip carries.
const MESSAGE: usize = 64;

/// xorshift64: the kernel's only source of randomness, fixed seeds.
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// What a reference slice exercises. One slice takes about 0.1 s on a
/// 2 GHz Xeon either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Event-driven simulation of a random 400 000-gate network, about
    /// 9 MB: far beyond the per-core L2, like the event engine's
    /// Dhrystone run and the cache-missing service reads.
    EventSim,
    /// 64-byte round trips over a loopback TCP connection to an echo
    /// thread: socket syscalls and thread wake-ups, like the cache-hit
    /// request path.
    Loopback,
}

/// The echo side of [`Kernel::Loopback`]: a thread that writes back
/// whatever its connection reads until the connection closes.
struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("echo addr: {e}"))?;
        let thread = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            let _ = conn.set_nodelay(true);
            let mut buf = [0u8; MESSAGE];
            while conn.read_exact(&mut buf).is_ok() && conn.write_all(&buf).is_ok() {}
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            thread: Some(thread),
        })
    }

    /// `ROUND_TRIPS` round trips; returns a checksum of the echoed bytes.
    fn round_trips(&mut self) -> Result<u64, String> {
        let mut sum = 0u64;
        let mut buf = [0u8; MESSAGE];
        for i in 0..ROUND_TRIPS {
            buf.fill(i as u8);
            self.stream
                .write_all(&buf)
                .and_then(|()| self.stream.read_exact(&mut buf))
                .map_err(|e| format!("echo round trip: {e}"))?;
            sum += buf.iter().map(|&b| u64::from(b)).sum::<u64>();
        }
        Ok(sum)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The event simulation's fixed network.
struct Network {
    inputs: Vec<[u32; 2]>,
    truth: Vec<u8>,
    delay: Vec<u8>,
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
}

enum Work {
    Sim(Network),
    Echo(Echo),
}

/// A reference kernel, the result every slice must repeat, and the
/// slice times so far.
pub struct Reference {
    work: Work,
    result: Option<u64>,
    samples_ms: Vec<f64>,
}

impl Reference {
    /// Sets up `kernel` (the same network or connection on every call).
    ///
    /// # Errors
    ///
    /// The loopback echo could not be set up.
    pub fn new(kernel: Kernel) -> Result<Self, String> {
        let work = match kernel {
            Kernel::EventSim => Work::Sim(Network::new()),
            Kernel::Loopback => Work::Echo(Echo::start()?),
        };
        Ok(Self {
            work,
            result: None,
            samples_ms: Vec::new(),
        })
    }

    /// Times one slice and keeps the sample.
    ///
    /// # Errors
    ///
    /// The slice's result (events applied, or echoed bytes) differs from
    /// the first slice's, or the loopback connection failed.
    pub fn sample(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let result = match &mut self.work {
            Work::Sim(network) => network.simulate(),
            Work::Echo(echo) => echo.round_trips()?,
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match self.result {
            Some(first) if first != result => {
                return Err(format!(
                    "reference slice gave {result}, the first slice {first}"
                ))
            }
            _ => self.result = Some(result),
        }
        self.samples_ms.push(ms);
        Ok(ms)
    }

    /// Takes `n` slices.
    ///
    /// # Errors
    ///
    /// As [`Reference::sample`].
    pub fn samples(&mut self, n: usize) -> Result<(), String> {
        (0..n).try_for_each(|_| self.sample().map(drop))
    }

    /// Every slice time so far, in ms, in the order taken.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

impl Network {
    fn new() -> Self {
        let mut s = 0x1234_5678_9ABC_DEF1_u64;
        let mut inputs = vec![[0u32; 2]; GATES];
        let mut truth = vec![0u8; GATES];
        let mut delay = vec![1u8; GATES];
        for g in INPUTS..GATES {
            for pin in &mut inputs[g] {
                *pin = (next(&mut s) % g as u64) as u32;
            }
            // XOR, AND, OR, NOR, NAND, XNOR.
            truth[g] = [0x6, 0x8, 0xE, 0x1, 0x7, 0x9][(next(&mut s) % 6) as usize];
            delay[g] = 1 + (next(&mut s) % (WHEEL as u64 - 1)) as u8;
        }
        let mut fanout_start = vec![0u32; GATES + 1];
        for pins in &inputs[INPUTS..] {
            for &d in pins {
                fanout_start[d as usize + 1] += 1;
            }
        }
        for i in 0..GATES {
            fanout_start[i + 1] += fanout_start[i];
        }
        let mut fanout = vec![0u32; fanout_start[GATES] as usize];
        let mut fill = fanout_start.clone();
        for (g, pins) in inputs.iter().enumerate().skip(INPUTS) {
            for &d in pins {
                fanout[fill[d as usize] as usize] = g as u32;
                fill[d as usize] += 1;
            }
        }
        Self {
            inputs,
            truth,
            delay,
            fanout_start,
            fanout,
        }
    }

    fn fanout_of(&self, g: usize) -> &[u32] {
        &self.fanout[self.fanout_start[g] as usize..self.fanout_start[g + 1] as usize]
    }

    /// One slice from the all-zero state: `CYCLES` seeded input vectors,
    /// each run until the network settles. Returns the events applied.
    fn simulate(&self) -> u64 {
        let mut value = vec![0u8; self.truth.len()];
        let mut wheel: Vec<Vec<u32>> = vec![Vec::new(); WHEEL];
        let mut s = 0xFEED_BEEF_u64;
        let mut events = 0u64;
        for _ in 0..CYCLES {
            for (i, v) in value[..INPUTS].iter_mut().enumerate() {
                if next(&mut s) & 1 == 1 {
                    *v ^= 1;
                    for &g in self.fanout_of(i) {
                        wheel[self.delay[g as usize] as usize].push(g);
                    }
                }
            }
            let (mut t, mut idle) = (0usize, 0usize);
            while idle < WHEEL {
                let due = std::mem::take(&mut wheel[t % WHEEL]);
                idle = if due.is_empty() { idle + 1 } else { 0 };
                for &g in &due {
                    let g = g as usize;
                    let [a, b] = self.inputs[g];
                    let index = value[a as usize] | value[b as usize] << 1;
                    let new = (self.truth[g] >> index) & 1;
                    if new != value[g] {
                        value[g] = new;
                        events += 1;
                        for &h in self.fanout_of(g) {
                            wheel[(t + self.delay[h as usize] as usize) % WHEEL].push(h);
                        }
                    }
                }
                t += 1;
            }
        }
        events
    }
}
