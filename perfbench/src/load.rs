//! The closed-loop load generator: a connection keeps requests in flight
//! (a sliding window, or bursts written together) and sends more only
//! when responses come back, optionally no faster than a set pace.

use selearn_serve::{parse_response, Response};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How a connection keeps requests in flight.
#[derive(Clone, Copy)]
pub enum Window {
    /// Up to `n` in flight; each response lets the next request go.
    Sliding(usize),
    /// `n` requests written together; the next `n` go when all are
    /// answered.
    Burst(usize),
}

/// When a connection stops sending.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many requests.
    After(u64),
    /// At this instant (requests in flight are still drained).
    At(Instant),
}

/// What came back for one request.
#[derive(Clone, Copy, Debug)]
pub enum Outcome {
    Estimate {
        sel: f64,
        cached: bool,
        degraded: bool,
    },
    Ack {
        lsn: u64,
    },
    Error,
}

/// One answered request: the caller's table index, its latency and
/// what came back.
#[derive(Clone, Copy)]
pub struct Reply {
    pub idx: u32,
    /// Receive time, in µs since the connection started.
    pub at_us: u64,
    pub latency_ns: u64,
    pub outcome: Outcome,
}

/// Everything one connection saw.
pub struct Drive {
    pub replies: Vec<Reply>,
    pub started: Instant,
    pub finished: Instant,
    /// Queue depths sampled every `PROBE_EVERY` replies (traced runs).
    pub queue_depths: Vec<usize>,
    /// `(seq, send, receive)` of every `PROBE_EVERY`-th request (traced
    /// runs), for the span log.
    pub sampled: Vec<(u64, Instant, Instant)>,
}

impl Drive {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.replies
            .iter()
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect()
    }

    pub fn seconds(&self) -> f64 {
        (self.finished - self.started).as_secs_f64()
    }
}

/// Latency median, `tail_q`-quantile and throughput of each `window_s`-long
/// time window of a `seconds`-long phase over several connections, each
/// reduced to its median across windows — a burst of host noise then
/// moves a few windows, not the figure. Replies after the phase (the
/// drain) are left out.
pub fn windowed(drives: &[Drive], seconds: f64, window_s: f64, tail_q: f64) -> (f64, f64, f64) {
    let windows = (seconds / window_s).round().max(1.0) as usize;
    let width_us = window_s * 1e6;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for d in drives {
        for r in &d.replies {
            let w = (r.at_us as f64 / width_us) as usize;
            if w < windows {
                per[w].push(r.latency_ns as f64 / 1e6);
            }
        }
    }
    let (mut p50, mut tail, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for mut lat in per.into_iter().filter(|l| !l.is_empty()) {
        rate.push(lat.len() as f64 / (width_us / 1e6));
        p50.push(crate::stats::quantile(&mut lat, 0.5));
        tail.push(crate::stats::quantile(&mut lat, tail_q));
    }
    (
        crate::stats::quantile(&mut p50, 0.5),
        crate::stats::quantile(&mut tail, 0.5),
        crate::stats::quantile(&mut rate, 0.5),
    )
}

/// Sampling period of the traced extras.
pub const PROBE_EVERY: u64 = 64;

/// Drives one connection. `next(seq)` renders request `seq` (without the
/// newline) and names its table index. With `pace`, request `seq` is not
/// sent before `seq * pace` into the run. With `probe`, every
/// [`PROBE_EVERY`]-th reply also samples the server's queue depth and
/// records the request's send/receive instants.
pub fn drive(
    addr: &str,
    window: Window,
    stop: Stop,
    pace: Option<Duration>,
    mut next: impl FnMut(u64) -> (String, u32),
    probe: Option<&(dyn Fn() -> (usize, usize) + Sync)>,
) -> std::io::Result<Drive> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let mut reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
    let may_send = |seq: u64| match stop {
        Stop::After(n) => seq < n,
        Stop::At(t) => Instant::now() < t,
    };
    let mut replies = Vec::new();
    let mut queue_depths = Vec::new();
    let mut sampled = Vec::new();
    let mut seq = 0u64;
    let started = Instant::now();
    let (size, burst) = match window {
        Window::Sliding(n) => (n, false),
        Window::Burst(n) => (n, true),
    };
    let mut inflight: HashMap<u64, (Instant, u32)> = HashMap::with_capacity(2 * size);
    let mut out = String::new();
    // Sends requests `seq..` (one, or a whole burst) in one write.
    let mut send =
        |seq: &mut u64, inflight: &mut HashMap<u64, (Instant, u32)>| -> std::io::Result<()> {
            if let Some(pace) = pace {
                let due = started + pace * *seq as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            out.clear();
            let mut idxs = Vec::with_capacity(size);
            for k in 0..if burst { size } else { 1 } {
                let (line, idx) = next(*seq + k as u64);
                out.push_str(&line);
                out.push('\n');
                idxs.push(idx);
            }
            let sent = Instant::now();
            writer.write_all(out.as_bytes())?;
            for idx in idxs {
                inflight.insert(*seq, (sent, idx));
                *seq += 1;
            }
            Ok(())
        };
    if burst {
        if may_send(seq) {
            send(&mut seq, &mut inflight)?;
        }
    } else {
        while (seq as usize) < size && may_send(seq) {
            send(&mut seq, &mut inflight)?;
        }
    }
    let mut line = String::new();
    while !inflight.is_empty() {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let received = Instant::now();
        let response = parse_response(line.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let (id, outcome) = match response {
            Response::Estimate {
                id,
                sel,
                cached,
                degraded,
                ..
            } => (
                id,
                Outcome::Estimate {
                    sel,
                    cached,
                    degraded: degraded.is_some(),
                },
            ),
            Response::Ack { id, lsn, .. } => (id, Outcome::Ack { lsn }),
            Response::Error { id, .. } => (id, Outcome::Error),
        };
        let id = id.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "response without an id")
        })?;
        let (sent, idx) = inflight.remove(&id).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "response to an unknown id")
        })?;
        replies.push(Reply {
            idx,
            at_us: (received - started).as_micros() as u64,
            latency_ns: (received - sent).as_nanos() as u64,
            outcome,
        });
        if let Some(probe) = probe {
            if id % PROBE_EVERY == 0 {
                queue_depths.push(probe().0);
                sampled.push((id, sent, received));
            }
        }
        if (!burst || inflight.is_empty()) && may_send(seq) {
            send(&mut seq, &mut inflight)?;
        }
    }
    Ok(Drive {
        replies,
        started,
        finished: Instant::now(),
        queue_depths,
        sampled,
    })
}

/// A request line split around its id, so the hot loop only formats the
/// number: `prefix` + `,"id":N}`.
pub fn id_prefix(line_without_id: &str) -> String {
    line_without_id
        .strip_suffix('}')
        .expect("a JSON object line")
        .to_string()
}

pub fn with_id(prefix: &str, id: u64) -> String {
    let mut line = String::with_capacity(prefix.len() + 24);
    line.push_str(prefix);
    line.push_str(",\"id\":");
    line.push_str(&id.to_string());
    line.push('}');
    line
}
