//! Blocking protocol client and the load-generator library.
//!
//! [`Client`] is a one-request-at-a-time synchronous client (used by the
//! soak test and ad-hoc tooling). [`run_load`] drives a whole request pool
//! against a server in either **closed-loop** mode (each connection sends,
//! waits, sends — throughput adapts to the server) or **open-loop** mode
//! (requests are paced at a fixed aggregate rate regardless of response
//! latency — the honest way to measure tail latency under a target load),
//! and reports client-observed latency percentiles.

use crate::protocol::{DegradeReason, Request, Response};
use selearn_obs::json::{parse, Json};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Parses one server response line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = parse(line)?;
    let id = match v.get("id") {
        Some(Json::Num(n)) if *n >= 0.0 => Some(*n as u64),
        _ => None,
    };
    if let Some(Json::Str(message)) = v.get("error") {
        return Ok(Response::Error {
            id,
            message: message.clone(),
        });
    }
    if matches!(v.get("ack"), Some(Json::Bool(true))) {
        let lsn = v
            .get("lsn")
            .and_then(Json::as_num)
            .ok_or("ack missing \"lsn\"")? as u64;
        let generation = v.get("gen").and_then(Json::as_num).unwrap_or(0.0) as u64;
        return Ok(Response::Ack {
            id,
            lsn,
            generation,
        });
    }
    let est = v
        .get("est")
        .and_then(Json::as_str)
        .ok_or("response missing \"est\"")?
        .to_string();
    let sel = v
        .get("sel")
        .and_then(Json::as_num)
        .ok_or("response missing \"sel\"")?;
    let us = v.get("us").and_then(Json::as_num).unwrap_or(0.0);
    let degraded = match v.get("degraded") {
        Some(Json::Bool(true)) => match v.get("reason").and_then(Json::as_str) {
            Some("shed") => Some(DegradeReason::Shed),
            Some("deadline") => Some(DegradeReason::Deadline),
            Some("quota") => Some(DegradeReason::Quota),
            other => return Err(format!("degraded response with bad reason {other:?}")),
        },
        _ => None,
    };
    let cached = matches!(v.get("cached"), Some(Json::Bool(true)));
    Ok(Response::Estimate {
        id,
        est,
        sel,
        us,
        degraded,
        cached,
    })
}

/// A synchronous single-in-flight protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send_line(&req.to_json())?;
        self.recv()
    }

    /// Sends one feedback record and blocks for its acknowledgement (or
    /// error).
    pub fn feedback(&mut self, fb: &crate::protocol::Feedback) -> std::io::Result<Response> {
        self.send_line(&fb.to_json())?;
        self.recv()
    }

    /// Sends one raw protocol line (for malformed-input tests).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Reads and parses the next response line.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parse_response(line.trim_end()).map_err(|e| {
            std::io::Error::new(ErrorKind::InvalidData, format!("bad response: {e}"))
        })
    }
}

/// Load-run shape.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Concurrent connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub total_requests: usize,
    /// `None` → closed loop; `Some(rps)` → open loop at that aggregate
    /// request rate (split evenly across connections).
    pub rate: Option<f64>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            connections: 4,
            total_requests: 1000,
            rate: None,
        }
    }
}

/// Aggregated result of a load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Non-degraded estimate responses.
    pub ok: u64,
    /// Responses served from the estimate cache.
    pub cached: u64,
    /// Degraded (uniform-fallback) responses by any reason.
    pub degraded: u64,
    /// Per-request error responses.
    pub errors: u64,
    /// Client-observed latencies, microseconds, sorted ascending.
    pub latencies_us: Vec<f64>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Latency at quantile `q ∈ [0, 1]` (nearest-rank), or 0 when empty.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.latencies_us.len() - 1) as f64).round() as usize;
        self.latencies_us[rank.min(self.latencies_us.len() - 1)]
    }

    /// Achieved throughput in responses per second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            (self.ok + self.degraded + self.errors) as f64 / secs
        } else {
            0.0
        }
    }

    /// One-line JSON summary (`selearn-load`'s stdout contract).
    pub fn to_json(&self) -> String {
        use selearn_obs::json::fmt_f64_into;
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"sent\":{},\"ok\":{},\"cached\":{},\"degraded\":{},\"errors\":{}",
            self.sent, self.ok, self.cached, self.degraded, self.errors
        ));
        for (label, q) in [("p50_us", 0.50), ("p95_us", 0.95), ("p99_us", 0.99)] {
            out.push_str(&format!(",\"{label}\":"));
            fmt_f64_into(&mut out, self.percentile_us(q));
        }
        out.push_str(",\"throughput_rps\":");
        fmt_f64_into(&mut out, self.throughput_rps());
        out.push_str(",\"elapsed_ms\":");
        fmt_f64_into(&mut out, self.elapsed.as_secs_f64() * 1e3);
        out.push('}');
        out
    }

    fn absorb(&mut self, response: &Response, latency: Duration) {
        self.latencies_us.push(latency.as_secs_f64() * 1e6);
        match response {
            Response::Estimate {
                degraded, cached, ..
            } => {
                if degraded.is_some() {
                    self.degraded += 1;
                } else {
                    self.ok += 1;
                }
                if *cached {
                    self.cached += 1;
                }
            }
            // Load runs send only estimate requests, but a mixed driver
            // replaying feedback counts its acks as successes.
            Response::Ack { .. } => self.ok += 1,
            Response::Error { .. } => self.errors += 1,
        }
    }

    fn merge(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.cached += other.cached;
        self.degraded += other.degraded;
        self.errors += other.errors;
        self.latencies_us.extend(other.latencies_us);
    }
}

/// Replays `requests` against `addr` and reports. Requests are dealt
/// round-robin to connections; a pool smaller than `total_requests` is
/// cycled (which is exactly what makes estimate-cache hits observable).
pub fn run_load(
    addr: &str,
    requests: &[Request],
    options: &LoadOptions,
) -> std::io::Result<LoadReport> {
    if requests.is_empty() || options.total_requests == 0 {
        return Ok(LoadReport::default());
    }
    let connections = options.connections.max(1);
    let started = Instant::now();
    let mut joins = Vec::with_capacity(connections);
    for conn_idx in 0..connections {
        // Connection c takes requests c, c+C, c+2C, … (cycled over the pool).
        let mine: Vec<Request> = (0..options.total_requests)
            .skip(conn_idx)
            .step_by(connections)
            .map(|i| requests[i % requests.len()].clone())
            .collect();
        let addr = addr.to_string();
        let pacing = options
            .rate
            .map(|rps| Duration::from_secs_f64(connections as f64 / rps.max(1e-9)));
        joins.push(std::thread::spawn(move || {
            run_connection(&addr, &mine, pacing)
        }));
    }
    let mut report = LoadReport::default();
    let mut first_err = None;
    for join in joins {
        match join.join() {
            Ok(Ok(part)) => report.merge(part),
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or_else(|| {
                    Some(std::io::Error::other("load connection thread panicked"))
                })
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    report.elapsed = started.elapsed();
    report.latencies_us.sort_unstable_by(f64::total_cmp);
    Ok(report)
}

/// One connection's worth of the run. `pacing = None` is closed-loop;
/// `Some(gap)` sends on a fixed schedule (open loop) with ids correlating
/// the out-of-order-capable responses back to their send times.
fn run_connection(
    addr: &str,
    requests: &[Request],
    pacing: Option<Duration>,
) -> std::io::Result<LoadReport> {
    let mut report = LoadReport::default();
    match pacing {
        None => {
            let mut client = Client::connect(addr)?;
            for req in requests {
                let t0 = Instant::now();
                let response = client.call(req)?;
                report.sent += 1;
                report.absorb(&response, t0.elapsed());
            }
        }
        Some(gap) => {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let total = requests.len();
            let requests = requests.to_vec();
            let start = Instant::now();
            let sender = std::thread::spawn(move || -> std::io::Result<Vec<Instant>> {
                let mut send_times = Vec::with_capacity(total);
                for (i, req) in requests.iter().enumerate() {
                    // Absolute schedule: sleep until start + i·gap so
                    // transient stalls don't permanently lower the rate.
                    let due = start + gap * i as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let mut tagged = req.clone();
                    tagged.id = Some(i as u64);
                    send_times.push(Instant::now());
                    writer.write_all(tagged.to_json().as_bytes())?;
                    writer.write_all(b"\n")?;
                }
                Ok(send_times)
            });
            let mut responses = Vec::with_capacity(total);
            let mut line = String::new();
            for _ in 0..total {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed mid-run",
                    ));
                }
                let response = parse_response(line.trim_end()).map_err(|e| {
                    std::io::Error::new(ErrorKind::InvalidData, format!("bad response: {e}"))
                })?;
                responses.push((Instant::now(), response));
            }
            let send_times = sender
                .join()
                .map_err(|_| std::io::Error::other("sender thread panicked"))??;
            report.sent = total as u64;
            for (done, response) in responses {
                let latency = match &response {
                    Response::Estimate { id: Some(id), .. } if (*id as usize) < total => {
                        done.duration_since(send_times[*id as usize])
                    }
                    // Unidentifiable responses (per-request errors on
                    // lines the server couldn't parse an id out of) get
                    // zero latency but still count toward totals.
                    _ => Duration::ZERO,
                };
                report.absorb(&response, latency);
            }
        }
    }
    report.latencies_us.sort_unstable_by(f64::total_cmp);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_response_variants() {
        let ok = parse_response(
            r#"{"id":3,"est":"default","sel":0.25,"us":10.0,"degraded":false,"cached":true}"#,
        )
        .unwrap();
        assert!(matches!(
            ok,
            Response::Estimate {
                id: Some(3),
                cached: true,
                degraded: None,
                ..
            }
        ));
        let deg = parse_response(
            r#"{"est":"default","sel":0.5,"us":1.0,"degraded":true,"reason":"shed","cached":false}"#,
        )
        .unwrap();
        assert!(matches!(
            deg,
            Response::Estimate {
                degraded: Some(DegradeReason::Shed),
                ..
            }
        ));
        let err = parse_response(r#"{"id":1,"error":"nope"}"#).unwrap();
        assert!(matches!(err, Response::Error { id: Some(1), .. }));
        assert!(parse_response(r#"{"sel":0.5}"#).is_err());
        assert!(parse_response("garbage").is_err());
    }

    #[test]
    fn report_percentiles_and_json() {
        let mut r = LoadReport {
            sent: 4,
            ok: 4,
            latencies_us: vec![10.0, 20.0, 30.0, 40.0],
            elapsed: Duration::from_secs(2),
            ..Default::default()
        };
        r.latencies_us.sort_unstable_by(f64::total_cmp);
        assert_eq!(r.percentile_us(0.0), 10.0);
        assert_eq!(r.percentile_us(1.0), 40.0);
        assert_eq!(r.throughput_rps(), 2.0);
        let json = r.to_json();
        assert!(matches!(parse(&json), Ok(Json::Obj(_))), "{json}");
    }

    #[test]
    fn empty_report_is_safe() {
        let r = LoadReport::default();
        assert_eq!(r.percentile_us(0.5), 0.0);
        assert_eq!(r.throughput_rps(), 0.0);
    }
}
