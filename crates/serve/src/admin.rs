//! The admin plane: minimal HTTP/1.1 beside the data port, served by the
//! data port's own event loop.
//!
//! Serving estimates and serving *introspection* have opposite needs —
//! the data port is a custom line protocol tuned for latency, while
//! scrapers and orchestrators speak HTTP. With `ServerConfig::admin_addr`
//! set (`--admin-addr`), the poller binds a second listening socket and
//! answers four GET endpoints on it:
//!
//! | path       | body                                           | status |
//! |------------|------------------------------------------------|--------|
//! | `/metrics` | Prometheus text exposition ([`selearn_obs::expo`]) | 200 |
//! | `/healthz` | `ok` — process liveness                        | 200    |
//! | `/readyz`  | JSON readiness detail                          | 200/503 |
//! | `/stats`   | JSON serving-stats snapshot                    | 200    |
//!
//! `/metrics` renders this server's own serving counts (the numbers
//! `/stats` reports) beside the process-wide obs registries.
//!
//! `/readyz` answers 503 when any of these holds: the registry has no
//! model, the data-port queue is at capacity (admission control is
//! shedding), the store directory stopped being writable (when one is
//! configured), or the drift monitor has an active alarm. The last two
//! come from the server's [`FeedbackSink`], which owns the store and the
//! monitor. The JSON body names the failing check either way, so "not
//! ready" is diagnosable from the probe response alone.
//!
//! The plane is deliberately minimal: GET only, `Connection: close`, one
//! request per connection. An admin connection is one more entry in the
//! poller's connection table, answered on the poller from whatever head
//! arrived once the head ends (`\r\n\r\n` or `\n\n`), passes
//! [`HEAD_CAP`], or outlives [`HEAD_TIMEOUT`]. It costs no thread and
//! never touches the data-port queue, workers, or cache; the price is
//! that a `/metrics` scrape holds data-port reads for one
//! `expo::render` (DESIGN.md "Telemetry plane" records its cost).

use crate::cache::EstimateCache;
use crate::feedback::FeedbackSink;
use crate::registry::ModelRegistry;
use crate::server::ServeStats;
use std::time::Duration;

/// Request heads are answered once they pass this many bytes, from what
/// arrived; scrapers send tiny requests.
pub(crate) const HEAD_CAP: usize = 8 * 1024;

/// A connection that has not finished its head this long after accept is
/// answered from what it sent (or closed silently if it sent nothing).
pub(crate) const HEAD_TIMEOUT: Duration = Duration::from_secs(2);

/// `true` once `buf` holds a whole request head or has passed [`HEAD_CAP`].
pub(crate) fn head_complete(buf: &[u8]) -> bool {
    buf.len() > HEAD_CAP
        || buf.windows(4).any(|w| w == b"\r\n\r\n")
        || buf.windows(2).any(|w| w == b"\n\n")
}

/// What one request head asks of the admin plane.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Head {
    /// Nothing arrived: close without a reply.
    Empty,
    /// Any request line that is not `GET …`: 405.
    NotGet,
    /// `GET <path>`, query string stripped (the endpoints take no
    /// parameters).
    Get(String),
}

/// Parses a (possibly partial, possibly binary) request head. Total over
/// all byte strings: invalid UTF-8 is decoded lossily and only the first
/// line is read.
pub(crate) fn parse_head(buf: &[u8]) -> Head {
    let head = String::from_utf8_lossy(buf);
    let Some(request_line) = head.lines().next() else {
        return Head::Empty;
    };
    let mut parts = request_line.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return Head::NotGet;
    }
    Head::Get(target.split('?').next().unwrap_or("").to_string())
}

/// The server state the endpoints read, borrowed by the poller for one
/// answer.
pub(crate) struct AdminView<'a> {
    pub registry: &'a ModelRegistry,
    pub stats: &'a ServeStats,
    pub cache: &'a EstimateCache,
    /// `(depth, capacity)` of the data-port queue.
    pub queue: (usize, usize),
    pub sink: Option<&'a dyn FeedbackSink>,
}

impl AdminView<'_> {
    /// The full HTTP/1.1 response to a request head, or `None` for an
    /// empty head (close without a reply).
    pub fn answer(&self, head: &[u8]) -> Option<Vec<u8>> {
        let (status, content_type, body) = match parse_head(head) {
            Head::Empty => return None,
            Head::NotGet => (
                405,
                "text/plain; charset=utf-8",
                "method not allowed\n".to_string(),
            ),
            Head::Get(path) => self.respond(&path),
        };
        let reason = match status {
            200 => "OK",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Error",
        };
        let mut out = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body.as_bytes());
        Some(out)
    }

    /// Answers one GET path: `(status, content-type, body)`.
    pub fn respond(&self, path: &str) -> (u16, &'static str, String) {
        match path {
            "/metrics" => (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                selearn_obs::expo::render(&self.counters()),
            ),
            "/healthz" => (200, "text/plain; charset=utf-8", "ok\n".to_string()),
            "/readyz" => self.readyz(),
            "/stats" => (200, "application/json", self.stats_json()),
            _ => (
                404,
                "text/plain; charset=utf-8",
                "not found; endpoints: /metrics /healthz /readyz /stats\n".to_string(),
            ),
        }
    }

    /// This server's serving counts under their exposition family names.
    /// They are the same numbers `/stats` reads, and they count whether or
    /// not obs stats are enabled.
    fn counters(&self) -> [(&'static str, u64); 14] {
        let s = self.stats;
        [
            ("serve.requests_total", s.requests()),
            ("serve.requests_shed", s.shed()),
            ("serve.requests_deadline", s.deadline_expired()),
            ("serve.requests_quota", s.quota_shed()),
            ("serve.request_errors", s.errors()),
            ("serve.connections", s.connections()),
            ("serve.slow_client_drops", s.slow_client_drops()),
            ("serve.feedback_acks", s.feedback_acks()),
            ("serve.requests_rect", s.rect_requests()),
            ("serve.requests_halfspace", s.halfspace_requests()),
            ("serve.requests_ball", s.ball_requests()),
            ("serve.write_calls", s.write_calls()),
            ("serve.cache_hits", self.cache.hits()),
            ("serve.cache_misses", self.cache.misses()),
        ]
    }

    fn readyz(&self) -> (u16, &'static str, String) {
        let models = self.registry.names().len();
        let (depth, capacity) = self.queue;
        let queue_ok = depth < capacity;
        let store_ok = self.sink.and_then(|s| s.store_writable());
        let alarms = self.sink.map(|s| s.drift_alarms()).unwrap_or_default();
        let ready = models > 0 && queue_ok && store_ok != Some(false) && alarms.is_empty();

        let mut body = String::with_capacity(256);
        body.push_str("{\"ready\":");
        body.push_str(if ready { "true" } else { "false" });
        body.push_str(&format!(
            ",\"models\":{models},\"queue\":{{\"depth\":{depth},\"capacity\":{capacity}}}"
        ));
        match store_ok {
            Some(ok) => body.push_str(&format!(",\"store_writable\":{ok}")),
            None => body.push_str(",\"store_writable\":null"),
        }
        body.push_str(",\"drift_alarms\":[");
        for (i, name) in alarms.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            selearn_obs::json::escape_into(&mut body, name);
        }
        body.push_str("]}\n");
        (if ready { 200 } else { 503 }, "application/json", body)
    }

    fn stats_json(&self) -> String {
        let s = self.stats;
        let (depth, capacity) = self.queue;
        let mut body = format!(
            "{{\"requests\":{},\"model\":{},\"cached\":{},\"degraded\":{},\"shed\":{},\"deadline\":{},\"errors\":{},\"connections\":{},\"feedback\":{},\"write_calls\":{},\"cache_hits\":{},\"cache_misses\":{},\"queue\":{{\"depth\":{depth},\"capacity\":{capacity}}},\"uptime_secs\":{:.3},\"models\":[",
            s.requests(),
            s.model_answers(),
            s.cache_answers(),
            s.degraded(),
            s.shed(),
            s.deadline_expired(),
            s.errors(),
            s.connections(),
            s.feedback_acks(),
            s.write_calls(),
            self.cache.hits(),
            self.cache.misses(),
            selearn_obs::expo::uptime_seconds(),
        );
        for (i, name) in self.registry.names().iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            selearn_obs::json::escape_into(&mut body, name);
        }
        body.push_str("]}\n");
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::FeedbackAck;
    use proptest::prelude::*;
    use selearn_core::{SelearnError, SelectivityEstimator, TrainingQuery};
    use selearn_geom::{Range, Rect};

    struct Constant(f64);
    impl SelectivityEstimator for Constant {
        fn estimate(&self, _r: &Range) -> f64 {
            self.0
        }
        fn num_buckets(&self) -> usize {
            1
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    /// A sink whose store writability and drift alarms are fixed.
    struct Probed {
        writable: bool,
        alarms: Vec<String>,
    }
    impl FeedbackSink for Probed {
        fn observe(&self, _feedback: TrainingQuery) -> Result<FeedbackAck, SelearnError> {
            unreachable!("readiness never observes")
        }
        fn store_writable(&self) -> Option<bool> {
            Some(self.writable)
        }
        fn drift_alarms(&self) -> Vec<String> {
            self.alarms.clone()
        }
    }

    /// Owned server state an [`AdminView`] can borrow.
    struct Fixture {
        registry: ModelRegistry,
        stats: ServeStats,
        cache: EstimateCache,
    }

    impl Fixture {
        fn new() -> Self {
            let registry = ModelRegistry::new();
            registry.register("default", std::sync::Arc::new(Constant(0.2)), Rect::unit(2));
            Self {
                registry,
                stats: ServeStats::default(),
                cache: EstimateCache::new(16, 2),
            }
        }

        fn view<'a>(&'a self, queue: (usize, usize), sink: Option<&'a Probed>) -> AdminView<'a> {
            AdminView {
                registry: &self.registry,
                stats: &self.stats,
                cache: &self.cache,
                queue,
                sink: sink.map(|s| s as &dyn FeedbackSink),
            }
        }
    }

    #[test]
    fn healthz_and_unknown_paths() {
        let f = Fixture::new();
        let state = f.view((0, 8), None);
        assert_eq!(state.respond("/healthz").0, 200);
        assert_eq!(state.respond("/nope").0, 404);
    }

    #[test]
    fn readyz_flips_under_queue_saturation() {
        let f = Fixture::new();
        let (status, _, body) = f.view((0, 4), None).respond("/readyz");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ready\":true"), "{body}");

        let (status, _, body) = f.view((4, 4), None).respond("/readyz");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"ready\":false"), "{body}");
        assert!(body.contains("\"depth\":4"), "{body}");

        assert_eq!(f.view((1, 4), None).respond("/readyz").0, 200);
    }

    #[test]
    fn readyz_requires_a_model_and_a_writable_store() {
        let mut f = Fixture::new();
        f.registry = ModelRegistry::new(); // no models
        assert_eq!(f.view((0, 8), None).respond("/readyz").0, 503);

        let f = Fixture::new();
        let sink = Probed {
            writable: false,
            alarms: Vec::new(),
        };
        let (status, _, body) = f.view((0, 8), Some(&sink)).respond("/readyz");
        assert_eq!(status, 503);
        assert!(body.contains("\"store_writable\":false"), "{body}");
    }

    #[test]
    fn readyz_reports_the_sinks_drift_alarms() {
        let f = Fixture::new();
        let sink = Probed {
            writable: true,
            alarms: vec!["default".to_string()],
        };
        let (status, _, body) = f.view((0, 8), Some(&sink)).respond("/readyz");
        assert_eq!(status, 503);
        assert_eq!(
            body,
            "{\"ready\":false,\"models\":1,\"queue\":{\"depth\":0,\"capacity\":8},\"store_writable\":true,\"drift_alarms\":[\"default\"]}\n"
        );
        let (status, _, body) = f.view((0, 8), None).respond("/readyz");
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"ready\":true,\"models\":1,\"queue\":{\"depth\":0,\"capacity\":8},\"store_writable\":null,\"drift_alarms\":[]}\n"
        );
    }

    #[test]
    fn stats_is_valid_json_shape() {
        let f = Fixture::new();
        let (status, ct, body) = f.view((2, 8), None).respond("/stats");
        assert_eq!(status, 200);
        assert_eq!(ct, "application/json");
        assert!(body.contains("\"requests\":0"), "{body}");
        assert!(body.contains("\"queue\":{\"depth\":2,\"capacity\":8}"), "{body}");
        assert!(body.contains("\"models\":[\"default\"]"), "{body}");
        let parsed = selearn_obs::json::parse(&body).expect("stats body must parse as JSON");
        assert!(parsed.get("swap").is_none(), "{body}");
    }

    #[test]
    fn heads_parse_like_the_request_line_says() {
        assert_eq!(parse_head(b""), Head::Empty);
        assert_eq!(
            parse_head(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            Head::Get("/healthz".into())
        );
        assert_eq!(parse_head(b"GET /stats?x=1 HTTP/1.1\r\n\r\n"), Head::Get("/stats".into()));
        assert_eq!(parse_head(b"POST /metrics HTTP/1.1\r\n\r\n"), Head::NotGet);
        assert_eq!(parse_head(b"\r\n\r\n"), Head::NotGet);
        assert_eq!(parse_head(b"GET"), Head::Get(String::new()));
        assert!(head_complete(b"GET / HTTP/1.1\n\n"));
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!head_complete(b"GET / HTTP/1.1\r\n"));
        assert!(head_complete(&[b'x'; HEAD_CAP + 1]));
        assert!(!head_complete(&[b'x'; HEAD_CAP]));
    }

    #[test]
    fn answers_are_framed_with_connection_close() {
        let f = Fixture::new();
        let ok = f.view((0, 8), None).answer(b"GET /healthz HTTP/1.1\r\n\r\n");
        let expected = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n";
        assert_eq!(ok.as_deref(), Some(&expected[..]));
    }

    /// Request lines the fuzzer cuts up and pads: well-formed, lowercase,
    /// non-GET, bare or whitespace-only, and one with multi-byte UTF-8 so
    /// cuts can land inside a sequence.
    const LINES: [&str; 9] = [
        "GET /metrics HTTP/1.1",
        "GET /readyz?verbose=1 HTTP/1.1",
        "get /healthz",
        "POST /stats HTTP/1.1",
        "GET",
        " \t GET  ?",
        "",
        "   ",
        "GET /stats\u{e9}\u{1f600} HTTP/1.1",
    ];

    /// The bytes a client may send: arbitrary noise, request lines cut
    /// anywhere, lines followed by noise, and heads over the cap with or
    /// without a request line.
    fn hostile_head() -> impl Strategy<Value = Vec<u8>> {
        (
            0usize..4,
            0usize..LINES.len(),
            0usize..48,
            proptest::collection::vec(0u32..256, 0..64),
        )
            .prop_map(|(form, line, cut, noise)| {
                let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
                let line = LINES[line].as_bytes();
                match form {
                    0 => noise,
                    1 => line[..cut % (line.len() + 1)].to_vec(),
                    2 => [line, b"\r\n", &noise].concat(),
                    _ => [
                        &b"\r\n".repeat(cut % 3)[..],
                        line,
                        &noise,
                        &[b'A'; HEAD_CAP + 1],
                    ]
                    .concat(),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Never panics; always one of the plane's framed responses, or
        /// the silent close exactly when nothing arrived.
        #[test]
        fn any_head_gets_a_known_answer_or_a_silent_close(head in hostile_head()) {
            let f = Fixture::new();
            let view = f.view((0, 8), None);
            let parsed = parse_head(&head);
            let answer = view.answer(&head);
            prop_assert_eq!(answer.is_none(), head.is_empty());
            prop_assert_eq!(parsed == Head::Empty, head.is_empty());
            let Some(answer) = answer else { return Ok(()) };
            let text = String::from_utf8(answer).expect("responses are UTF-8");
            let (header, body) = text.split_once("\r\n\r\n").expect("header terminator");
            let expected = match parsed {
                Head::Empty => unreachable!(),
                Head::NotGet => "HTTP/1.1 405 Method Not Allowed",
                Head::Get(ref p) if p == "/metrics" || p == "/healthz" || p == "/readyz" || p == "/stats" => "HTTP/1.1 200 OK",
                Head::Get(_) => "HTTP/1.1 404 Not Found",
            };
            prop_assert!(header.starts_with(expected), "{} for {:?}", header, parsed);
            let length = format!("\r\nContent-Length: {}\r\nConnection: close", body.len());
            prop_assert!(header.contains(&length), "{}", header);
        }
    }
}
