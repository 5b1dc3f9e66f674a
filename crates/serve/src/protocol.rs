//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line:
//!
//! ```text
//! → {"est":"quadhist","lo":[0.1,0.2],"hi":[0.5,0.6],"id":7}
//! ← {"id":7,"est":"quadhist","sel":0.1234,"us":18.2,"degraded":false,"cached":false}
//! ```
//!
//! * `est` — registry name of the model to query (default `"default"`),
//!   echoed in the answer's `est` whichever path answered it;
//! * `shape` — optional query family: `"rect"` (the default),
//!   `"halfspace"`, or `"ball"`;
//! * `lo` / `hi` — corners of the query box, one number per dimension
//!   (`"rect"` only);
//! * `normal` / `offset` — the halfspace `normal · x ≥ offset`
//!   (`"halfspace"` only);
//! * `center` / `radius` — the query ball (`"ball"` only);
//! * `id` — optional client-chosen correlation id, echoed verbatim. The
//!   worker pool may answer pipelined requests **out of order**, so any
//!   client with more than one request in flight must use ids.
//!
//! ```text
//! → {"shape":"halfspace","normal":[1.0,-0.5],"offset":0.25,"id":9}
//! → {"shape":"ball","center":[0.4,0.6],"radius":0.2,"id":10}
//! ```
//!
//! Every numeric parameter must be finite: overflow-to-infinity literals
//! (`1e999`) and NaN answer a typed error rather than an estimate keyed
//! on a clamped (cache-colliding) geometry or a poisoned feedback
//! observation.
//!
//! Responses carry `"degraded":true` plus a `"reason"` when admission
//! control answered with the uniform-selectivity fallback instead of the
//! model, and `"cached":true` when the answer came from the estimate
//! cache. Malformed or unservable requests get `{"id":…,"error":"…"}` —
//! the connection stays open.
//!
//! | reason       | meaning                                                |
//! |--------------|--------------------------------------------------------|
//! | `"shed"`     | the bounded request queue was full (global overload)   |
//! | `"deadline"` | the request out-waited its queue deadline              |
//! | `"quota"`    | the tenant's per-namespace admission quota ran dry     |
//!
//! Model names are namespaced `table.column` ids; the prefix before the
//! first `.` is the request's *tenant*, and per-tenant token-bucket
//! quotas shed with `"quota"` before the request takes a queue slot.
//!
//! A request line that additionally carries a `"sel"` key is **feedback**
//! — the observed selectivity of that range, offered to the online model:
//!
//! ```text
//! → {"lo":[0.1,0.2],"hi":[0.5,0.6],"sel":0.21,"id":8}
//! ← {"id":8,"ack":true,"lsn":4312,"gen":6}
//! ```
//!
//! The `lsn` in the acknowledgement is the record's write-ahead-log
//! sequence number: once a client holds it, the record survives any
//! crash. `gen` is the model generation current at ack time. Feedback on
//! a server started without a durable store answers an error; feedback
//! that admission control would shed also answers an error (never a
//! fake ack) so a client can retry.

use selearn_geom::{Ball, Halfspace, Point, Range, Rect};
use selearn_obs::json::{escape_into, fmt_f64_into, parse, Json};
use std::fmt::Write as _;

/// Registry name used when a request omits `"est"`.
pub const DEFAULT_MODEL: &str = "default";

/// The query-shape family of a request — the wire discriminant behind
/// the optional `"shape"` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShapeKind {
    /// Axis-aligned box (`lo`/`hi`) — the default.
    Rect,
    /// Linear inequality `normal · x ≥ offset`.
    Halfspace,
    /// Distance query: points within `radius` of `center`.
    Ball,
}

impl ShapeKind {
    /// Wire string (the `"shape"` value).
    pub fn as_str(self) -> &'static str {
        match self {
            ShapeKind::Rect => "rect",
            ShapeKind::Halfspace => "halfspace",
            ShapeKind::Ball => "ball",
        }
    }

    /// Stable small integer for cache-key layouts: rect 0, halfspace 1,
    /// ball 2. Two shapes never share a discriminant, so quantized
    /// parameter cells can never collide across families.
    pub fn discriminant(self) -> u8 {
        match self {
            ShapeKind::Rect => 0,
            ShapeKind::Halfspace => 1,
            ShapeKind::Ball => 2,
        }
    }
}

/// The geometry of one request or feedback line: an axis-aligned box,
/// a halfspace, or a ball, with its wire parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// `lo`/`hi` box corners, one number per dimension.
    Rect {
        /// Lower corner.
        lo: Vec<f64>,
        /// Upper corner.
        hi: Vec<f64>,
    },
    /// The halfspace `normal · x ≥ offset`.
    Halfspace {
        /// Normal vector (need not be unit length).
        normal: Vec<f64>,
        /// Offset along the normal.
        offset: f64,
    },
    /// Points within `radius` of `center`.
    Ball {
        /// Ball center.
        center: Vec<f64>,
        /// Ball radius (must be positive to evaluate).
        radius: f64,
    },
}

impl Shape {
    /// The shape family.
    pub fn kind(&self) -> ShapeKind {
        match self {
            Shape::Rect { .. } => ShapeKind::Rect,
            Shape::Halfspace { .. } => ShapeKind::Halfspace,
            Shape::Ball { .. } => ShapeKind::Ball,
        }
    }

    /// Ambient dimension implied by the wire parameters.
    pub fn dim(&self) -> usize {
        match self {
            Shape::Rect { lo, .. } => lo.len(),
            Shape::Halfspace { normal, .. } => normal.len(),
            Shape::Ball { center, .. } => center.len(),
        }
    }

    /// Validating conversion into an evaluable [`Range`] (geometry checks
    /// like inverted boxes or non-positive radii live in the `try_new`
    /// constructors). Error strings are safe to echo to the client.
    pub fn to_range(&self) -> Result<Range, String> {
        match self {
            Shape::Rect { lo, hi } => Rect::try_new(lo.clone(), hi.clone())
                .map(Range::Rect)
                .map_err(|e| format!("bad query box: {e}")),
            Shape::Halfspace { normal, offset } => Halfspace::try_new(normal.clone(), *offset)
                .map(Range::Halfspace)
                .map_err(|e| format!("bad query halfspace: {e}")),
            Shape::Ball { center, radius } => {
                Ball::try_new(Point::new(center.clone()), *radius)
                    .map(Range::Ball)
                    .map_err(|e| format!("bad query ball: {e}"))
            }
        }
    }

    /// Appends the shape's wire fields (starting with a leading comma)
    /// onto a partially built request line.
    fn render_into(&self, out: &mut String) {
        match self {
            Shape::Rect { lo, hi } => {
                push_array(out, "lo", lo);
                push_array(out, "hi", hi);
            }
            Shape::Halfspace { normal, offset } => {
                out.push_str(",\"shape\":\"halfspace\"");
                push_array(out, "normal", normal);
                out.push_str(",\"offset\":");
                fmt_f64_into(out, *offset);
            }
            Shape::Ball { center, radius } => {
                out.push_str(",\"shape\":\"ball\"");
                push_array(out, "center", center);
                out.push_str(",\"radius\":");
                fmt_f64_into(out, *radius);
            }
        }
    }
}

/// A parsed estimate request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Model name (`"default"` when omitted).
    pub est: String,
    /// The query geometry.
    pub shape: Shape,
    /// Client correlation id, echoed in the response.
    pub id: Option<u64>,
}

impl Request {
    /// A box-query request — the protocol's default shape.
    pub fn rect(est: impl Into<String>, lo: Vec<f64>, hi: Vec<f64>, id: Option<u64>) -> Self {
        Self {
            est: est.into(),
            shape: Shape::Rect { lo, hi },
            id,
        }
    }

    /// A halfspace-query request (`normal · x ≥ offset`).
    pub fn halfspace(
        est: impl Into<String>,
        normal: Vec<f64>,
        offset: f64,
        id: Option<u64>,
    ) -> Self {
        Self {
            est: est.into(),
            shape: Shape::Halfspace { normal, offset },
            id,
        }
    }

    /// A ball-query request.
    pub fn ball(est: impl Into<String>, center: Vec<f64>, radius: f64, id: Option<u64>) -> Self {
        Self {
            est: est.into(),
            shape: Shape::Ball { center, radius },
            id,
        }
    }

    /// Renders the request as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"est\":");
        escape_into(&mut out, &self.est);
        self.shape.render_into(&mut out);
        if let Some(id) = self.id {
            out.push_str(&format!(",\"id\":{id}"));
        }
        out.push('}');
        out
    }
}

/// A parsed feedback line: an estimate-shaped query plus the observed
/// selectivity to learn from.
#[derive(Clone, Debug, PartialEq)]
pub struct Feedback {
    /// Model name the feedback is for (`"default"` when omitted).
    pub est: String,
    /// The observed query geometry.
    pub shape: Shape,
    /// The observed selectivity in `[0, 1]`.
    pub sel: f64,
    /// Client correlation id, echoed in the acknowledgement.
    pub id: Option<u64>,
}

impl Feedback {
    /// Box-query feedback — the protocol's default shape.
    pub fn rect(
        est: impl Into<String>,
        lo: Vec<f64>,
        hi: Vec<f64>,
        sel: f64,
        id: Option<u64>,
    ) -> Self {
        Self {
            est: est.into(),
            shape: Shape::Rect { lo, hi },
            sel,
            id,
        }
    }

    /// Renders the feedback as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = Request {
            est: self.est.clone(),
            shape: self.shape.clone(),
            id: self.id,
        }
        .to_json();
        out.pop(); // the '}'
        out.push_str(",\"sel\":");
        fmt_f64_into(&mut out, self.sel);
        out.push('}');
        out
    }
}

fn push_array(out: &mut String, key: &str, vals: &[f64]) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        fmt_f64_into(out, *v);
    }
    out.push(']');
}

/// One parsed inbound line: an estimate request or a feedback record,
/// told apart by the presence of a `"sel"` key.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestLine {
    /// An estimate request.
    Estimate(Request),
    /// A feedback record for the online model.
    Feedback(Feedback),
}

impl RequestLine {
    /// The correlation id, whichever kind of line this is.
    pub fn id(&self) -> Option<u64> {
        match self {
            RequestLine::Estimate(r) => r.id,
            RequestLine::Feedback(f) => f.id,
        }
    }
}

/// Parses one inbound line, classifying it as an estimate request or a
/// feedback record. Error strings are safe to echo back to the client
/// (they never contain request content, only positions/shapes).
pub fn parse_line(line: &str) -> Result<RequestLine, String> {
    let v = parse(line)?;
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let est = match v.get("est") {
        None => DEFAULT_MODEL.to_string(),
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        Some(_) => return Err("\"est\" must be a non-empty string".into()),
    };
    let coords = |key: &str| -> Result<Vec<f64>, String> {
        let arr = v
            .get(key)
            .ok_or_else(|| format!("missing \"{key}\""))?
            .as_arr()
            .ok_or_else(|| format!("\"{key}\" must be an array of numbers"))?;
        if arr.is_empty() {
            return Err(format!("\"{key}\" must not be empty"));
        }
        arr.iter()
            .map(|x| {
                x.as_num()
                    .ok_or_else(|| format!("\"{key}\" must contain finite numbers"))
            })
            .collect()
    };
    // `as_num` is the finite gate: `1e999` parses to +inf and is refused.
    let scalar = |key: &str| -> Result<f64, String> {
        v.get(key)
            .ok_or_else(|| format!("missing \"{key}\""))?
            .as_num()
            .ok_or_else(|| format!("\"{key}\" must be a finite number"))
    };
    let kind = match v.get("shape") {
        None => "rect",
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err("\"shape\" must be a string".into()),
    };
    let shape = match kind {
        "rect" => {
            let lo = coords("lo")?;
            let hi = coords("hi")?;
            if lo.len() != hi.len() {
                return Err(format!(
                    "\"lo\" has {} coordinates, \"hi\" has {}",
                    lo.len(),
                    hi.len()
                ));
            }
            Shape::Rect { lo, hi }
        }
        "halfspace" => Shape::Halfspace {
            normal: coords("normal")?,
            offset: scalar("offset")?,
        },
        "ball" => Shape::Ball {
            center: coords("center")?,
            radius: scalar("radius")?,
        },
        _ => return Err("\"shape\" must be \"rect\", \"halfspace\", or \"ball\"".into()),
    };
    let id = match v.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
            Some(*n as u64)
        }
        Some(_) => return Err("\"id\" must be a non-negative integer".into()),
    };
    match v.get("sel") {
        None => Ok(RequestLine::Estimate(Request { est, shape, id })),
        // The finite gate matters: a `1e999` literal parses to +inf, and
        // an infinite label would poison the online model's window.
        Some(Json::Num(sel)) if sel.is_finite() => Ok(RequestLine::Feedback(Feedback {
            est,
            shape,
            sel: *sel,
            id,
        })),
        Some(_) => Err("\"sel\" must be a finite number".into()),
    }
}

/// Why a response fell back to the uniform-selectivity answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The bounded request queue was full (load shedding).
    Shed,
    /// The request waited past its deadline in the queue.
    Deadline,
    /// The tenant's admission token bucket was empty (per-tenant quota).
    Quota,
}

impl DegradeReason {
    /// Wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeReason::Shed => "shed",
            DegradeReason::Deadline => "deadline",
            DegradeReason::Quota => "quota",
        }
    }
}

/// One response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A served estimate (model, cache, or degraded fallback).
    Estimate {
        /// Echoed request id.
        id: Option<u64>,
        /// The registry name the request addressed, echoed on every answer
        /// (model, cache or degraded fallback; `degraded` marks the last).
        est: String,
        /// The selectivity estimate in `[0, 1]`.
        sel: f64,
        /// Server-side handling latency in microseconds (queue wait
        /// included).
        us: f64,
        /// `Some(reason)` when this is a uniform fallback.
        degraded: Option<DegradeReason>,
        /// `true` when served from the estimate cache.
        cached: bool,
    },
    /// A durable acknowledgement of a feedback record.
    Ack {
        /// Echoed request id.
        id: Option<u64>,
        /// The record's WAL sequence number — the durability token.
        lsn: u64,
        /// Model generation current when the ack was issued.
        generation: u64,
    },
    /// A per-request error (connection stays open).
    Error {
        /// Echoed request id, when the line parsed far enough to have one.
        id: Option<u64>,
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// Renders the response as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }

    /// Appends [`to_json`](Response::to_json)'s line to `out`, so a caller
    /// that reuses `out` renders without allocating.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Response::Estimate {
                id,
                est,
                sel,
                us,
                degraded,
                cached,
            } => {
                out.push('{');
                push_id(out, *id);
                out.push_str("\"est\":");
                escape_into(out, est);
                out.push_str(",\"sel\":");
                fmt_f64_into(out, *sel);
                out.push_str(",\"us\":");
                fmt_f64_into(out, *us);
                out.push_str(",\"degraded\":");
                match degraded {
                    None => out.push_str("false"),
                    Some(reason) => {
                        out.push_str("true,\"reason\":");
                        escape_into(out, reason.as_str());
                    }
                }
                out.push_str(",\"cached\":");
                out.push_str(if *cached { "true" } else { "false" });
                out.push('}');
            }
            Response::Ack {
                id,
                lsn,
                generation,
            } => {
                out.push('{');
                push_id(out, *id);
                let _ = write!(out, "\"ack\":true,\"lsn\":{lsn},\"gen\":{generation}}}");
            }
            Response::Error { id, message } => {
                out.push('{');
                push_id(out, *id);
                out.push_str("\"error\":");
                escape_into(out, message);
                out.push('}');
            }
        }
    }
}

fn push_id(out: &mut String, id: Option<u64>) {
    if let Some(id) = id {
        let _ = write!(out, "\"id\":{id},");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The estimate request `line` parses to; feedback lines are refused.
    fn parse_estimate(line: &str) -> Result<Request, String> {
        match parse_line(line)? {
            RequestLine::Estimate(req) => Ok(req),
            RequestLine::Feedback(fb) => Err(format!("feedback line: {fb:?}")),
        }
    }

    /// `true` when `line` parses as exactly one JSON object.
    fn is_json_object(line: &str) -> bool {
        matches!(parse(line), Ok(Json::Obj(_)))
    }

    #[test]
    fn request_round_trips() {
        let r = Request::rect("quadhist", vec![0.1, 0.2], vec![0.5, 0.6], Some(7));
        assert_eq!(parse_estimate(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn halfspace_request_round_trips() {
        let r = Request::halfspace("quadhist", vec![1.0, -0.5], 0.25, Some(9));
        let line = r.to_json();
        assert!(line.contains("\"shape\":\"halfspace\""), "{line}");
        assert_eq!(parse_estimate(&line).unwrap(), r);
        // Explicit wire form parses too.
        let parsed =
            parse_estimate(r#"{"shape":"halfspace","normal":[1.0,-0.5],"offset":0.25,"id":9}"#)
                .unwrap();
        assert_eq!(parsed.shape.kind(), ShapeKind::Halfspace);
        assert_eq!(parsed.shape.dim(), 2);
    }

    #[test]
    fn ball_request_round_trips() {
        let r = Request::ball("quadhist", vec![0.4, 0.6], 0.2, Some(10));
        let line = r.to_json();
        assert!(line.contains("\"shape\":\"ball\""), "{line}");
        assert_eq!(parse_estimate(&line).unwrap(), r);
        let parsed =
            parse_estimate(r#"{"shape":"ball","center":[0.4,0.6],"radius":0.2}"#).unwrap();
        assert_eq!(parsed.shape.kind(), ShapeKind::Ball);
        assert!(parsed.shape.to_range().is_ok());
    }

    #[test]
    fn explicit_rect_shape_is_the_default_path() {
        let a = parse_estimate(r#"{"lo":[0.1],"hi":[0.5]}"#).unwrap();
        let b = parse_estimate(r#"{"shape":"rect","lo":[0.1],"hi":[0.5]}"#).unwrap();
        assert_eq!(a.shape, b.shape);
        assert_eq!(a.shape.kind(), ShapeKind::Rect);
    }

    #[test]
    fn est_defaults_and_id_optional() {
        let r = parse_estimate(r#"{"lo":[0.0],"hi":[1.0]}"#).unwrap();
        assert_eq!(r.est, DEFAULT_MODEL);
        assert_eq!(r.id, None);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"lo":[0.1],"hi":[0.2,0.3]}"#,
            r#"{"lo":[],"hi":[]}"#,
            r#"{"lo":[0.1],"hi":["x"]}"#,
            r#"{"lo":[0.1]}"#,
            r#"{"est":7,"lo":[0.1],"hi":[0.2]}"#,
            r#"{"lo":[0.1],"hi":[0.2],"id":-3}"#,
            r#"{"lo":[0.1],"hi":[0.2],"id":1.5}"#,
            r#"{"shape":"hexagon","lo":[0.1],"hi":[0.2]}"#,
            r#"{"shape":7,"lo":[0.1],"hi":[0.2]}"#,
            r#"{"shape":"halfspace","normal":[1.0],"offset":"x"}"#,
            r#"{"shape":"halfspace","normal":[],"offset":0.5}"#,
            r#"{"shape":"halfspace","offset":0.5}"#,
            r#"{"shape":"ball","center":[0.5,0.5]}"#,
            r#"{"shape":"ball","radius":0.2}"#,
        ] {
            assert!(parse_estimate(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn non_finite_literals_are_rejected_everywhere() {
        // `1e999` overflows f64 to +inf inside the JSON parser — every
        // numeric field must refuse it with a typed error, not clamp it.
        for bad in [
            r#"{"lo":[1e999],"hi":[2.0]}"#,
            r#"{"lo":[0.0],"hi":[-1e999]}"#,
            r#"{"shape":"halfspace","normal":[1e999],"offset":0.5}"#,
            r#"{"shape":"halfspace","normal":[1.0],"offset":1e999}"#,
            r#"{"shape":"ball","center":[1e999],"radius":0.2}"#,
            r#"{"shape":"ball","center":[0.5],"radius":1e999}"#,
            r#"{"lo":[0.1],"hi":[0.2],"sel":1e999}"#,
            r#"{"lo":[0.1],"hi":[0.2],"sel":-1e999}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn feedback_lines_are_classified_by_sel() {
        let fb = Feedback::rect(
            DEFAULT_MODEL,
            vec![0.1, 0.2],
            vec![0.5, 0.6],
            0.21,
            Some(8),
        );
        match parse_line(&fb.to_json()).unwrap() {
            RequestLine::Feedback(parsed) => assert_eq!(parsed, fb),
            other => panic!("expected feedback, got {other:?}"),
        }
        // The same box without "sel" is an estimate request.
        let line = r#"{"lo":[0.1,0.2],"hi":[0.5,0.6],"id":8}"#;
        assert!(matches!(
            parse_line(line).unwrap(),
            RequestLine::Estimate(_)
        ));
        // Non-numeric "sel" is rejected.
        assert!(parse_line(r#"{"lo":[0.1],"hi":[0.2],"sel":"x"}"#).is_err());
    }

    #[test]
    fn shaped_feedback_round_trips() {
        let fb = Feedback {
            est: "t1.m".into(),
            shape: Shape::Ball {
                center: vec![0.3, 0.3],
                radius: 0.15,
            },
            sel: 0.12,
            id: Some(11),
        };
        match parse_line(&fb.to_json()).unwrap() {
            RequestLine::Feedback(parsed) => assert_eq!(parsed, fb),
            other => panic!("expected feedback, got {other:?}"),
        }
    }

    #[test]
    fn to_range_validates_geometry() {
        assert!(Shape::Rect {
            lo: vec![0.5],
            hi: vec![0.1]
        }
        .to_range()
        .is_err());
        assert!(Shape::Halfspace {
            normal: vec![0.0, 0.0],
            offset: 0.5
        }
        .to_range()
        .is_err());
        assert!(Shape::Ball {
            center: vec![0.5, 0.5],
            radius: -0.1
        }
        .to_range()
        .is_err());
        assert!(Shape::Ball {
            center: vec![0.5, 0.5],
            radius: 0.1
        }
        .to_range()
        .is_ok());
    }

    #[test]
    fn ack_renders_valid_json() {
        let ack = Response::Ack {
            id: Some(8),
            lsn: 4312,
            generation: 6,
        };
        let line = ack.to_json();
        assert!(is_json_object(&line), "{line}");
        assert!(line.contains("\"ack\":true"));
        assert!(line.contains("\"lsn\":4312"));
        assert!(line.contains("\"gen\":6"));
    }

    #[test]
    fn responses_render_valid_json() {
        let ok = Response::Estimate {
            id: Some(3),
            est: "default".into(),
            sel: 0.25,
            us: 17.5,
            degraded: None,
            cached: true,
        };
        let degraded = Response::Estimate {
            id: None,
            est: "default".into(),
            sel: 0.5,
            us: 3.0,
            degraded: Some(DegradeReason::Shed),
            cached: false,
        };
        let err = Response::Error {
            id: Some(4),
            message: "missing \"lo\"".into(),
        };
        for r in [&ok, &degraded, &err] {
            let line = r.to_json();
            assert!(is_json_object(&line), "invalid: {line}");
        }
        assert!(ok.to_json().contains("\"cached\":true"));
        assert!(degraded.to_json().contains("\"reason\":\"shed\""));
        assert!(err.to_json().contains("\"error\""));
    }

    #[test]
    fn shaped_request_lines_render_valid_json() {
        for r in [
            Request::rect("m", vec![0.1], vec![0.9], None),
            Request::halfspace("m", vec![1.0, 2.0], 0.5, Some(1)),
            Request::ball("m", vec![0.5, 0.5], 0.25, Some(2)),
        ] {
            let line = r.to_json();
            assert!(is_json_object(&line), "invalid: {line}");
        }
    }

    use proptest::prelude::*;
    use selearn_obs::json::MAX_DEPTH;

    /// Model names: plain, namespaced, multi-byte (so char boundaries and
    /// byte offsets differ) and escaped.
    const NAMES: [&str; 4] = ["quadhist", "t.c", "é東", "q\\u00e9"];

    /// A valid request line built from parts: `shape` 0 rect, 1 halfspace,
    /// 2 ball; `nums` holds the shape's numeric literals in wire order and,
    /// for a feedback line, the `sel` literal last.
    fn request_line(shape: usize, est: &str, nums: &[String], feedback: bool) -> String {
        let n = |i: usize| nums[i].as_str();
        let mut line = match shape {
            0 => format!(
                r#"{{"est":"{est}","lo":[{},{}],"hi":[{},{}]"#,
                n(0),
                n(1),
                n(2),
                n(3)
            ),
            1 => format!(
                r#"{{"est":"{est}","shape":"halfspace","normal":[{},{}],"offset":{}"#,
                n(0),
                n(1),
                n(2)
            ),
            _ => format!(
                r#"{{"est":"{est}","shape":"ball","center":[{},{}],"radius":{}"#,
                n(0),
                n(1),
                n(2)
            ),
        };
        if feedback {
            line.push_str(&format!(r#","sel":{}"#, nums[nums.len() - 1]));
        }
        line.push_str(r#","id":7}"#);
        line
    }

    /// The finite literals a valid line of `shape` carries.
    fn valid_nums(shape: usize, feedback: bool) -> Vec<String> {
        let mut nums: Vec<&str> = match shape {
            0 => vec!["0.1", "0.2", "0.5", "0.6"],
            1 => vec!["1.0", "-0.5", "0.25"],
            _ => vec!["0.4", "0.6", "0.2"],
        };
        if feedback {
            nums.push("0.21");
        }
        nums.into_iter().map(String::from).collect()
    }

    /// Every number an accepted line carries.
    fn numbers(line: &RequestLine) -> Vec<f64> {
        let (shape, sel) = match line {
            RequestLine::Estimate(r) => (&r.shape, None),
            RequestLine::Feedback(f) => (&f.shape, Some(f.sel)),
        };
        let mut out = match shape {
            Shape::Rect { lo, hi } => [lo.as_slice(), hi].concat(),
            Shape::Halfspace { normal, offset } => [normal.as_slice(), &[*offset]].concat(),
            Shape::Ball { center, radius } => [center.as_slice(), &[*radius]].concat(),
        };
        out.extend(sel);
        out
    }

    /// Fragments spliced into valid lines by the mutation case.
    const HOSTILE: [&str; 14] = [
        "1e999", "-1e999", "\\ud800", "\\udfff", "[", "{", "\"", "\\", "e", ",", "}", "]", "\\u",
        "é",
    ];

    /// One hostile request line and whether the parser must refuse it
    /// (`false`: it may be accepted, but then only with finite numbers).
    fn hostile_line(
        (form, shape, name, feedback): (usize, usize, usize, bool),
        (a, b): (usize, usize),
    ) -> (String, bool) {
        let est = NAMES[name];
        let mut nums = valid_nums(shape, feedback);
        match form {
            // nesting: a wrapper key holding `b` nested arrays/objects
            // around a number; refused exactly past MAX_DEPTH
            0 => {
                let depth = b % (MAX_DEPTH + 48);
                let objects: Vec<bool> = (0..depth).map(|i| (a >> (i % 16)) & 1 == 1).collect();
                let opens: String = objects
                    .iter()
                    .map(|&o| if o { "{\"k\":" } else { "[" })
                    .collect();
                let closes: String = objects
                    .iter()
                    .rev()
                    .map(|&o| if o { "}" } else { "]" })
                    .collect();
                let line = request_line(shape, est, &nums, feedback);
                (
                    format!("{{\"x\":{opens}0{closes},{}", &line[1..]),
                    depth >= MAX_DEPTH,
                )
            }
            // an overflowing literal in any numeric field
            1 => {
                let k = a % nums.len();
                nums[k] = if b % 2 == 0 { "1e999" } else { "-1e999" }.into();
                (request_line(shape, est, &nums, feedback), true)
            }
            // a lone surrogate escape in the model name or in a key
            2 => {
                let code = 0xd800 + b % 0x800;
                let after = ["", "x", "\\u0041", "\\ud800", "\\u00"][a % 5];
                let bad = format!("q\\u{code:04x}{after}");
                let line = if a % 2 == 0 {
                    request_line(shape, &bad, &nums, feedback)
                } else {
                    let line = request_line(shape, est, &nums, feedback);
                    format!("{{\"{bad}\":0,{}", &line[1..])
                };
                (line, true)
            }
            // a string left open, possibly mid-escape, at the end of input
            3 => {
                let tail = ["", "\\", "\\u", "\\u0", "\\u00e", "\\ud83d", "\\ud83d\\u"][a % 7];
                let line = request_line(shape, est, &nums, feedback);
                let opens: Vec<usize> = line.match_indices('"').map(|(i, _)| i + 1).collect();
                let at = opens[b % opens.len()];
                (format!("{}{tail}", &line[..at]), true)
            }
            // a fragment spliced in at a char boundary, or a char removed
            _ => {
                let mut line = request_line(shape, est, &nums, feedback);
                let cuts: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
                let at = cuts[b % cuts.len()];
                if a % (HOSTILE.len() + 1) == HOSTILE.len() {
                    line.remove(at);
                } else {
                    line.insert_str(at, HOSTILE[a % (HOSTILE.len() + 1)]);
                }
                (line, false)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hostile request lines never panic the parser: overflowing
        /// literals, nesting past the bound, lone surrogates and open
        /// strings are refused, every strict prefix of a valid line (cut at
        /// each char boundary) is refused, and whatever is accepted
        /// carries only finite numbers.
        #[test]
        fn hostile_request_lines_are_refused_without_panic(
            kind in (0usize..5, 0usize..3, 0usize..NAMES.len(), 0usize..2),
            picks in (0usize..1 << 16, 0usize..1 << 16),
        ) {
            let (form, shape, name, feedback) = kind;
            let feedback = feedback == 1;
            let valid = request_line(shape, NAMES[name], &valid_nums(shape, feedback), feedback);
            let parsed = parse_line(&valid);
            prop_assert!(parsed.is_ok(), "{} refused: {:?}", valid, parsed);
            for (cut, _) in valid.char_indices() {
                prop_assert!(parse_line(&valid[..cut]).is_err(), "accepted prefix {}", &valid[..cut]);
            }
            let (line, must_refuse) = hostile_line((form, shape, name, feedback), picks);
            match parse_line(&line) {
                Ok(ok) => {
                    prop_assert!(!must_refuse, "accepted {}", line);
                    let nums = numbers(&ok);
                    prop_assert!(nums.iter().all(|x| x.is_finite()), "{} gave {:?}", line, nums);
                }
                Err(_) => {
                    prop_assert!(form != 0 || must_refuse, "refused {}", line);
                }
            }
        }
    }
}
