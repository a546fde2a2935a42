//! The wire protocol: length-prefixed JSON frames and the request type.
//!
//! A frame is a 4-byte **big-endian** payload length followed by that many
//! bytes of UTF-8 JSON. Both directions use the same framing; a connection
//! carries any number of request/response frame pairs, in order. The
//! length prefix is capped at [`MAX_FRAME_BYTES`] so a corrupt or
//! malicious header cannot make the peer allocate unbounded memory.

use dvs_obs::json::Json;
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload (16 MiB — the largest cached compile
/// result for the bundled workloads is a few KiB, so this is generous).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Writes one frame (header + payload) and flushes.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES} limit",
                bytes.len()
            ),
        ));
    }
    let len = u32::try_from(bytes.len()).expect("checked against MAX_FRAME_BYTES");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF **at a frame
/// boundary** (the peer closed between requests); EOF mid-frame is an
/// error.
///
/// # Errors
///
/// Propagates I/O errors (including read timeouts as
/// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] when the
/// stream has a read timeout and **no** header byte has arrived yet);
/// rejects oversized or non-UTF-8 payloads.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut header = [0u8; 4];
    // First header byte: a clean EOF here is a graceful close.
    let mut got = 0usize;
    while got == 0 {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(n) => got = n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    read_exact_patient(r, &mut header[1..])?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame header announces {len} bytes (limit {MAX_FRAME_BYTES})"),
        ));
    }
    let mut payload = vec![0u8; len];
    read_exact_patient(r, &mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// How long a partially received frame may stall before the read is
/// abandoned. Mid-frame timeouts are otherwise ridden out (abandoning a
/// half-read frame would desynchronize the stream), but a peer that
/// sends half a frame and goes silent must not pin the reader forever.
const MID_FRAME_STALL_LIMIT: std::time::Duration = std::time::Duration::from_secs(30);

/// `read_exact` that rides out read-timeout and interrupt errors — once a
/// frame has started arriving we must not abandon it halfway — up to
/// [`MID_FRAME_STALL_LIMIT`] of continuous stall.
fn read_exact_patient(r: &mut impl Read, mut buf: &mut [u8]) -> io::Result<()> {
    let mut stalled_since: Option<std::time::Instant> = None;
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let since = *stalled_since.get_or_insert_with(std::time::Instant::now);
                if since.elapsed() > MID_FRAME_STALL_LIMIT {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Which pipeline a solve request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOp {
    /// Full compile: profile → filter → MILP → schedule → simulator
    /// validation, returning the canonical `CompileResult` JSON.
    Compile,
    /// Compile (validation off) plus the `dvs-verify` static pass,
    /// returning the verify report.
    Verify,
    /// Compile plus the simulator's validation run of the emitted
    /// schedule (`Machine::run_scheduled`, as in `Compile`), returning the
    /// measured time, energy and transitions beside the MILP's predicted
    /// energy.
    Evaluate,
    /// Compile (validation off) with the certified-optimality gate: the
    /// solver's proof is exported as a `dvs-cert` certificate, replayed by
    /// the independent exact-arithmetic checker, and returned (encoded
    /// certificate + checker report) alongside the compile result. The
    /// certificate is byte-stable and rides in the content-addressed
    /// cache like any other result body.
    Certify,
}

impl SolveOp {
    /// The wire name of the op.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SolveOp::Compile => "compile",
            SolveOp::Verify => "verify",
            SolveOp::Evaluate => "evaluate",
            SolveOp::Certify => "certify",
        }
    }
}

/// A cacheable unit of work: everything that determines the solve output,
/// plus a per-request timeout that deliberately does **not** participate
/// in the cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Compile or verify.
    pub op: SolveOp,
    /// Benchmark name (exact or unambiguous prefix, as `dvsc` accepts).
    pub benchmark: String,
    /// Fig. 16 deadline index, 1..=5.
    pub deadline_index: usize,
    /// Voltage-ladder levels (3 = the paper's XScale ladder).
    pub levels: usize,
    /// Regulator capacitance in µF: finite and at least 0.
    pub capacitance_uf: f64,
    /// Solver backend: `auto` (default), `bnb`/`branch-and-bound`, or
    /// `continuous` — part of the cache key, since the backend can change
    /// the reported schedule and statistics.
    pub solver: String,
    /// How long the *client* is willing to wait, in milliseconds. The
    /// server stops waiting (and replies `timeout`) after this; the solve
    /// itself keeps running and still populates the cache.
    pub timeout_ms: Option<u64>,
    /// Client-chosen trace id echoed in the reply's trace tree; the
    /// server assigns one when absent. Like `timeout_ms`, never part of
    /// the cache key.
    pub trace_id: Option<u64>,
}

impl SolveRequest {
    /// Parses the solve fields out of a request object.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(op: SolveOp, v: &Json) -> Result<SolveRequest, String> {
        let benchmark = v
            .get("benchmark")
            .and_then(Json::as_str)
            .ok_or("missing string field `benchmark`")?
            .to_string();
        let deadline_index = v
            .get("deadline_index")
            .map(|d| d.as_u64().ok_or("`deadline_index` must be an integer"))
            .transpose()?
            .unwrap_or(3) as usize;
        let levels = v
            .get("levels")
            .map(|d| d.as_u64().ok_or("`levels` must be an integer"))
            .transpose()?
            .unwrap_or(3) as usize;
        let capacitance_uf = v
            .get("capacitance_uf")
            .map(|d| d.as_f64().ok_or("`capacitance_uf` must be a number"))
            .transpose()?
            .unwrap_or(0.05);
        // JSON has no infinity, but `1e999` overflows to one.
        if !capacitance_uf.is_finite() || capacitance_uf < 0.0 {
            return Err(format!(
                "`capacitance_uf` must be a finite number of at least 0 (got {capacitance_uf})"
            ));
        }
        let solver = v
            .get("solver")
            .map(|d| d.as_str().ok_or("`solver` must be a string"))
            .transpose()?
            .unwrap_or("auto")
            .to_string();
        if dvs_compiler::SolverChoice::parse(&solver).is_none() {
            return Err(format!(
                "`solver` must be auto, bnb, branch-and-bound or continuous (got `{solver}`)"
            ));
        }
        let timeout_ms = v
            .get("timeout_ms")
            .map(|d| d.as_u64().ok_or("`timeout_ms` must be an integer"))
            .transpose()?;
        let trace_id = v
            .get("trace_id")
            .map(|d| d.as_u64().ok_or("`trace_id` must be an integer"))
            .transpose()?;
        Ok(SolveRequest {
            op,
            benchmark,
            deadline_index,
            levels,
            capacitance_uf,
            solver,
            timeout_ms,
            trace_id,
        })
    }

    /// The request as a wire JSON object (includes `timeout_ms`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("op".to_string(), Json::from(self.op.name())),
            ("benchmark".to_string(), Json::from(self.benchmark.as_str())),
            (
                "deadline_index".to_string(),
                Json::from(self.deadline_index),
            ),
            ("levels".to_string(), Json::from(self.levels)),
            (
                "capacitance_uf".to_string(),
                Json::from(self.capacitance_uf),
            ),
            ("solver".to_string(), Json::from(self.solver.as_str())),
        ];
        if let Some(t) = self.timeout_ms {
            members.push(("timeout_ms".to_string(), Json::from(t)));
        }
        if let Some(t) = self.trace_id {
            members.push(("trace_id".to_string(), Json::from(t)));
        }
        Json::Obj(members)
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Cache/queue/counter snapshot.
    Stats,
    /// Graceful drain: finish queued work, then stop the server.
    Shutdown,
    /// The last completed request trace trees, as Chrome trace events.
    Traces,
    /// A compile, verify, evaluate or certify solve.
    Solve(SolveRequest),
}

impl Request {
    /// Parses one request frame.
    ///
    /// # Errors
    ///
    /// A message describing the malformed frame (sent back as a
    /// `bad_request` response).
    pub fn parse(body: &str) -> Result<Request, String> {
        let v = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field `op`")?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "traces" => Ok(Request::Traces),
            "compile" => Ok(Request::Solve(SolveRequest::from_json(
                SolveOp::Compile,
                &v,
            )?)),
            "verify" => Ok(Request::Solve(SolveRequest::from_json(
                SolveOp::Verify,
                &v,
            )?)),
            "evaluate" => Ok(Request::Solve(SolveRequest::from_json(
                SolveOp::Evaluate,
                &v,
            )?)),
            "certify" => Ok(Request::Solve(SolveRequest::from_json(
                SolveOp::Certify,
                &v,
            )?)),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// The wire JSON for this request.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj([("op", "ping")]),
            Request::Stats => Json::obj([("op", "stats")]),
            Request::Shutdown => Json::obj([("op", "shutdown")]),
            Request::Traces => Json::obj([("op", "traces")]),
            Request::Solve(s) => s.to_json(),
        }
    }
}

/// Builds an error response envelope. `kind` is machine-readable
/// (`busy`, `timeout`, `bad_request`, `solve_error`, `shutting_down`).
#[must_use]
pub fn error_envelope(op: &str, kind: &str, msg: &str) -> String {
    Json::obj([
        ("ok", Json::from(false)),
        ("op", Json::from(op)),
        ("kind", Json::from(kind)),
        ("error", Json::from(msg)),
    ])
    .dump()
}

/// Builds a success envelope around an already-serialized `result` body.
///
/// The body is spliced in verbatim, so a cached result is returned
/// byte-identical to the response that first produced it; only the
/// envelope fields (`cached`, `server_us`) differ between cold and warm.
#[must_use]
pub fn ok_envelope(op: &str, cached: bool, server_us: f64, result_body: &str) -> String {
    ok_envelope_traced(op, cached, server_us, result_body, None)
}

/// [`ok_envelope`] with an optional `trace` field carrying the request's
/// finished trace tree (an already-serialized JSON object). The trace
/// rides in the **envelope**, never the result body, so the byte-identity
/// contract between cold and warm results is untouched.
#[must_use]
pub fn ok_envelope_traced(
    op: &str,
    cached: bool,
    server_us: f64,
    result_body: &str,
    trace_body: Option<&str>,
) -> String {
    let trace = trace_body.map_or(String::new(), |t| format!("\"trace\":{t},"));
    format!(
        "{{\"ok\":true,\"op\":\"{op}\",\"cached\":{cached},\"server_us\":{},{trace}\"result\":{result_body}}}",
        Json::from(server_us).dump()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\":\"ping\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(6); // header + one byte
        let mut r = io::Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_header_is_rejected_without_allocating() {
        let mut buf = (u32::try_from(MAX_FRAME_BYTES).unwrap() + 1)
            .to_be_bytes()
            .to_vec();
        buf.extend_from_slice(b"x");
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn requests_parse_and_round_trip() {
        for (body, want) in [
            ("{\"op\":\"ping\"}", Request::Ping),
            ("{\"op\":\"stats\"}", Request::Stats),
            ("{\"op\":\"shutdown\"}", Request::Shutdown),
            ("{\"op\":\"traces\"}", Request::Traces),
        ] {
            assert_eq!(Request::parse(body).unwrap(), want);
        }
        let req = Request::Solve(SolveRequest {
            op: SolveOp::Compile,
            benchmark: "gsm".into(),
            deadline_index: 2,
            levels: 3,
            capacitance_uf: 0.05,
            solver: "bnb".into(),
            timeout_ms: Some(500),
            trace_id: Some(99),
        });
        let round = Request::parse(&req.to_json().dump()).unwrap();
        assert_eq!(round, req);
        // Defaults fill in when optional fields are absent.
        let sparse = Request::parse("{\"op\":\"verify\",\"benchmark\":\"epic\"}").unwrap();
        match sparse {
            Request::Solve(s) => {
                assert_eq!(s.op, SolveOp::Verify);
                assert_eq!((s.deadline_index, s.levels), (3, 3));
                assert_eq!(s.solver, "auto");
                assert!(s.timeout_ms.is_none());
                assert!(s.trace_id.is_none());
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn evaluate_requests_parse_and_round_trip() {
        let req = Request::Solve(SolveRequest {
            op: SolveOp::Evaluate,
            benchmark: "adpcm".into(),
            deadline_index: 4,
            levels: 5,
            capacitance_uf: 0.1,
            solver: "auto".into(),
            timeout_ms: None,
            trace_id: None,
        });
        assert_eq!(Request::parse(&req.to_json().dump()).unwrap(), req);
        match Request::parse("{\"op\":\"evaluate\",\"benchmark\":\"gsm\"}").unwrap() {
            Request::Solve(s) => assert_eq!(s.op, SolveOp::Evaluate),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn certify_requests_parse_and_round_trip() {
        let req = Request::Solve(SolveRequest {
            op: SolveOp::Certify,
            benchmark: "gsm".into(),
            deadline_index: 2,
            levels: 3,
            capacitance_uf: 0.05,
            solver: "bnb".into(),
            timeout_ms: None,
            trace_id: None,
        });
        assert_eq!(Request::parse(&req.to_json().dump()).unwrap(), req);
        match Request::parse("{\"op\":\"certify\",\"benchmark\":\"epic\"}").unwrap() {
            Request::Solve(s) => {
                assert_eq!(s.op, SolveOp::Certify);
                assert_eq!(s.op.name(), "certify");
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        assert!(Request::parse("nonsense")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(Request::parse("{}").unwrap_err().contains("`op`"));
        assert!(Request::parse("{\"op\":\"dance\"}")
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::parse("{\"op\":\"compile\"}")
            .unwrap_err()
            .contains("`benchmark`"));
        for cap in ["1e999", "-1e999", "-1", "-0.5"] {
            let frame =
                format!("{{\"op\":\"certify\",\"benchmark\":\"gsm\",\"capacitance_uf\":{cap}}}");
            assert!(
                Request::parse(&frame)
                    .unwrap_err()
                    .contains("`capacitance_uf`"),
                "{cap}"
            );
        }
        let zero = "{\"op\":\"compile\",\"benchmark\":\"gsm\",\"capacitance_uf\":0}";
        assert!(Request::parse(zero).is_ok(), "zero capacitance stays valid");
    }

    #[test]
    fn envelopes_are_valid_json() {
        let e = error_envelope("compile", "busy", "queue full");
        let v = Json::parse(&e).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("busy"));
        let o = ok_envelope("compile", true, 12.5, "{\"x\":1}");
        let v = Json::parse(&o).unwrap();
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
        assert!(v.get("trace").is_none());
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("x"))
                .and_then(Json::as_u64),
            Some(1)
        );
        // The trace variant splices both bodies verbatim: the result
        // bytes are identical with and without a trace attached.
        let t = ok_envelope_traced("compile", true, 12.5, "{\"x\":1}", Some("{\"trace_id\":3}"));
        let v = Json::parse(&t).unwrap();
        assert_eq!(
            v.get("trace")
                .and_then(|tr| tr.get("trace_id"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("result").map(Json::dump),
            Json::parse(&o).unwrap().get("result").map(Json::dump)
        );
    }
}
