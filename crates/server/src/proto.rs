//! The `slltd` wire protocol: line-delimited JSON, one request per
//! line, one (or, for `watch`, many) response object(s) per line.
//!
//! # Grammar
//!
//! Every request is a single JSON object terminated by `\n`, with an
//! `"op"` member selecting the verb:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"submit","design":"s35932","config":"base",
//!  "timeout_s":120,"retries":1}            -> {"ok":true,"job":"j1"}
//! {"op":"status"}                          -> {"ok":true,"jobs":[...]}
//! {"op":"status","job":"j1"}               -> {"ok":true,"jobs":[{...}]}
//! {"op":"cancel","job":"j1"}               -> {"ok":true}
//! {"op":"result","job":"j1","wait":true}   -> {"ok":true,"status":"ok",...}
//! {"op":"watch","job":"j1"}                -> progress lines, then a final
//!                                             result object
//! {"op":"drain"}                           -> {"ok":true,"draining":true}
//! ```
//!
//! Every error reply is structured — `{"ok":false,"code":N,
//! "error":"..."}` with HTTP-flavored codes ([`E_PARSE`], [`E_BUSY`],
//! …) — and never tears down the connection: a malformed line is
//! answered and the parser resynchronizes at the next newline, so
//! pipelined requests behind a bad one still execute. Lines longer than
//! [`MAX_LINE`] are drained (never buffered) and answered with
//! [`E_TOO_LARGE`]. A torn final line (client died mid-write) is
//! discarded silently. The fuzz suite (`tests/proto_prop.rs`) pins all
//! of this down over arbitrary byte soup.
//!
//! A submit may carry a `"fault"` word (`panic`, `hang`, `oom`, or
//! `sleep:<ms>`), a test lever. It is checked by the one fault grammar,
//! [`FaultPlan`]'s `FromStr`, and carried verbatim from then on.

use sllt_cts::FaultPlan;
use sllt_obs::json::{parse, Value};
use std::io::BufRead;

/// Longest accepted request line, bytes (newline excluded). Beyond this
/// the framer switches to drain-and-reject — admission control for
/// memory, not just for the job queue.
pub const MAX_LINE: usize = 64 * 1024;

/// Malformed request: bad UTF-8, bad JSON, wrong field types.
pub const E_PARSE: u16 = 400;
/// Unknown job id.
pub const E_NOT_FOUND: u16 = 404;
/// Request line exceeded [`MAX_LINE`].
pub const E_TOO_LARGE: u16 = 413;
/// Admission refused: the job queue is at capacity. Back off and retry.
pub const E_BUSY: u16 = 429;
/// Internal server failure (journal write, spawn failure).
pub const E_INTERNAL: u16 = 500;
/// The daemon is draining and admits no new work.
pub const E_DRAINING: u16 = 503;

/// A structured protocol error: code + human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of the `E_*` codes.
    pub code: u16,
    /// What went wrong.
    pub msg: String,
}

impl ProtoError {
    /// Convenience constructor.
    pub fn new(code: u16, msg: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            msg: msg.into(),
        }
    }

    /// The wire form: `{"ok":false,"code":N,"error":"..."}`.
    pub fn to_value(&self) -> Value {
        Value::obj()
            .with("ok", false)
            .with("code", u64::from(self.code))
            .with("error", self.msg.as_str())
    }
}

/// A validated submit request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Suite or `grid<N>` design name (ignored when `design_file` set).
    pub design: String,
    /// Path to a design file on the server's filesystem; goes through
    /// the sanitized-design cache.
    pub design_file: Option<String>,
    /// Named constraint config (`base`, `tight`, `nosa`).
    pub config: String,
    /// Per-job wall-clock deadline, seconds; `None` = server default.
    pub timeout_s: Option<f64>,
    /// Extra attempts after a failed one; `None` = server default.
    pub retries: Option<u32>,
    /// Fault word (`panic` | `hang` | `sleep:<ms>` | `oom`), test use;
    /// accepted only if it parses as a [`FaultPlan`].
    pub fault: Option<String>,
    /// Client-supplied tenant id for admission quotas; `None` lands in
    /// the shared anonymous bucket when quotas are on.
    pub tenant: Option<String>,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Admit a job.
    Submit(SubmitSpec),
    /// Job table snapshot (all jobs, or one).
    Status {
        /// Restrict to this job.
        job: Option<String>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        job: String,
    },
    /// Fetch a job's final result, optionally blocking until terminal.
    Result {
        /// The job to read.
        job: String,
        /// Block until the job reaches a terminal state.
        wait: bool,
    },
    /// Stream the job's progress events until it finishes.
    Watch {
        /// The job to follow.
        job: String,
    },
    /// Stop admitting, finish or checkpoint in-flight work, exit 0.
    Drain,
}

fn field_str(v: &Value, key: &str) -> Result<Option<String>, ProtoError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ProtoError::new(E_PARSE, format!("{key} must be a string"))),
    }
}

fn field_bool(v: &Value, key: &str) -> Result<bool, ProtoError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(ProtoError::new(E_PARSE, format!("{key} must be a boolean"))),
    }
}

/// Parses one request line (raw bytes, newline stripped).
///
/// # Errors
///
/// [`E_PARSE`] with a message naming the defect: invalid UTF-8, invalid
/// JSON, a non-object, a missing/unknown `op`, or a mistyped field.
/// Never panics, for any input — the fuzz suite's core property.
pub fn parse_request(line: &[u8]) -> Result<Request, ProtoError> {
    let text = std::str::from_utf8(line)
        .map_err(|_| ProtoError::new(E_PARSE, "request is not valid UTF-8"))?;
    let v = parse(text).map_err(|e| ProtoError::new(E_PARSE, format!("bad JSON: {e}")))?;
    if !matches!(v, Value::Obj(_)) {
        return Err(ProtoError::new(E_PARSE, "request must be a JSON object"));
    }
    let op = field_str(&v, "op")?.ok_or_else(|| ProtoError::new(E_PARSE, "missing op"))?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "submit" => {
            let design_file = field_str(&v, "design_file")?;
            let design = match field_str(&v, "design")? {
                Some(d) => d,
                None if design_file.is_some() => String::new(),
                None => {
                    return Err(ProtoError::new(
                        E_PARSE,
                        "submit needs design or design_file",
                    ))
                }
            };
            let timeout_s = match v.get("timeout_s") {
                None | Some(Value::Null) => None,
                Some(Value::Num(x)) if *x > 0.0 && x.is_finite() => Some(*x),
                Some(_) => {
                    return Err(ProtoError::new(
                        E_PARSE,
                        "timeout_s must be a positive number",
                    ))
                }
            };
            let retries = match v.get("retries") {
                None | Some(Value::Null) => None,
                Some(n) => Some(n.as_u64().filter(|&r| r <= 16).ok_or_else(|| {
                    ProtoError::new(E_PARSE, "retries must be an integer in 0..=16")
                })? as u32),
            };
            let fault = field_str(&v, "fault")?;
            if let Some(f) = &fault {
                f.parse::<FaultPlan>()
                    .map_err(|e| ProtoError::new(E_PARSE, e))?;
            }
            Ok(Request::Submit(SubmitSpec {
                design,
                design_file,
                config: field_str(&v, "config")?.unwrap_or_else(|| "base".to_string()),
                timeout_s,
                retries,
                fault,
                tenant: field_str(&v, "tenant")?,
            }))
        }
        "status" => Ok(Request::Status {
            job: field_str(&v, "job")?,
        }),
        "cancel" => Ok(Request::Cancel {
            job: field_str(&v, "job")?
                .ok_or_else(|| ProtoError::new(E_PARSE, "cancel needs job"))?,
        }),
        "result" => Ok(Request::Result {
            job: field_str(&v, "job")?
                .ok_or_else(|| ProtoError::new(E_PARSE, "result needs job"))?,
            wait: field_bool(&v, "wait")?,
        }),
        "watch" => Ok(Request::Watch {
            job: field_str(&v, "job")?
                .ok_or_else(|| ProtoError::new(E_PARSE, "watch needs job"))?,
        }),
        "drain" => Ok(Request::Drain),
        other => Err(ProtoError::new(E_PARSE, format!("unknown op {other:?}"))),
    }
}

/// One framing step's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped; may be empty or whitespace).
    Line(Vec<u8>),
    /// A line that exceeded [`MAX_LINE`]; its bytes were drained, not
    /// buffered. Reply [`E_TOO_LARGE`] and keep reading.
    Oversized {
        /// How many bytes the rejected line carried.
        dropped: usize,
    },
    /// End of stream. A torn trailing fragment (bytes after the last
    /// newline) is discarded — the client died mid-write.
    Eof,
}

/// Reads the next frame from `r`, never buffering more than
/// [`MAX_LINE`] bytes regardless of what the peer sends.
///
/// # Errors
///
/// Propagates transport errors (a read timeout surfaces here as
/// `WouldBlock`/`TimedOut`, which the connection loop maps to a hangup).
pub fn read_frame<R: BufRead>(r: &mut R) -> std::io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    let mut dropped = 0usize; // nonzero once the line is condemned
    loop {
        let (consume, done) = {
            let buf = r.fill_buf()?;
            if buf.is_empty() {
                return Ok(Frame::Eof);
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if dropped > 0 {
                        (
                            i + 1,
                            Some(Frame::Oversized {
                                dropped: dropped + i,
                            }),
                        )
                    } else if line.len() + i > MAX_LINE {
                        (
                            i + 1,
                            Some(Frame::Oversized {
                                dropped: line.len() + i,
                            }),
                        )
                    } else {
                        line.extend_from_slice(&buf[..i]);
                        (i + 1, Some(Frame::Line(std::mem::take(&mut line))))
                    }
                }
                None => {
                    if dropped > 0 {
                        dropped += buf.len();
                    } else if line.len() + buf.len() > MAX_LINE {
                        dropped = line.len() + buf.len();
                        line = Vec::new();
                    } else {
                        line.extend_from_slice(buf);
                    }
                    (buf.len(), None)
                }
            }
        };
        r.consume(consume);
        if let Some(frame) = done {
            return Ok(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frames(bytes: &[u8]) -> Vec<Frame> {
        let mut r = Cursor::new(bytes.to_vec());
        let mut out = Vec::new();
        loop {
            let f = read_frame(&mut r).unwrap();
            let eof = f == Frame::Eof;
            out.push(f);
            if eof {
                return out;
            }
        }
    }

    #[test]
    fn frames_split_on_newlines_and_discard_torn_tail() {
        let got = frames(b"{\"op\":\"ping\"}\nnext\ntorn-tail-no-newline");
        assert_eq!(
            got,
            vec![
                Frame::Line(b"{\"op\":\"ping\"}".to_vec()),
                Frame::Line(b"next".to_vec()),
                Frame::Eof,
            ]
        );
    }

    #[test]
    fn oversized_lines_are_drained_not_buffered() {
        let mut bytes = vec![b'x'; MAX_LINE + 5];
        bytes.push(b'\n');
        bytes.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let got = frames(&bytes);
        assert_eq!(
            got,
            vec![
                Frame::Oversized {
                    dropped: MAX_LINE + 5
                },
                Frame::Line(b"{\"op\":\"ping\"}".to_vec()),
                Frame::Eof,
            ]
        );
    }

    #[test]
    fn parse_accepts_the_full_verb_set() {
        assert_eq!(parse_request(b"{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request(b"{\"op\":\"drain\"}").unwrap(),
            Request::Drain
        );
        assert_eq!(
            parse_request(b"{\"op\":\"status\"}").unwrap(),
            Request::Status { job: None }
        );
        assert_eq!(
            parse_request(b"{\"op\":\"cancel\",\"job\":\"j3\"}").unwrap(),
            Request::Cancel { job: "j3".into() }
        );
        assert_eq!(
            parse_request(b"{\"op\":\"result\",\"job\":\"j3\",\"wait\":true}").unwrap(),
            Request::Result {
                job: "j3".into(),
                wait: true
            }
        );
        let sub = parse_request(
            b"{\"op\":\"submit\",\"design\":\"grid48\",\"timeout_s\":2.5,\"retries\":1}",
        )
        .unwrap();
        let tenanted = parse_request(
            b"{\"op\":\"submit\",\"design\":\"grid48\",\"tenant\":\"alice\",\"fault\":\"oom\"}",
        )
        .unwrap();
        match tenanted {
            Request::Submit(s) => {
                assert_eq!(s.tenant.as_deref(), Some("alice"));
                assert_eq!(s.fault.as_deref(), Some("oom"));
            }
            other => panic!("expected submit, got {other:?}"),
        }
        assert_eq!(
            sub,
            Request::Submit(SubmitSpec {
                design: "grid48".into(),
                design_file: None,
                config: "base".into(),
                timeout_s: Some(2.5),
                retries: Some(1),
                fault: None,
                tenant: None,
            })
        );
    }

    #[test]
    fn parse_rejects_malformed_requests_with_structured_errors() {
        let cases: &[&[u8]] = &[
            b"",
            b"not json",
            b"[1,2,3]",
            b"{\"no\":\"op\"}",
            b"{\"op\":\"unknown\"}",
            b"{\"op\":\"submit\"}",
            b"{\"op\":\"submit\",\"design\":7}",
            b"{\"op\":\"submit\",\"design\":\"g\",\"timeout_s\":-1}",
            b"{\"op\":\"submit\",\"design\":\"g\",\"timeout_s\":\"soon\"}",
            b"{\"op\":\"submit\",\"design\":\"g\",\"retries\":99}",
            b"{\"op\":\"submit\",\"design\":\"g\",\"fault\":\"explode\"}",
            b"{\"op\":\"submit\",\"design\":\"g\",\"tenant\":7}",
            b"{\"op\":\"cancel\"}",
            b"{\"op\":\"result\",\"job\":\"j\",\"wait\":\"yes\"}",
            b"\xff\xfe{\"op\":\"ping\"}",
        ];
        for c in cases {
            let err = parse_request(c).expect_err(&format!("{:?}", String::from_utf8_lossy(c)));
            assert_eq!(err.code, E_PARSE);
            let wire = err.to_value();
            assert_eq!(wire.get("ok"), Some(&Value::Bool(false)));
            assert!(wire.get("error").and_then(Value::as_str).is_some());
        }
    }
}
