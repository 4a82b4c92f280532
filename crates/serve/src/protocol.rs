//! The `nosq serve` wire protocol: line-delimited JSON over TCP.
//!
//! Every request and every response is exactly one `\n`-terminated JSON
//! object — no framing beyond the newline, no binary, so a session is
//! inspectable with `nc`. Requests carry a `"cmd"` discriminator;
//! responses carry `"ok"` (and errors an `"error"` string). The one
//! multi-line exchange is `wait`, which streams `progress` event
//! objects and terminates with a single `done` event carrying the
//! artifacts (artifact contents embed newline-free thanks to JSON
//! string escaping).
//!
//! ```text
//! → {"cmd":"submit","spec":"name = demo\n..."}
//! ← {"ok":true,"job":"91f0a30fb2a9e6c4","state":"queued"}
//! → {"cmd":"wait","job":"91f0a30fb2a9e6c4"}
//! ← {"ok":true,"event":"progress","job":"91f0…","done":1,"total":4,"insts":8000}
//! ← {"ok":true,"event":"done","job":"91f0…","cached":false,"artifacts":[…]}
//! ```
//!
//! Parsing reuses the lab's hand-rolled [`nosq_lab::json`] parser and
//! the [`nosq_core::ser`] writers — the protocol layer owns no
//! serialization machinery of its own.

use nosq_core::ser::{JsonArray, JsonObject};
use nosq_lab::json::{self, Json};
use nosq_lab::Artifact;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a campaign spec (text or JSON form) for execution.
    Submit {
        /// The spec file contents, verbatim.
        spec: String,
    },
    /// Stream progress for a job until it completes.
    Wait {
        /// The job id returned by `submit`.
        job: String,
    },
    /// One-line daemon health / queue / cache snapshot.
    Status,
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain: stop accepting work, finish what is
    /// queued, journal everything, exit.
    Shutdown,
}

/// Parses one request line. `Err` is the message to send back in an
/// error response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let cmd = doc
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("request needs a string `cmd` field")?;
    let field = |name: &str| -> Result<String, String> {
        doc.get(name)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or(format!("`{cmd}` needs a string `{name}` field"))
    };
    match cmd {
        "submit" => Ok(Request::Submit {
            spec: field("spec")?,
        }),
        "wait" => Ok(Request::Wait { job: field("job")? }),
        "status" => Ok(Request::Status),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

/// Serializes a request — the client side of [`parse_request`].
pub fn request_line(req: &Request) -> String {
    let mut obj = JsonObject::new();
    match req {
        Request::Submit { spec } => obj.field_str("cmd", "submit").field_str("spec", spec),
        Request::Wait { job } => obj.field_str("cmd", "wait").field_str("job", job),
        Request::Status => obj.field_str("cmd", "status"),
        Request::Ping => obj.field_str("cmd", "ping"),
        Request::Shutdown => obj.field_str("cmd", "shutdown"),
    };
    obj.finish()
}

/// An error response line.
pub fn error_line(msg: &str) -> String {
    let mut obj = JsonObject::new();
    obj.field_bool("ok", false).field_str("error", msg);
    obj.finish()
}

/// The backpressure response: the queue is full *right now*, try again
/// in roughly `retry_ms`. Structured (`"busy":true` + machine-readable
/// delay) so clients can implement backoff instead of string-matching.
pub fn busy_line(retry_ms: u64) -> String {
    let mut obj = JsonObject::new();
    obj.field_bool("ok", false)
        .field_str("error", "busy: queue full")
        .field_bool("busy", true)
        .field_u64("retry_ms", retry_ms);
    obj.finish()
}

/// The structured `wait`-on-unknown-id error: the id was never
/// submitted this daemon lifetime (or is malformed). Carries
/// `"unknown_job":true` so clients distinguish it from transport
/// errors.
pub fn unknown_job_line(id: &str) -> String {
    let mut obj = JsonObject::new();
    obj.field_bool("ok", false)
        .field_str(
            "error",
            &format!("unknown job `{id}`: not submitted this daemon lifetime"),
        )
        .field_bool("unknown_job", true);
    obj.finish()
}

/// The structured cache-evicted error: the job completed, but its
/// artifacts have been evicted from the LRU cache; resubmitting the
/// spec recomputes (or journal-recovers) them.
pub fn evicted_line(id: &str) -> String {
    let mut obj = JsonObject::new();
    obj.field_bool("ok", false)
        .field_str(
            "error",
            &format!("job `{id}` completed but its artifacts were evicted; resubmit the spec"),
        )
        .field_bool("evicted", true);
    obj.finish()
}

/// The `submit` success response.
pub fn submit_line(job: &str, state: &str) -> String {
    let mut obj = JsonObject::new();
    obj.field_bool("ok", true)
        .field_str("job", job)
        .field_str("state", state);
    obj.finish()
}

/// One `wait` progress event.
pub fn progress_line(job: &str, done: usize, total: usize, insts: u64) -> String {
    let mut obj = JsonObject::new();
    obj.field_bool("ok", true)
        .field_str("event", "progress")
        .field_str("job", job)
        .field_u64("done", done as u64)
        .field_u64("total", total as u64)
        .field_u64("insts", insts);
    obj.finish()
}

/// The terminal `wait` event, artifacts inline.
pub fn done_line(job: &str, name: &str, cached: bool, artifacts: &[Artifact]) -> String {
    let mut arr = JsonArray::new();
    for a in artifacts {
        let mut obj = JsonObject::new();
        obj.field_str("file_name", &a.file_name)
            .field_str("contents", &a.contents);
        arr.push_raw(&obj.finish());
    }
    let mut obj = JsonObject::new();
    obj.field_bool("ok", true)
        .field_str("event", "done")
        .field_str("job", job)
        .field_str("name", name)
        .field_bool("cached", cached)
        .field_raw("artifacts", &arr.finish());
    obj.finish()
}

/// Extracts the artifacts array from a parsed `done` event.
pub fn artifacts_from_json(doc: &Json) -> Result<Vec<Artifact>, String> {
    let arr = doc
        .get("artifacts")
        .and_then(Json::as_array)
        .ok_or("missing `artifacts` array")?;
    arr.iter()
        .map(|item| {
            let file_name = item
                .get("file_name")
                .and_then(Json::as_str)
                .ok_or("artifact missing `file_name`")?
                .to_owned();
            let contents = item
                .get("contents")
                .and_then(Json::as_str)
                .ok_or("artifact missing `contents`")?
                .to_owned();
            Ok(Artifact {
                file_name,
                contents,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Submit {
                spec: "name = x\nconfigs = nosq\nprofiles = gzip\n".into(),
            },
            Request::Wait { job: "abcd".into() },
            Request::Status,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = request_line(&req);
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(parse_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn bad_requests_are_described() {
        assert!(parse_request("nonsense").unwrap_err().contains("malformed"));
        assert!(parse_request("{}").unwrap_err().contains("cmd"));
        assert!(parse_request(r#"{"cmd":"fly"}"#)
            .unwrap_err()
            .contains("fly"));
        assert!(parse_request(r#"{"cmd":"wait"}"#)
            .unwrap_err()
            .contains("job"));
    }

    #[test]
    fn done_event_roundtrips_artifacts() {
        let artifacts = vec![
            Artifact {
                file_name: "x.matrix.csv".into(),
                contents: "a,b\n1,2\n".into(),
            },
            Artifact {
                file_name: "x.summary.json".into(),
                contents: "{\"k\":\"quote \\\" here\"}".into(),
            },
        ];
        let line = done_line("01", "demo", false, &artifacts);
        assert!(!line.contains('\n'), "artifacts must embed newline-free");
        let doc = nosq_lab::json::parse(&line).unwrap();
        assert_eq!(doc.get("event").unwrap().as_str(), Some("done"));
        assert_eq!(doc.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(doc.get("cached").unwrap(), &Json::Bool(false));
        assert_eq!(artifacts_from_json(&doc).unwrap(), artifacts);
    }

    #[test]
    fn structured_error_lines_are_machine_readable() {
        let b = json::parse(&busy_line(250)).unwrap();
        assert_eq!(b.get("ok").unwrap(), &Json::Bool(false));
        assert_eq!(b.get("busy").unwrap(), &Json::Bool(true));
        assert_eq!(b.get("retry_ms").unwrap().as_u64(), Some(250));
        let u = json::parse(&unknown_job_line("ff00")).unwrap();
        assert_eq!(u.get("unknown_job").unwrap(), &Json::Bool(true));
        assert!(u.get("error").unwrap().as_str().unwrap().contains("ff00"));
        let e = json::parse(&evicted_line("ff00")).unwrap();
        assert_eq!(e.get("evicted").unwrap(), &Json::Bool(true));
        assert!(e
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("resubmit"));
    }

    #[test]
    fn progress_and_error_lines_parse() {
        let p = nosq_lab::json::parse(&progress_line("j", 2, 4, 900)).unwrap();
        assert_eq!(p.get("done").unwrap().as_u64(), Some(2));
        assert_eq!(p.get("insts").unwrap().as_u64(), Some(900));
        let e = nosq_lab::json::parse(&error_line("busy")).unwrap();
        assert_eq!(e.get("ok").unwrap(), &Json::Bool(false));
        assert_eq!(e.get("error").unwrap().as_str(), Some("busy"));
    }
}
