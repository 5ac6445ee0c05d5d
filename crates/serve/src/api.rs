//! The JSON wire contract: request parsing and typed response bodies.
//!
//! Every response the service can produce — success, degraded success,
//! shed, deadline, bad request, internal error — is constructed here,
//! so the taxonomy lives in one place and the probe can assert that
//! *no* response falls outside it. Requests are parsed from
//! [`serde_json::Value`] by hand: the fields are few, the defaults
//! matter (a missing `timeout_ms` must become the server default, not
//! a parse error), and hand-parsing produces precise 400 messages.

use ferrocim_cim::MacPath;
use ferrocim_units::Celsius;
use serde_json::{json, Value};

/// A parsed `POST /v1/mac` body.
#[derive(Debug, Clone, PartialEq)]
pub struct MacApiRequest {
    /// Requesting tenant (defaults to `"anonymous"`).
    pub tenant: String,
    /// Word-line inputs.
    pub inputs: Vec<bool>,
    /// Stored weights.
    pub weights: Vec<bool>,
    /// Operating temperature, °C (defaults to 27).
    pub temp_c: f64,
    /// Request deadline; `None` means the server default applies.
    pub timeout_ms: Option<u64>,
    /// Evaluation path (defaults to the fast analytic path).
    pub path: MacPath,
}

/// A typed request-parse failure; always rendered as a 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// What was wrong, in one client-actionable sentence.
    pub message: String,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

fn bad(message: impl Into<String>) -> ApiError {
    ApiError {
        message: message.into(),
    }
}

fn parse_bools(doc: &Value, field: &str) -> Result<Vec<bool>, ApiError> {
    match doc.get(field) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| match item {
                Value::Bool(b) => Ok(*b),
                Value::Number(n) if *n == 0.0 || *n == 1.0 => Ok(*n == 1.0),
                other => Err(bad(format!(
                    "{field} entries must be booleans (or 0/1), got {other:?}"
                ))),
            })
            .collect(),
        Some(other) => Err(bad(format!("{field} must be an array, got {other:?}"))),
        None => Err(bad(format!("missing required field {field:?}"))),
    }
}

impl MacApiRequest {
    /// Parses a request body.
    ///
    /// # Errors
    ///
    /// Returns a client-facing message for the first missing or
    /// ill-typed field.
    pub fn parse(body: &[u8]) -> Result<MacApiRequest, ApiError> {
        let text = std::str::from_utf8(body).map_err(|_| bad("request body must be UTF-8 JSON"))?;
        let doc: Value =
            serde_json::from_str(text).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        if !matches!(doc, Value::Object(_)) {
            return Err(bad("request body must be a JSON object"));
        }
        let tenant = match doc.get("tenant") {
            Some(Value::String(s)) if !s.is_empty() => s.clone(),
            Some(Value::String(_)) => return Err(bad("tenant must be non-empty")),
            Some(other) => return Err(bad(format!("tenant must be a string, got {other:?}"))),
            None => "anonymous".to_string(),
        };
        let inputs = parse_bools(&doc, "inputs")?;
        let weights = parse_bools(&doc, "weights")?;
        let temp_c = match doc.get("temp_c") {
            Some(Value::Number(n)) if n.is_finite() && *n > -Celsius::KELVIN_OFFSET => *n,
            Some(other) => {
                return Err(bad(format!(
                    "temp_c must be a finite number above absolute zero (-273.15), got {other:?}"
                )))
            }
            None => 27.0,
        };
        let timeout_ms = match doc.get("timeout_ms") {
            Some(Value::Number(n)) if n.fract() == 0.0 && *n >= 1.0 => Some(*n as u64),
            Some(other) => {
                return Err(bad(format!(
                    "timeout_ms must be a positive integer, got {other:?}"
                )))
            }
            None => None,
        };
        let path = match doc.get("path") {
            Some(Value::String(s)) if s == "analytic" => MacPath::Analytic,
            Some(Value::String(s)) if s == "transient" => MacPath::Transient,
            Some(other) => {
                return Err(bad(format!(
                    "path must be \"analytic\" or \"transient\", got {other:?}"
                )))
            }
            None => MacPath::Analytic,
        };
        Ok(MacApiRequest {
            tenant,
            inputs,
            weights,
            temp_c,
            timeout_ms,
            path,
        })
    }
}

/// Renders a request id the way every response body carries it: a
/// fixed-width 16-digit lowercase hex string, so a client can quote it
/// verbatim when correlating with server-side traces and flight dumps.
pub fn request_id_hex(request_id: u64) -> String {
    format!("{request_id:016x}")
}

/// The success body (live, surrogate, or degraded — the `surrogate`
/// and `degraded` flags say which: surrogate-only is the certified
/// fast path, degraded+surrogate is the fallback tier). `cause`
/// carries the last solver error when the answer degraded, so clients
/// can tell a breaker-open fallback from an exhausted retry ladder.
pub fn ok_body(
    solution: &crate::backend::Solution,
    attempts: u32,
    breaker_open: bool,
    cause: Option<&str>,
    request_id: u64,
) -> Value {
    let mut body = json!({
        "ok": true,
        "request_id": (request_id_hex(request_id)),
        "degraded": (solution.degraded),
        "surrogate": (solution.surrogate),
        "breaker_open": (breaker_open),
        "v_acc": (solution.v_acc.value()),
        "readout": (solution.readout as u64),
        "expected": (solution.expected as u64),
        "energy_j": (solution.energy_j),
        "latency_s": (solution.latency_s),
        "attempts": (attempts)
    });
    if let (Some(cause), Value::Object(entries)) = (cause, &mut body) {
        entries.push((
            "degraded_cause".to_string(),
            Value::String(cause.to_string()),
        ));
    }
    body
}

/// The `429 Overloaded` body. `reason` is `"queue_full"`,
/// `"tenant_quota"`, or `"draining"`.
pub fn overloaded_body(
    reason: &str,
    retry_after_ms: u64,
    queue_depth: usize,
    request_id: u64,
) -> Value {
    json!({
        "ok": false,
        "error": "overloaded",
        "reason": (reason),
        "retry_after_ms": (retry_after_ms),
        "queue_depth": (queue_depth as u64),
        "request_id": (request_id_hex(request_id))
    })
}

/// The `504 Deadline Exceeded` body.
pub fn deadline_body(message: &str, request_id: u64) -> Value {
    json!({
        "ok": false,
        "error": "deadline_exceeded",
        "message": (message),
        "request_id": (request_id_hex(request_id))
    })
}

/// The `400 Bad Request` body.
pub fn bad_request_body(message: &str, request_id: u64) -> Value {
    json!({
        "ok": false,
        "error": "bad_request",
        "message": (message),
        "request_id": (request_id_hex(request_id))
    })
}

/// The `500 Internal` body (typed even when the worker panicked).
pub fn internal_body(message: &str, request_id: u64) -> Value {
    json!({
        "ok": false,
        "error": "internal",
        "message": (message),
        "request_id": (request_id_hex(request_id))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let req = MacApiRequest::parse(
            br#"{"tenant":"t1","inputs":[true,false,1,0],"weights":[1,1,0,0],
                "temp_c":85.0,"timeout_ms":250,"path":"transient"}"#,
        )
        .expect("parse");
        assert_eq!(req.tenant, "t1");
        assert_eq!(req.inputs, vec![true, false, true, false]);
        assert_eq!(req.weights, vec![true, true, false, false]);
        assert_eq!(req.temp_c, 85.0);
        assert_eq!(req.timeout_ms, Some(250));
        assert_eq!(req.path, MacPath::Transient);
    }

    #[test]
    fn defaults_apply_when_fields_are_absent() {
        let req = MacApiRequest::parse(br#"{"inputs":[true],"weights":[true]}"#).expect("parse");
        assert_eq!(req.tenant, "anonymous");
        assert_eq!(req.temp_c, 27.0);
        assert_eq!(req.timeout_ms, None);
        assert_eq!(req.path, MacPath::Analytic);
    }

    #[test]
    fn rejects_malformed_bodies_with_actionable_messages() {
        assert!(MacApiRequest::parse(b"not json")
            .expect_err("garbage")
            .message
            .contains("invalid JSON"));
        assert!(MacApiRequest::parse(br#"{"weights":[true]}"#)
            .expect_err("no inputs")
            .message
            .contains("inputs"));
        assert!(MacApiRequest::parse(br#"{"inputs":[2],"weights":[true]}"#)
            .expect_err("non-bool entry")
            .message
            .contains("booleans"));
        for temp in ["-273.15", "-300"] {
            let body = format!(r#"{{"inputs":[true],"weights":[true],"temp_c":{temp}}}"#);
            assert!(MacApiRequest::parse(body.as_bytes())
                .expect_err("temperature at or below absolute zero")
                .message
                .contains("temp_c"));
        }
        assert!(
            MacApiRequest::parse(br#"{"inputs":[true],"weights":[true],"timeout_ms":0}"#)
                .expect_err("zero timeout")
                .message
                .contains("timeout_ms")
        );
    }

    #[test]
    fn bodies_are_well_typed_json() {
        let shed = overloaded_body("queue_full", 120, 16, 0xABCD);
        assert_eq!(shed.get("error"), Some(&Value::String("overloaded".into())));
        assert_eq!(shed.get("retry_after_ms"), Some(&Value::Number(120.0)));
        let text = serde_json::to_string(&shed).expect("serialize");
        assert!(text.contains("\"queue_full\""));
    }

    #[test]
    fn every_body_echoes_a_fixed_width_request_id() {
        let id = 0x5EED;
        let hex = request_id_hex(id);
        assert_eq!(hex.len(), 16, "request ids are fixed-width hex");
        assert_eq!(hex, "0000000000005eed");
        for body in [
            overloaded_body("queue_full", 120, 16, id),
            deadline_body("late", id),
            bad_request_body("bad", id),
            internal_body("boom", id),
        ] {
            assert_eq!(
                body.get("request_id"),
                Some(&Value::String(hex.clone())),
                "body {body:?} echoes the request id"
            );
        }
    }
}
