//! The wire protocol: JSON bodies in, JSON bodies out.
//!
//! A `POST /mine` body is a flat JSON object describing a
//! [`rgs_core::MiningRequest`], read by [`rgs_core::parse_request_body`]
//! (the same reader as `rgs-mine batch` lines). Every field is optional —
//! omitted fields take the library defaults, so `{}` means "closed
//! patterns, min_sup 2". Unknown fields are rejected by name rather than
//! ignored: a typo like `"min_supp"` silently mining with the default
//! support would be far worse than a 400.
//!
//! Responses use a single envelope shape (see [`mine_response_body`]) so
//! clients can always look at `truncated` / `deadline_exceeded` / `cached`
//! regardless of how the request went.

use rgs_core::json;
use rgs_core::MinedPattern;
use seqdb::EventCatalog;

/// A parsed `/mine` body: the mining request plus the per-request deadline
/// in milliseconds (overriding the server default), which is not part of
/// the canonical mining key. The same shape `rgs-mine batch` reads.
pub use rgs_core::RequestBody as MineRequest;

/// A request the server refuses: carries the HTTP status to answer with
/// and a message naming the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// HTTP status code (always 400 today; kept explicit for future codes).
    pub status: u16,
    /// Human-readable reason, quoted back in the error body.
    pub message: String,
}

impl ProtocolError {
    fn bad(message: impl Into<String>) -> Self {
        ProtocolError {
            status: 400,
            message: message.into(),
        }
    }
}

/// Parses a `/mine` request body with [`rgs_core::parse_request_body`];
/// a rejected body becomes a 400 naming the offending field.
///
/// An empty body is treated as `{}`: every field at its default.
pub fn parse_mine_request(body: &str) -> Result<MineRequest, ProtocolError> {
    let text = if body.trim().is_empty() { "{}" } else { body };
    rgs_core::parse_request_body(text).map_err(ProtocolError::bad)
}

/// Renders mined patterns as a JSON array of
/// `{"pattern": "A B", "support": 4, "len": 2}` objects.
pub fn render_patterns(patterns: &[MinedPattern], catalog: &EventCatalog) -> String {
    let mut out = String::with_capacity(patterns.len() * 48 + 2);
    out.push('[');
    for (i, mined) in patterns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"pattern\":");
        out.push_str(&json::escape(&mined.pattern.render_with(catalog, " ")));
        out.push_str(&format!(
            ",\"support\":{},\"len\":{}}}",
            mined.support,
            mined.pattern.len()
        ));
    }
    out.push(']');
    out
}

/// Builds the `/mine` response envelope around an already-rendered
/// `patterns_json` array.
pub fn mine_response_body(
    patterns_json: &str,
    count: usize,
    truncated: bool,
    deadline_exceeded: bool,
    cached: bool,
    elapsed_ms: f64,
) -> String {
    format!(
        "{{\"patterns\":{patterns_json},\"count\":{count},\"truncated\":{truncated},\
         \"deadline_exceeded\":{deadline_exceeded},\"cached\":{cached},\
         \"elapsed_ms\":{elapsed_ms:.3}}}"
    )
}

/// Builds the uniform error body: `{"error":{"code":400,"message":"…"}}`.
pub fn error_body(code: u16, message: &str) -> String {
    format!(
        "{{\"error\":{{\"code\":{code},\"message\":{}}}}}",
        json::escape(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgs_core::json::Value;
    use rgs_core::{MiningRequest, Mode, DEFAULT_TOP_K};

    #[test]
    fn empty_body_means_all_defaults() {
        let parsed = parse_mine_request("").expect("empty body");
        assert_eq!(parsed.request, MiningRequest::default());
        assert_eq!(parsed.timeout_ms, None);
        assert_eq!(parsed, parse_mine_request("{}").expect("empty object"));
    }

    #[test]
    fn every_field_lands_in_the_request() {
        let parsed = parse_mine_request(
            r#"{"min_sup": 7, "mode": "top-k", "min_gap": 1, "max_gap": 4,
                "max_window": 12, "top_k": 25, "min_len": 2, "max_len": 9,
                "max_patterns": 1000, "timeout_ms": 250}"#,
        )
        .expect("full body");
        let r = &parsed.request;
        assert_eq!(r.min_sup, 7);
        assert_eq!(r.mode, Mode::Closed);
        assert_eq!(r.constraints.min_gap, 1);
        assert_eq!(r.constraints.max_gap, Some(4));
        assert_eq!(r.constraints.max_window, Some(12));
        assert_eq!(r.top_k, Some(25));
        assert_eq!(r.min_len, 2);
        assert_eq!(r.max_pattern_length, Some(9));
        assert_eq!(r.max_patterns, Some(1000));
        assert_eq!(parsed.timeout_ms, Some(250));
    }

    #[test]
    fn mode_spellings_and_nulls() {
        for (text, mode, top_k) in [
            ("all", Mode::All, None),
            ("closed", Mode::Closed, None),
            ("maximal", Mode::Maximal, None),
            ("top-k", Mode::Closed, Some(DEFAULT_TOP_K)),
            ("topk", Mode::Closed, Some(DEFAULT_TOP_K)),
            ("top_k", Mode::Closed, Some(DEFAULT_TOP_K)),
        ] {
            let parsed = parse_mine_request(&format!("{{\"mode\":\"{text}\"}}")).expect(text);
            assert_eq!(parsed.request.mode, mode, "{text}");
            assert_eq!(parsed.request.top_k, top_k, "{text}");
        }
        let parsed = parse_mine_request(r#"{"max_gap": null, "timeout_ms": null}"#).expect("nulls");
        assert_eq!(parsed.request.constraints.max_gap, None);
        assert_eq!(parsed.timeout_ms, None);
        assert_eq!(parsed.request.top_k, None);
    }

    #[test]
    fn bad_bodies_name_the_problem() {
        let cases = [
            ("[1,2]", "JSON object"),
            ("{\"min_supp\": 3}", "min_supp"),
            ("{\"min_sup\": -1}", "non-negative"),
            ("{\"min_sup\": 1.5}", "non-negative"),
            ("{\"mode\": \"openish\"}", "openish"),
            ("{\"mode\": 4}", "must be a string"),
            ("{\"min_gap\": 4294967296}", "u32"),
            ("{not json", "invalid JSON"),
        ];
        for (body, needle) in cases {
            let err = parse_mine_request(body).expect_err(body);
            assert_eq!(err.status, 400, "{body}");
            assert!(err.message.contains(needle), "{body} -> {}", err.message);
        }
    }

    #[test]
    fn response_bodies_are_valid_json() {
        let body = mine_response_body("[]", 0, false, true, false, 1.25);
        let value = json::parse(&body).expect("envelope parses");
        assert_eq!(value.get("count").and_then(Value::as_u64), Some(0));
        assert_eq!(
            value.get("deadline_exceeded").and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(value.get("cached").and_then(Value::as_bool), Some(false));

        let err = error_body(429, "queue full \"now\"");
        let value = json::parse(&err).expect("error parses");
        let error = value.get("error").expect("error member");
        assert_eq!(error.get("code").and_then(Value::as_u64), Some(429));
        assert_eq!(
            error.get("message").and_then(Value::as_str),
            Some("queue full \"now\"")
        );
    }
}
