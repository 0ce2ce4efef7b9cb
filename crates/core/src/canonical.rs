//! Request canonicalization: a stable, order-normalized cache key for a
//! [`MiningRequest`].
//!
//! The serve layer caches mining results under `(image checksum, canonical
//! request)`. For that key to be *correct* it must identify exactly the
//! information that determines the mined pattern set — nothing more (or
//! equivalent requests miss the cache) and nothing less (or different
//! requests collide). [`canonical_key`] therefore:
//!
//! * **normalizes equivalent spellings** — `min_sup: 0` behaves as `1`
//!   (support is at least 1 for any reported pattern). The wire's
//!   `"mode": "top-k"` needs no normalizing: [`parse_request_body`]
//!   already reads it as `Mode::Closed` with `top_k` defaulting to
//!   [`DEFAULT_TOP_K`], the request it means;
//! * **drops non-semantic knobs** — [`ExecutionPolicy`](crate::ExecutionPolicy)
//!   and `use_landmark_pruning` are pinned bit-identical by the engine's
//!   equivalence suites (they change wall-clock, never the pattern set),
//!   and `keep_support_sets` only attaches extra per-pattern data the wire
//!   protocol never serializes;
//! * **fixes the field order** — the key is one flat string with every
//!   semantic field in a fixed position, so two requests built in any
//!   field order (or parsed from JSON bodies with shuffled members)
//!   compare equal byte for byte.
//!
//! The seeded property test in `crates/serve/tests/canonical_key.rs` pins
//! both directions: equivalent requests agree, semantically different
//! requests differ.
//!
//! [`parse_request_body`] is the other direction: the one reader of the
//! flat JSON request shape shared by `POST /mine` bodies and `rgs-mine
//! batch` lines. Its mode reader, [`parse_mode`], is also the one behind
//! `rgs-mine --mode`.

use crate::engine::{MiningRequest, DEFAULT_TOP_K};
use crate::json::{self, Value};
use crate::Mode;

/// Version tag baked into every key so a future change to the key grammar
/// (or to what counts as "semantic") invalidates old cache entries instead
/// of silently colliding with them.
const KEY_VERSION: u32 = 1;

/// Formats an optional bound as its value or `-` (absent).
fn opt<T: std::fmt::Display>(value: Option<T>) -> String {
    value.map_or_else(|| "-".to_owned(), |v| v.to_string())
}

/// The canonical, order-normalized cache key of `request`.
///
/// Two requests receive the same key **iff** the engine guarantees them the
/// same pattern payload (same patterns, same order, same truncation flag).
///
/// ```
/// use rgs_core::{
///     canonical_key, parse_request_body, ExecutionPolicy, MiningRequest, Mode, DEFAULT_TOP_K,
/// };
///
/// // The wire's top-k mode is closed mining plus a rank cap — one key for both.
/// let spelled_out = MiningRequest {
///     mode: Mode::Closed,
///     top_k: Some(DEFAULT_TOP_K),
///     ..MiningRequest::default()
/// };
/// let shorthand = parse_request_body(r#"{"mode": "top-k"}"#).unwrap().request;
/// assert_eq!(canonical_key(&spelled_out), canonical_key(&shorthand));
///
/// // Execution policy never changes the mined set, so it never splits keys.
/// let parallel = MiningRequest {
///     execution: ExecutionPolicy::Parallel { threads: 8 },
///     ..MiningRequest::default()
/// };
/// assert_eq!(canonical_key(&parallel), canonical_key(&MiningRequest::default()));
/// ```
pub fn canonical_key(request: &MiningRequest) -> String {
    // A reported pattern always has support >= 1, so thresholds 0 and 1
    // admit identical sets.
    let min_sup = request.min_sup.max(1);
    let mode = match request.mode {
        Mode::All => "all",
        Mode::Closed => "closed",
        Mode::Maximal => "maximal",
    };
    let c = &request.constraints;
    format!(
        "v{KEY_VERSION};sup={min_sup};mode={mode};k={};ming={};maxg={};maxw={};minl={};maxl={};maxp={}",
        opt(request.top_k),
        c.min_gap,
        opt(c.max_gap),
        opt(c.max_window),
        request.min_len,
        opt(request.max_pattern_length),
        opt(request.max_patterns),
    )
}

/// A parsed request body: the mining request plus its optional deadline,
/// which is not part of the canonical key.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBody {
    /// The mining parameters, canonicalized by [`canonical_key`].
    pub request: MiningRequest,
    /// Per-request deadline in milliseconds.
    pub timeout_ms: Option<u64>,
}

/// Parses one flat JSON request object.
///
/// Every field is optional; omitted fields and `null` take the library
/// defaults, so `{}` means "closed patterns, min_sup 2". A top-k `mode`
/// spelling (see [`parse_mode`]) ranks the request: once every field is
/// read, an unset `top_k` becomes [`DEFAULT_TOP_K`], whatever the field
/// order. Unknown fields are rejected by name rather than ignored: a typo
/// like `"min_supp"` silently mining with the default support would be far
/// worse than an error. The error message names the offending field.
pub fn parse_request_body(text: &str) -> Result<RequestBody, String> {
    let value = json::parse(text).map_err(|err| format!("invalid JSON: {err}"))?;
    let members = value
        .as_obj()
        .ok_or_else(|| "request body must be a JSON object".to_owned())?;

    let mut request = MiningRequest::default();
    let mut timeout_ms = None;
    let mut ranked = false;
    for (name, field) in members {
        match name.as_str() {
            "min_sup" => request.min_sup = parse_u64(name, field)?,
            "mode" => {
                let text = field
                    .as_str()
                    .ok_or_else(|| "field \"mode\" must be a string".to_owned())?;
                (request.mode, ranked) = parse_mode(text)?;
            }
            "min_gap" => request.constraints.min_gap = parse_u32(name, field)?,
            "max_gap" => request.constraints.max_gap = nullable(name, field, parse_u32)?,
            "max_window" => request.constraints.max_window = nullable(name, field, parse_u32)?,
            "top_k" => request.top_k = nullable(name, field, parse_usize)?,
            "min_len" => request.min_len = parse_usize(name, field)?,
            "max_len" => request.max_pattern_length = nullable(name, field, parse_usize)?,
            "max_patterns" => request.max_patterns = nullable(name, field, parse_usize)?,
            "timeout_ms" => timeout_ms = nullable(name, field, parse_u64)?,
            other => {
                return Err(format!(
                    "unknown field {other:?}; accepted fields: min_sup, mode, min_gap, \
                     max_gap, max_window, top_k, min_len, max_len, max_patterns, timeout_ms"
                ));
            }
        }
    }
    if ranked {
        request.top_k = request.top_k.or(Some(DEFAULT_TOP_K));
    }
    Ok(RequestBody {
        request,
        timeout_ms,
    })
}

fn parse_u64(name: &str, field: &Value) -> Result<u64, String> {
    field
        .as_u64()
        .ok_or_else(|| format!("field {name:?} must be a non-negative integer"))
}

fn parse_u32(name: &str, field: &Value) -> Result<u32, String> {
    u32::try_from(parse_u64(name, field)?)
        .map_err(|_| format!("field {name:?} exceeds the u32 range"))
}

fn parse_usize(name: &str, field: &Value) -> Result<usize, String> {
    usize::try_from(parse_u64(name, field)?)
        .map_err(|_| format!("field {name:?} exceeds the usize range"))
}

/// `null` means "use the default" (`None`); anything else goes to `parse`.
fn nullable<T>(
    name: &str,
    field: &Value,
    parse: fn(&str, &Value) -> Result<T, String>,
) -> Result<Option<T>, String> {
    if field.is_null() {
        Ok(None)
    } else {
        parse(name, field).map(Some)
    }
}

/// Reads a mode name: `all`, `closed` or `maximal`, or a top-k spelling
/// (`top-k`, `topk`, `top_k`), which reads as `closed` and returns `true`:
/// the request is ranked, with `top_k` defaulting to [`DEFAULT_TOP_K`]
/// when the caller has read no other value for it.
pub fn parse_mode(name: &str) -> Result<(Mode, bool), String> {
    match name {
        "all" => Ok((Mode::All, false)),
        "closed" => Ok((Mode::Closed, false)),
        "maximal" => Ok((Mode::Maximal, false)),
        "top-k" | "topk" | "top_k" => Ok((Mode::Closed, true)),
        other => Err(format!(
            "unknown mode {other:?}; one of \"all\", \"closed\", \"maximal\", \"top-k\""
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionPolicy, GapConstraints};

    #[test]
    fn default_request_has_a_stable_spelled_out_key() {
        assert_eq!(
            canonical_key(&MiningRequest::default()),
            "v1;sup=2;mode=closed;k=-;ming=0;maxg=-;maxw=-;minl=0;maxl=-;maxp=-"
        );
    }

    #[test]
    fn equivalent_spellings_collapse_to_one_key() {
        let base = MiningRequest::default();
        let zero_sup = MiningRequest {
            min_sup: 0,
            ..base.clone()
        };
        let one_sup = MiningRequest {
            min_sup: 1,
            ..base.clone()
        };
        assert_eq!(canonical_key(&zero_sup), canonical_key(&one_sup));

        let topk_mode = parse_request_body(r#"{"mode": "top-k"}"#)
            .expect("valid body")
            .request;
        let closed_ranked = MiningRequest {
            top_k: Some(DEFAULT_TOP_K),
            ..base.clone()
        };
        assert_eq!(canonical_key(&topk_mode), canonical_key(&closed_ranked));

        for variant in [
            MiningRequest {
                execution: ExecutionPolicy::Parallel { threads: 4 },
                ..base.clone()
            },
            MiningRequest {
                use_landmark_pruning: false,
                ..base.clone()
            },
            MiningRequest {
                keep_support_sets: true,
                ..base.clone()
            },
        ] {
            assert_eq!(canonical_key(&variant), canonical_key(&base));
        }
    }

    #[test]
    fn every_semantic_field_splits_the_key() {
        let base = MiningRequest::default();
        let variants = [
            MiningRequest {
                min_sup: 3,
                ..base.clone()
            },
            MiningRequest {
                mode: Mode::All,
                ..base.clone()
            },
            MiningRequest {
                mode: Mode::Maximal,
                ..base.clone()
            },
            MiningRequest {
                top_k: Some(5),
                ..base.clone()
            },
            MiningRequest {
                constraints: GapConstraints::unbounded().with_min_gap(1),
                ..base.clone()
            },
            MiningRequest {
                constraints: GapConstraints::max_gap(2),
                ..base.clone()
            },
            MiningRequest {
                constraints: GapConstraints::max_window(9),
                ..base.clone()
            },
            MiningRequest {
                min_len: 2,
                ..base.clone()
            },
            MiningRequest {
                max_pattern_length: Some(4),
                ..base.clone()
            },
            MiningRequest {
                max_patterns: Some(100),
                ..base.clone()
            },
        ];
        let base_key = canonical_key(&base);
        let mut keys: Vec<String> = variants.iter().map(canonical_key).collect();
        for key in &keys {
            assert_ne!(key, &base_key);
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), variants.len(), "two variants collided");
    }

    #[test]
    fn ranking_does_not_depend_on_field_order() {
        let k_of = |body: &str| parse_request_body(body).expect(body).request.top_k;
        assert_eq!(k_of(r#"{"top_k":25,"mode":"top-k"}"#), Some(25));
        assert_eq!(k_of(r#"{"mode":"top-k","top_k":25}"#), Some(25));
        assert_eq!(
            k_of(r#"{"mode":"top-k","top_k":null}"#),
            Some(DEFAULT_TOP_K)
        );
        assert_eq!(k_of(r#"{"mode":"topk"}"#), Some(DEFAULT_TOP_K));
        let shorthand = parse_request_body(r#"{"mode":"top-k"}"#).expect("valid body");
        assert_eq!(
            canonical_key(&shorthand.request),
            "v1;sup=2;mode=closed;k=10;ming=0;maxg=-;maxw=-;minl=0;maxl=-;maxp=-"
        );
    }

    #[test]
    fn bound_value_and_absent_bound_never_collide() {
        // `max_gap: None` must not collide with any literal value spelling.
        let unbounded = canonical_key(&MiningRequest::default());
        for g in 0..5 {
            let bounded = MiningRequest {
                constraints: GapConstraints::max_gap(g),
                ..MiningRequest::default()
            };
            assert_ne!(canonical_key(&bounded), unbounded);
        }
    }
}
