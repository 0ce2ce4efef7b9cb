//! Repo-specific static-analysis lints behind `cargo run -p xtask -- audit`.
//!
//! Six rule families, each tuned to an invariant this workspace actually
//! relies on (rustc/clippy cannot express them):
//!
//! * **safety** — every `unsafe` block and `unsafe impl`, workspace-wide,
//!   must carry a `// SAFETY:` comment on the same or an immediately
//!   preceding line.
//! * **target-feature-safety** — every `#[target_feature]` function must
//!   carry a `// SAFETY:` comment above its attribute stack: the
//!   executability argument moved to call sites with safe
//!   `target_feature`, but it still has to be written down where the
//!   specialized code lives.
//! * **simd-fallback** — a file defining a vector specialization
//!   (`fn foo_avx2`, or a `_sse2`/`_swar` arm) must define the portable
//!   reference arm `fn foo_scalar` beside it: the vector arm is pinned
//!   bit-identical to it, and it runs on CPUs without the instruction set.
//! * **panic-free hot paths** — the zero-alloc mining loops
//!   (`core/src/{support,instbuf,closure,growth,kernel}.rs`,
//!   `seqdb/src/{store,index,simd}.rs`), the crate's one DFS driver
//!   (`core/src/batch.rs`), and the serving request
//!   path (`serve/src/{worker,cache}.rs` — a panicking worker thread
//!   would silently shrink the pool) may not use `.unwrap()`,
//!   `.expect(...)`, `panic!`-family macros, or bare slice indexing.
//!   `assert!`/`debug_assert!` bodies are exempt: asserts are documented
//!   invariants, not accidental panics.
//! * **cast** — the CSR offset/length math in
//!   `seqdb/src/{store,width,index,snapshot,snapshot_verify}.rs` and the
//!   flag parser of `cli/src/main.rs` may not use lossy `as` casts; the
//!   checked helpers in `seqdb::cast`, `TryFrom`, or widening `as u64` are
//!   required (an `as u32` flag value wraps silently).
//!
//! * **listed-file** — every file named in the two lists above must exist:
//!   a renamed or deleted hot-path or CSR file is a finding, so a list can
//!   never quietly cover less than it says.
//!
//! Any finding can be waived in place with
//! `// audit:allow(<rule>): <reason>` on the offending line or the line
//! above; waivers are counted and reported so they stay visible.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The hot-path modules whose loops must be panic-free (repo-relative).
const HOT_PATH_FILES: [&str; 11] = [
    "crates/core/src/support.rs",
    "crates/core/src/instbuf.rs",
    "crates/core/src/closure.rs",
    "crates/core/src/growth.rs",
    "crates/core/src/kernel.rs",
    "crates/core/src/batch.rs",
    "crates/seqdb/src/store.rs",
    "crates/seqdb/src/index.rs",
    "crates/seqdb/src/simd.rs",
    "crates/serve/src/worker.rs",
    "crates/serve/src/cache.rs",
];

/// The files whose offset/length math or flag values must use checked
/// conversions (`seqdb::cast`, `TryFrom`) instead of lossy `as` casts
/// (repo-relative).
const CAST_CHECKED_FILES: [&str; 6] = [
    "crates/cli/src/main.rs",
    "crates/seqdb/src/store.rs",
    "crates/seqdb/src/width.rs",
    "crates/seqdb/src/index.rs",
    "crates/seqdb/src/snapshot.rs",
    "crates/seqdb/src/snapshot_verify.rs",
];

/// Lossy `as` casts banned in [`CAST_CHECKED_FILES`]. Widening (`as u64`)
/// stays legal; everything that can truncate or wrap must go through
/// `seqdb::cast` or `TryFrom`.
const LOSSY_CASTS: [&str; 6] = ["as u8", "as u16", "as u32", "as usize", "as i32", "as i64"];

/// One finding of the audit.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line of the finding.
    pub line: usize,
    /// The rule id (also the `audit:allow(...)` waiver key).
    pub rule: &'static str,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// The outcome of one audit run.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Every finding, in file/line order.
    pub violations: Vec<Violation>,
    /// Findings suppressed by `audit:allow` waivers.
    pub waived: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// `true` when no un-waived finding remains.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every audit rule over the workspace rooted at `root`.
pub fn audit(root: &Path) -> AuditReport {
    let mut report = AuditReport::default();
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files);
    files.sort();
    for relative in files {
        let Ok(source) = fs::read_to_string(root.join(&relative)) else {
            continue;
        };
        report.files_scanned += 1;
        audit_file(&relative, &source, &mut report);
    }
    check_listed_files(root, &mut report);
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Reports every entry of [`HOT_PATH_FILES`] and [`CAST_CHECKED_FILES`]
/// that names no file under `root`: the rules would otherwise skip it in
/// silence.
fn check_listed_files(root: &Path, report: &mut AuditReport) {
    let lists: [(&str, &[&str]); 2] = [
        ("HOT_PATH_FILES", &HOT_PATH_FILES),
        ("CAST_CHECKED_FILES", &CAST_CHECKED_FILES),
    ];
    for (list, files) in lists {
        for file in files.iter().filter(|file| !root.join(file).is_file()) {
            report.violations.push(Violation {
                file: PathBuf::from(file),
                line: 0,
                rule: "listed-file",
                message: format!("listed in {list} but missing — update the list"),
            });
        }
    }
}

/// Runs every rule applicable to one file. Public so the fixture tests can
/// audit synthetic sources without a workspace on disk.
pub fn audit_file(relative: &Path, source: &str, report: &mut AuditReport) {
    let file = FileContext::new(relative, source);
    check_safety_comments(&file, report);
    check_target_feature_safety(&file, report);
    check_simd_fallback_pairing(&file, report);
    let rel = relative.to_string_lossy().replace('\\', "/");
    if HOT_PATH_FILES.contains(&rel.as_str()) {
        check_panic_free(&file, report);
    }
    if CAST_CHECKED_FILES.contains(&rel.as_str()) {
        check_lossy_casts(&file, report);
    }
}

/// Pre-processed views of one source file shared by all rules.
struct FileContext<'a> {
    relative: &'a Path,
    /// Original lines (comments intact) — where SAFETY comments and
    /// waivers are read from.
    lines: Vec<&'a str>,
    /// Same-length source with comments, strings, and char literals
    /// blanked, so rules match code only.
    code: String,
    /// `code` with `assert!`-family macro bodies additionally blanked.
    code_no_asserts: String,
    /// Line index -> rules waived for that line.
    waivers: HashMap<usize, Vec<String>>,
    /// Per-line flag: inside a `#[cfg(test)] mod` block.
    in_test_block: Vec<bool>,
}

impl<'a> FileContext<'a> {
    fn new(relative: &'a Path, source: &'a str) -> Self {
        let lines: Vec<&str> = source.lines().collect();
        let code = blank_non_code(source);
        let code_no_asserts = blank_assert_bodies(&code);
        let waivers = collect_waivers(&lines);
        let in_test_block = mark_test_blocks(&code, lines.len());
        Self {
            relative,
            lines,
            code,
            code_no_asserts,
            waivers,
            in_test_block,
        }
    }

    fn line_of(&self, offset: usize) -> usize {
        self.code
            .as_bytes()
            .iter()
            .take(offset)
            .filter(|&&b| b == b'\n')
            .count()
    }

    fn is_waived(&self, line: usize, rule: &str) -> bool {
        [line.wrapping_sub(1), line].iter().any(|l| {
            self.waivers
                .get(l)
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
        })
    }

    fn push(&self, report: &mut AuditReport, line: usize, rule: &'static str, message: String) {
        if self.is_waived(line, rule) {
            report.waived += 1;
        } else {
            report.violations.push(Violation {
                file: self.relative.to_path_buf(),
                line: line + 1,
                rule,
                message,
            });
        }
    }
}

// --- source pre-processing --------------------------------------------------

/// Replaces comments, string literals, and char literals with spaces
/// (newlines kept), so the rule scanners only ever see code.
fn blank_non_code(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                out[i] = b' ';
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        out[i] = b' ';
                        if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                            out[i + 1] = b' ';
                        }
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out[i] = b' ';
                        i += 1;
                        break;
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'r' if matches!(bytes.get(i + 1), Some(b'"' | b'#')) => {
                // Raw string: r"..." or r#"..."# (any hash depth).
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) != Some(&b'"') {
                    i += 1;
                    continue;
                }
                j += 1;
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                while j < bytes.len() && !bytes[j..].starts_with(&closer) {
                    j += 1;
                }
                j = (j + closer.len()).min(bytes.len());
                for k in start..j {
                    if bytes[k] != b'\n' {
                        out[k] = b' ';
                    }
                }
                i = j;
            }
            b'\'' => {
                // Char literal vs lifetime: 'x' / '\n' are literals; 'a as
                // in <'a> is a lifetime and stays untouched.
                let is_escape = bytes.get(i + 1) == Some(&b'\\');
                let closes = bytes.get(i + 2) == Some(&b'\'');
                if is_escape || closes {
                    out[i] = b' ';
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        if bytes[i] == b'\\' {
                            out[i] = b' ';
                            i += 1;
                        }
                        if i < bytes.len() && bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                    if i < bytes.len() {
                        out[i] = b' ';
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

/// Additionally blanks the bodies of `assert!`-family macro calls in
/// already-blanked code: asserts are documented invariants, so their
/// arguments are exempt from the panic-free rules.
fn blank_assert_bodies(code: &str) -> String {
    let mut out = code.as_bytes().to_vec();
    let bytes = code.as_bytes();
    for name in [
        "assert!",
        "assert_eq!",
        "assert_ne!",
        "debug_assert!",
        "debug_assert_eq!",
        "debug_assert_ne!",
    ] {
        let mut from = 0;
        while let Some(found) = code[from..].find(name) {
            let start = from + found;
            from = start + name.len();
            // Word boundary on the left (don't match `my_assert!`).
            if start > 0 {
                let prev = bytes[start - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            let mut j = start + name.len();
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let (open, close) = match bytes.get(j) {
                Some(b'(') => (b'(', b')'),
                Some(b'[') => (b'[', b']'),
                Some(b'{') => (b'{', b'}'),
                _ => continue,
            };
            let mut depth = 0usize;
            while j < bytes.len() {
                if bytes[j] == open {
                    depth += 1;
                } else if bytes[j] == close {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if bytes[j] != b'\n' {
                    out[j] = b' ';
                }
                j += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

/// Parses `// audit:allow(rule, rule): reason` waivers from the original
/// lines. A waiver applies to its own line and the next one.
fn collect_waivers(lines: &[&str]) -> HashMap<usize, Vec<String>> {
    let mut waivers: HashMap<usize, Vec<String>> = HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(found) = line.find("audit:allow(") else {
            continue;
        };
        let rest = &line[found + "audit:allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        for rule in rest[..end].split(',') {
            waivers.entry(i).or_default().push(rule.trim().to_owned());
        }
    }
    waivers
}

/// Marks the lines inside `#[cfg(test)] mod ... { }` blocks (matched on
/// blanked code, so strings cannot fake a test block).
fn mark_test_blocks(code: &str, num_lines: usize) -> Vec<bool> {
    let mut in_test = vec![false; num_lines];
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(found) = code[from..].find("#[cfg(test)]") {
        let attr = from + found;
        from = attr + 1;
        // The next `mod` keyword after the attribute (skipping further
        // attributes); bail out if something else intervenes.
        let Some(mod_at) = code[attr..].find("mod ").map(|p| attr + p) else {
            continue;
        };
        let Some(open) = code[mod_at..].find('{').map(|p| mod_at + p) else {
            continue;
        };
        let mut depth = 0usize;
        let mut end = open;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let first_line = bytes.iter().take(attr).filter(|&&b| b == b'\n').count();
        let last_line = bytes.iter().take(end).filter(|&&b| b == b'\n').count();
        for line in in_test.iter_mut().take(last_line + 1).skip(first_line) {
            *line = true;
        }
        from = end.max(from);
    }
    in_test
}

// --- rules ------------------------------------------------------------------

/// Rule `safety`: every `unsafe {` block and `unsafe impl` needs a
/// `// SAFETY:` comment on the same line or one of the three lines above.
fn check_safety_comments(file: &FileContext<'_>, report: &mut AuditReport) {
    let code = &file.code;
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(found) = code[from..].find("unsafe") {
        let at = from + found;
        from = at + "unsafe".len();
        let bounded_left = at == 0 || !is_ident_byte(bytes[at - 1]);
        let bounded_right = bytes
            .get(at + "unsafe".len())
            .is_none_or(|&b| !is_ident_byte(b));
        if !bounded_left || !bounded_right {
            continue;
        }
        // The next token decides the form: blocks and impls need SAFETY
        // comments; `unsafe fn` declarations document a `# Safety` contract
        // instead and their bodies are covered by unsafe_op_in_unsafe_fn.
        let mut j = at + "unsafe".len();
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let needs_comment = match bytes.get(j) {
            Some(b'{') => true,
            _ => code[j..].starts_with("impl"),
        };
        if !needs_comment {
            continue;
        }
        let line = file.line_of(at);
        let commented = (line.saturating_sub(3)..=line).any(|l| {
            file.lines
                .get(l)
                .is_some_and(|text| text.contains("SAFETY:"))
        });
        if !commented {
            let form = if bytes.get(j) == Some(&b'{') {
                "unsafe block"
            } else {
                "unsafe impl"
            };
            file.push(
                report,
                line,
                "safety",
                format!("{form} without a `// SAFETY:` comment on or above it"),
            );
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Rule `target-feature-safety`: every `#[target_feature(...)]` function
/// must carry a `// SAFETY:` comment in the lines directly above the
/// attribute. Safe `target_feature` functions moved the `unsafe` keyword
/// to the *call site*, but the executability argument (why this code can
/// only ever run on a CPU with the feature) lives with the declaration —
/// this rule keeps that argument written down.
fn check_target_feature_safety(file: &FileContext<'_>, report: &mut AuditReport) {
    let code = &file.code;
    let mut from = 0;
    while let Some(found) = code[from..].find("#[target_feature(") {
        let at = from + found;
        from = at + "#[target_feature(".len();
        let line = file.line_of(at);
        // Up to four lines of attributes/cfgs may sit between the comment
        // and the attribute itself (`#[cfg]`, `#[inline]`, ...).
        let commented = (line.saturating_sub(4)..=line).any(|l| {
            file.lines
                .get(l)
                .is_some_and(|text| text.contains("SAFETY:"))
        });
        if !commented {
            file.push(
                report,
                line,
                "target-feature-safety",
                "`#[target_feature]` function without a `// SAFETY:` comment above it \
                 (document why the feature is guaranteed available wherever this runs)"
                    .to_owned(),
            );
        }
    }
}

/// The vector-backend suffixes every SIMD entry point may specialize to.
const SIMD_SUFFIXES: [&str; 3] = ["_sse2", "_avx2", "_swar"];

/// Rule `simd-fallback`: a file defining a vector specialization
/// (`fn foo_sse2` / `fn foo_avx2` / `fn foo_swar`) must also define the
/// portable reference arm `fn foo_scalar` in the same file. The scalar
/// arms are pinned, first-class fallbacks, not historical leftovers — a
/// vector path without its reference twin has nothing to be
/// bit-identical *to*.
fn check_simd_fallback_pairing(file: &FileContext<'_>, report: &mut AuditReport) {
    let code = &file.code;
    let mut from = 0;
    while let Some(found) = code[from..].find("fn ") {
        let at = from + found;
        from = at + "fn ".len();
        // Word-bounded `fn` only (not e.g. `pub fn` — the prefix byte may
        // legitimately be a space — but never an identifier tail).
        if at > 0 && is_ident_byte(code.as_bytes()[at - 1]) {
            continue;
        }
        let name_start = at + "fn ".len();
        let name_end = name_start
            + code[name_start..]
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(0);
        let name = &code[name_start..name_end];
        let Some(suffix) = SIMD_SUFFIXES.iter().find(|s| name.ends_with(*s)) else {
            continue;
        };
        let stem = &name[..name.len() - suffix.len()];
        if stem.is_empty() {
            continue;
        }
        let fallback = format!("fn {stem}_scalar");
        if !code.contains(&fallback) {
            file.push(
                report,
                file.line_of(at),
                "simd-fallback",
                format!(
                    "`fn {name}` has no scalar reference arm (`{fallback}`) in this file — \
                     every vector specialization needs its pinned portable twin"
                ),
            );
        }
    }
}

/// Rule family for the hot-path modules: no `.unwrap()`, `.expect(`,
/// panic-macro, or bare slice indexing outside tests and assert bodies.
fn check_panic_free(file: &FileContext<'_>, report: &mut AuditReport) {
    let code = &file.code_no_asserts;
    let needles: [(&str, &'static str, &str); 5] = [
        (
            ".unwrap()",
            "unwrap",
            "use `.get(..)`/`let-else` or a documented fallback",
        ),
        (
            ".expect(",
            "expect",
            "use `.get(..)`/`let-else` or a documented fallback",
        ),
        ("panic!(", "panic", "hot-path loops must be panic-free"),
        (
            "unreachable!(",
            "panic",
            "hot-path loops must be panic-free",
        ),
        ("todo!(", "panic", "hot-path loops must be panic-free"),
    ];
    for (needle, rule, hint) in needles {
        let mut from = 0;
        while let Some(found) = code[from..].find(needle) {
            let at = from + found;
            from = at + needle.len();
            let line = file.line_of(at);
            if file.in_test_block.get(line).copied().unwrap_or(false) {
                continue;
            }
            file.push(
                report,
                line,
                rule,
                format!(
                    "`{}` in a hot-path module ({hint})",
                    needle.trim_end_matches('(')
                ),
            );
        }
    }
    check_indexing(file, report);
}

/// Rule `indexing`: a `[` directly following an identifier, `)`, or `]` is
/// a panicking slice index (macro invocations like `vec![...]` and
/// attributes `#[...]` are not).
fn check_indexing(file: &FileContext<'_>, report: &mut AuditReport) {
    let code = &file.code_no_asserts;
    let bytes = code.as_bytes();
    for (at, &b) in bytes.iter().enumerate() {
        if b != b'[' || at == 0 {
            continue;
        }
        let mut p = at - 1;
        while p > 0 && (bytes[p] == b' ' || bytes[p] == b'\t') {
            p -= 1;
        }
        let prev = bytes[p];
        if !(is_ident_byte(prev) || prev == b')' || prev == b']') {
            continue;
        }
        // `name![...]` is a macro invocation and `&'a [T]` is a slice type
        // behind a lifetime — neither is an index. Likewise `mut [T]` /
        // `dyn [T]`: keywords cannot name an indexable binding, so a `[`
        // after them is a slice type in a signature.
        if is_ident_byte(prev) {
            let mut s = p;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            if s > 0 && (bytes[s - 1] == b'!' || bytes[s - 1] == b'\'') {
                continue;
            }
            if matches!(&code[s..=p], "mut" | "dyn") {
                continue;
            }
        }
        let line = file.line_of(at);
        if file.in_test_block.get(line).copied().unwrap_or(false) {
            continue;
        }
        file.push(
            report,
            line,
            "indexing",
            "bare slice index in a hot-path module (use `.get(..)` or waive a documented panic)"
                .to_owned(),
        );
    }
}

/// Rule `cast`: no lossy `as` casts in CSR offset/length math — the
/// checked helpers in `seqdb::cast` exist for exactly this.
fn check_lossy_casts(file: &FileContext<'_>, report: &mut AuditReport) {
    let code = &file.code;
    let bytes = code.as_bytes();
    for cast in LOSSY_CASTS {
        let mut from = 0;
        while let Some(found) = code[from..].find(cast) {
            let at = from + found;
            from = at + cast.len();
            let bounded_left = at == 0 || !is_ident_byte(bytes[at - 1]);
            let bounded_right = bytes
                .get(at + cast.len())
                .is_none_or(|&b| !is_ident_byte(b));
            if !bounded_left || !bounded_right {
                continue;
            }
            let line = file.line_of(at);
            if file.in_test_block.get(line).copied().unwrap_or(false) {
                continue;
            }
            file.push(
                report,
                line,
                "cast",
                format!(
                    "lossy `{cast}` in CSR offset math (use the checked `seqdb::cast` helpers)"
                ),
            );
        }
    }
}

// --- file walking -----------------------------------------------------------

fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rust_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(relative) = path.strip_prefix(root) {
                out.push(relative.to_path_buf());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_source(relative: &str, source: &str) -> AuditReport {
        let mut report = AuditReport::default();
        audit_file(Path::new(relative), source, &mut report);
        report
    }

    #[test]
    fn unsafe_block_without_safety_comment_is_flagged() {
        let bad = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        let report = audit_source("crates/seqdb/src/shared.rs", bad);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "safety");
        assert_eq!(report.violations[0].line, 2);

        let good = "fn f() {\n    // SAFETY: provably unreachable.\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert!(audit_source("crates/seqdb/src/shared.rs", good).is_clean());
    }

    #[test]
    fn unsafe_fn_declarations_are_not_blocks() {
        let source =
            "/// # Safety\n/// Caller checks i.\npub unsafe fn get(i: usize) -> u32 { 0 }\n";
        assert!(audit_source("crates/seqdb/src/shared.rs", source).is_clean());
    }

    #[test]
    fn hot_path_unwrap_expect_and_panics_are_flagged() {
        let bad = "fn f(v: &[u32]) -> u32 {\n    let a = v.first().unwrap();\n    let b = v.last().expect(\"non-empty\");\n    if *a > *b { panic!(\"bad\") }\n    *a\n}\n";
        let report = audit_source("crates/seqdb/src/store.rs", bad);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["unwrap", "expect", "panic"]);
        // The same file outside the hot-path list is fine.
        assert!(audit_source("crates/seqdb/src/io.rs", bad).is_clean());
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        let source = "fn f(v: &[u32]) -> u32 {\n    v.first().copied().unwrap_or(0).max(v.len() as u32)\n}\n";
        let report = audit_source("crates/core/src/support.rs", source);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn bare_indexing_is_flagged_but_macros_attributes_and_types_are_not() {
        let bad = "fn f(v: &[u32], i: usize) -> u32 {\n    v[i]\n}\n";
        let report = audit_source("crates/seqdb/src/index.rs", bad);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "indexing");

        let good = "#[derive(Debug)]\nstruct S;\nfn f(n: usize) -> Vec<u32> {\n    let x: [u32; 2] = [1, 2];\n    let v = vec![0u32; n];\n    v.iter().copied().chain(x.iter().copied()).collect()\n}\nfn s<'a>(v: &'a [u32]) -> &'a [u32] {\n    v\n}\nfn m(out: &mut [u32]) {\n    out.iter_mut().for_each(|x| *x = 0);\n}\n";
        let report = audit_source("crates/seqdb/src/index.rs", good);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn assert_bodies_and_test_modules_are_exempt() {
        let source = "fn f(v: &[u32]) {\n    assert!(v[0] > 0, \"first {}\", v[0]);\n    debug_assert_eq!(v[1], 2);\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let v = vec![1];\n        assert_eq!(v[0], v.first().copied().unwrap());\n    }\n}\n";
        let report = audit_source("crates/seqdb/src/store.rs", source);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn target_feature_fns_need_a_safety_comment_above_the_attribute_stack() {
        let bad = "#[cfg(target_arch = \"x86_64\")]\n#[target_feature(enable = \"avx2\")]\nfn sum_avx2(v: &[u32]) -> u32 {\n    v.iter().sum()\n}\nfn sum_scalar(v: &[u32]) -> u32 {\n    v.iter().sum()\n}\n";
        let report = audit_source("crates/seqdb/src/other.rs", bad);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "target-feature-safety");
        assert_eq!(report.violations[0].line, 2);

        // A SAFETY comment above the attribute stack (cfg + inline between
        // it and the target_feature line) satisfies the rule.
        let good = "// SAFETY: dispatch only reaches this after a runtime AVX2 check.\n#[cfg(target_arch = \"x86_64\")]\n#[inline]\n#[target_feature(enable = \"avx2\")]\nfn sum_avx2(v: &[u32]) -> u32 {\n    v.iter().sum()\n}\nfn sum_scalar(v: &[u32]) -> u32 {\n    v.iter().sum()\n}\n";
        let report = audit_source("crates/seqdb/src/other.rs", good);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn vector_specializations_need_their_scalar_twin_in_the_same_file() {
        let bad = "fn gt_mask_sse2(a: u32, b: u32) -> u32 {\n    0\n}\n";
        let report = audit_source("crates/seqdb/src/other.rs", bad);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "simd-fallback");
        assert!(
            report.violations[0].message.contains("fn gt_mask_scalar"),
            "{}",
            report.violations[0].message
        );

        let good = "fn gt_mask_scalar(a: u32, b: u32) -> u32 {\n    0\n}\nfn gt_mask_sse2(a: u32, b: u32) -> u32 {\n    0\n}\nfn gt_mask_swar(a: u32, b: u32) -> u32 {\n    0\n}\n";
        assert!(audit_source("crates/seqdb/src/other.rs", good).is_clean());

        // A bare suffix is not a specialization of the empty stem.
        let suffix_only = "fn _swar(x: u32) -> u32 {\n    x\n}\n";
        assert!(audit_source("crates/seqdb/src/other.rs", suffix_only).is_clean());
    }

    #[test]
    fn waivers_suppress_and_are_counted() {
        let source = "fn f(v: &[u32], i: usize) -> u32 {\n    // audit:allow(indexing): documented panic at the API boundary.\n    v[i]\n}\n";
        let report = audit_source("crates/seqdb/src/index.rs", source);
        assert!(report.is_clean());
        assert_eq!(report.waived, 1);
    }

    #[test]
    fn lossy_casts_are_flagged_only_in_csr_files() {
        let bad =
            "fn f(n: u64) -> u32 {\n    n as u32\n}\nfn g(n: usize) -> u64 {\n    n as u64\n}\n";
        let report = audit_source("crates/seqdb/src/snapshot.rs", bad);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "cast");
        assert_eq!(report.violations[0].line, 2);
        assert!(audit_source("crates/core/src/engine.rs", bad).is_clean());
    }

    /// A fixture tree under the temp dir holding every listed file, each
    /// empty (and so clean); returns its root and the number of files.
    fn listed_fixture(name: &str) -> (PathBuf, usize) {
        let dir = std::env::temp_dir().join(format!("xtask-{name}-{}", std::process::id()));
        let mut files: Vec<&str> = HOT_PATH_FILES
            .iter()
            .chain(&CAST_CHECKED_FILES)
            .copied()
            .collect();
        files.sort_unstable();
        files.dedup();
        for file in &files {
            let path = dir.join(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, "").unwrap();
        }
        (dir, files.len())
    }

    #[test]
    fn audit_walks_a_tree_and_reports_file_line_diagnostics() {
        let (dir, listed) = listed_fixture("audit-fixture");
        std::fs::write(
            dir.join("crates/seqdb/src/store.rs"),
            "fn f(v: &[u32]) -> u32 {\n    v.first().unwrap().wrapping_add(1)\n}\n",
        )
        .unwrap();
        let report = audit(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(report.files_scanned, listed);
        assert_eq!(report.violations.len(), 1);
        let rendered = report.violations[0].to_string();
        assert!(
            rendered.starts_with("crates/seqdb/src/store.rs:2: [unwrap]"),
            "{rendered}"
        );
    }

    #[test]
    fn a_missing_listed_file_is_a_finding() {
        let (dir, _) = listed_fixture("audit-missing");
        std::fs::remove_file(dir.join("crates/core/src/kernel.rs")).unwrap();
        std::fs::remove_file(dir.join("crates/seqdb/src/snapshot.rs")).unwrap();
        let report = audit(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let rendered: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
        assert_eq!(rendered.len(), 2, "{rendered:?}");
        assert!(
            rendered[0]
                .starts_with("crates/core/src/kernel.rs:0: [listed-file] listed in HOT_PATH_FILES"),
            "{rendered:?}"
        );
        assert!(
            rendered[1].starts_with(
                "crates/seqdb/src/snapshot.rs:0: [listed-file] listed in CAST_CHECKED_FILES"
            ),
            "{rendered:?}"
        );
    }

    #[test]
    fn strings_and_comments_never_trigger_rules() {
        let source = "fn f() -> &'static str {\n    // panic!(\"in a comment\") and v[0] too\n    \"call mine_all( via .unwrap() as u32 unsafe {\"\n}\n";
        let report = audit_source("crates/seqdb/src/store.rs", source);
        assert!(report.is_clean(), "{:?}", report.violations);
    }
}
