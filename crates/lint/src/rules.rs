//! The lint rules. Every source rule reads the one [`SyntaxFile`] built per
//! file: R1–R4 and R6 search its line view (code with comments stripped and
//! literals blanked, plus per-line test flags and comments), and the R7–R10
//! concurrency-audit family walks its token tree (see [`crate::audit`]).
//! See DESIGN.md §12/§17 for rationale and the annotation grammar.

use crate::audit;
use crate::lexer::TokenKind;
use crate::syntax::SyntaxFile;

/// A rule identifier, stable across output and CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: iteration over `HashMap`/`HashSet` in deterministic crates.
    NondetIter,
    /// R2: wall-clock reads outside the bench harnesses.
    WallClock,
    /// R3: unannotated panic sites in pipeline crates.
    Panics,
    /// R4: order/precision-sensitive float operations in kernel/replay paths.
    Float,
    /// R5: non-path dependencies in any manifest.
    Hermeticity,
    /// R6: bare `catch_unwind` outside the sanctioned supervision boundaries.
    Unwind,
    /// R7: `unsafe` regions without a non-empty `// safety:` justification.
    UnsafeAudit,
    /// R8: atomic accesses without an explicit (and, for Relaxed/SeqCst,
    /// justified) `Ordering::`.
    AtomicOrdering,
    /// R9: live lock guards across blocking calls, same-mutex re-locks, and
    /// condvar notifies after the guard was released.
    LockDiscipline,
    /// R10: silently discarded `Result`s in the pipeline/runtime core.
    ResultDiscard,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 10] = [
        Rule::NondetIter,
        Rule::WallClock,
        Rule::Panics,
        Rule::Float,
        Rule::Hermeticity,
        Rule::Unwind,
        Rule::UnsafeAudit,
        Rule::AtomicOrdering,
        Rule::LockDiscipline,
        Rule::ResultDiscard,
    ];

    /// Stable rule name used in output and `--rule` arguments.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-iter",
            Rule::WallClock => "wall-clock",
            Rule::Panics => "panics",
            Rule::Float => "float",
            Rule::Hermeticity => "hermeticity",
            Rule::Unwind => "unwind",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::LockDiscipline => "lock-discipline",
            Rule::ResultDiscard => "result-discard",
        }
    }

    /// The escape-hatch annotation tag each rule accepts (always with a
    /// non-empty justification after it).
    #[must_use]
    pub fn annotation_tag(self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-ok:",
            Rule::WallClock => "wall-clock-ok:",
            Rule::Panics => "invariant:",
            Rule::Float => "float-ok:",
            Rule::Hermeticity => "hermetic-ok:",
            Rule::Unwind => "unwind-ok:",
            Rule::UnsafeAudit => "safety:",
            Rule::AtomicOrdering => "ordering:",
            Rule::LockDiscipline => "lock-ok:",
            Rule::ResultDiscard => "discard-ok:",
        }
    }

    /// Parse a `--rule` argument (accepts a couple of aliases).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "nondet-iter" | "nondet" | "r1" => Some(Rule::NondetIter),
            "wall-clock" | "wallclock" | "r2" => Some(Rule::WallClock),
            "panics" | "panic" | "r3" => Some(Rule::Panics),
            "float" | "r4" => Some(Rule::Float),
            "hermeticity" | "hermetic" | "r5" => Some(Rule::Hermeticity),
            "unwind" | "r6" => Some(Rule::Unwind),
            "unsafe-audit" | "unsafe" | "r7" => Some(Rule::UnsafeAudit),
            "atomic-ordering" | "atomic" | "r8" => Some(Rule::AtomicOrdering),
            "lock-discipline" | "lock" | "r9" => Some(Rule::LockDiscipline),
            "result-discard" | "discard" | "r10" => Some(Rule::ResultDiscard),
            _ => None,
        }
    }
}

/// One reported violation, rendered as `file:line: rule: msg`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule.name(), self.msg)
    }
}

/// Crates whose learned tables, JSON output, and replay must be bit-exact:
/// R1's scope.
pub const DETERMINISTIC_CRATES: [&str; 6] =
    ["core", "policy", "rl", "runtime", "smart-home", "sim"];

/// Crates on the load-bearing ingest → learn → optimize → serve path: R3's
/// scope (faults there are data, not bugs — see DESIGN.md §10).
pub const PIPELINE_CRATES: [&str; 4] = ["core", "policy", "smart-home", "runtime"];

/// Crates holding the numeric kernels and the replay path: R4's scope.
pub const FLOAT_CRATES: [&str; 2] = ["neural", "rl"];

/// The sanctioned panic boundaries: the only files allowed a bare
/// `catch_unwind`. Everywhere else a caught panic must either feed a
/// supervised recovery path or carry an `// unwind-ok:` justification —
/// silently swallowing a panic hides corrupted state (R6's scope).
pub const UNWIND_BOUNDARY_FILES: [&str; 2] =
    ["crates/stdkit/src/pool.rs", "crates/runtime/src/supervisor.rs"];

/// Crates where a silently dropped `Result` can hide a pipeline fault:
/// R10's scope (R7–R9 are workspace-wide).
pub const DISCARD_CRATES: [&str; 4] = ["core", "policy", "runtime", "stdkit"];

/// Which workspace crate (directory under `crates/`) a relative path is in,
/// and whether it is under that crate's `src/`.
#[must_use]
pub fn crate_of(rel_path: &str) -> Option<(&str, bool)> {
    let mut parts = rel_path.split('/');
    if parts.next()? != "crates" {
        return None;
    }
    let krate = parts.next()?;
    let in_src = parts.next() == Some("src");
    Some((krate, in_src))
}

/// Does `rule` apply to the source file at `rel_path` during a workspace
/// walk? (Explicitly listed files bypass this — see the engine.)
#[must_use]
pub fn in_scope(rule: Rule, rel_path: &str) -> bool {
    match rule {
        Rule::NondetIter => crate_of(rel_path)
            .is_some_and(|(c, src)| src && DETERMINISTIC_CRATES.contains(&c)),
        Rule::Panics => crate_of(rel_path)
            .is_some_and(|(c, src)| src && PIPELINE_CRATES.contains(&c)),
        Rule::Float => {
            crate_of(rel_path).is_some_and(|(c, src)| src && FLOAT_CRATES.contains(&c))
        }
        Rule::WallClock => {
            // Banned everywhere except the bench harnesses: the jarvis-bench
            // crate and stdkit's bench module.
            !rel_path.starts_with("crates/bench/")
                && rel_path != "crates/stdkit/src/bench.rs"
        }
        Rule::Hermeticity => rel_path.ends_with(".toml"),
        Rule::Unwind => !UNWIND_BOUNDARY_FILES.contains(&rel_path),
        // The concurrency audit is workspace-wide: unsafe/atomics/locks are
        // load-bearing wherever they appear.
        Rule::UnsafeAudit | Rule::AtomicOrdering | Rule::LockDiscipline => {
            rel_path.ends_with(".rs")
        }
        Rule::ResultDiscard => {
            crate_of(rel_path).is_some_and(|(c, src)| src && DISCARD_CRATES.contains(&c))
        }
    }
}

/// Run one source-code rule over a parsed file.
#[must_use]
pub fn check_source(rule: Rule, rel_path: &str, file: &SyntaxFile) -> Vec<Violation> {
    match rule {
        Rule::NondetIter => check_nondet_iter(rel_path, file),
        Rule::WallClock => check_wall_clock(rel_path, file),
        Rule::Panics => check_panics(rel_path, file),
        Rule::Float => check_float(rel_path, file),
        Rule::Hermeticity => Vec::new(),
        Rule::Unwind => check_unwind(rel_path, file),
        Rule::UnsafeAudit => audit::check_unsafe_audit(rel_path, file),
        Rule::AtomicOrdering => audit::check_atomic_ordering(rel_path, file),
        Rule::LockDiscipline => audit::check_lock_discipline(rel_path, file),
        Rule::ResultDiscard => audit::check_result_discard(rel_path, file),
    }
}

// ---------------------------------------------------------------------------
// R1: nondeterministic iteration
// ---------------------------------------------------------------------------

/// Calls of the methods that iterate a hash collection in storage order,
/// as the `.method(` needles R1 searches each line for.
const ITER_NEEDLES: [&str; 8] = [
    ".iter(", ".iter_mut(", ".keys(", ".values(", ".values_mut(", ".drain(", ".into_iter(",
    ".retain(",
];

fn check_nondet_iter(rel_path: &str, file: &SyntaxFile) -> Vec<Violation> {
    let idents = hash_idents(file);
    let mut out = Vec::new();
    let lines = file.code_lines();
    for (idx, code) in lines.iter().enumerate() {
        if file.in_test(idx) {
            continue;
        }
        let mut hit: Option<(String, &str)> = None; // (ident, method)
        for pat in ITER_NEEDLES {
            let mut from = 0;
            while let Some(pos) = code[from..].find(pat) {
                let at = from + pos;
                // The receiver is the last path segment before the `.`
                // (`self.watts.iter()` → `watts`).
                let recv = ident_ending_at(code, at).or_else(|| {
                    // A chain continued from the previous line:
                    //     self.times
                    //         .iter()
                    if code[..at].trim().is_empty() {
                        lines[..idx]
                            .iter()
                            .rev()
                            .take(3)
                            .map(|l| l.trim_end())
                            .find(|c| !c.is_empty())
                            .and_then(|c| ident_ending_at(c, c.len()))
                    } else {
                        None
                    }
                });
                if let Some(recv) = recv {
                    if idents.contains(&recv) {
                        hit = Some((recv, &pat[1..pat.len() - 1]));
                        break;
                    }
                }
                from = at + pat.len();
            }
            if hit.is_some() {
                break;
            }
        }
        if hit.is_none() {
            // `for x in &map { ... }` / `for x in map {`
            if let Some(ident) = for_loop_over(code) {
                if idents.contains(&ident) {
                    hit = Some((ident, "for-in"));
                }
            }
        }
        let Some((ident, method)) = hit else { continue };
        if file.line_annotated(idx, "nondet-ok:") {
            continue;
        }
        if sorted_nearby(file, idx) {
            continue;
        }
        out.push(Violation {
            file: rel_path.to_string(),
            line: idx + 1,
            rule: Rule::NondetIter,
            msg: format!(
                "`{ident}.{method}` iterates a HashMap/HashSet in storage order in a \
                 deterministic crate; use BTreeMap/BTreeSet, sort the result, or justify \
                 with `// nondet-ok: <why>`"
            ),
        });
    }
    out
}

/// Identifiers in this file declared with a `HashMap`/`HashSet` type
/// (field/let type annotations and `= HashMap::new()`-style bindings).
fn hash_idents(file: &SyntaxFile) -> Vec<String> {
    let mut idents = Vec::new();
    for code in file.code_lines() {
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = code[from..].find(ty) {
                let at = from + pos;
                from = at + ty.len();
                // Word boundary after: `<` (generic) or `::` (constructor).
                let after = &code[at + ty.len()..];
                let is_generic = after.starts_with('<');
                let is_ctor = after.starts_with("::");
                if !is_generic && !is_ctor {
                    continue;
                }
                // Skip a `std::collections::` path prefix backwards.
                let before = path_start(code, at);
                if let Some(ident) = match binding_before(code, before) {
                    Some(i) => Some(i),
                    None if is_ctor => assignment_before(code, before),
                    None => None,
                } {
                    if !idents.contains(&ident) {
                        idents.push(ident);
                    }
                }
            }
        }
    }
    idents
}

/// Start of the path expression containing the type at `at` (walk back over
/// `std::collections::`-style prefixes).
fn path_start(code: &str, at: usize) -> usize {
    let bytes = code.as_bytes();
    let mut i = at;
    while i > 0 {
        let c = bytes[i - 1] as char;
        if c.is_alphanumeric() || c == '_' || c == ':' {
            i -= 1;
        } else {
            break;
        }
    }
    i
}

/// If the text before `pos` ends with `ident :` (a field or let type
/// annotation), return the identifier. Handles `ident: &HashMap<...>` too.
fn binding_before(code: &str, pos: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = pos;
    // Skip whitespace and reference sigils.
    while i > 0 && matches!(bytes[i - 1] as char, ' ' | '\t' | '&') {
        i -= 1;
    }
    while i > 0 && (code[..i].ends_with("mut") || code[..i].ends_with("mut ")) {
        i -= 3;
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
    }
    if i == 0 || bytes[i - 1] as char != ':' {
        return None;
    }
    // A `::` path separator is not a type annotation.
    if i >= 2 && bytes[i - 2] as char == ':' {
        return None;
    }
    i -= 1;
    ident_ending_at(code, i)
}

/// If the text before `pos` ends with `ident =` (a plain assignment such as
/// `let m = HashMap::new()`), return the identifier.
fn assignment_before(code: &str, pos: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = pos;
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    if i == 0 || bytes[i - 1] as char != '=' {
        return None;
    }
    i -= 1;
    // Reject `==`, `+=`, `=>` neighbours.
    if i > 0 && matches!(bytes[i - 1] as char, '=' | '!' | '<' | '>' | '+' | '-') {
        return None;
    }
    ident_ending_at(code, i)
}

/// The identifier whose last character is just before `end` (skipping
/// whitespace).
fn ident_ending_at(code: &str, end: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut j = end;
    while j > 0 && (bytes[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    let stop = j;
    while j > 0 {
        let c = bytes[j - 1] as char;
        if c.is_alphanumeric() || c == '_' {
            j -= 1;
        } else {
            break;
        }
    }
    if j == stop {
        return None;
    }
    let ident = &code[j..stop];
    if ident.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
        Some(ident.to_string())
    } else {
        None
    }
}

/// `for x in <expr> {` where `<expr>` is a plain (possibly `&`/`self.`)
/// path — returns the final segment.
fn for_loop_over(code: &str) -> Option<String> {
    let f = code.find("for ")?;
    let rest = &code[f + 4..];
    let in_pos = rest.find(" in ")?;
    let tail = rest[in_pos + 4..].trim();
    let expr = tail.split('{').next().unwrap_or(tail).trim();
    let expr = expr.trim_start_matches('&').trim_start_matches("mut ").trim();
    // Reject anything that is not a simple path (calls, indexing, ranges).
    if expr.is_empty()
        || !expr
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '.' || c == ':')
    {
        return None;
    }
    let seg = expr.rsplit(['.', ':']).next()?;
    if seg.is_empty() {
        None
    } else {
        Some(seg.to_string())
    }
}

/// Is the iteration's result pinned to a deterministic order nearby — a
/// `sort`/`BTree` collect within the same statement window (the flagged
/// line plus the next five)?
fn sorted_nearby(file: &SyntaxFile, idx: usize) -> bool {
    let lines = file.code_lines();
    lines[idx..lines.len().min(idx + 6)]
        .iter()
        .any(|l| l.contains("sort") || l.contains("BTree"))
}

// ---------------------------------------------------------------------------
// R2: wall-clock
// ---------------------------------------------------------------------------

/// Each non-test line containing one of `tokens` and not annotated with
/// `tag`, with the first token it contains.
fn token_hits<'a>(
    file: &'a SyntaxFile,
    tokens: &'a [&'a str],
    tag: &'a str,
) -> impl Iterator<Item = (usize, &'a str)> + 'a {
    file.code_lines()
        .iter()
        .enumerate()
        .filter(|&(idx, _)| !file.in_test(idx))
        .filter_map(|(idx, code)| Some((idx, *tokens.iter().find(|t| code.contains(*t))?)))
        .filter(move |&(idx, _)| !file.line_annotated(idx, tag))
}

fn check_wall_clock(rel_path: &str, file: &SyntaxFile) -> Vec<Violation> {
    token_hits(file, &["Instant::now", "SystemTime"], "wall-clock-ok:")
        .map(|(idx, token)| Violation {
            file: rel_path.to_string(),
            line: idx + 1,
            rule: Rule::WallClock,
            msg: format!(
                "`{token}` outside stdkit::bench / crates/bench: wall-clock reads \
                 break replay determinism; inject a clock or justify with \
                 `// wall-clock-ok: <why>`"
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// R3: panic policy
// ---------------------------------------------------------------------------

const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

fn check_panics(rel_path: &str, file: &SyntaxFile) -> Vec<Violation> {
    token_hits(file, &PANIC_TOKENS, "invariant:")
        .map(|(idx, token)| Violation {
            file: rel_path.to_string(),
            line: idx + 1,
            rule: Rule::Panics,
            msg: format!(
                "`{token}` in a pipeline crate: faults are data, not bugs — return \
                 JarvisError/ModelError, or justify with `// invariant: <why it \
                 cannot fire>`",
                token = token.trim_start_matches('.')
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// R4: float determinism
// ---------------------------------------------------------------------------

fn check_float(rel_path: &str, file: &SyntaxFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, code) in file.code_lines().iter().enumerate() {
        if file.in_test(idx) {
            continue;
        }
        let hit = if code.contains(".mul_add(") {
            Some(("mul_add", "contracts to FMA on some targets, changing results bitwise"))
        } else if code.contains(".powf(") {
            Some(("powf", "libm-dependent, not bit-reproducible across platforms"))
        } else if has_cast(code, "f32") {
            Some(("as f32", "narrows f64 precision in an f64 workspace"))
        } else if has_cast(code, "f64") {
            Some(("as f64", "lossy above 2^53 / for negative values"))
        } else {
            None
        };
        let Some((token, why)) = hit else { continue };
        if file.line_annotated(idx, "float-ok:") {
            continue;
        }
        out.push(Violation {
            file: rel_path.to_string(),
            line: idx + 1,
            rule: Rule::Float,
            msg: format!(
                "`{token}` in a kernel/replay path: {why}; restructure or justify with \
                 `// float-ok: <why exact>`"
            ),
        });
    }
    out
}

/// Does the line contain an `as <ty>` cast (word-bounded)?
fn has_cast(code: &str, ty: &str) -> bool {
    let pat = format!(" as {ty}");
    let mut from = 0;
    while let Some(pos) = code[from..].find(&pat) {
        let at = from + pos;
        let end = at + pat.len();
        let boundary = code[end..]
            .chars()
            .next()
            .map_or(true, |c| !(c.is_alphanumeric() || c == '_'));
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

// ---------------------------------------------------------------------------
// R5: hermeticity
// ---------------------------------------------------------------------------

/// Check one Cargo manifest: every dependency entry must be `path`-based or
/// a `workspace = true` alias, and `[features]` must not gate optional
/// (external) dependencies via `dep:`.
#[must_use]
pub fn check_manifest(rel_path: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let (content, comment) = match line.split_once('#') {
            Some((c, rest)) => (c.trim(), rest),
            None => (line, ""),
        };
        if content.is_empty() {
            continue;
        }
        if content.starts_with('[') {
            section = content.trim_matches(|c| c == '[' || c == ']').to_string();
            // `[dependencies.foo]` long-form tables declare a dep by header;
            // require the body to be path-only like any inline entry (the
            // body lines are checked below under the same section).
            continue;
        }
        let escaped = {
            let p = comment.find("hermetic-ok:");
            p.is_some_and(|p| !comment[p + "hermetic-ok:".len()..].trim().is_empty())
        };
        if section.contains("dependencies") {
            let Some((key, value)) = content.split_once('=') else { continue };
            let (key, value) = (key.trim(), value.trim());
            let in_tree = value.contains("path =")
                || value.contains("path=")
                || value.contains("workspace = true")
                || value.contains("workspace=true")
                || key.ends_with(".workspace")
                || key == "path"
                || key == "features"
                || key == "optional"
                || key == "default-features";
            let registryish = value.contains("git =")
                || value.contains("git=")
                || value.contains("registry")
                || key == "version"
                || key == "git";
            if (!in_tree || registryish) && !escaped {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::Hermeticity,
                    msg: format!(
                        "[{section}] `{key} = {value}` is not an in-tree path/workspace \
                         dependency — external crates break the offline build"
                    ),
                });
            }
        } else if section == "features" && content.contains("dep:") && !escaped {
            out.push(Violation {
                file: rel_path.to_string(),
                line: idx + 1,
                rule: Rule::Hermeticity,
                msg: format!(
                    "[features] `{content}` feature-gates an optional dependency \
                     (`dep:`): std replacements must be unconditional in-tree code"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R6: panic boundaries
// ---------------------------------------------------------------------------

fn check_unwind(rel_path: &str, file: &SyntaxFile) -> Vec<Violation> {
    // Imports are harmless; the rule polices call sites.
    let import_only = |idx: usize| {
        file.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.line == idx && t.kind == TokenKind::Ident)
            .filter(|(_, t)| t.text.contains("catch_unwind"))
            .all(|(i, _)| in_use_item(file, i))
    };
    token_hits(file, &["catch_unwind"], "unwind-ok:")
        .filter(|&(idx, _)| !import_only(idx))
        .map(|(idx, _)| Violation {
            file: rel_path.to_string(),
            line: idx + 1,
            rule: Rule::Unwind,
            msg: "`catch_unwind` outside stdkit::pool / runtime::supervisor: a swallowed \
                  panic hides corrupted state; route the failure through the supervised \
                  recovery path or justify with `// unwind-ok: <why>`"
                .to_string(),
        })
        .collect()
}

/// Is token `i` part of a `use` (or `pub use`, `pub(crate) use`) item,
/// grouped imports (`use a::{b, c}`) and leading attributes included?
fn in_use_item(file: &SyntaxFile, i: usize) -> bool {
    let is = |j: Option<usize>, text: &str| j.is_some_and(|j| file.tokens[j].text == text);
    let mut start = file.stmt_start(i);
    // Inside a `::{ … }` group, continue from the group's opening brace.
    while let Some(open) = start.checked_sub(1) {
        if !(is(Some(open), "{") && is(file.prev_code(open), ":")) {
            break;
        }
        start = file.stmt_start(open);
    }
    let mut j = file.next_code(start);
    // Skip attributes (`#[cfg(…)]`) and a `pub`/`pub(…)` visibility.
    while is(j, "#") {
        j = j.and_then(|h| file.next_code(h + 1));
        j = j.and_then(|o| file.partner(o)).and_then(|c| file.next_code(c + 1));
    }
    if is(j, "pub") {
        j = j.and_then(|p| file.next_code(p + 1));
        if is(j, "(") {
            j = j.and_then(|o| file.partner(o)).and_then(|c| file.next_code(c + 1));
        }
    }
    is(j, "use")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rule: Rule, path: &str, src: &str) -> Vec<Violation> {
        check_source(rule, path, &SyntaxFile::parse(src))
    }

    #[test]
    fn nondet_iter_flags_hash_iteration() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) { for (k, v) in s.m.iter() { use_it(k, v); } }\n";
        let v = check(Rule::NondetIter, "crates/policy/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn nondet_iter_accepts_sorted_and_btree() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> Vec<u32> {\n\
                       let mut v: Vec<u32> = s.m.keys().copied().collect();\n\
                       v.sort();\n\
                       v\n\
                   }\n";
        assert!(check(Rule::NondetIter, "crates/policy/src/x.rs", src).is_empty());
        let src2 = "struct S { m: HashSet<u32> }\n\
                    fn f(s: &S) -> BTreeSet<u32> { s.m.iter().copied().collect() }\n";
        assert!(check(Rule::NondetIter, "crates/policy/src/x.rs", src2).is_empty());
    }

    #[test]
    fn nondet_iter_respects_annotation() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> u32 { s.m.values().count() as u32 } \
                   // nondet-ok: count is order-independent\n";
        assert!(check(Rule::NondetIter, "crates/rl/src/x.rs", src).is_empty());
    }

    #[test]
    fn nondet_iter_ignores_btreemap_and_vec() {
        let src = "struct S { m: BTreeMap<u32, u32>, v: Vec<u32> }\n\
                   fn f(s: &S) { for x in s.m.keys() {} for y in s.v.iter() {} }\n";
        assert!(check(Rule::NondetIter, "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn nondet_iter_catches_for_in_ref() {
        let src = "fn f() { let m = HashSet::new(); for x in &m { go(x); } }\n";
        let v = check(Rule::NondetIter, "crates/sim/src/x.rs", src);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn nondet_iter_catches_multiline_chains() {
        let src = "struct S { times: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> Option<u32> {\n\
                       s.times\n\
                           .iter()\n\
                           .map(|(_, v)| *v)\n\
                           .min_by_key(|v| *v)\n\
                   }\n";
        let v = check(Rule::NondetIter, "crates/policy/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn wall_clock_flags_instant_and_systemtime() {
        let v = check(
            Rule::WallClock,
            "crates/runtime/src/x.rs",
            "fn f() { let t = Instant::now(); }\nfn g() { SystemTime::now(); }\n",
        );
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn wall_clock_skips_strings_and_tests() {
        let src = "fn f() { log(\"Instant::now\"); }\n\
                   #[cfg(test)]\nmod t { fn g() { Instant::now(); } }\n";
        assert!(check(Rule::WallClock, "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panics_flags_and_escapes() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"set\") } \
                   // invariant: populated by the constructor\n";
        let v = check(Rule::Panics, "crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn float_flags_powf_mul_add_and_casts() {
        let src = "fn f(x: f64, n: usize) -> f64 { x.powf(2.0) + x.mul_add(2.0, 1.0) + n as f64 }\n";
        let v = check(Rule::Float, "crates/neural/src/x.rs", src);
        assert_eq!(v.len(), 1, "one violation per line (first token wins)");
        let src2 = "fn g(n: usize) -> f64 { n as f64 } // float-ok: n < 2^53, cast exact\n";
        assert!(check(Rule::Float, "crates/neural/src/x.rs", src2).is_empty());
    }

    #[test]
    fn manifest_rule_flags_external_deps() {
        let toml = "[dependencies]\n\
                    jarvis-stdkit.workspace = true\n\
                    rand = \"0.8\"\n\
                    serde = { version = \"1\", features = [\"derive\"] }\n\
                    local = { path = \"../local\" }\n\
                    [features]\n\
                    fancy = [\"dep:rand\"]\n";
        let v = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].line, 3);
        assert_eq!(v[1].line, 4);
        assert_eq!(v[2].line, 7);
    }

    #[test]
    fn unwind_flags_bare_catch_unwind_and_escapes() {
        let src = "fn f() { let _ = std::panic::catch_unwind(|| risky()); }\n\
                   fn g() {\n\
                       // unwind-ok: propcheck must report the failing case, not die with it\n\
                       let _ = std::panic::catch_unwind(|| risky());\n\
                   }\n";
        let v = check(Rule::Unwind, "crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwind_exempts_imports_of_every_shape() {
        let src = "use std::panic::{\n\
                       catch_unwind, AssertUnwindSafe,\n\
                   };\n\
                   pub use std::panic::catch_unwind as cu;\n\
                   #[cfg(unix)]\n\
                   pub(crate) use std::panic::catch_unwind as cu2;\n\
                   fn f() { use std::panic::catch_unwind; let _ = catch_unwind(|| 1); }\n";
        let v = check(Rule::Unwind, "crates/core/src/x.rs", src);
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![7], "only the call site");
    }

    #[test]
    fn unwind_exempts_the_sanctioned_boundaries_on_walks() {
        for file in UNWIND_BOUNDARY_FILES {
            assert!(!in_scope(Rule::Unwind, file), "{file} must be exempt");
        }
        assert!(in_scope(Rule::Unwind, "crates/core/src/x.rs"));
        assert!(in_scope(Rule::Unwind, "src/main.rs"));
    }

    #[test]
    fn unwind_skips_test_code() {
        let src = "#[cfg(test)]\nmod t { fn g() { let _ = catch_unwind(|| 1); } }\n";
        assert!(check(Rule::Unwind, "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn manifest_rule_accepts_workspace_and_path() {
        let toml = "[workspace.dependencies]\n\
                    jarvis = { path = \"crates/core\" }\n\
                    [dev-dependencies]\n\
                    jarvis-attacks.workspace = true\n";
        assert!(check_manifest("Cargo.toml", toml).is_empty());
    }
}
