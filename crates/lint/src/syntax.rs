//! The token-tree / scope pass: the one parsed form of a source file that
//! every source rule (R1–R4, R6–R10) reads.
//!
//! Built once per file from the [`crate::lexer`] stream, this pass
//! provides:
//!
//! * **the line view** — per line, the code text with comments stripped
//!   and literal contents blanked to spaces, columns preserved, plus the
//!   line's `//` comment text: R1–R6 search these with plain substring
//!   matches, so `"Instant::now()"` inside a log string or a commented-out
//!   `.unwrap()` can never trip them;
//! * **delimiter matching** — every `(`/`[`/`{` knows its partner, and
//!   every token knows its nesting depth;
//! * **scope attribution** — which `fn`/`impl`/`mod` item a token is in,
//!   and whether that item is test-gated (`#[cfg(test)]`, `#[test]`);
//! * **statement grouping** — the span of the expression statement a token
//!   belongs to, so a rule looking at line 373 of a five-line
//!   `compare_exchange_weak` call can find the statement's first line;
//! * **attached comments** — the comment text that *belongs to* a line: a
//!   trailing `//` comment plus the contiguous block of comment and
//!   attribute lines directly above (attributes are transparent, so a
//!   `// safety:` note above `#[allow(unsafe_code)]` still attaches to the
//!   `unsafe` underneath it).
//!
//! The annotation grammar lives here too, in two forms:
//! [`SyntaxFile::line_annotated`] is R1–R6's per-line escape hatch (the
//! line itself or the comment-only line directly above, case-sensitive),
//! and [`SyntaxFile::annotated`] is R7–R10's attached-comment, statement-
//! aware, case-insensitive one.

use crate::lexer::{lex, Token, TokenKind};

/// What kind of named item opened a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    Fn,
    Impl,
    Mod,
    /// Any other braced region (blocks, match bodies, struct literals…).
    Block,
}

/// One brace-delimited scope: `{` token index, its partner, and what item
/// introduced it.
#[derive(Debug, Clone)]
pub struct Scope {
    pub kind: ScopeKind,
    /// Item name (`fn` or `mod` identifier; `impl` type head), when one
    /// exists.
    pub name: Option<String>,
    /// Token index of the opening `{`.
    pub open: usize,
    /// Token index of the matching `}` (or one past the last token when
    /// unterminated).
    pub close: usize,
    /// True when the item carries `#[test]`/`#[cfg(test)]` or is nested in
    /// a scope that does.
    pub test: bool,
    /// 0-based line where the item starts — its first attribute when one
    /// exists, else the item keyword, else the `{` itself.
    pub item_line: usize,
}

/// A lexed and structurally analysed source file.
pub struct SyntaxFile {
    pub tokens: Vec<Token>,
    /// For each delimiter token, the index of its partner.
    matching: Vec<Option<usize>>,
    /// Delimiter depth of each token (depth of the region it sits in).
    depth: Vec<usize>,
    /// Every brace scope, in opening order. `scopes[0]` does not exist for
    /// file level — file level is "no scope".
    pub scopes: Vec<Scope>,
    /// Innermost scope index per token.
    scope_of: Vec<Option<usize>>,
    /// Per 0-based line: combined text of `//` comments starting there.
    line_comment: Vec<String>,
    /// Per line: the code with comments stripped and literal contents
    /// blanked (see [`SyntaxFile::code_lines`]).
    code: Vec<String>,
    /// Per line: true when the line holds only comments/attributes (no
    /// other code tokens start or continue there).
    passive_line: Vec<bool>,
    /// Per line: true when inside a test-gated item.
    test_line: Vec<bool>,
}

impl SyntaxFile {
    /// Lex and analyse one source file.
    #[must_use]
    pub fn parse(src: &str) -> SyntaxFile {
        let tokens = lex(src);
        let line_count = src.lines().count().max(1);
        let matching = match_delimiters(&tokens);
        let depth = depths(&tokens);
        let scopes = find_scopes(&tokens, &matching);
        let scope_of = attribute_scopes(&tokens, &scopes);
        let (line_comment, passive_line) = line_tables(&tokens, &matching, line_count);
        let code = code_lines(src, &tokens, line_count);
        let test_line = test_lines(&tokens, &scopes, line_count);
        SyntaxFile {
            tokens,
            matching,
            depth,
            scopes,
            scope_of,
            line_comment,
            code,
            passive_line,
            test_line,
        }
    }

    /// The matching delimiter of token `i`, when `i` is a delimiter.
    #[must_use]
    pub fn partner(&self, i: usize) -> Option<usize> {
        self.matching.get(i).copied().flatten()
    }

    /// Delimiter nesting depth of token `i`.
    #[must_use]
    pub fn depth_of(&self, i: usize) -> usize {
        self.depth.get(i).copied().unwrap_or(0)
    }

    /// Innermost scope containing token `i`.
    #[must_use]
    pub fn scope_of(&self, i: usize) -> Option<&Scope> {
        self.scope_of.get(i).copied().flatten().map(|s| &self.scopes[s])
    }

    /// Innermost *fn* scope containing token `i`.
    #[must_use]
    pub fn fn_scope_of(&self, i: usize) -> Option<&Scope> {
        let mut s = self.scope_of.get(i).copied().flatten()?;
        loop {
            if self.scopes[s].kind == ScopeKind::Fn {
                return Some(&self.scopes[s]);
            }
            s = self.enclosing(s)?;
        }
    }

    /// Index of the scope enclosing scope `s` (scopes are in opening
    /// order, so the first backward hit is the innermost parent).
    fn enclosing(&self, s: usize) -> Option<usize> {
        let (o, c) = (self.scopes[s].open, self.scopes[s].close);
        (0..s).rev().find(|&p| self.scopes[p].open < o && self.scopes[p].close >= c)
    }

    /// Is 0-based line `line` inside a test-gated item?
    #[must_use]
    pub fn in_test(&self, line: usize) -> bool {
        self.test_line.get(line).copied().unwrap_or(false)
    }

    /// The code text of every line, indexed by 0-based line: comments
    /// stripped, the contents of string/char literals blanked to spaces,
    /// block comments and raw strings blanked whole, columns preserved.
    #[must_use]
    pub fn code_lines(&self) -> &[String] {
        &self.code
    }

    /// Text of the `//` comment on 0-based `line` (slashes and surrounding
    /// whitespace trimmed), or empty.
    #[must_use]
    pub fn line_comment(&self, line: usize) -> &str {
        self.line_comment.get(line).map_or("", String::as_str)
    }

    /// R1–R6's escape hatch: is 0-based `line` annotated with `tag` (e.g.
    /// `"nondet-ok:"`), either in its own `//` comment or in a comment-only
    /// line directly above? Matching is case-sensitive, and the tag must be
    /// followed by a non-empty justification.
    #[must_use]
    pub fn line_annotated(&self, line: usize, tag: &str) -> bool {
        let has = |l: usize| {
            let c = self.line_comment(l);
            c.find(tag).is_some_and(|p| !c[p + tag.len()..].trim().is_empty())
        };
        let blank = |l: usize| self.code.get(l).is_some_and(|c| c.trim().is_empty());
        has(line) || (line > 0 && blank(line - 1) && has(line - 1))
    }

    /// Is token `i` inside a test-gated item?
    #[must_use]
    pub fn token_in_test(&self, i: usize) -> bool {
        self.tokens.get(i).is_some_and(|t| self.in_test(t.line))
    }

    /// Token index of the start of the statement containing token `i`: the
    /// first token after the previous `;`, `{`, or `}` at the same depth
    /// (delimited sub-expressions are skipped as units).
    #[must_use]
    pub fn stmt_start(&self, i: usize) -> usize {
        let d = self.depth_of(i);
        let mut j = i;
        while j > 0 {
            let prev = j - 1;
            let t = &self.tokens[prev];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    ";" | "{" | "}" if self.depth_of(prev) <= d => break,
                    ")" | "]" => {
                        // Jump over the whole delimited group.
                        if let Some(open) = self.partner(prev) {
                            j = open;
                            continue;
                        }
                    }
                    _ => {}
                }
            }
            j = prev;
        }
        j
    }

    /// The comment text *attached to* 0-based `line`: a trailing comment on
    /// the line itself plus the contiguous run of comment-only and
    /// attribute-only lines directly above. Attributes are transparent;
    /// blank or code lines stop the walk.
    #[must_use]
    pub fn attached_comment(&self, line: usize) -> String {
        let mut parts: Vec<&str> = Vec::new();
        let mut above = line;
        while above > 0 {
            let prev = above - 1;
            if self.passive_line.get(prev).copied().unwrap_or(false) {
                parts.push(self.line_comment[prev].as_str());
                above = prev;
            } else {
                break;
            }
        }
        parts.reverse();
        if let Some(own) = self.line_comment.get(line) {
            parts.push(own.as_str());
        }
        parts.retain(|p| !p.is_empty());
        parts.join("\n")
    }

    /// Is `line` (or its attached comment block, or — when `stmt_line`
    /// differs — the statement's first line) annotated with `tag`, with a
    /// non-empty justification after it? Matching is case-insensitive, so
    /// the conventional `// SAFETY:` satisfies a `safety:` tag.
    #[must_use]
    pub fn annotated(&self, line: usize, stmt_line: usize, tag: &str) -> bool {
        self.tagged(line, tag) || (stmt_line != line && self.tagged(stmt_line, tag))
    }

    fn tagged(&self, line: usize, tag: &str) -> bool {
        let text = self.attached_comment(line).to_lowercase();
        let tag = tag.to_lowercase();
        text.find(&tag)
            .map(|p| !text[p + tag.len()..].trim().is_empty())
            .unwrap_or(false)
    }

    /// Number of source lines.
    #[must_use]
    pub fn line_count(&self) -> usize {
        self.code.len()
    }

    /// Index of the next non-comment token at or after `i`.
    #[must_use]
    pub fn next_code(&self, i: usize) -> Option<usize> {
        next_code(&self.tokens, i)
    }

    /// Index of the previous non-comment token strictly before `i`.
    #[must_use]
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        let mut j = i;
        while j > 0 {
            j -= 1;
            if !matches!(
                self.tokens[j].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            ) {
                return Some(j);
            }
        }
        None
    }

    /// Is token `i` an identifier method-call head: `.name(`? Returns the
    /// index of the opening paren.
    #[must_use]
    pub fn method_call(&self, i: usize) -> Option<usize> {
        let t = self.tokens.get(i)?;
        if t.kind != TokenKind::Ident {
            return None;
        }
        let prev = self.prev_code(i)?;
        if !(self.tokens[prev].kind == TokenKind::Punct && self.tokens[prev].text == ".") {
            return None;
        }
        let open = self.next_code(i + 1)?;
        (self.tokens[open].kind == TokenKind::Punct && self.tokens[open].text == "(")
            .then_some(open)
    }

    /// The dotted receiver path ending just before the `.` of a method
    /// call at token `i` (e.g. `self.inner.queue` for
    /// `self.inner.queue.pop()`); `None` when the receiver is not a plain
    /// path (a call chain, an index expression, …).
    #[must_use]
    pub fn receiver_path(&self, i: usize) -> Option<String> {
        let dot = self.prev_code(i)?;
        let mut parts: Vec<&str> = Vec::new();
        let mut j = self.prev_code(dot)?;
        loop {
            let t = &self.tokens[j];
            if t.kind != TokenKind::Ident {
                return None;
            }
            parts.push(t.text.as_str());
            match self.prev_code(j) {
                Some(p)
                    if self.tokens[p].kind == TokenKind::Punct
                        && self.tokens[p].text == "." =>
                {
                    match self.prev_code(p) {
                        Some(q) if self.tokens[q].kind == TokenKind::Ident => j = q,
                        // `foo().bar.lock()` — chain head is not a path.
                        _ => return None,
                    }
                }
                _ => break,
            }
        }
        parts.reverse();
        Some(parts.join("."))
    }
}

/// Pair every `(`/`[`/`{` with its closer via one stack walk. Comments
/// never participate. Mismatched closers are left unpaired.
fn match_delimiters(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut matching = vec![None; tokens.len()];
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => stack.push((t.text.chars().next().expect("punct char"), i)),
            ")" | "]" | "}" => {
                let want = match t.text.as_str() {
                    ")" => '(',
                    "]" => '[',
                    _ => '{',
                };
                if let Some(&(open_ch, open_idx)) = stack.last() {
                    if open_ch == want {
                        stack.pop();
                        matching[open_idx] = Some(i);
                        matching[i] = Some(open_idx);
                    }
                }
            }
            _ => {}
        }
    }
    matching
}

/// Depth of the region each token sits in (tokens of a delimiter pair get
/// the *outer* depth, their contents the inner one).
fn depths(tokens: &[Token]) -> Vec<usize> {
    let mut out = vec![0usize; tokens.len()];
    let mut d = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => {
                    out[i] = d;
                    d += 1;
                    continue;
                }
                ")" | "]" | "}" => {
                    d = d.saturating_sub(1);
                    out[i] = d;
                    continue;
                }
                _ => {}
            }
        }
        out[i] = d;
    }
    out
}

/// Next non-comment token at or after `i`.
fn next_code(tokens: &[Token], mut i: usize) -> Option<usize> {
    while let Some(t) = tokens.get(i) {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            i += 1;
        } else {
            return Some(i);
        }
    }
    None
}

/// Find every brace scope and classify the item that opens it.
fn find_scopes(tokens: &[Token], matching: &[Option<usize>]) -> Vec<Scope> {
    let mut scopes = Vec::new();
    // Track the most recent item keyword seen since the last `{`/`;`/`}` —
    // the item a following `{` belongs to — plus its start line.
    let mut pending: Option<(ScopeKind, Option<String>, bool, usize)> = None;
    // Attributes seen since the last statement boundary, lowercased, and
    // the line the first of them starts on.
    let mut attrs: Vec<String> = Vec::new();
    let mut attr_line: Option<usize> = None;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct if t.text == "#" => {
                // `#[...]` or `#![...]`: swallow the attribute, record it.
                if let Some((open, close)) = attribute_at(tokens, matching, i) {
                    let text: String = tokens[open..=close]
                        .iter()
                        .map(|t| t.text.as_str())
                        .collect();
                    attrs.push(text.to_lowercase());
                    attr_line.get_or_insert(t.line);
                    i = close + 1;
                    continue;
                }
            }
            TokenKind::Ident => match t.text.as_str() {
                "fn" | "impl" | "mod" => {
                    let kind = match t.text.as_str() {
                        "fn" => ScopeKind::Fn,
                        "impl" => ScopeKind::Impl,
                        _ => ScopeKind::Mod,
                    };
                    let name = next_code(tokens, i + 1)
                        .filter(|&k| tokens[k].kind == TokenKind::Ident)
                        .map(|k| tokens[k].text.clone());
                    let test = attrs.iter().any(|a| is_test_attr(a));
                    pending = Some((kind, name, test, attr_line.unwrap_or(t.line)));
                }
                _ => {}
            },
            TokenKind::Punct if t.text == "{" => {
                let close = matching[i].unwrap_or(tokens.len());
                let (kind, name, test, item_line) =
                    pending.take().unwrap_or((ScopeKind::Block, None, false, t.line));
                scopes.push(Scope { kind, name, open: i, close, test, item_line });
                attrs.clear();
                attr_line = None;
            }
            TokenKind::Punct if t.text == ";" || t.text == "}" => {
                pending = None;
                attrs.clear();
                attr_line = None;
            }
            _ => {}
        }
        i += 1;
    }
    scopes
}

/// When token `i` is the `#` of an attribute (`#[…]` or `#![…]`), the
/// token indices of its `[` and of the matching `]` (the `[` itself when
/// unterminated).
fn attribute_at(tokens: &[Token], matching: &[Option<usize>], i: usize) -> Option<(usize, usize)> {
    let mut j = i + 1;
    if let Some(bang) = next_code(tokens, j).filter(|&k| tokens[k].text == "!") {
        j = bang + 1;
    }
    let open = next_code(tokens, j).filter(|&k| tokens[k].text == "[")?;
    Some((open, matching[open].unwrap_or(open)))
}

fn is_test_attr(attr: &str) -> bool {
    attr == "[test]" || attr.starts_with("[cfg(test") || attr.starts_with("[cfg(any(test")
}

/// Innermost scope per token, and propagate `test` down into nested scopes.
fn attribute_scopes(tokens: &[Token], scopes: &[Scope]) -> Vec<Option<usize>> {
    let mut scope_of = vec![None; tokens.len()];
    // Scopes are in opening order, so later (inner) assignments win.
    for (s, scope) in scopes.iter().enumerate() {
        let end = scope.close.min(tokens.len().saturating_sub(1));
        for slot in &mut scope_of[scope.open..=end] {
            *slot = Some(s);
        }
    }
    scope_of
}

/// Per-line comment text and "passive" (comment/attribute-only) flags.
fn line_tables(
    tokens: &[Token],
    matching: &[Option<usize>],
    line_count: usize,
) -> (Vec<String>, Vec<bool>) {
    let mut comment = vec![String::new(); line_count];
    // A line is passive when no code token starts on or spans it.
    let mut has_code = vec![false; line_count];
    let mut has_any = vec![false; line_count];
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::LineComment => {
                if let Some(slot) = comment.get_mut(t.line) {
                    let text = t.text.trim_start_matches('/');
                    if !slot.is_empty() {
                        slot.push(' ');
                    }
                    slot.push_str(text.trim());
                }
                if let Some(f) = has_any.get_mut(t.line) {
                    *f = true;
                }
            }
            TokenKind::BlockComment => {
                for l in t.line..=t.end_line() {
                    if let Some(f) = has_any.get_mut(l) {
                        *f = true;
                    }
                }
            }
            TokenKind::Punct if t.text == "#" => {
                // Attribute lines are passive: skip the `[...]` whole,
                // marking its lines attribute-only (not code).
                if let Some((_, close)) = attribute_at(tokens, matching, i) {
                    for l in t.line..=tokens[close].end_line() {
                        if let Some(f) = has_any.get_mut(l) {
                            *f = true;
                        }
                    }
                    i = close + 1;
                    continue;
                }
                mark_code(&mut has_code, &mut has_any, t);
            }
            _ => mark_code(&mut has_code, &mut has_any, t),
        }
        i += 1;
    }
    let passive = (0..line_count).map(|l| has_any[l] && !has_code[l]).collect();
    (comment, passive)
}

/// The per-line code view: each source line with comments stripped and
/// literal contents blanked to spaces, columns preserved. Line comments cut
/// the line; block comments and raw strings become spaces; `"…"`, `b"…"`,
/// `'…'` and `b'…'` keep their prefix and quotes and blank only what lies
/// between them (an unterminated literal blanks to its end).
fn code_lines(src: &str, tokens: &[Token], line_count: usize) -> Vec<String> {
    let mut lines: Vec<Vec<char>> = src.lines().map(|l| l.chars().collect()).collect();
    lines.resize(line_count, Vec::new());
    for t in tokens {
        // Byte offsets into `t.text` to blank; prefixes and quotes are ASCII.
        let blanked = match t.kind {
            TokenKind::LineComment => {
                if let Some(l) = lines.get_mut(t.line) {
                    l.truncate(t.col);
                }
                continue;
            }
            TokenKind::BlockComment | TokenKind::RawStr => 0..t.text.len(),
            TokenKind::Str | TokenKind::ByteStr | TokenKind::Char | TokenKind::ByteChar => {
                let b = t.text.as_bytes();
                let open = usize::from(b[0] == b'b');
                let last = b.len() - 1;
                let escapes = b[open + 1..last.max(open + 1)]
                    .iter()
                    .rev()
                    .take_while(|&&c| c == b'\\')
                    .count();
                let closed = last > open && b[last] == b[open] && escapes % 2 == 0;
                open + 1..if closed { last } else { b.len() }
            }
            _ => continue,
        };
        let (mut line, mut col) = (t.line, t.col);
        for (k, c) in t.text.char_indices() {
            if c == '\n' {
                line += 1;
                col = 0;
                continue;
            }
            if blanked.contains(&k) {
                if let Some(slot) = lines.get_mut(line).and_then(|l| l.get_mut(col)) {
                    *slot = ' ';
                }
            }
            col += 1;
        }
    }
    lines.into_iter().map(|l| l.into_iter().collect()).collect()
}

fn mark_code(has_code: &mut [bool], has_any: &mut [bool], t: &Token) {
    for l in t.line..=t.end_line() {
        if let Some(f) = has_code.get_mut(l) {
            *f = true;
        }
        if let Some(f) = has_any.get_mut(l) {
            *f = true;
        }
    }
}

/// Per-line test flags from the scope table.
fn test_lines(tokens: &[Token], scopes: &[Scope], line_count: usize) -> Vec<bool> {
    let mut test = vec![false; line_count];
    // Propagate: a scope is effectively test when itself or any enclosing
    // scope is marked. Scopes come in opening order, so parents first.
    let mut effective: Vec<bool> = Vec::with_capacity(scopes.len());
    for (s, scope) in scopes.iter().enumerate() {
        let mut is_test = scope.test;
        if !is_test {
            // Find the innermost earlier scope that contains this one.
            for p in (0..s).rev() {
                if scopes[p].open < scope.open && scopes[p].close > scope.close {
                    is_test = effective[p];
                    break;
                }
            }
        }
        effective.push(is_test);
        if is_test {
            // From the item's first attribute line (so the `#[test]` and
            // signature lines count as test code too) through the `}`.
            let from = scope.item_line;
            let to = tokens
                .get(scope.close.min(tokens.len().saturating_sub(1)))
                .map_or(line_count - 1, Token::end_line);
            for l in from..=to.min(line_count - 1) {
                test[l] = true;
            }
        }
    }
    test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delimiters_match_and_depths_nest() {
        let f = SyntaxFile::parse("fn a(x: u32) { b(c[0]); }");
        let open_brace = f.tokens.iter().position(|t| t.text == "{").unwrap();
        let close_brace = f.partner(open_brace).unwrap();
        assert_eq!(f.tokens[close_brace].text, "}");
        assert_eq!(f.depth_of(open_brace), 0);
        let c_ident = f.tokens.iter().position(|t| t.text == "c").unwrap();
        assert_eq!(f.depth_of(c_ident), 2, "inside fn braces and call parens");
    }

    #[test]
    fn scopes_attribute_fn_impl_mod() {
        let src = "impl Foo { fn go(&self) { x(); } }\nmod util { }";
        let f = SyntaxFile::parse(src);
        let x = f.tokens.iter().position(|t| t.text == "x").unwrap();
        let s = f.scope_of(x).unwrap();
        assert_eq!(s.kind, ScopeKind::Fn);
        assert_eq!(s.name.as_deref(), Some("go"));
        assert_eq!(f.fn_scope_of(x).unwrap().name.as_deref(), Some("go"));
        assert!(f.scopes.iter().any(|s| s.kind == ScopeKind::Mod && s.name.as_deref() == Some("util")));
    }

    #[test]
    fn test_scope_marks_lines_and_resumes_after() {
        let src = "fn a() { hit(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn b() { miss(); }\n\
                   }\n\
                   fn c() { hit(); }\n";
        let f = SyntaxFile::parse(src);
        assert!(!f.in_test(0));
        assert!(f.in_test(1), "the attribute line is test code");
        assert!(f.in_test(2));
        assert!(f.in_test(3));
        assert!(f.in_test(4), "the closing brace is test code");
        assert!(!f.in_test(5), "scanning resumes after the test mod");
        assert_eq!(f.code_lines()[5], "fn c() { hit(); }");
    }

    #[test]
    fn code_view_blanks_string_contents_and_strips_comments() {
        let f = SyntaxFile::parse("let x = \"Instant::now()\"; // Instant::now()\n");
        assert_eq!(f.code_lines()[0], "let x = \"              \"; ");
        assert_eq!(f.line_comment(0), "Instant::now()");
    }

    #[test]
    fn code_view_blanks_block_comments_across_lines() {
        let f = SyntaxFile::parse("a /* panic!(\n.unwrap() */ b\n");
        assert_eq!(f.code_lines()[0], format!("a{}", " ".repeat(11)));
        assert_eq!(f.code_lines()[1], format!("{}b", " ".repeat(13)));
    }

    #[test]
    fn code_view_blanks_raw_strings_whole() {
        let f = SyntaxFile::parse("let s = r#\".unwrap() \"quoted\" \"#; x.y()\n");
        let code = &f.code_lines()[0];
        assert!(!code.contains("unwrap") && !code.contains('#') && !code.contains('"'));
        assert_eq!(code.find("x.y()"), Some(34), "columns are preserved");
    }

    #[test]
    fn code_view_keeps_lifetimes_and_blanks_char_and_byte_literals() {
        let f = SyntaxFile::parse("fn f<'a>(x: &'a str) -> &'a str { x } // .unwrap()\n");
        assert_eq!(f.code_lines()[0], "fn f<'a>(x: &'a str) -> &'a str { x } ");
        let f = SyntaxFile::parse("let c = '\"'; let s = \"x.unwrap()\"; b'\\'' b\"y\"\n");
        assert_eq!(f.code_lines()[0], "let c = ' '; let s = \"          \"; b'  ' b\" \"");
        let f = SyntaxFile::parse("let s = \"a\\\\\"; x.unwrap()\n");
        assert!(f.code_lines()[0].ends_with("; x.unwrap()"), "an escaped backslash closes");
    }

    #[test]
    fn line_annotated_same_line_line_above_and_empty_reason() {
        let src = "a.unwrap(); // invariant: index from enumerate\n\
                   // invariant: static catalogue\n\
                   b.unwrap();\n\
                   c.unwrap(); // invariant:\n\
                   d.unwrap(); // INVARIANT: upper case\n";
        let f = SyntaxFile::parse(src);
        assert!(f.line_annotated(0, "invariant:"));
        assert!(f.line_annotated(2, "invariant:"), "comment-only line directly above");
        assert!(!f.line_annotated(3, "invariant:"), "empty justification rejected");
        assert!(!f.line_annotated(4, "invariant:"), "line tags are case-sensitive");
    }

    #[test]
    fn stmt_start_spans_multi_line_calls() {
        let src = "fn f() {\n\
                       let x = q.compare_exchange_weak(\n\
                           a,\n\
                           b,\n\
                           Ordering::Relaxed,\n\
                       );\n\
                   }\n";
        let f = SyntaxFile::parse(src);
        let relaxed = f.tokens.iter().position(|t| t.text == "Relaxed").unwrap();
        let start = f.stmt_start(relaxed);
        assert_eq!(f.tokens[start].text, "let");
        assert_eq!(f.tokens[start].line, 1);
    }

    #[test]
    fn attached_comments_cross_attributes() {
        let src = "// safety: dispatch is detection-gated\n\
                   #[allow(unsafe_code)]\n\
                   unsafe { go() }\n";
        let f = SyntaxFile::parse(src);
        assert!(f.attached_comment(2).contains("safety:"));
        assert!(f.annotated(2, 2, "safety:"));
        assert!(f.annotated(2, 2, "SAFETY:"), "tag match is case-insensitive");
    }

    #[test]
    fn annotated_requires_justification_and_checks_stmt_line() {
        let src = "// ordering: CAS ticket claim; publication is the seq store\n\
                   let r = t.compare_exchange(\n\
                       a, b, Ordering::Relaxed, Ordering::Relaxed,\n\
                   );\n\
                   x.load(Ordering::SeqCst); // ordering:\n";
        let f = SyntaxFile::parse(src);
        assert!(f.annotated(2, 1, "ordering:"), "stmt-start annotation covers inner lines");
        assert!(!f.annotated(4, 4, "ordering:"), "empty justification rejected");
    }

    #[test]
    fn trailing_comment_attaches_to_its_line() {
        let f = SyntaxFile::parse("q.load(Ordering::Relaxed); // ordering: racy stat read is fine\n");
        assert!(f.annotated(0, 0, "ordering:"));
    }
}
