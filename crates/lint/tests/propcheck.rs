//! Property tests for the lexer and the line view projected from it, on
//! the shapes a hand-written Rust scanner gets wrong: nested block comments,
//! raw identifiers (`r#type`), quote-bearing char literals (`'"'`, `'\''`),
//! and raw strings with `#` fences.
//!
//! Two properties over generated token soup:
//!
//! 1. **Round-trip** — `lex(render(lex(src)))` equals `lex(src)` on
//!    `(kind, text)`. `render` is the lexer's own inverse up to whitespace,
//!    so any lexing ambiguity shows up as a diff here.
//! 2. **Line-view agreement** — the per-line code view R1–R6 search
//!    ([`SyntaxFile::code_lines`]) must classify every character the same
//!    way the lexer does: comment/string marker words never leak into the
//!    blanked code, plain code tokens survive at their exact columns, and
//!    line-comment text lands in the line's comment map.

use jarvis_lint::lexer::{lex, render, Token, TokenKind};
use jarvis_lint::SyntaxFile;
use jarvis_stdkit::propcheck::{Config, Gen, TestResult};

/// One well-formed fragment of token soup. Marker words encode intent:
/// `cmark` only ever appears inside comments, `smark` only inside string or
/// char literals — so neither may survive into the blanked code view.
fn fragment(g: &mut Gen) -> String {
    match g.u32_in(0, 13) {
        0 => format!("kmark{}", g.u32_in(0, 99)),
        1 => (*g.choose(&["r#type", "r#match", "r#fn", "r#unsafe"])).to_string(),
        2 => (*g.choose(&["{", "}", "(", ")", ";", ",", ".", "#", "&", "::", "->"])).to_string(),
        3 => (*g.choose(&["0", "42", "0x1f", "3.25", "1_000", "7u32"])).to_string(),
        4 => (*g.choose(&["'a", "'static", "'_"])).to_string(),
        5 => (*g.choose(&["'x'", "'\\''", "'\"'", "'\\n'", "'{'", "b'q'"])).to_string(),
        6 => format!("\"smark {} \\\" esc\"", g.u32_in(0, 9)),
        7 => (*g.choose(&[
            "r\"smark plain\"",
            "r#\"smark \"quoted\" inside\"#",
            "r##\"smark \"# half fence\"##",
            "br#\"smark bytes\"#",
            "b\"smark\"",
        ]))
        .to_string(),
        8 => format!("// cmark line {}", g.u32_in(0, 9)),
        9 => "/* cmark flat */".to_string(),
        10 => "/* cmark /* nested cmark */ tail cmark */".to_string(),
        11 => "/* cmark\n   multi /* deep cmark\n   */ cmark */".to_string(),
        12 => (*g.choose(&["fn", "let", "unsafe", "impl", "match", "loop"])).to_string(),
        _ => format!("kmark_{}", g.ascii_string(1, 6)),
    }
}

/// Assemble fragments with random whitespace between them. A line comment is
/// always followed by a newline so it cannot swallow the next fragment —
/// swallowing is legal lexing, but it would turn `cmark` marker words into
/// code on the comment's continuation lines and void the marker invariant.
fn soup(g: &mut Gen) -> String {
    let n = g.usize_in(3, 40);
    let mut src = String::new();
    for _ in 0..n {
        let f = fragment(g);
        let line_comment = f.starts_with("//");
        src.push_str(&f);
        if line_comment {
            src.push('\n');
        }
        let sep: &str = *g.choose(&[" ", "  ", "\n", "\t", " \n  "]);
        src.push_str(sep);
    }
    src
}

fn fmt_tokens(toks: &[Token]) -> String {
    toks.iter().map(|t| format!("  {:?} {:?}\n", t.kind, t.text)).collect()
}

fn check_round_trip(src: &str, toks: &[Token]) -> TestResult {
    let again = lex(&render(toks));
    let a: Vec<(TokenKind, &str)> = toks.iter().map(|t| (t.kind, t.text.as_str())).collect();
    let b: Vec<(TokenKind, &str)> = again.iter().map(|t| (t.kind, t.text.as_str())).collect();
    if a != b {
        return Err(format!(
            "render round-trip diverged on {src:?}\nfirst:\n{}second:\n{}",
            fmt_tokens(toks),
            fmt_tokens(&again)
        ));
    }
    Ok(())
}

fn check_agreement(src: &str, toks: &[Token]) -> TestResult {
    let file = SyntaxFile::parse(src);
    let code = file.code_lines();
    for (i, line) in code.iter().enumerate() {
        if line.contains("cmark") {
            return Err(format!(
                "comment text leaked into the code view at line {i} of {src:?}: {line:?}"
            ));
        }
        if line.contains("smark") {
            return Err(format!(
                "string contents leaked into the code view at line {i} of {src:?}: {line:?}"
            ));
        }
    }
    for t in toks {
        match t.kind {
            // Plain code must survive blanking at its exact column.
            TokenKind::Ident | TokenKind::Lifetime | TokenKind::Number | TokenKind::Punct => {
                let line = code.get(t.line).map_or("", String::as_str);
                let got: String = line.chars().skip(t.col).take(t.text.chars().count()).collect();
                if got != t.text {
                    return Err(format!(
                        "code view lost {:?} token {:?} at {}:{} of {src:?} — code line is {line:?}",
                        t.kind, t.text, t.line, t.col
                    ));
                }
            }
            // Line-comment text must land in the line's comment map.
            TokenKind::LineComment => {
                let body = t.text.trim_start_matches('/').trim();
                let got = file.line_comment(t.line);
                if got != body {
                    return Err(format!(
                        "comment map disagrees at line {} of {src:?}: \
                         lexer saw {body:?}, line view saw {got:?}",
                        t.line
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[test]
fn token_soup_round_trips_and_agrees_with_the_line_view() {
    Config::with_cases(300).seed(0x4a52_5649_u64).run(|g: &mut Gen| {
        let src = soup(g);
        let toks = lex(&src);
        check_round_trip(&src, &toks)?;
        check_agreement(&src, &toks)
    });
}

/// The same two properties over real workspace sources — every lint run
/// reads these files through the lexer and its line view.
#[test]
fn real_sources_round_trip_and_agree() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for rel in [
        "crates/lint/src/lexer.rs",
        "crates/lint/src/syntax.rs",
        "crates/lint/src/audit.rs",
        "crates/stdkit/src/alloc.rs",
        "crates/stdkit/src/pool.rs",
        "crates/neural/src/simd.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel)).expect(rel);
        let toks = lex(&src);
        if let Err(e) = check_round_trip(&src, &toks) {
            panic!("{rel}: {e}");
        }
        if let Err(e) = check_agreement(&src, &toks) {
            panic!("{rel}: {e}");
        }
    }
}
