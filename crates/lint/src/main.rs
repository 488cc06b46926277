//! CLI for `jarvis-lint`.
//!
//! ```text
//! cargo run -p jarvis-lint -- [--quick] [--rule NAME[,NAME...]] [--root DIR]
//!                             [--json] [--timing] [--budget-ms N] [paths…]
//! ```
//!
//! With no paths, walks the workspace (scope rules apply — see DESIGN.md
//! §12/§17). Explicit *file* arguments are linted unconditionally with every
//! requested rule. Exit codes: 0 clean, 1 violations, 2 usage/IO error,
//! 3 time budget exceeded.

use jarvis_lint::{find_root, lint_paths_report, lint_workspace_report, LintReport, Options, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

fn help() {
    eprintln!(
        "usage: jarvis-lint [options] [paths...]\n\
         \n\
         options:\n\
         \x20 --quick          walk only crates/ plus the root manifest\n\
         \x20 --rule NAMES     comma-separated rules (default: all ten)\n\
         \x20 --root DIR       workspace root (default: walk up to [workspace])\n\
         \x20 --json           machine-readable findings (one array of objects:\n\
         \x20                  file, line, rule, msg, annotation)\n\
         \x20 --timing         lex+parse, per-rule and total walk times on stderr\n\
         \x20 --budget-ms N    fail (exit 3) when the walk takes longer than N ms\n\
         \n\
         rules: nondet-iter wall-clock panics float hermeticity unwind\n\
         \x20      unsafe-audit atomic-ordering lock-discipline result-discard\n\
         \x20      (aliases r1..r10)\n\
         \n\
         exit codes:\n\
         \x20 0  clean\n\
         \x20 1  violations found\n\
         \x20 2  usage or I/O error\n\
         \x20 3  --budget-ms exceeded (findings still reported)"
    );
}

fn usage() -> ExitCode {
    help();
    ExitCode::from(2)
}

/// Minimal JSON string escaping (the report holds no exotic characters, but
/// messages quote source).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn print_json(report: &LintReport) {
    println!("[");
    let last = report.violations.len().saturating_sub(1);
    for (i, v) in report.violations.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        println!(
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"msg\": \"{}\", \
             \"annotation\": \"{}\"}}{comma}",
            json_escape(&v.file),
            v.line,
            v.rule.name(),
            json_escape(&v.msg),
            v.rule.annotation_tag(),
        );
    }
    println!("]");
}

fn print_timing(report: &LintReport) {
    eprintln!("jarvis-lint: {} file(s)", report.files);
    let row = |name: &str, d: std::time::Duration| {
        eprintln!("  {name:<16} {:>8.2} ms", d.as_secs_f64() * 1e3);
    };
    row("lex+parse", report.parse);
    for (rule, d) in &report.timings {
        row(rule.name(), *d);
    }
    row("total walk", report.walk);
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut root_arg: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut rules: Vec<Rule> = Vec::new();
    let mut json = false;
    let mut timing = false;
    let mut budget_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--json" => json = true,
            "--timing" => timing = true,
            "--budget-ms" => {
                let parsed = args.next().and_then(|n| n.parse().ok());
                let Some(ms) = parsed else {
                    eprintln!("--budget-ms needs a millisecond count");
                    return usage();
                };
                budget_ms = Some(ms);
            }
            "--rule" => {
                let Some(names) = args.next() else {
                    eprintln!("--rule needs a name");
                    return usage();
                };
                for name in names.split(',') {
                    match Rule::from_name(name.trim()) {
                        Some(r) => rules.push(r),
                        None => {
                            eprintln!("unknown rule {name:?}");
                            return usage();
                        }
                    }
                }
            }
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("--root needs a directory");
                    return usage();
                };
                root_arg = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                help();
                return ExitCode::SUCCESS;
            }
            a if a.starts_with('-') => {
                eprintln!("unknown flag {a:?}");
                return usage();
            }
            a => paths.push(PathBuf::from(a)),
        }
    }
    if !rules.is_empty() {
        opts.rules = rules;
    }

    let root = match root_arg.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_root(&d))
            .or_else(|| find_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR"))))
    }) {
        Some(r) => r,
        None => {
            eprintln!("jarvis-lint: cannot locate a workspace root (try --root)");
            return ExitCode::from(2);
        }
    };

    let result = if paths.is_empty() {
        lint_workspace_report(&root, &opts)
    } else {
        lint_paths_report(&root, &paths, &opts)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("jarvis-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print_json(&report);
    } else {
        for v in &report.violations {
            println!("{v}");
        }
    }
    if timing {
        print_timing(&report);
    }
    // Compare in microseconds so a `--budget-ms 0` smoke run cannot pass by
    // truncation on a sub-millisecond walk.
    let over_budget =
        budget_ms.is_some_and(|ms| report.walk.as_micros() > u128::from(ms) * 1000);
    if over_budget {
        eprintln!(
            "jarvis-lint: BUDGET EXCEEDED — walk took {:.1} ms (budget {} ms)",
            report.walk.as_secs_f64() * 1e3,
            budget_ms.unwrap_or(0)
        );
        return ExitCode::from(3);
    }
    if report.violations.is_empty() {
        if !json {
            let names: Vec<&str> = opts.rules.iter().map(|r| r.name()).collect();
            eprintln!("jarvis-lint: OK ({})", names.join(", "));
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("jarvis-lint: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}
