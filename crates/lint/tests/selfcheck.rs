//! The workspace must lint clean under its own rules — the tree itself is
//! the ultimate "clean fixture", and this test is what keeps it that way.
//! `Options::default()` runs all ten rules, so any R7–R10 violation in the
//! workspace fails `cargo test` right here.

use jarvis_lint::{lint_workspace, lint_workspace_report, Options, Rule};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn workspace_lints_clean() {
    let violations = lint_workspace(&root(), &Options::default()).expect("walk workspace");
    assert!(
        violations.is_empty(),
        "the workspace has lint violations:\n{}",
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn quick_mode_is_also_clean() {
    let opts = Options { quick: true, ..Options::default() };
    assert!(lint_workspace(&root(), &opts).expect("walk workspace").is_empty());
}

#[test]
fn default_options_cover_all_ten_rules() {
    let opts = Options::default();
    assert_eq!(opts.rules.len(), 10);
    for rule in Rule::ALL {
        assert!(opts.rules.contains(&rule), "{} missing from default set", rule.name());
    }
}

/// The concurrency audit must actually *run* on the concurrency core: if a
/// scope regression ever silently excluded stdkit or neural from R7–R9,
/// the clean check above would pass vacuously.
#[test]
fn audit_rules_visit_the_concurrency_core() {
    use jarvis_lint::rules::in_scope;
    for file in [
        "crates/stdkit/src/alloc.rs",
        "crates/stdkit/src/pool.rs",
        "crates/neural/src/simd.rs",
        "crates/runtime/src/shard.rs",
    ] {
        assert!(in_scope(Rule::UnsafeAudit, file), "{file} must be under R7");
        assert!(in_scope(Rule::AtomicOrdering, file), "{file} must be under R8");
        assert!(in_scope(Rule::LockDiscipline, file), "{file} must be under R9");
    }
    assert!(in_scope(Rule::ResultDiscard, "crates/stdkit/src/pool.rs"));
    assert!(in_scope(Rule::ResultDiscard, "crates/runtime/src/online.rs"));
    assert!(!in_scope(Rule::ResultDiscard, "crates/bench/src/main.rs"));
}

/// The audit rules found real work on this tree (28 sites were annotated
/// when the family landed) — assert they keep producing *timing* entries,
/// i.e. they genuinely ran over the walk rather than being skipped.
#[test]
fn audit_rules_report_nonzero_walk_time() {
    let report =
        lint_workspace_report(&root(), &Options::default()).expect("walk workspace");
    assert!(report.files > 50, "expected a real workspace walk, saw {}", report.files);
    for rule in [Rule::UnsafeAudit, Rule::AtomicOrdering, Rule::LockDiscipline] {
        assert!(
            report.timings.iter().any(|(r, _)| *r == rule),
            "{} never ran during the workspace walk",
            rule.name()
        );
    }
}
