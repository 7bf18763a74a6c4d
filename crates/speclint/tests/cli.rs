//! End-to-end tests of the `speclint` binary: the JSON report is pinned
//! to a golden file (the schema is consumed by CI tooling and by the
//! pipeline pre-flight gate, so drift must be deliberate), and the exit
//! codes follow the documented contract.

#![allow(clippy::expect_used, reason = "test helpers assert by panicking")]

use obskit::json::ToJson;
use std::process::Command;

fn speclint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_speclint"))
        .args(args)
        .output()
        .expect("speclint binary runs")
}

/// `--format json` output is byte-identical to the checked-in golden
/// report. To update after a deliberate change:
/// `cargo run -p speclint -- --format json > crates/speclint/tests/golden/report.json`
#[test]
fn json_report_matches_golden_file() {
    let out = speclint(&["--format", "json"]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    let golden = include_str!("golden/report.json");
    assert_eq!(
        got.trim_end(),
        golden.trim_end(),
        "JSON report drifted from tests/golden/report.json; \
         regenerate it if the change is intentional"
    );
}

/// The golden report itself parses as the documented stable object, and
/// its diagnostics round-trip through `Diagnostic`'s JSON conversions.
#[test]
fn golden_report_is_valid_json_with_tally() {
    let golden = include_str!("golden/report.json");
    let value = obskit::json::parse(golden).expect("golden parses");
    // Every diagnostic decodes, and re-encodes to the same tree.
    let diags: Vec<speclint::Diagnostic> = value.field_as("diagnostics").expect("diagnostics");
    assert!(!diags.is_empty());
    assert_eq!(Some(&diags.to_json()), value.get("diagnostics"));
    let tally = value.field("tally").expect("tally object");
    for key in ["errors", "warnings", "notes"] {
        tally
            .field_as::<usize>(key)
            .unwrap_or_else(|e| panic!("tally.{key}: {e}"));
    }
}

/// Exit-code contract: the shipped rule books and controllers are clean,
/// so both the plain run and `--deny-warnings` must exit 0 — any new
/// warning in a preset artifact trips this gate.
#[test]
fn clean_presets_exit_zero_even_denying_warnings() {
    let out = speclint(&[]);
    assert_eq!(out.status.code(), Some(0));
    let out = speclint(&["--deny-warnings"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "shipped artifacts grew a warning"
    );
}

/// Usage errors exit with status 2 and report on stderr.
#[test]
fn usage_errors_exit_two() {
    let out = speclint(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!out.stderr.is_empty());

    let out = speclint(&["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("yaml"));

    let out = speclint(&["--book", "cookbook"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cookbook"));
}

/// JSON output is deterministic: two runs produce byte-identical
/// reports. Diagnostics are emitted in canonical (subject, code,
/// element, message) order, so this holds regardless of analysis
/// iteration order.
#[test]
fn json_output_is_byte_identical_across_runs() {
    let first = speclint(&["--format", "json", "--book", "warehouse"]);
    let second = speclint(&["--format", "json", "--book", "warehouse"]);
    assert!(first.status.success());
    assert_eq!(first.stdout, second.stdout, "JSON report is not stable");
}

/// The semantic gate rejects the deliberately conflicting preset book
/// with exit 1 (its two rules are individually satisfiable, so the
/// syntactic pass alone accepts them), and the JSON report is pinned.
/// To update: `cargo run -p speclint -- --semantic --book conflict-demo
/// --format json > crates/speclint/tests/golden/semantic_conflict.json`
#[test]
fn semantic_gate_rejects_conflicting_book() {
    let out = speclint(&["--semantic", "--book", "conflict-demo", "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "SL303 must fail the gate");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    let golden = include_str!("golden/semantic_conflict.json");
    assert_eq!(got.trim_end(), golden.trim_end());
    assert!(got.contains("SL303"), "{got}");

    // The syntactic pass cannot see the conflict: same book, exit 0.
    let out = speclint(&["--book", "conflict-demo", "--deny-warnings"]);
    assert_eq!(out.status.code(), Some(0), "syntactic pass should accept");
}

/// The full semantic pass over the shipped driving and warehouse books
/// (every SL3xx finding, including the pairwise conflict and
/// containment queries) is pinned byte for byte.
/// To update: `cargo run -p speclint -- --semantic --book all --format
/// json > crates/speclint/tests/golden/semantic_shipped.json`
#[test]
fn semantic_shipped_books_match_golden() {
    let out = speclint(&["--semantic", "--book", "all", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "shipped books grew an error");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    let golden = include_str!("golden/semantic_shipped.json");
    assert_eq!(
        got.trim_end(),
        golden.trim_end(),
        "semantic report drifted from tests/golden/semantic_shipped.json"
    );
}
