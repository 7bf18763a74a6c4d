//! End-to-end tests of the `speclint` binary: the JSON report is pinned
//! to a golden file (the schema is consumed by CI tooling, so drift must
//! be deliberate), and the exit codes follow the documented contract.

#![allow(clippy::expect_used, reason = "test helpers assert by panicking")]

use obskit::json::ToJson;
use std::process::Command;

fn speclint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_speclint"))
        .args(args)
        .output()
        .expect("speclint binary runs")
}

/// `--format json` output over every shipped book is byte-identical to
/// the checked-in golden report, and the exit-code contract holds: the
/// shipped rule books, controllers and step lists are clean, so the run
/// exits 0 even under `--deny-warnings` — any new error or warning in a
/// preset artifact trips this gate. To update after a deliberate change:
/// `cargo run -p speclint -- --format json > crates/speclint/tests/golden/report.json`
#[test]
fn json_report_matches_golden_file() {
    let out = speclint(&["--format", "json", "--deny-warnings"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "shipped artifacts grew a warning"
    );
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

/// The analysis rejects the deliberately conflicting preset book with
/// exit 1 (its two rules are each satisfiable but share no fair path
/// under the world), and the JSON report is pinned.
/// To update: `cargo run -p speclint -- --book conflict-demo --format
/// json > crates/speclint/tests/golden/semantic_conflict.json`
#[test]
fn semantic_gate_rejects_conflicting_book() {
    let out = speclint(&["--book", "conflict-demo", "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "SL303 must fail the gate");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    let golden = include_str!("golden/semantic_conflict.json");
    assert_eq!(got.trim_end(), golden.trim_end());
    assert!(got.contains("SL303"), "{got}");
}
