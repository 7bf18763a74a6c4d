//! Rule-book analysis cost: runs the full `SL002`/`SL3xx` pass
//! (satisfiability, tautology, world vacuity, pairwise
//! conflict/subsumption, corpus discrimination) over the shipped driving
//! and warehouse books and
//! reports per-rule wall time, split into solo / pairwise / corpus
//! phases. Before it, the errors-only pass the pipeline gates on
//! (`speclint::analyze_errors`, `SL300`/`SL303` under the worlds) runs
//! over the same books, and one line per book sets its check count and
//! wall time next to the full pass's. Each of the two passes starts
//! from an empty automaton cache, so both times include their own
//! translations. Feeds the EXPERIMENTS.md cost table and, with
//! `--metrics-out`, an `obskit.bench.v2` report (its counters sum both
//! passes).
//!
//! Semantic analysis reuses the ltlcheck spec-automaton cache, so the
//! hit/miss counters (`ltlcheck.automaton_cache_*`) show how much the
//! sweep shares across worlds and pairs.

use bench::{table, BenchCli};
use ltlcheck::analysis::{automaton_cache_len, clear_automaton_cache};
use speclint::presets::{driving_input, warehouse_input};
use speclint::semantic::{analyze_errors, analyze_timed};
use speclint::{sort_diagnostics, Severity, Tally};
use std::time::Instant;

fn main() {
    let cli = BenchCli::parse("specsem");
    let books = [
        ("driving", driving_input().book),
        ("warehouse", warehouse_input().book),
    ];

    let gates: Vec<(usize, u128)> = books
        .iter()
        .map(|(_, input)| {
            let _span = obskit::span("specsem.gate");
            let started = Instant::now();
            let report = analyze_errors(input);
            assert!(
                report.diagnostics.is_empty(),
                "shipped rule books must pass the gate"
            );
            (report.checks, started.elapsed().as_micros())
        })
        .collect();
    let gate_automata = automaton_cache_len();
    clear_automaton_cache();

    let mut diags = Vec::new();
    for ((book, input), (gate_checks, gate_us)) in books.into_iter().zip(gates) {
        let _span = obskit::span("specsem.analyze");
        let started = Instant::now();
        let report = analyze_timed(&input);
        let full_us = started.elapsed().as_micros();
        let rows: Vec<Vec<String>> = report
            .timings
            .iter()
            .map(|t| {
                vec![
                    t.rule.clone(),
                    format!("{}", t.solo.as_micros()),
                    format!("{}", t.pairwise.as_micros()),
                    format!("{}", t.corpus.as_micros()),
                    format!("{}", t.total().as_micros()),
                ]
            })
            .collect();
        println!(
            "{}",
            table(
                &format!(
                    "{book}: per-rule semantic analysis cost ({} worlds, {} corpus controllers, {} checks)",
                    input.worlds.len(),
                    input.corpus.len(),
                    report.checks
                ),
                &["rule", "solo µs", "pairwise µs", "corpus µs", "total µs"],
                &rows,
            )
        );
        println!(
            "{book}: rule-book gate (SL300/SL303 only) {gate_checks} checks in {gate_us} µs; \
             full pass {} checks in {full_us} µs",
            report.checks
        );
        diags.extend(report.diagnostics);
    }

    sort_diagnostics(&mut diags);
    for d in &diags {
        println!("{d}");
    }
    let tally = Tally::of(&diags);
    println!(
        "specsem: {} error(s), {} warning(s), {} note(s) — notes are \
         expected (scenario-specific rules idle in other worlds)",
        tally.errors, tally.warnings, tally.notes
    );
    println!(
        "automaton cache: {} entries resident after the full pass ({gate_automata} after the gate)",
        automaton_cache_len()
    );
    cli.finish();
    let loud = diags
        .iter()
        .filter(|d| d.severity != Severity::Note)
        .count();
    assert_eq!(loud, 0, "shipped rule books must be semantically clean");
}
