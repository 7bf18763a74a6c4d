//! Concurrency model-checking gate: exhaustively explores the
//! interleavings of every conckit model in [`parkit::models`] and fails
//! on any violation (deadlock, lost wakeup, panic, incomplete
//! exploration).
//!
//! Built only with the `model` feature (`cargo run --release -p bench
//! --features model --bin conc_check`), which reroutes the mutexes and
//! threads of parkit's sharded map through conckit's cooperative
//! scheduler. Each model is a tiny closed program over the real
//! sharded-map code; the explorer enumerates all schedules up to
//! the preemption bound with sleep-set pruning, so a pass here is a
//! proof over that schedule space — not a stress test that happened to
//! get lucky.
//!
//! Emits `conckit.schedules` / `conckit.steps` counters and a
//! `conckit.max_depth` gauge into the obskit report so CI's
//! `metrics_check` can assert the exploration actually ran.

// ALLOW: gate binary — panicking on a found interleaving bug is the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bench::{table, BenchCli};
use conckit::Config;
use std::time::Instant;

/// Preemption bound for the gate. Two preemptions cover the vast
/// majority of real concurrency bugs (CHESS's empirical result) while
/// keeping the schedule space small enough to exhaust in seconds.
const PREEMPTION_BOUND: usize = 2;

fn main() {
    let cli = BenchCli::parse("conc_check");
    let config = Config::with_bound(PREEMPTION_BOUND);

    let mut rows = Vec::new();
    let mut total_schedules = 0u64;
    let mut total_steps = 0u64;
    let mut violations = 0u64;
    let mut max_depth = 0usize;
    let started = Instant::now();

    // The panic-containment model deliberately panics in every explored
    // schedule; the default hook would print thousands of backtraces.
    // conckit catches model panics and carries their messages in
    // `Violation::Panic`, so nothing is lost by silencing the hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    for (name, model) in parkit::models::all() {
        let t0 = Instant::now();
        let report = model(&config);
        let wall = t0.elapsed();
        total_schedules += report.schedules;
        total_steps += report.steps;
        max_depth = max_depth.max(report.max_depth);
        let status = match (&report.violation, report.complete) {
            (Some(v), _) => {
                violations += 1;
                format!("VIOLATION: {v}")
            }
            (None, false) => {
                violations += 1;
                "INCOMPLETE (budget exhausted)".to_owned()
            }
            (None, true) => "ok".to_owned(),
        };
        rows.push(vec![
            name.to_owned(),
            report.schedules.to_string(),
            report.steps.to_string(),
            report.max_depth.to_string(),
            format!("{:.1}ms", wall.as_secs_f64() * 1e3),
            status,
        ]);
    }

    std::panic::set_hook(default_hook);

    println!(
        "{}",
        table(
            &format!("conckit exploration (preemption bound {PREEMPTION_BOUND})"),
            &["model", "schedules", "steps", "max depth", "wall", "status"],
            &rows,
        )
    );
    println!(
        "explored {} schedules / {} steps across {} models in {:.2}s",
        total_schedules,
        total_steps,
        rows.len(),
        started.elapsed().as_secs_f64()
    );

    obskit::counter_add("conckit.schedules", total_schedules);
    obskit::counter_add("conckit.steps", total_steps);
    obskit::counter_add("conckit.violations", violations);
    obskit::gauge_set("conckit.max_depth", max_depth as f64);
    cli.finish();

    assert_eq!(
        violations, 0,
        "conckit found {violations} violating/incomplete model(s) — see the table above; \
         replay a violating schedule with conckit::replay(model, schedule_id)"
    );
    // Every model must actually exercise concurrency: a single-schedule
    // "exploration" means the model degenerated to sequential code.
    assert!(
        total_schedules > rows.len() as u64,
        "exploration degenerated: {total_schedules} schedules over {} models",
        rows.len()
    );
}
