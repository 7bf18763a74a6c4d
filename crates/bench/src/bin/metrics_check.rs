//! Validates a `BENCH_<name>.json` metrics report against the
//! `obskit.bench.v2` schema, optionally requiring specific metrics and
//! spans to be present — the CI gate behind `--metrics-out`.
//!
//! ```text
//! metrics_check <report.json> [--require m1,m2,…] [--require-span s1,s2,…]
//! ```
//!
//! Exit codes: 0 = conformant, 1 = validation problems (printed one per
//! line), 2 = usage or I/O error.

use obskit::report::{validate, Requirements};
use std::process::ExitCode;

fn split_list(arg: Option<String>) -> Vec<String> {
    arg.map(|s| {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(str::to_owned)
            .collect()
    })
    .unwrap_or_default()
}

fn main() -> ExitCode {
    let mut path = None;
    let mut req = Requirements::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--require" => req.metrics.extend(split_list(args.next())),
            "--require-span" => req.spans.extend(split_list(args.next())),
            _ if path.is_none() => path = Some(arg),
            _ => {
                eprintln!("unexpected argument `{arg}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!(
            "usage: metrics_check <report.json> [--require m1,m2,…] [--require-span s1,s2,…]"
        );
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match validate(&text, &req) {
        Ok(()) => {
            println!(
                "{path}: conformant ({} required metrics, {} required spans)",
                req.metrics.len(),
                req.spans.len()
            );
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("{path}: {p}");
            }
            eprintln!("{path}: {} problem(s)", problems.len());
            ExitCode::FAILURE
        }
    }
}
