//! speclint CLI: lints the shipped driving and warehouse rule books, the
//! paper's demonstration controllers, and their step lists.
//!
//! ```text
//! speclint [--format human|json] [--deny-warnings]
//!          [--book driving|warehouse|all|conflict-demo]
//! ```
//!
//! One pass per book: the rule-book analysis (`SL002`, `SL3xx`:
//! satisfiability, tautology, world-model vacuity, pairwise conflict,
//! subsumption, and corpus discrimination), then the controller
//! (`SL1xx`) and step-list (`SL2xx`) lints. `--book conflict-demo`
//! selects a deliberately conflicting rule book (never part of `all`)
//! used to demonstrate — and test — that a book whose rules are each
//! satisfiable but share no fair path under the world is rejected.
//!
//! Diagnostics are emitted in a canonical order (subject, code, element,
//! message), so output is deterministic across runs and suitable for
//! byte-equality checks in CI.
//!
//! Exit status: `0` when clean (notes are always allowed), `1` when any
//! `error` diagnostic fired (or any `warning`, under `--deny-warnings`),
//! `2` on usage errors. The JSON output is a stable object:
//! `{"diagnostics": [{"code", "severity", "subject", "element"?,
//! "message"}, ...], "tally": {"errors", "warnings", "notes"}}`.

use obskit::json::{ToJson, Value};
use speclint::presets::{conflicting_semantic_input, driving_input, warehouse_input};
use speclint::{sort_diagnostics, Diagnostic, Tally};
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
}

#[derive(Clone, Copy, PartialEq)]
enum Book {
    Driving,
    Warehouse,
    All,
    ConflictDemo,
}

struct Options {
    format: Format,
    deny_warnings: bool,
    book: Book,
}

const USAGE: &str = "usage: speclint [--format human|json] [--deny-warnings] \
                     [--book driving|warehouse|all|conflict-demo]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Human,
        deny_warnings: false,
        book: Book::All,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                let value = args.next().ok_or("--format needs a value")?;
                opts.format = match value.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--book" => {
                let value = args.next().ok_or("--book needs a value")?;
                opts.book = match value.as_str() {
                    "driving" => Book::Driving,
                    "warehouse" => Book::Warehouse,
                    "all" => Book::All,
                    "conflict-demo" => Book::ConflictDemo,
                    other => return Err(format!("unknown book `{other}`")),
                };
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn diagnostics(book: Book) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if matches!(book, Book::Driving | Book::All) {
        diags.extend(speclint::run(&driving_input()));
    }
    if matches!(book, Book::Warehouse | Book::All) {
        diags.extend(speclint::run(&warehouse_input()));
    }
    if book == Book::ConflictDemo {
        diags.extend(speclint::analyze(&conflicting_semantic_input()));
    }
    diags
}

fn json_report(diags: &[Diagnostic], tally: Tally) -> String {
    Value::obj([
        (
            "diagnostics",
            Value::Arr(diags.iter().map(ToJson::to_json).collect()),
        ),
        (
            "tally",
            Value::obj([
                ("errors", tally.errors.to_json()),
                ("warnings", tally.warnings.to_json()),
                ("notes", tally.notes.to_json()),
            ]),
        ),
    ])
    .to_json_pretty()
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut diags = diagnostics(opts.book);
    sort_diagnostics(&mut diags);
    let tally = Tally::of(&diags);

    match opts.format {
        Format::Json => println!("{}", json_report(&diags, tally)),
        Format::Human => {
            for d in &diags {
                println!("{d}");
            }
            println!(
                "speclint: {} error(s), {} warning(s), {} note(s)",
                tally.errors, tally.warnings, tally.notes
            );
        }
    }

    if tally.errors > 0 || (opts.deny_warnings && tally.warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
