//! # bench — benchmark harness and experiment binaries
//!
//! This crate regenerates every table and figure of the paper's
//! evaluation section:
//!
//! | Binary            | Paper artifact |
//! |-------------------|----------------|
//! | `demo`            | §5.1 + Appendix C/D: before/after controllers, Φ₅/Φ₁₂ counterexamples, NuSMV exports |
//! | `fig8`            | Figure 8: DPO loss / accuracy / marginal preference over epochs, 5 seeds |
//! | `fig9`            | Figure 9: #specifications satisfied vs DPO epoch (train/validation) |
//! | `fig11`           | Figure 11: per-specification satisfaction rates in the simulator, before/after |
//! | `fig12`           | Figure 12: detector confidence→accuracy curves, sim vs real |
//! | `fig13`           | Figure 13: per-condition (weather/light) detection accuracy |
//! | `headline`        | Abstract/§1: % specifications satisfied, ~60% → 90%+ |
//! | `ablation_feedback` | A1: formal-verification vs empirical (simulator) ranking consistency, plus end-to-end fine-tuning under each source |
//! | `ablation_lora`   | A2: LoRA rank sweep vs DPO metrics and wall time |
//! | `ablation_m`      | A3: responses-per-prompt `m` vs preference-pair yield and quality |
//! | `ablation_conservative` | A4: pruned vs conservative world-model construction (Algorithm 1) |
//! | `ablation_ipo`    | A5: DPO vs IPO objective on the same dataset |
//! | `spec_lint`       | rule-book satisfiability / tautology / vacuity lint |
//! | `specsem`         | semantic (`SL3xx`) rule-book analysis cost, per rule and phase |
//! | `certified_overhead` | cost of certified model checking vs decide-only scoring |
//! | `obs_overhead`    | cost of the observability recorder and the tracking allocator |
//! | `metrics_check`   | validates a `BENCH_<name>.json` report against the obskit schema |
//! | `bench_diff`      | noise-aware perf-regression gate: a fresh report vs a committed baseline |
//!
//! Performance is measured by the stand-alone `perfbench/` package (the
//! pipeline end to end and per layer) and gated by `bench_diff`, which
//! compares a fresh obskit report against a committed baseline.
//!
//! Run an experiment with `cargo run --release -p bench --bin fig9`.
//! Every binary accepts `--fast` to run a reduced configuration.

pub mod diff;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Every bench binary runs under the obskit tracking allocator. It
/// forwards straight to the system allocator until
/// `obskit::alloc::set_tracking(true)` (the `--alloc` flag) turns the
/// accounting on, so artifact bytes and headline numbers are identical
/// whether or not a run profiles allocations.
#[global_allocator]
static ALLOC: obskit::alloc::TrackingAlloc = obskit::alloc::TrackingAlloc::new();

/// Shared command-line handling for every experiment binary.
///
/// All binaries accept the same observability flags on top of their own:
///
/// | Flag                 | Effect |
/// |----------------------|--------|
/// | `--fast`             | reduced configuration (seconds instead of minutes) |
/// | `--metrics-out <p>`  | write a `BENCH_<name>.json` report ([`obskit::report`] schema) |
/// | `--trace-out <p>`    | write a Chrome trace (open in `chrome://tracing` / Perfetto) |
/// | `--flame-out <p>`    | write a collapsed-stack flamegraph (self-time µs, `flamegraph.pl` format) |
/// | `--alloc`            | turn on allocation accounting (per-span counts/bytes in the report) |
/// | `--no-obs`           | keep the no-op recorder (overhead baseline; also silences progress) |
/// | `--quiet`            | drop the stderr progress sink, keep recording |
/// | `--threads <n>`      | worker-pool width for scoring, pretraining and DPO (0/omitted = `PARKIT_THREADS` or the machine) |
/// | `--no-semantic-preflight` | skip the semantic rule-book gate |
///
/// `--threads` and `--no-semantic-preflight` are pure performance/gating
/// knobs — results are byte-identical whatever you pass (see DESIGN.md
/// §8, §10). A `--threads` value that is not a number, or an output flag
/// with no path after it, is an error.
///
/// [`BenchCli::parse`] enables the global `obskit` recorder (unless
/// `--no-obs`), and [`BenchCli::finish`] snapshots it and writes the
/// requested artifacts.
#[derive(Debug)]
pub struct BenchCli {
    /// Bench name, stamped into the report (`headline`, `fig9`, …).
    pub bench: String,
    /// `--fast` was passed.
    pub fast: bool,
    /// Where to write the `BENCH_<name>.json` report, if anywhere.
    pub metrics_out: Option<PathBuf>,
    /// Where to write the Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Where to write the collapsed-stack flamegraph, if anywhere.
    pub flame_out: Option<PathBuf>,
    /// `--alloc` was passed: turn on allocation accounting.
    pub alloc: bool,
    /// `--no-obs` was passed: leave the no-op recorder selected.
    pub no_obs: bool,
    /// `--threads` value (0 = auto-resolve, the default).
    pub threads: usize,
    /// `--no-semantic-preflight` was passed: skip the semantic rule-book
    /// gate (used by CI to prove the gate never changes artifacts).
    pub no_semantic_preflight: bool,
    /// The raw argument list (recorded in the report for provenance).
    pub args: Vec<String>,
    started: Instant,
}

impl BenchCli {
    /// Parses `std::env::args`, then turns the recorder on (unless
    /// `--no-obs`). Unknown flags are kept for the binary's own parsing.
    /// A malformed flag value prints the error and exits with code 2.
    pub fn parse(bench: &str) -> BenchCli {
        Self::from_args(bench, std::env::args().skip(1).collect()).unwrap_or_else(|e| {
            eprintln!("{bench}: {e}");
            std::process::exit(2)
        })
    }

    /// [`BenchCli::parse`] over an explicit argument list (for tests).
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when `--threads` is not given a
    /// non-negative integer or `--metrics-out`, `--trace-out` or
    /// `--flame-out` is not given a path.
    pub fn from_args(bench: &str, args: Vec<String>) -> Result<BenchCli, String> {
        let mut cli = BenchCli {
            bench: bench.to_owned(),
            fast: false,
            metrics_out: None,
            trace_out: None,
            flame_out: None,
            alloc: false,
            no_obs: false,
            threads: 0,
            no_semantic_preflight: false,
            args: args.clone(),
            started: Instant::now(),
        };
        let mut quiet = false;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--fast" => cli.fast = true,
                "--alloc" => cli.alloc = true,
                "--no-obs" => cli.no_obs = true,
                "--quiet" => quiet = true,
                "--no-semantic-preflight" => cli.no_semantic_preflight = true,
                "--metrics-out" => cli.metrics_out = Some(path_value(&mut it, &arg)?),
                "--trace-out" => cli.trace_out = Some(path_value(&mut it, &arg)?),
                "--flame-out" => cli.flame_out = Some(path_value(&mut it, &arg)?),
                "--threads" => {
                    let value = it.next().unwrap_or_default();
                    cli.threads = value.parse().map_err(|_| {
                        format!("--threads expects a non-negative integer, got `{value}`")
                    })?;
                }
                _ => {}
            }
        }
        if !cli.no_obs {
            obskit::enable();
            obskit::set_console(!quiet);
            obskit::recorder::install_panic_hook();
            if cli.alloc {
                obskit::alloc::set_tracking(true);
            }
        }
        Ok(cli)
    }

    /// Snapshots the recorder and writes the artifacts requested on the
    /// command line. Returns the snapshot so binaries can print from it.
    ///
    /// # Panics
    ///
    /// Panics when a requested output file cannot be written — a bench
    /// run that silently drops its report would poison the perf record.
    #[allow(clippy::expect_used, reason = "a lost report poisons the record")]
    pub fn finish(&self) -> obskit::Snapshot {
        let mut snapshot = obskit::snapshot();
        // The recorder anchor predates parse() by process-startup time;
        // the bench's own clock is the honest wall figure.
        snapshot.wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        if let Some(path) = &self.metrics_out {
            let report = obskit::BenchReport::from_snapshot(&self.bench, &self.args, &snapshot);
            std::fs::write(path, report.to_json())
                .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
            eprintln!("metrics report written to {}", path.display());
        }
        if let Some(path) = &self.trace_out {
            let trace = obskit::chrome::chrome_trace_full(
                &snapshot.span_records,
                &snapshot.events,
                &snapshot.thread_names,
                &snapshot.samples,
                Some(&format!("bench_{}", self.bench)),
            );
            std::fs::write(path, trace)
                .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
            eprintln!(
                "chrome trace written to {} (open in chrome://tracing)",
                path.display()
            );
        }
        if let Some(path) = &self.flame_out {
            let flame = obskit::flame::folded(&snapshot.span_records);
            std::fs::write(path, flame)
                .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
            eprintln!("folded flamegraph written to {}", path.display());
        }
        snapshot
    }

    /// The pipeline configuration implied by this command line: the
    /// shared [`pipeline_config`] reduction for `--fast`, with the
    /// `--threads` and `--no-semantic-preflight` knobs applied.
    pub fn pipeline_config(&self) -> dpo_af::pipeline::PipelineConfig {
        let mut cfg = pipeline_config(self.fast);
        cfg.threads = self.threads;
        cfg.semantic_preflight = !self.no_semantic_preflight;
        cfg
    }
}

/// The path that must follow the output flag `flag`; an error naming the
/// flag when the argument list ends first, so a run never drops its
/// report without saying so.
fn path_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<PathBuf, String> {
    it.next()
        .map(PathBuf::from)
        .ok_or_else(|| format!("{flag} expects a path"))
}

/// Formats a two-column table of `(label, value)` rows.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title}");
    let hdr: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:<w$}", h, w = widths[i]))
        .collect();
    let _ = writeln!(out, "{}", hdr.join("  "));
    let _ = writeln!(
        out,
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        let _ = writeln!(out, "{}", cells.join("  "));
    }
    out
}

/// The standard `--fast` reduction of the pipeline configuration: the
/// same run shape at a fraction of the epochs/corpus, shared by every
/// binary that drives the full DPO-AF pipeline so "fast mode" means the
/// same thing everywhere.
pub fn pipeline_config(fast: bool) -> dpo_af::pipeline::PipelineConfig {
    let mut cfg = dpo_af::pipeline::PipelineConfig::default();
    if fast {
        cfg.train.epochs = 10;
        cfg.iterations = 2;
        cfg.corpus_size = 300;
        cfg.pretrain.epochs = 3;
        cfg.eval_samples = 2;
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    /// All flag parsing, with `--no-obs` so the test does not touch the
    /// process-global recorder (parallel tests must not toggle it).
    #[test]
    fn cli_parses_observability_flags() {
        let cli = BenchCli::from_args(
            "headline",
            args(&[
                "--fast",
                "--no-obs",
                "--metrics-out",
                "out/BENCH_headline.json",
                "--trace-out",
                "/tmp/headline.trace.json",
                "--flame-out",
                "/tmp/headline.folded",
                "--alloc",
                "--threads",
                "4",
                "--no-semantic-preflight",
                "--seeds=3", // unknown flags are left for the binary
            ]),
        )
        .expect("well-formed flags");
        assert_eq!(cli.bench, "headline");
        assert!(cli.fast);
        assert!(cli.no_obs);
        assert_eq!(
            cli.metrics_out.as_deref(),
            Some(std::path::Path::new("out/BENCH_headline.json"))
        );
        assert_eq!(
            cli.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/headline.trace.json"))
        );
        assert_eq!(
            cli.flame_out.as_deref(),
            Some(std::path::Path::new("/tmp/headline.folded"))
        );
        assert!(cli.alloc);
        assert_eq!(cli.threads, 4);
        assert!(cli.no_semantic_preflight);
        assert_eq!(cli.args.len(), 13);

        // The performance knobs land in the pipeline configuration.
        let cfg = cli.pipeline_config();
        assert_eq!(cfg.threads, 4);
        assert!(!cfg.semantic_preflight);
        let defaults = BenchCli::from_args("headline", args(&["--no-obs"])).expect("no values");
        assert_eq!(defaults.threads, 0);
        let cfg = defaults.pipeline_config();
        assert_eq!(cfg.threads, 0);
        assert!(cfg.semantic_preflight);
    }

    /// Every accepted spelling of the valued knobs.
    #[test]
    fn cli_accepts_well_formed_values() {
        for (flags, threads) in [(&["--threads", "0"][..], 0), (&["--threads", "16"][..], 16)] {
            let mut list = vec!["--no-obs"];
            list.extend_from_slice(flags);
            let cli = BenchCli::from_args("headline", args(&list)).expect("well-formed");
            assert_eq!(cli.threads, threads, "{flags:?}");
        }
    }

    /// A malformed `--threads` value, or an output flag with no path, is
    /// an error that names the flag, not a silent fall-back to the
    /// default.
    #[test]
    fn cli_rejects_malformed_values() {
        for (flags, flag) in [
            (&["--threads", "four"][..], "--threads"),
            (&["--threads", "-1"][..], "--threads"),
            (&["--threads"][..], "--threads"),
            (&["--metrics-out"][..], "--metrics-out"),
            (&["--trace-out"][..], "--trace-out"),
            (&["--flame-out"][..], "--flame-out"),
        ] {
            let mut list = vec!["--no-obs"];
            list.extend_from_slice(flags);
            let err = BenchCli::from_args("headline", args(&list)).expect_err("malformed");
            assert!(err.contains(flag), "{flags:?}: {err}");
        }
    }

    #[test]
    fn fast_config_shrinks_the_schedule() {
        let full = pipeline_config(false);
        let fast = pipeline_config(true);
        assert_eq!(full, dpo_af::pipeline::PipelineConfig::default());
        assert!(fast.train.epochs < full.train.epochs);
        assert!(fast.corpus_size < full.corpus_size);
        assert!(fast.iterations < full.iterations);
    }

    #[test]
    fn table_aligns_columns() {
        let t = table(
            "demo",
            &["spec", "before", "after"],
            &[
                vec!["phi_1".into(), "1.00".into(), "1.00".into()],
                vec!["phi_10".into(), "0.50".into(), "0.97".into()],
            ],
        );
        assert!(t.contains("== demo"));
        let lines: Vec<&str> = t.lines().collect();
        // Header and rows start with aligned columns.
        assert!(lines[1].starts_with("spec  "));
        assert!(lines[3].starts_with("phi_1 "));
    }
}
