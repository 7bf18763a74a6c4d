//! Pins the exact output of the explicit checker's exploration on a
//! fixed set of shipped scenario × controller × rule cases.
//!
//! Every `Fails` lasso (stem and cycle, state by state) and every
//! `Holds` certificate (explored pairs and component ranking) is
//! rendered to text and compared byte for byte with a golden file. The
//! product layout inside `ltlcheck::mc` may change how states are
//! indexed and stored; it must not change the BFS discovery order, the
//! Tarjan ranking or the lasso a check returns, because the pipeline's
//! verdict-cache keys, certkit and the headline artifacts all see them.
//!
//! Certificates are pinned through a 64-bit FNV-1a digest of their full
//! contents plus their sizes, so the golden file stays small.
//! To update after a deliberate change:
//! `cargo test -p certkit --test pinned_exploration -- --ignored --nocapture print_pinned`
//! and paste the output into `tests/golden/pinned_exploration.txt`.

#![allow(clippy::expect_used)] // ALLOW: test-only panics are the assertion mechanism.

use certkit::presets::preset_cases;
use ltlcheck::{check_graph_fair_certified, CertifiedVerdict};
use std::fmt::Write as _;

/// The pinned cases: every driving demonstration controller plus the
/// free controller in two worlds, against four rules mixing safety,
/// liveness and response shapes.
const CONTROLLERS: [(&str, &str); 6] = [
    ("TrafficLight", "turn right (before fine-tuning)"),
    ("TrafficLight", "turn right (after fine-tuning)"),
    ("LeftTurnSignal", "turn left (before fine-tuning)"),
    ("LeftTurnSignal", "turn left (after fine-tuning)"),
    ("WideMedian", "free (driving)"),
    ("TwoWayStop", "free (driving)"),
];
const RULES: [&str; 4] = ["phi_1", "phi_5", "phi_7", "phi_11"];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn render() -> String {
    let cases = preset_cases();
    let mut out = String::new();
    for (scenario, controller) in CONTROLLERS {
        let case = cases
            .iter()
            .find(|c| c.scenario == scenario && c.controller == controller)
            .expect("pinned case exists");
        for rule in RULES {
            let spec = case
                .specs
                .iter()
                .find(|s| s.name == rule)
                .expect("pinned rule exists");
            let _ = writeln!(out, "{scenario} / {controller} / {rule}");
            match check_graph_fair_certified(&case.graph, &spec.formula, &case.justice) {
                CertifiedVerdict::Fails(cex) => {
                    let _ = writeln!(
                        out,
                        "  fails stem={} cycle={}",
                        cex.stem.len(),
                        cex.cycle.len()
                    );
                    for (part, steps) in [("stem", &cex.stem), ("cycle", &cex.cycle)] {
                        for s in steps {
                            let _ = writeln!(
                                out,
                                "    {part} p{} q{} props={:#x} acts={:#x}",
                                s.state.model,
                                s.state.ctrl,
                                s.props.bits(),
                                s.acts.bits()
                            );
                        }
                    }
                }
                CertifiedVerdict::Holds(cert) => {
                    let mut hash = 0xcbf2_9ce4_8422_2325u64;
                    for &(g, b) in &cert.states {
                        fnv1a(&mut hash, &g.to_le_bytes());
                        fnv1a(&mut hash, &b.to_le_bytes());
                    }
                    for &c in &cert.comp {
                        fnv1a(&mut hash, &c.to_le_bytes());
                    }
                    let comps = cert.comp.iter().max().map_or(0, |&m| m + 1);
                    let _ = writeln!(
                        out,
                        "  holds buchi={} states={} comps={} fnv={hash:016x}",
                        cert.buchi.num_states(),
                        cert.states.len(),
                        comps
                    );
                }
            }
        }
    }
    out
}

/// The rendered verdicts are byte-identical to the golden file.
#[test]
fn exploration_matches_pinned_golden() {
    let got = render();
    let golden = include_str!("golden/pinned_exploration.txt");
    assert_eq!(
        got, golden,
        "exploration output drifted from tests/golden/pinned_exploration.txt"
    );
}

/// Prints the rendering, for regenerating the golden file.
#[test]
#[ignore]
fn print_pinned() {
    print!("{}", render());
}
