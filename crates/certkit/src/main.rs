//! The certkit CI gate.
//!
//! Runs three suites, each through [`certkit::differential`]: every
//! spec suite is decided in one `holds_all_fair` call, as scoring
//! decides it, and certified spec by spec, with the certified evidence
//! validated by the independent checker. The gate exits non-zero if any
//! evidence is rejected or any decide-only verdict differs.
//!
//! 1. **Preset certification** — every preset scenario × rule-book case.
//! 2. **Randomized cases** — seeded random graphs and formulas
//!    (mirroring the proptest generators), half of them under a justice
//!    assumption.
//! 3. **Scaled models** — scaled-up world models (`drivesim::scaled`,
//!    the warehouse grid corridor) against their domain rule books, whose
//!    products are far larger than the presets'.
//!
//! Every disagreement is minimized and dumped as a JSON repro file
//! (`certkit-repro-*.json`) before exiting.
//!
//! Usage: `certkit [--random N] [--seed S]`

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a CI gate binary")]

use autokit::{ActSet, LabelGraph, ProductState, PropSet, Vocab};
use certkit::differential::{differential, repro_json, Disagreement};
use ltlcheck::{Justice, Ltl};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut random_cases: usize = 200;
    let mut seed: u64 = 0x00C0_FFEE;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--random" => {
                random_cases = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--random takes a count");
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes a u64");
            }
            other => {
                eprintln!("usage: certkit [--random N] [--seed S] (got `{other}`)");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut repros = 0usize;

    // --- suite 1: preset certification + differential -------------------
    println!("certkit: certifying preset scenario × rule-book matrix...");
    let report = match certkit::certify_presets() {
        Ok(r) => r,
        Err((name, e)) => {
            eprintln!("certkit: FAIL: verdict evidence rejected on {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "certkit: ok: {} cases, {} checks ({} holds, {} fails) all certified",
        report.cases, report.checks, report.holds, report.fails
    );
    for (name, dis) in &report.disagreements {
        report_disagreement(name, dis, &mut repros);
    }
    if repros == 0 {
        println!(
            "certkit: ok: {} preset checks, decide-only agrees with certified",
            report.checks
        );
    }

    // --- suite 2: randomized differential + certification ----------------
    println!(
        "certkit: randomized differential + certification ({random_cases} cases, seed {seed})..."
    );
    let vocab = gate_vocab();
    let justice_pool = [
        Vec::new(),
        vec![Justice::new("a io", ltlcheck::parse("a", &vocab).unwrap()).unwrap()],
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cert_failures = 0usize;
    for case in 0..random_cases {
        let graph = random_graph(&mut rng, &vocab);
        let phi = random_formula(&mut rng, &vocab, 3);
        let justice = &justice_pool[case % justice_pool.len()];
        match differential(&graph, [&phi], justice) {
            Ok(suite) => {
                for (_, dis) in &suite.disagreements {
                    report_disagreement(&format!("random case {case}"), dis, &mut repros);
                }
            }
            Err((_, e)) => {
                eprintln!("certkit: FAIL: random case {case}: evidence rejected: {e}");
                cert_failures += 1;
            }
        }
    }
    if repros == 0 && cert_failures == 0 {
        println!(
            "certkit: ok: {random_cases} random cases, decide-only agrees with certified, all certified"
        );
    }

    // --- suite 3: scaled-model differential -------------------------------
    println!("certkit: scaled-model differential...");
    let started = std::time::Instant::now();
    let mut scaled_checks = 0usize;
    for case in scaled_cases() {
        let formulas = case.specs.iter().map(|s| &s.formula);
        match differential(&case.graph, formulas, &case.justice) {
            Ok(suite) => {
                scaled_checks += suite.certified.len();
                for (i, dis) in &suite.disagreements {
                    let name = format!("{} × {}", case.name, case.specs[*i].name);
                    report_disagreement(&name, dis, &mut repros);
                }
            }
            Err((i, e)) => {
                let name = format!("{} × {}", case.name, case.specs[i].name);
                eprintln!("certkit: FAIL: {name}: evidence rejected: {e}");
                cert_failures += 1;
            }
        }
    }
    if repros == 0 && cert_failures == 0 {
        println!(
            "certkit: ok: {scaled_checks} scaled checks in {:.1?}, decide-only agrees with certified, all certified",
            started.elapsed()
        );
    }

    if repros == 0 && cert_failures == 0 {
        println!("certkit: gate passed");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "certkit: gate FAILED: {repros} decide-only disagreement(s), {cert_failures} rejected verdict(s)"
        );
        ExitCode::FAILURE
    }
}

/// Prints and dumps one (already minimized) disagreement.
fn report_disagreement(name: &str, dis: &Disagreement, repros: &mut usize) {
    eprintln!(
        "certkit: FAIL: {name}: decide-only says {}, certified says {}",
        verdict_word(dis.decided_holds),
        verdict_word(dis.certified_holds)
    );
    let path = format!("certkit-repro-{}.json", *repros);
    match std::fs::write(&path, repro_json(dis)) {
        Ok(()) => eprintln!(
            "certkit:       minimized to {} node(s), formula size {}; repro written to {path}",
            dis.graph.num_nodes(),
            dis.phi.size()
        ),
        Err(e) => eprintln!("certkit:       could not write {path}: {e}"),
    }
    *repros += 1;
}

fn verdict_word(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "fails"
    }
}

/// One scaled differential case: a product label graph, the specs to
/// check, and the justice assumptions in force.
struct ScaledCase {
    name: String,
    graph: LabelGraph,
    specs: Vec<ltlcheck::specs::Spec>,
    justice: Vec<Justice>,
}

/// The scaled cases: a 64-label conservative traffic world and a
/// 6-aisle warehouse corridor, each verified against its domain rule
/// book.
fn scaled_cases() -> Vec<ScaledCase> {
    use autokit::Product;
    let mut cases = Vec::new();

    let d = autokit::presets::DrivingDomain::new();
    let lex = glm2fsa::Lexicon::driving(&d);
    let ctrl = glm2fsa::synthesize(
        "turn right",
        &["If no car from the left and no pedestrian at your right, turn right."],
        &lex,
        glm2fsa::FsaOptions::default(),
    )
    .expect("canonical steps align");
    let ctrl = glm2fsa::with_default_action(&ctrl, d.stop);
    let model = drivesim::scaled::scaled_conservative_model(&d, 64);
    cases.push(ScaledCase {
        name: "driving/conservative-64".to_owned(),
        graph: Product::build(&model, &ctrl).label_graph(),
        specs: ltlcheck::specs::driving_specs(&d),
        justice: Vec::new(),
    });

    let w = warehouse::WarehouseDomain::new();
    let (task_name, steps) = speclint::presets::WAREHOUSE_STEPS[2];
    let options = glm2fsa::FsaOptions {
        non_blocking: ActSet::singleton(w.wait),
        ..glm2fsa::FsaOptions::default()
    };
    let ctrl = glm2fsa::synthesize(task_name, steps, &w.lexicon, options)
        .expect("canonical warehouse steps align");
    let ctrl = glm2fsa::with_default_action(&ctrl, w.wait);
    let model = w.scaled_floor_model(6);
    cases.push(ScaledCase {
        name: "warehouse/corridor-6".to_owned(),
        graph: Product::build(&model, &ctrl).label_graph(),
        specs: warehouse::warehouse_specs(&w),
        justice: warehouse::warehouse_justice(&w),
    });

    cases
}

/// The gate's random-case vocabulary: two propositions and one action,
/// mirroring the in-crate proptest generators.
fn gate_vocab() -> Vocab {
    let mut v = Vocab::new();
    v.add_prop("a").unwrap();
    v.add_prop("b").unwrap();
    v.add_act("s").unwrap();
    v
}

/// A random non-blocking label graph over the gate vocabulary: 1–6 nodes
/// with random labels, random edges, self-loops patched in where a node
/// would deadlock.
fn random_graph(rng: &mut StdRng, v: &Vocab) -> LabelGraph {
    let a = v.prop("a").unwrap();
    let b = v.prop("b").unwrap();
    let s = v.act("s").unwrap();
    let n = rng.gen_range(1usize..=6);
    let labels: Vec<(PropSet, ActSet)> = (0..n)
        .map(|_| {
            let mut props = PropSet::empty();
            if rng.gen_bool(0.5) {
                props.insert(a);
            }
            if rng.gen_bool(0.5) {
                props.insert(b);
            }
            let mut acts = ActSet::empty();
            if rng.gen_bool(0.5) {
                acts.insert(s);
            }
            (props, acts)
        })
        .collect();
    let mut succs = vec![Vec::new(); n];
    let edges = rng.gen_range(1usize..=2 * n);
    for _ in 0..edges {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        if !succs[from].contains(&to) {
            succs[from].push(to);
        }
    }
    for (i, out) in succs.iter_mut().enumerate() {
        if out.is_empty() {
            out.push(i);
        }
    }
    LabelGraph {
        origin: (0..n).map(|i| ProductState { model: i, ctrl: 0 }).collect(),
        labels,
        succs,
        initial: vec![0],
    }
}

/// A random LTL formula of bounded depth over the gate vocabulary.
fn random_formula(rng: &mut StdRng, v: &Vocab, depth: usize) -> Ltl {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    if leaf {
        match rng.gen_range(0u8..5) {
            0 => Ltl::True,
            1 => Ltl::False,
            2 => Ltl::prop(v.prop("a").unwrap()),
            3 => Ltl::prop(v.prop("b").unwrap()),
            _ => Ltl::act(v.act("s").unwrap()),
        }
    } else {
        match rng.gen_range(0u8..6) {
            0 => Ltl::not(random_formula(rng, v, depth - 1)),
            1 => Ltl::next(random_formula(rng, v, depth - 1)),
            2 => Ltl::and(
                random_formula(rng, v, depth - 1),
                random_formula(rng, v, depth - 1),
            ),
            3 => Ltl::or(
                random_formula(rng, v, depth - 1),
                random_formula(rng, v, depth - 1),
            ),
            4 => Ltl::until(
                random_formula(rng, v, depth - 1),
                random_formula(rng, v, depth - 1),
            ),
            _ => Ltl::release(
                random_formula(rng, v, depth - 1),
                random_formula(rng, v, depth - 1),
            ),
        }
    }
}
