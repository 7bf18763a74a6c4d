//! Exports the demonstration controllers as NuSMV modules plus the batch
//! check script — the Appendix D artifacts — so the reproduction's
//! verdicts can be cross-checked against a real NuSMV installation.
//!
//! Run with: `cargo run --example smv_export`

use dpo_af::domain::DomainBundle;
use dpo_af::experiments::demo::{RIGHT_TURN_AFTER, RIGHT_TURN_BEFORE};
use glm2fsa::synthesize;
use ltlcheck::smv;
use ltlcheck::specs::driving_specs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bundle = DomainBundle::new();
    let d = &bundle.driving;
    let specs: Vec<(String, ltlcheck::Ltl)> = driving_specs(d)
        .into_iter()
        .map(|s| (s.name, s.formula))
        .collect();

    for (name, steps) in [
        ("turn_right_before_finetune", &RIGHT_TURN_BEFORE[..]),
        ("turn_right_after_finetune", &RIGHT_TURN_AFTER[..]),
    ] {
        let ctrl = synthesize(name, steps, &bundle.lexicon)?;
        println!("{}", smv::render_module(name, &ctrl, &d.vocab, &specs));
    }

    let spec_names: Vec<String> = specs.iter().map(|(n, _)| n.clone()).collect();
    println!("-- batch script --");
    println!(
        "{}",
        smv::render_check_script("right_turn.smv", &spec_names)
    );
    Ok(())
}
