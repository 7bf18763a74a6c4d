//! Empirical evaluation: run synthesized controllers in the driving
//! simulator, monitor the traces against the specifications (LTLf), and
//! report incidents — the paper's Carla-based evaluation path.
//!
//! Run with: `cargo run --example drive_simulation`

use dpo_af::domain::DomainBundle;
use dpo_af::experiments::demo::{RIGHT_TURN_AFTER, RIGHT_TURN_BEFORE};
use drivesim::{detect_incidents, ground_many, Scenario, ScenarioConfig, ScenarioKind};
use glm2fsa::synthesize;
use ltlcheck::specs::headline_specs;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bundle = DomainBundle::new();
    let d = &bundle.driving;
    let mut rng = StdRng::seed_from_u64(42);

    for (label, steps) in [
        ("before fine-tuning", &RIGHT_TURN_BEFORE[..]),
        ("after fine-tuning", &RIGHT_TURN_AFTER[..]),
    ] {
        let ctrl = synthesize("turn right", steps, &bundle.lexicon)?;

        let mut scenario = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
        let traces = ground_many(&ctrl, &mut scenario, d, &mut rng, 60, 50);

        println!("== right-turn controller, {label}");
        for spec in headline_specs(d) {
            let rate = ltlcheck::finite::satisfaction_rate(traces.iter(), &spec.formula);
            println!("  {:>7}  P = {rate:.2}   ({})", spec.name, spec.description);
        }
        let incidents: usize = traces.iter().map(|t| detect_incidents(t, d).len()).sum();
        println!(
            "  incidents across {} episodes: {incidents}\n",
            traces.len()
        );
    }
    println!("(one 60-tick episode of the first controller, for flavour:)");
    let ctrl = synthesize("turn right", &RIGHT_TURN_BEFORE, &bundle.lexicon)?;
    let mut scenario = Scenario::new(ScenarioKind::TrafficLight, ScenarioConfig::default());
    let trace = drivesim::ground(&ctrl, &mut scenario, d, &mut rng, 12);
    print!("{}", trace.display(&d.vocab));
    Ok(())
}
