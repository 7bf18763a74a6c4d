//! Rule-book analysis: satisfiability, equivalences and vacuity of the
//! paper's 15 driving specifications.
//!
//! Run with: `cargo run --example spec_analysis`

use autokit::{presets::DrivingDomain, ActSet, ControllerBuilder, Guard, Product};
use ltlcheck::analysis::{
    equivalent, eval_propositional, reachable_labels, satisfiable, trigger_of,
};
use ltlcheck::specs::driving_specs;
use ltlcheck::{parse, Ltl};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let d = DrivingDomain::new();
    let specs = driving_specs(&d);

    println!("1. All 15 rules are satisfiable (none condemns every controller):");
    for s in &specs {
        assert!(satisfiable(&s.formula));
    }
    println!("   ✓\n");

    println!("2. The spec builder and the parser agree — Φ₃ written both ways:");
    let built = &specs[2].formula;
    let parsed = parse("G(!\"green traffic light\" -> !\"go straight\")", &d.vocab)?;
    assert!(equivalent(built, &parsed));
    println!("   ✓ equivalent\n");

    println!("3. Classic temporal equivalences hold in the engine:");
    let a = Ltl::prop(d.ped_front);
    assert!(equivalent(
        &Ltl::eventually(a.clone()),
        &Ltl::not(Ltl::always(Ltl::not(a.clone())))
    ));
    println!("   ✓ ◇a ≡ ¬□¬a\n");

    println!("4. Vacuity: which rules constrain a wide-median crossing at all?");
    // A maximally permissive controller in the wide-median scenario.
    let mut builder = ControllerBuilder::new("free", 1).initial(0);
    for act in [d.stop, d.turn_left, d.turn_right, d.go_straight] {
        builder = builder.transition(0, Guard::always(), ActSet::singleton(act), 0);
    }
    let free = builder.build()?;
    let model = d.wide_median_model();
    let graph = Product::build(&model, &free).label_graph();
    // A `□(trigger → …)` rule whose trigger is false on every reachable
    // label can never fire here.
    let labels = reachable_labels(&graph);
    for s in &specs {
        let Some(trigger) = trigger_of(&s.formula) else {
            continue;
        };
        if labels
            .iter()
            .all(|&(p, a)| eval_propositional(trigger, p, a) == Some(false))
        {
            println!(
                "   {:>7}: vacuous — antecedent `{}` never occurs here",
                s.name,
                trigger.to_string(&d.vocab)
            );
        }
    }
    println!("\n(rules not listed above genuinely constrain this scenario)");
    Ok(())
}
