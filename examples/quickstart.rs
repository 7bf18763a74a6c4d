//! Quickstart: build a world model and a controller, verify the
//! controller against temporal-logic rules, and inspect a counterexample.
//!
//! Run with: `cargo run --example quickstart`

use autokit::{ActSet, ControllerBuilder, Guard, Product, PropSet, Vocab, WorldModel};
use ltlcheck::{check_graph_fair, parse, Verdict};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A vocabulary: what the vehicle can observe and do.
    let mut vocab = Vocab::new();
    let green = vocab.add_prop("green traffic light")?;
    let ped = vocab.add_prop("pedestrian in front")?;
    let go = vocab.add_act("go straight")?;
    let stop = vocab.add_act("stop")?;

    // 2. A world model: the light alternates, pedestrians come and go.
    let mut model = WorldModel::new("crossing");
    let mut states = Vec::new();
    for bits in 0..4u32 {
        let mut label = PropSet::empty();
        if bits & 1 != 0 {
            label.insert(green);
        }
        if bits & 2 != 0 {
            label.insert(ped);
        }
        states.push(model.add_state(label));
    }
    for &a in &states {
        for &b in &states {
            model.add_transition(a, b); // fully non-deterministic environment
        }
    }

    // 3. Two controllers: a careful one and a hasty one.
    let careful = ControllerBuilder::new("careful", 1)
        .initial(0)
        .transition(
            0,
            Guard::always().requires(green).forbids(ped),
            ActSet::singleton(go),
            0,
        )
        .transition(
            0,
            Guard::always().forbids(green),
            ActSet::singleton(stop),
            0,
        )
        .transition(0, Guard::always().requires(ped), ActSet::singleton(stop), 0)
        .build()?;
    let hasty = ControllerBuilder::new("hasty", 1)
        .initial(0)
        .transition(0, Guard::always().requires(green), ActSet::singleton(go), 0)
        .transition(
            0,
            Guard::always().forbids(green),
            ActSet::singleton(stop),
            0,
        )
        .build()?;

    // 4. A safety rule: never drive into a pedestrian.
    let rule = parse("G(\"go straight\" -> !\"pedestrian in front\")", &vocab)?;

    for ctrl in [&careful, &hasty] {
        let graph = Product::build(&model, ctrl).label_graph();
        match check_graph_fair(&graph, &rule, &[]) {
            Verdict::Holds => println!("{}: rule holds", ctrl.name()),
            Verdict::Fails(cex) => {
                println!("{}: rule VIOLATED. Counterexample:", ctrl.name());
                println!("{}", cex.display(&vocab));
            }
        }
    }
    Ok(())
}
