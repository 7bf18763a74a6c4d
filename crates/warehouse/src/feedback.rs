//! The warehouse rule book and automated feedback.

use crate::domain::{WarehouseDomain, WarehouseTask};
use autokit::{ActSet, Product};
use glm2fsa::{synthesize, with_default_action, FsaOptions};
use ltlcheck::analysis::holds_all_fair;
use ltlcheck::specs::Spec;
use ltlcheck::{Justice, Ltl};

/// The eight warehouse rules.
pub fn warehouse_specs(d: &WarehouseDomain) -> Vec<Spec> {
    let human = Ltl::prop(d.human);
    let obstacle = Ltl::prop(d.obstacle);
    let shelf = Ltl::prop(d.shelf);
    let battery = Ltl::prop(d.battery_low);
    let mv = Ltl::act(d.move_forward);
    let pick = Ltl::act(d.pick);
    let place = Ltl::act(d.place);
    let wait = Ltl::act(d.wait);
    let dock = Ltl::act(d.dock);

    let spec = |name: &str, description: &str, formula: Ltl| Spec {
        name: name.to_owned(),
        description: description.to_owned(),
        formula,
    };
    vec![
        spec(
            "w_1",
            "never drive toward a nearby human",
            Ltl::always(Ltl::implies(human.clone(), Ltl::not(mv.clone()))),
        ),
        spec(
            "w_2",
            "a nearby human eventually makes the robot hold position",
            Ltl::always(Ltl::implies(human.clone(), Ltl::eventually(wait.clone()))),
        ),
        spec(
            "w_3",
            "never drive into an obstacle",
            Ltl::always(Ltl::implies(obstacle.clone(), Ltl::not(mv.clone()))),
        ),
        spec(
            "w_4",
            "only pick when a shelf is detected",
            Ltl::always(Ltl::implies(pick.clone(), shelf.clone())),
        ),
        spec(
            "w_5",
            "a low battery eventually sends the robot to the dock",
            Ltl::always(Ltl::implies(battery.clone(), Ltl::eventually(dock.clone()))),
        ),
        spec(
            "w_6",
            "the robot always commits to some action",
            Ltl::always(Ltl::any([
                mv.clone(),
                pick.clone(),
                place.clone(),
                wait.clone(),
                dock.clone(),
            ])),
        ),
        spec(
            "w_7",
            "if shelves keep appearing, a picking robot eventually picks",
            Ltl::implies(
                Ltl::always(Ltl::eventually(shelf.clone())),
                Ltl::eventually(pick.clone()),
            ),
        ),
        spec(
            "w_8",
            "never start a pick on a low battery",
            Ltl::always(Ltl::implies(battery.clone(), Ltl::not(pick.clone()))),
        ),
    ]
}

/// The floor's justice assumption: infinitely often a shelf is in view
/// while the aisle is clear and the battery is fine.
#[allow(clippy::expect_used, reason = "the justice condition is propositional")]
pub fn warehouse_justice(d: &WarehouseDomain) -> Vec<Justice> {
    let condition = Ltl::all([
        Ltl::prop(d.shelf),
        Ltl::not(Ltl::prop(d.human)),
        Ltl::not(Ltl::prop(d.obstacle)),
        Ltl::not(Ltl::prop(d.battery_low)),
    ]);
    vec![Justice::new("aisle clears with a shelf in view", condition)
        .expect("propositional by construction")]
}

/// Scores a response for a task: number of warehouse rules satisfied
/// (0 on alignment failure). The robot's reactive action is `wait`; `ε`
/// defaults to `wait` (an observing robot is a holding robot).
pub fn score_warehouse_response(d: &WarehouseDomain, task: &WarehouseTask, text: &str) -> usize {
    let steps: Vec<String> = text
        .split(';')
        .map(|s| s.trim().trim_end_matches('.').trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect();
    let options = FsaOptions {
        non_blocking: ActSet::singleton(d.wait),
        ..FsaOptions::default()
    };
    let Ok(ctrl) = synthesize(&task.prompt, &steps, &d.lexicon, options) else {
        return 0;
    };
    let ctrl = with_default_action(&ctrl, d.wait);
    let graph = Product::build(&d.floor_model(), &ctrl).label_graph();
    let specs = warehouse_specs(d);
    holds_all_fair(
        &graph,
        specs.iter().map(|s| &s.formula),
        &warehouse_justice(d),
    )
    .into_iter()
    .filter(|&h| h)
    .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::WarehouseStyle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eight_satisfiable_rules() {
        let d = WarehouseDomain::new();
        let specs = warehouse_specs(&d);
        assert_eq!(specs.len(), 8);
        for s in &specs {
            assert!(
                ltlcheck::analysis::satisfiable(&s.formula),
                "{} unsatisfiable",
                s.name
            );
            assert!(
                !ltlcheck::analysis::valid(&s.formula),
                "{} tautology",
                s.name
            );
        }
    }

    #[test]
    fn justice_realizable_on_the_floor() {
        let d = WarehouseDomain::new();
        let model = d.floor_model();
        let justice = warehouse_justice(&d);
        assert!(model.states().any(|s| justice
            .iter()
            .all(|j| j.holds(model.label(s), autokit::ActSet::empty()))));
    }

    #[test]
    fn careful_outranks_hasty_outranks_reckless() {
        let d = WarehouseDomain::new();
        let mut rng = StdRng::seed_from_u64(3);
        let task = &d.tasks[0]; // pick from shelf
        let score = |style, rng: &mut StdRng| {
            let text = d.render(task, style, rng);
            score_warehouse_response(&d, task, &text)
        };
        let careful = score(WarehouseStyle::Careful, &mut rng);
        let hasty = score(WarehouseStyle::Hasty, &mut rng);
        let reckless = score(WarehouseStyle::Reckless, &mut rng);
        let unalignable = score(WarehouseStyle::Unalignable, &mut rng);
        assert!(careful > hasty, "careful {careful} vs hasty {hasty}");
        assert!(hasty > reckless, "hasty {hasty} vs reckless {reckless}");
        assert_eq!(unalignable, 0);
        // w_5 (battery → ◇dock) and w_8 (battery → ¬pick) are cross-task
        // rules a pure picking procedure cannot satisfy, so 6/8 is the
        // careful ceiling here — the same structure as the driving
        // domain's Φ₃ at stop signs.
        assert!(careful >= 6, "careful should satisfy almost all: {careful}");
    }

    #[test]
    fn careful_scores_high_on_every_task() {
        let d = WarehouseDomain::new();
        let mut rng = StdRng::seed_from_u64(4);
        for task in &d.tasks {
            let text = d.render(task, WarehouseStyle::Careful, &mut rng);
            let score = score_warehouse_response(&d, task, &text);
            assert!(score >= 6, "task {} (`{}`): {score}/8", task.id, text);
        }
    }
}
