//! Drive a multi-leg commute with synthesized controllers: the
//! operational composition of the paper's transfer claim (§5.3) — each
//! intersection on a route is handled by the controller synthesized for
//! that situation, and the mission either completes safely or the log
//! shows exactly which leg went wrong.
//!
//! Run with: `cargo run --example commute`

use autokit::Controller;
use dpo_af::domain::{render_response, DomainBundle, Style};
use dpo_af::feedback::fsa_options;
use drivesim::{drive_route, Route, ScenarioConfig};
use glm2fsa::{synthesize, with_default_action};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[allow(clippy::expect_used, reason = "the commute legs are fixed")]
fn leg_controller(bundle: &DomainBundle, style: Style, leg: usize, rng: &mut StdRng) -> Controller {
    // Pick the task matching the leg's scenario and maneuver.
    let d = &bundle.driving;
    let route = Route::commute(d);
    let target = &route.legs[leg];
    let task = bundle
        .tasks
        .iter()
        .find(|t| t.scenario == target.scenario && target.completes_on.contains(t.action))
        .expect("every commute leg has a matching task");
    let text = render_response(d, task, style, rng);
    let steps = DomainBundle::split_steps(&text);
    let ctrl = synthesize(&task.prompt, &steps, &bundle.lexicon, fsa_options(d))
        .expect("careful/hasty templates align");
    with_default_action(&ctrl, d.stop)
}

fn main() {
    let bundle = DomainBundle::new();
    let d = &bundle.driving;
    let route = Route::commute(d);
    let mut rng = StdRng::seed_from_u64(11);

    for style in [Style::Careful, Style::Hasty] {
        let controllers: Vec<Controller> = (0..route.legs.len())
            .map(|leg| leg_controller(&bundle, style, leg, &mut rng))
            .collect();
        let mut episodes_completed = 0;
        let mut total_incidents = 0;
        let episodes = 30;
        for seed in 0..episodes {
            let mut ep_rng = StdRng::seed_from_u64(1000 + seed);
            let outcome = drive_route(
                &route,
                &controllers,
                d,
                ScenarioConfig::default(),
                &mut ep_rng,
                80,
            );
            if outcome.completed {
                episodes_completed += 1;
            }
            total_incidents += outcome.incidents.len();
        }
        println!(
            "{style:?} controllers: {episodes_completed}/{episodes} commutes completed, \
             {total_incidents} incidents"
        );
    }
    println!(
        "\ncareful (verification-preferred) controllers complete the commute with far\n\
         fewer incidents — the operational payoff of the DPO-AF feedback signal."
    );
}
