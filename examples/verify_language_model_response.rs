//! From natural language to a verified controller: align a step list
//! against the driving lexicon, compile it with GLM2FSA, and check it
//! against the paper's 15 driving rules — the automated-feedback core of
//! DPO-AF.
//!
//! Run with: `cargo run --example verify_language_model_response`

use autokit::ToDot;
use dpo_af::domain::DomainBundle;
use dpo_af::feedback::score_response;
use ltlcheck::specs::driving_specs;

fn main() {
    let bundle = DomainBundle::new();
    let task = &bundle.tasks[0]; // "turn right at the traffic light"

    // A response a language model might produce, with paraphrases the
    // alignment stage must canonicalize.
    let response = "Watch for the green light ; \
                    if the green light is on, check for oncoming traffic and the right side pedestrian ; \
                    if no car approaching from the left and no pedestrian on the right, make a right turn .";

    println!("task:     {}", task.prompt);
    println!("response: {response}\n");

    println!("aligned:  {}\n", bundle.lexicon.align(response));

    let scored = score_response(&bundle, task, response);
    match &scored.controller {
        Some(ctrl) => {
            println!("synthesized controller ({} states):\n", ctrl.num_states());
            println!("{}", ctrl.to_dot(&bundle.driving.vocab));
            println!(
                "verification: {}/15 specifications satisfied; failed: {:?}",
                scored.num_satisfied,
                scored.failed(&driving_specs(&bundle.driving))
            );
        }
        None => println!("response failed to align — it would rank last as DPO feedback"),
    }
}
