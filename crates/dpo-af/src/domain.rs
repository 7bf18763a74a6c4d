//! The autonomous-driving task domain: prompts, response templates of
//! graded quality, and the pretraining corpus.
//!
//! The paper starts from Llama2-7B, whose pretraining already contains
//! driving instructions of mixed quality — that mixture is exactly why
//! the pre-fine-tuning model satisfies only ~60% of the specifications.
//! We reproduce the starting point by pretraining `tinylm` on a corpus
//! rendered from the templates here, mixing careful, incomplete, hasty,
//! reckless, wrong-action and unalignable instruction styles.

use autokit::{presets::DrivingDomain, ActId, PropId};
use drivesim::ScenarioKind;
use glm2fsa::Lexicon;
use rand::seq::SliceRandom;
use rand::Rng;
use tinylm::{Token, Tokenizer};

/// One control task the language model is queried about.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Task id — doubles as the conditional LM's prompt id.
    pub id: usize,
    /// Natural-language prompt ("Steps for …").
    pub prompt: String,
    /// The road scenario the task takes place in.
    pub scenario: ScenarioKind,
    /// The maneuver the task asks for.
    pub action: ActId,
    /// The light proposition gating the maneuver, if the scenario has one.
    pub light: Option<PropId>,
    /// Hazards that must be absent before acting.
    pub hazards: Vec<PropId>,
}

/// Instruction quality styles the corpus (and thus the pre-trained model)
/// mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Style {
    /// Observes the light, checks every hazard, then acts. Satisfies the
    /// most specifications.
    Careful,
    /// Checks only some hazards.
    Incomplete,
    /// Waits for the light but skips hazard checks entirely.
    Hasty,
    /// Acts unconditionally.
    Reckless,
    /// A careful-looking procedure for the *wrong* maneuver.
    WrongAction,
    /// Phrasing that cannot be aligned to the propositions/actions at all
    /// (synthesis fails; ranked last).
    Unalignable,
}

impl Style {
    /// All styles.
    pub fn all() -> [Style; 6] {
        [
            Style::Careful,
            Style::Incomplete,
            Style::Hasty,
            Style::Reckless,
            Style::WrongAction,
            Style::Unalignable,
        ]
    }
}

/// Everything the pipeline needs about the domain, bundled: vocabulary,
/// lexicon, task set and tokenizer.
#[derive(Debug, Clone)]
pub struct DomainBundle {
    /// The driving vocabulary and preset models.
    pub driving: DrivingDomain,
    /// The paraphrase lexicon for alignment.
    pub lexicon: Lexicon,
    /// The ten tasks.
    pub tasks: Vec<TaskSpec>,
    /// Word tokenizer covering every template expansion.
    pub tokenizer: Tokenizer,
}

/// Paraphrase surface forms used when *rendering* text (a subset of what
/// the `glm2fsa` lexicon can *parse*, so alignment always has work to do
/// but can succeed on aligned styles).
fn prop_surfaces(d: &DrivingDomain, p: PropId) -> Vec<&'static str> {
    if p == d.green_tl {
        vec!["green traffic light", "green light", "light is green"]
    } else if p == d.green_ll {
        vec![
            "green left-turn light",
            "green arrow",
            "left-turn light is green",
        ]
    } else if p == d.opposite_car {
        vec!["opposite car", "oncoming traffic", "oncoming vehicle"]
    } else if p == d.car_left {
        vec![
            "car from left",
            "car from the left",
            "car approaching from the left",
        ]
    } else if p == d.car_right {
        vec![
            "car from right",
            "car from the right",
            "traffic from your right",
        ]
    } else if p == d.ped_left {
        vec!["pedestrian at left", "pedestrian on the left"]
    } else if p == d.ped_right {
        vec![
            "pedestrian at right",
            "pedestrian on the right",
            "right side pedestrian",
        ]
    } else if p == d.ped_front {
        vec!["pedestrian in front", "pedestrian ahead", "person crossing"]
    } else if p == d.stop_sign {
        vec!["stop sign", "the stop sign"]
    } else {
        vec!["flashing left-turn light"]
    }
}

fn act_surfaces(d: &DrivingDomain, a: ActId) -> Vec<&'static str> {
    if a == d.stop {
        vec!["stop", "come to a stop", "wait"]
    } else if a == d.turn_left {
        vec!["turn left", "make a left turn"]
    } else if a == d.turn_right {
        vec!["turn right", "make a right turn"]
    } else {
        vec!["go straight", "proceed straight", "drive forward"]
    }
}

impl DomainBundle {
    /// Builds the full domain: driving vocabulary, lexicon, the ten tasks
    /// and a tokenizer that covers every renderable response.
    pub fn new() -> Self {
        let driving = DrivingDomain::new();
        let lexicon = Lexicon::driving(&driving);
        let tasks = build_tasks(&driving);

        // Tokenizer corpus: every template surface for every task/style,
        // so sampling can never produce an un-decodable token.
        let mut texts = Vec::new();
        for task in &tasks {
            for style in Style::all() {
                // Enumerate paraphrase combinations coarsely by rendering
                // with several seeds.
                for seed in 0..12u64 {
                    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                        seed * 1009 + task.id as u64 * 13 + style as u64,
                    );
                    texts.push(render_response(&driving, task, style, &mut rng));
                }
            }
        }
        // Also include every lexicon-renderable word used by surfaces.
        let tokenizer = Tokenizer::from_corpus(texts.iter().map(String::as_str));

        DomainBundle {
            driving,
            lexicon,
            tasks,
            tokenizer,
        }
    }

    /// Renders one response for `task` in `style` and encodes it.
    pub fn sample_response_tokens(
        &self,
        task: &TaskSpec,
        style: Style,
        rng: &mut impl Rng,
    ) -> Vec<Token> {
        let text = render_response(&self.driving, task, style, rng);
        self.tokenizer.encode(&text)
    }

    /// Generates a pretraining corpus of `(task_id, tokens)` pairs with
    /// the quality mixture that yields the paper's ~60% pre-fine-tuning
    /// baseline.
    #[allow(clippy::expect_used, reason = "tasks and surface lists are non-empty")]
    pub fn pretraining_corpus(&self, size: usize, rng: &mut impl Rng) -> Vec<(usize, Vec<Token>)> {
        // Calibrated so that controllers sampled from the pre-trained
        // model satisfy ≈9 of 15 specifications — the paper's ~60%
        // pre-fine-tuning baseline.
        let styles = [
            (Style::Careful, 0.15),
            (Style::Incomplete, 0.16),
            (Style::Hasty, 0.21),
            (Style::Reckless, 0.21),
            (Style::WrongAction, 0.05),
            (Style::Unalignable, 0.22),
        ];
        (0..size)
            .map(|_| {
                let task = self.tasks.choose(rng).expect("tasks non-empty");
                let mut draw: f64 = rng.gen();
                let mut style = Style::Careful;
                for (s, w) in styles {
                    if draw < w {
                        style = s;
                        break;
                    }
                    draw -= w;
                }
                (task.id, self.sample_response_tokens(task, style, rng))
            })
            .collect()
    }

    /// Decodes tokens back to response text.
    pub fn decode(&self, tokens: &[Token]) -> String {
        self.tokenizer.decode(tokens)
    }
}

impl Default for DomainBundle {
    fn default() -> Self {
        Self::new()
    }
}

fn build_tasks(d: &DrivingDomain) -> Vec<TaskSpec> {
    let task = |id: usize,
                prompt: &str,
                scenario: ScenarioKind,
                action: ActId,
                light: Option<PropId>,
                hazards: Vec<PropId>| TaskSpec {
        id,
        prompt: prompt.to_owned(),
        scenario,
        action,
        light,
        hazards,
    };
    vec![
        task(
            0,
            "turn right at the traffic light",
            ScenarioKind::TrafficLight,
            d.turn_right,
            Some(d.green_tl),
            vec![d.car_left, d.ped_right],
        ),
        task(
            1,
            "turn left at the traffic light with a left-turn signal",
            ScenarioKind::LeftTurnSignal,
            d.turn_left,
            Some(d.green_ll),
            vec![d.opposite_car],
        ),
        task(
            2,
            "go straight at the traffic light",
            ScenarioKind::TrafficLight,
            d.go_straight,
            Some(d.green_tl),
            vec![d.ped_front],
        ),
        task(
            3,
            "turn right at the stop sign",
            ScenarioKind::TwoWayStop,
            d.turn_right,
            None,
            vec![d.car_left, d.ped_front],
        ),
        task(
            4,
            "turn left at the stop sign",
            ScenarioKind::TwoWayStop,
            d.turn_left,
            None,
            vec![d.car_left, d.car_right],
        ),
        task(
            5,
            "cross the intersection with a wide median",
            ScenarioKind::WideMedian,
            d.go_straight,
            None,
            vec![d.car_left, d.car_right],
        ),
        task(
            6,
            "enter the roundabout",
            ScenarioKind::Roundabout,
            d.turn_right,
            None,
            vec![d.car_left, d.ped_left],
        ),
        task(
            7,
            "turn left at the protected intersection during rush hour",
            ScenarioKind::LeftTurnSignal,
            d.turn_left,
            Some(d.green_ll),
            vec![d.opposite_car, d.ped_front],
        ),
        task(
            8,
            "turn right onto the road with a wide median",
            ScenarioKind::WideMedian,
            d.turn_right,
            None,
            vec![d.car_left],
        ),
        task(
            9,
            "go straight at the two-way stop",
            ScenarioKind::TwoWayStop,
            d.go_straight,
            None,
            vec![d.car_left, d.car_right, d.ped_front],
        ),
    ]
}

#[allow(clippy::expect_used, reason = "a non-empty slice always has a choice")]
fn pick<'a>(options: &[&'a str], rng: &mut impl Rng) -> &'a str {
    options.choose(rng).expect("non-empty surface list")
}

/// Renders a response: step strings joined by ` ; `.
#[allow(clippy::expect_used, reason = "the action set is never empty")]
pub fn render_response(
    d: &DrivingDomain,
    task: &TaskSpec,
    style: Style,
    rng: &mut impl Rng,
) -> String {
    let action = pick(&act_surfaces(d, task.action), rng);
    let steps: Vec<String> = match style {
        Style::Careful | Style::WrongAction | Style::Incomplete => {
            let action = if style == Style::WrongAction {
                // A procedure for some other maneuver.
                let others: Vec<ActId> = [d.stop, d.turn_left, d.turn_right, d.go_straight]
                    .into_iter()
                    .filter(|&a| a != task.action)
                    .collect();
                pick(
                    &act_surfaces(d, *others.choose(rng).expect("non-empty")),
                    rng,
                )
            } else {
                action
            };
            let hazards: Vec<PropId> = if style == Style::Incomplete && task.hazards.len() > 1 {
                // Drop a random hazard check.
                let skip = rng.gen_range(0..task.hazards.len());
                task.hazards
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &h)| h)
                    .collect()
            } else {
                task.hazards.clone()
            };
            let hazard_names: Vec<String> = hazards
                .iter()
                .map(|&h| pick(&prop_surfaces(d, h), rng).to_owned())
                .collect();
            let mut steps = Vec::new();
            let mut guard_parts: Vec<String> = Vec::new();
            if let Some(light) = task.light {
                let light_name = pick(&prop_surfaces(d, light), rng);
                steps.push(format!("observe the {light_name}"));
                if !hazard_names.is_empty() {
                    steps.push(format!(
                        "if the {light_name} is on, check for the {}",
                        hazard_names.join(" and the ")
                    ));
                }
                // The final maneuver stays gated on the light — the shape
                // of the paper's post-fine-tuning controllers (Fig. 7/18).
                guard_parts.push(format!("the {light_name} is on"));
            } else if !hazard_names.is_empty() {
                steps.push(format!("check for the {}", hazard_names.join(" and the ")));
            }
            guard_parts.extend(hazard_names.iter().map(|h| format!("no {h}")));
            if guard_parts.is_empty() {
                steps.push(action.to_owned());
            } else {
                steps.push(format!("if {}, {action}", guard_parts.join(" and ")));
            }
            steps
        }
        Style::Hasty => {
            let mut steps = Vec::new();
            if let Some(light) = task.light {
                let light_name = pick(&prop_surfaces(d, light), rng);
                steps.push(format!("observe the {light_name}"));
                steps.push(format!("if the {light_name} is on, {action}"));
            } else {
                steps.push(format!("slow down and then {action}"));
            }
            steps
        }
        Style::Reckless => {
            vec![pick(&[action, "speed up and go straight"], rng).to_owned()]
        }
        Style::Unalignable => {
            vec![pick(
                &[
                    "use your best judgment",
                    "proceed when it feels safe",
                    "do what the other drivers do",
                    "trust your instincts and merge",
                ],
                rng,
            )
            .to_owned()]
        }
    };
    format!("{} .", steps.join(" ; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use glm2fsa::{split_steps, synthesize};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bundle_builds_with_ten_tasks() {
        let b = DomainBundle::new();
        assert_eq!(b.tasks.len(), 10);
        assert!(b.tokenizer.vocab_size() > 40);
        // Task ids are their indices.
        for (i, t) in b.tasks.iter().enumerate() {
            assert_eq!(t.id, i);
        }
    }

    #[test]
    fn careful_responses_synthesize() {
        let b = DomainBundle::new();
        let mut rng = StdRng::seed_from_u64(0);
        for task in &b.tasks {
            for _ in 0..4 {
                let text = render_response(&b.driving, task, Style::Careful, &mut rng);
                let ctrl = synthesize(&task.prompt, &split_steps(&text), &b.lexicon);
                assert!(ctrl.is_ok(), "task {} text `{}`: {:?}", task.id, text, ctrl);
            }
        }
    }

    #[test]
    fn unalignable_responses_fail_synthesis() {
        let b = DomainBundle::new();
        let mut rng = StdRng::seed_from_u64(1);
        for task in &b.tasks {
            let text = render_response(&b.driving, task, Style::Unalignable, &mut rng);
            assert!(
                synthesize(&task.prompt, &split_steps(&text), &b.lexicon).is_err(),
                "`{text}` should not align"
            );
        }
    }

    #[test]
    fn tokenizer_roundtrips_rendered_responses() {
        let b = DomainBundle::new();
        let mut rng = StdRng::seed_from_u64(2);
        for task in &b.tasks {
            for style in Style::all() {
                let text = render_response(&b.driving, task, style, &mut rng);
                let tokens = b.tokenizer.encode(&text);
                let decoded = b.decode(&tokens);
                assert!(
                    !decoded.contains("<unk>"),
                    "style {style:?} produced OOV words: `{text}` → `{decoded}`"
                );
            }
        }
    }

    #[test]
    fn corpus_mixture_contains_multiple_styles() {
        let b = DomainBundle::new();
        let mut rng = StdRng::seed_from_u64(3);
        let corpus = b.pretraining_corpus(300, &mut rng);
        assert_eq!(corpus.len(), 300);
        // Distinct lengths indicate style diversity.
        let mut lengths: Vec<usize> = corpus.iter().map(|(_, t)| t.len()).collect();
        lengths.sort_unstable();
        lengths.dedup();
        assert!(lengths.len() > 5);
        // Every task appears.
        let mut tasks: Vec<usize> = corpus.iter().map(|&(t, _)| t).collect();
        tasks.sort_unstable();
        tasks.dedup();
        assert_eq!(tasks.len(), 10);
    }
}
