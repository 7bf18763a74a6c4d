//! The warehouse robot's vocabulary, world model, tasks, lexicon and
//! response templates.

use autokit::{ActId, PropId, PropSet, Vocab, WorldModel};
use glm2fsa::Lexicon;
use rand::seq::SliceRandom;
use rand::Rng;
use tinylm::{Token, Tokenizer};

/// One robot task (doubles as the conditional LM's prompt id).
#[derive(Debug, Clone, PartialEq)]
pub struct WarehouseTask {
    /// Task id.
    pub id: usize,
    /// Natural-language prompt.
    pub prompt: String,
    /// The task's goal action.
    pub action: ActId,
    /// Propositions that must hold before acting (e.g. a shelf must be
    /// detected before picking).
    pub requires: Vec<PropId>,
    /// Hazards that must be absent before acting.
    pub hazards: Vec<PropId>,
}

/// Instruction quality styles, the warehouse analogue of the driving
/// corpus mixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarehouseStyle {
    /// Checks prerequisites and hazards, then acts.
    Careful,
    /// Skips the hazard checks.
    Hasty,
    /// Acts unconditionally.
    Reckless,
    /// Cannot be aligned to the vocabulary.
    Unalignable,
}

impl WarehouseStyle {
    /// All styles.
    pub fn all() -> [WarehouseStyle; 4] {
        [
            WarehouseStyle::Careful,
            WarehouseStyle::Hasty,
            WarehouseStyle::Reckless,
            WarehouseStyle::Unalignable,
        ]
    }
}

/// The assembled domain.
#[derive(Debug, Clone)]
pub struct WarehouseDomain {
    /// Propositions and actions.
    pub vocab: Vocab,
    /// `human nearby`
    pub human: PropId,
    /// `obstacle ahead`
    pub obstacle: PropId,
    /// `shelf detected`
    pub shelf: PropId,
    /// `battery low`
    pub battery_low: PropId,
    /// `move forward`
    pub move_forward: ActId,
    /// `pick item`
    pub pick: ActId,
    /// `place item`
    pub place: ActId,
    /// `wait`
    pub wait: ActId,
    /// `dock`
    pub dock: ActId,
    /// The four tasks.
    pub tasks: Vec<WarehouseTask>,
    /// Alignment lexicon.
    pub lexicon: Lexicon,
    /// Tokenizer over every template expansion.
    pub tokenizer: Tokenizer,
}

impl Default for WarehouseDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl WarehouseDomain {
    /// Builds the warehouse domain.
    #[allow(clippy::expect_used, reason = "distinct literals, fresh vocabulary")]
    pub fn new() -> Self {
        let mut vocab = Vocab::new();
        let human = vocab.add_prop("human nearby").expect("fresh vocab");
        let obstacle = vocab.add_prop("obstacle ahead").expect("fresh vocab");
        let shelf = vocab.add_prop("shelf detected").expect("fresh vocab");
        let battery_low = vocab.add_prop("battery low").expect("fresh vocab");
        let move_forward = vocab.add_act("move forward").expect("fresh vocab");
        let pick = vocab.add_act("pick item").expect("fresh vocab");
        let place = vocab.add_act("place item").expect("fresh vocab");
        let wait = vocab.add_act("wait").expect("fresh vocab");
        let dock = vocab.add_act("dock").expect("fresh vocab");

        // A warehouse robot that observes or waits holds position.
        let mut lexicon = Lexicon::new(&vocab, wait);
        for (phrase, p) in [
            ("person in the aisle", human),
            ("someone nearby", human),
            ("worker close by", human),
            ("path is blocked", obstacle),
            ("something in the way", obstacle),
            ("blocked aisle", obstacle),
            ("storage rack", shelf),
            ("target shelf", shelf),
            ("shelf in view", shelf),
            ("power is low", battery_low),
            ("low charge", battery_low),
            ("battery is low", battery_low),
        ] {
            lexicon.add_prop_phrase(phrase, p);
        }
        for (phrase, a) in [
            ("drive forward", move_forward),
            ("advance", move_forward),
            ("proceed down the aisle", move_forward),
            ("grab the item", pick),
            ("pick up the item", pick),
            ("retrieve the item", pick),
            ("set the item down", place),
            ("drop off the item", place),
            ("deposit the item", place),
            ("hold position", wait),
            ("stand by", wait),
            ("return to the charger", dock),
            ("go charge", dock),
            ("head to the dock", dock),
        ] {
            lexicon.add_act_phrase(phrase, a);
        }

        let tasks = vec![
            WarehouseTask {
                id: 0,
                prompt: "pick an item from the shelf".to_owned(),
                action: pick,
                requires: vec![shelf],
                hazards: vec![human, obstacle],
            },
            WarehouseTask {
                id: 1,
                prompt: "deliver the item to the packing station".to_owned(),
                action: place,
                requires: vec![],
                hazards: vec![human, obstacle],
            },
            WarehouseTask {
                id: 2,
                prompt: "patrol the aisle".to_owned(),
                action: move_forward,
                requires: vec![],
                hazards: vec![human, obstacle],
            },
            WarehouseTask {
                id: 3,
                prompt: "recharge when the battery is low".to_owned(),
                action: dock,
                requires: vec![battery_low],
                hazards: vec![human],
            },
        ];

        // Tokenizer corpus from template expansions.
        let mut domain = WarehouseDomain {
            vocab,
            human,
            obstacle,
            shelf,
            battery_low,
            move_forward,
            pick,
            place,
            wait,
            dock,
            tasks,
            lexicon,
            tokenizer: Tokenizer::from_corpus(Vec::<String>::new()),
        };
        let mut texts = Vec::new();
        for task in domain.tasks.clone() {
            for style in WarehouseStyle::all() {
                for seed in 0..10u64 {
                    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                        seed * 37 + task.id as u64,
                    );
                    texts.push(domain.render(&task, style, &mut rng));
                }
            }
        }
        domain.tokenizer = Tokenizer::from_corpus(texts.iter().map(String::as_str));
        domain
    }

    /// The warehouse floor's world model: humans, obstacles, shelves and
    /// battery state toggle one at a time.
    pub fn floor_model(&self) -> WorldModel {
        let props = [self.human, self.obstacle, self.shelf, self.battery_low];
        let labels: Vec<PropSet> = (0..(1u32 << props.len()))
            .map(|mask| {
                let mut l = PropSet::empty();
                for (i, &p) in props.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        l.insert(p);
                    }
                }
                l
            })
            .collect();
        let mut model = WorldModel::new("warehouse floor");
        let states: Vec<_> = labels.iter().map(|&l| model.add_state(l)).collect();
        for (i, &li) in labels.iter().enumerate() {
            for (j, &lj) in labels.iter().enumerate() {
                if (li.bits() ^ lj.bits()).count_ones() <= 1 {
                    model.add_transition(states[i], states[j]);
                }
            }
        }
        model
    }

    /// A scaled warehouse floor: `aisles` copies of the 16-label floor
    /// laid out as a grid corridor. Within an aisle the floor evolves as
    /// in [`floor_model`](Self::floor_model) (labels toggle one
    /// proposition at a time); the robot can also move to the same
    /// situation in an adjacent aisle. State count grows linearly in
    /// `aisles` with sparse, structured transitions — the grid-world
    /// counterpart to `drivesim`'s dense scaled traffic models, and one
    /// of the scaled cases of the `certkit` differential gate.
    ///
    /// # Panics
    ///
    /// Panics if `aisles` is zero.
    pub fn scaled_floor_model(&self, aisles: usize) -> WorldModel {
        assert!(aisles > 0, "at least one aisle");
        let props = [self.human, self.obstacle, self.shelf, self.battery_low];
        let labels: Vec<PropSet> = (0..(1u32 << props.len()))
            .map(|mask| {
                let mut l = PropSet::empty();
                for (i, &p) in props.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        l.insert(p);
                    }
                }
                l
            })
            .collect();
        let per = labels.len();
        let mut model = WorldModel::new(format!("warehouse floor ({aisles} aisles)"));
        let mut states = Vec::with_capacity(aisles * per);
        for _ in 0..aisles {
            for &l in &labels {
                states.push(model.add_state(l));
            }
        }
        for aisle in 0..aisles {
            for (i, &li) in labels.iter().enumerate() {
                for (j, &lj) in labels.iter().enumerate() {
                    if (li.bits() ^ lj.bits()).count_ones() <= 1 {
                        model.add_transition(states[aisle * per + i], states[aisle * per + j]);
                    }
                }
                // Corridor moves: same situation, adjacent aisle.
                if aisle + 1 < aisles {
                    model.add_transition(states[aisle * per + i], states[(aisle + 1) * per + i]);
                    model.add_transition(states[(aisle + 1) * per + i], states[aisle * per + i]);
                }
            }
        }
        model
    }

    #[allow(clippy::expect_used, reason = "a non-empty slice always has a choice")]
    fn prop_phrase<'a>(&self, p: PropId, rng: &mut impl Rng) -> &'a str {
        let options: &[&str] = if p == self.human {
            &["human nearby", "person in the aisle", "someone nearby"]
        } else if p == self.obstacle {
            &["obstacle ahead", "path is blocked", "something in the way"]
        } else if p == self.shelf {
            &["shelf detected", "storage rack", "target shelf"]
        } else {
            &["battery low", "power is low", "low charge"]
        };
        options.choose(rng).expect("non-empty")
    }

    #[allow(clippy::expect_used, reason = "a non-empty slice always has a choice")]
    fn act_phrase<'a>(&self, a: ActId, rng: &mut impl Rng) -> &'a str {
        let options: &[&str] = if a == self.move_forward {
            &["move forward", "drive forward", "advance"]
        } else if a == self.pick {
            &["pick item", "grab the item", "pick up the item"]
        } else if a == self.place {
            &["place item", "set the item down", "deposit the item"]
        } else if a == self.wait {
            &["wait", "hold position", "stand by"]
        } else {
            &["dock", "return to the charger", "go charge"]
        };
        options.choose(rng).expect("non-empty")
    }

    /// Renders one response for a task in a style (steps `;`-separated).
    #[allow(clippy::expect_used, reason = "a non-empty slice always has a choice")]
    pub fn render(
        &self,
        task: &WarehouseTask,
        style: WarehouseStyle,
        rng: &mut impl Rng,
    ) -> String {
        let action = self.act_phrase(task.action, rng);
        let steps: Vec<String> = match style {
            WarehouseStyle::Careful => {
                let mut guard_parts: Vec<String> = Vec::new();
                let mut steps = Vec::new();
                if !task.requires.is_empty() {
                    let names: Vec<&str> = task
                        .requires
                        .iter()
                        .map(|&p| self.prop_phrase(p, rng))
                        .collect();
                    steps.push(format!("check for the {}", names.join(" and the ")));
                    guard_parts.extend(names.iter().map(|n| n.to_string()));
                }
                let hazard_names: Vec<&str> = task
                    .hazards
                    .iter()
                    .map(|&p| self.prop_phrase(p, rng))
                    .collect();
                if !hazard_names.is_empty() {
                    steps.push(format!("observe the {}", hazard_names.join(" and the ")));
                }
                guard_parts.extend(hazard_names.iter().map(|n| format!("no {n}")));
                steps.push(format!("if {}, {action}", guard_parts.join(" and ")));
                steps
            }
            WarehouseStyle::Hasty => {
                let mut steps = Vec::new();
                if let Some(&req) = task.requires.first() {
                    let name = self.prop_phrase(req, rng);
                    steps.push(format!("if {name}, {action}"));
                } else {
                    steps.push(action.to_owned());
                }
                steps
            }
            WarehouseStyle::Reckless => vec![action.to_owned()],
            WarehouseStyle::Unalignable => vec![[
                "do whatever seems best",
                "improvise as needed",
                "figure it out",
            ]
            .choose(rng)
            .expect("non-empty")
            .to_string()],
        };
        format!("{} .", steps.join(" ; "))
    }

    /// Renders and encodes a response.
    pub fn render_tokens(
        &self,
        task: &WarehouseTask,
        style: WarehouseStyle,
        rng: &mut impl Rng,
    ) -> Vec<Token> {
        let text = self.render(task, style, rng);
        self.tokenizer.encode(&text)
    }

    /// A pretraining corpus with a deliberately mixed quality profile.
    #[allow(clippy::expect_used, reason = "a non-empty slice always has a choice")]
    pub fn corpus(&self, size: usize, rng: &mut impl Rng) -> Vec<(usize, Vec<Token>)> {
        let styles = [
            (WarehouseStyle::Careful, 0.30),
            (WarehouseStyle::Hasty, 0.30),
            (WarehouseStyle::Reckless, 0.20),
            (WarehouseStyle::Unalignable, 0.20),
        ];
        (0..size)
            .map(|_| {
                let task = self.tasks.choose(rng).expect("non-empty").clone();
                let mut draw: f64 = rng.gen();
                let mut style = WarehouseStyle::Careful;
                for (s, w) in styles {
                    if draw < w {
                        style = s;
                        break;
                    }
                    draw -= w;
                }
                (task.id, self.render_tokens(&task, style, rng))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn domain_builds() {
        let d = WarehouseDomain::new();
        assert_eq!(d.vocab.num_props(), 4);
        assert_eq!(d.vocab.num_acts(), 5);
        assert_eq!(d.tasks.len(), 4);
        assert!(d.tokenizer.vocab_size() > 20);
    }

    #[test]
    fn floor_model_single_change_dynamics() {
        let d = WarehouseDomain::new();
        let m = d.floor_model();
        assert_eq!(m.num_states(), 16);
        for s in m.states() {
            for &t in m.successors(s) {
                assert!((m.label(s).bits() ^ m.label(t).bits()).count_ones() <= 1);
            }
        }
    }

    #[test]
    fn careful_templates_align_and_encode() {
        let d = WarehouseDomain::new();
        let mut rng = StdRng::seed_from_u64(0);
        for task in &d.tasks {
            let text = d.render(task, WarehouseStyle::Careful, &mut rng);
            let steps = glm2fsa::split_steps(&text);
            let ctrl = glm2fsa::synthesize(&task.prompt, &steps, &d.lexicon);
            assert!(ctrl.is_ok(), "`{text}`: {ctrl:?}");
            let tokens = d.tokenizer.encode(&text);
            assert!(!d.tokenizer.decode(&tokens).contains("<unk>"), "`{text}`");
        }
    }

    #[test]
    fn unalignable_fails_synthesis() {
        let d = WarehouseDomain::new();
        let mut rng = StdRng::seed_from_u64(1);
        let text = d.render(&d.tasks[0], WarehouseStyle::Unalignable, &mut rng);
        let steps = glm2fsa::split_steps(&text);
        assert!(glm2fsa::synthesize("t", &steps, &d.lexicon).is_err());
    }

    #[test]
    fn scaled_floor_is_a_grid_of_floors() {
        let d = WarehouseDomain::new();
        let base = d.floor_model();
        let one = d.scaled_floor_model(1);
        // One aisle is exactly the base floor.
        assert_eq!(one.num_states(), base.num_states());
        assert_eq!(one.num_transitions(), base.num_transitions());
        // k aisles: k floors plus 2·16 corridor moves per seam.
        let four = d.scaled_floor_model(4);
        assert_eq!(four.num_states(), 4 * base.num_states());
        assert_eq!(
            four.num_transitions(),
            4 * base.num_transitions() + 3 * 2 * base.num_states()
        );
    }

    #[test]
    fn backends_agree_on_a_scaled_floor() {
        use crate::feedback::{warehouse_justice, warehouse_specs};
        let d = WarehouseDomain::new();
        let model = d.scaled_floor_model(3);
        let task = &d.tasks[2]; // patrol the aisle
        let mut rng = StdRng::seed_from_u64(3);
        let text = d.render(task, WarehouseStyle::Careful, &mut rng);
        let steps = glm2fsa::split_steps(&text);
        let ctrl = glm2fsa::synthesize(&task.prompt, &steps, &d.lexicon).unwrap();
        let graph = autokit::Product::build(&model, &ctrl).label_graph();
        let justice = warehouse_justice(&d);
        let specs = warehouse_specs(&d);
        let decided =
            ltlcheck::analysis::holds_all_fair(&graph, specs.iter().map(|s| &s.formula), &justice);
        for (spec, decided) in specs.iter().zip(decided) {
            let certified = ltlcheck::check_graph_fair_certified(&graph, &spec.formula, &justice);
            assert_eq!(decided, certified.holds(), "{}", spec.name);
        }
    }

    #[test]
    fn corpus_covers_tasks_and_styles() {
        let d = WarehouseDomain::new();
        let mut rng = StdRng::seed_from_u64(2);
        let corpus = d.corpus(200, &mut rng);
        assert_eq!(corpus.len(), 200);
        let mut tasks: Vec<usize> = corpus.iter().map(|&(t, _)| t).collect();
        tasks.sort_unstable();
        tasks.dedup();
        assert_eq!(tasks, vec![0, 1, 2, 3]);
    }
}
