use crate::loss::pair_grad_under;
use crate::{PairEval, PreferenceDataset};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tinylm::optim::Adam;
use tinylm::{CondLm, GradBuffer, LmError};

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// DPO inverse-temperature `β`.
    pub beta: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Pairs per gradient step.
    pub batch_size: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Pairs sampled per epoch (`None` = the full dataset per epoch).
    ///
    /// The paper trains on ~3000 pairs for 200 epochs on GPUs; sampling a
    /// subset per epoch keeps the reproduction's CPU budget proportionate
    /// while preserving the training dynamics.
    pub pairs_per_epoch: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            beta: 0.5,
            lr: 5e-3,
            batch_size: 8,
            epochs: 200,
            pairs_per_epoch: Some(64),
        }
    }
}

/// Metrics for one epoch — the three panels of the paper's Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean DPO loss over the epoch's pairs.
    pub loss: f32,
    /// Mean accuracy `1[P(y_w|x,θ) > P(y_l|x,θ)]`.
    pub accuracy: f32,
    /// Mean marginal preference.
    pub margin: f32,
}

/// A minibatch DPO trainer with per-epoch metrics and periodic
/// checkpoints.
#[derive(Debug, Clone)]
pub struct DpoTrainer {
    /// Hyperparameters.
    pub options: TrainOptions,
}

impl DpoTrainer {
    /// Creates a trainer.
    pub fn new(options: TrainOptions) -> Self {
        DpoTrainer { options }
    }

    /// Fine-tunes `policy` in place against the frozen `reference`.
    ///
    /// `checkpoint` is invoked as `(epoch_just_finished, &policy)` after
    /// every epoch; callers typically snapshot the model every 20 epochs,
    /// matching the paper's checkpointing cadence.
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] if the dataset references tasks or tokens the
    /// models do not know.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(
        &self,
        policy: &mut CondLm,
        reference: &CondLm,
        dataset: &PreferenceDataset,
        rng: &mut impl Rng,
        checkpoint: impl FnMut(usize, &CondLm),
    ) -> Result<Vec<EpochStats>, LmError> {
        self.train_in(policy, reference, dataset, rng, checkpoint, None)
    }

    /// [`DpoTrainer::train`] with per-pair gradient computations fanned
    /// out over `pool` (when given and wider than one thread), mirroring
    /// `tinylm::pretrain_in`.
    ///
    /// Parallelism never changes the math: the RNG-driven epoch shuffle
    /// stays sequential, per-pair gradients are pure functions of the
    /// frozen pre-step parameters, and the batch reduction folds results
    /// **in batch order** — the same float additions in the same order as
    /// the sequential loop, so trained weights are byte-identical at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`LmError`] if the dataset references tasks or tokens the
    /// models do not know.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train_in(
        &self,
        policy: &mut CondLm,
        reference: &CondLm,
        dataset: &PreferenceDataset,
        rng: &mut impl Rng,
        mut checkpoint: impl FnMut(usize, &CondLm),
        pool: Option<&parkit::ThreadPool>,
    ) -> Result<Vec<EpochStats>, LmError> {
        assert!(!dataset.is_empty(), "preference dataset must be non-empty");
        let opts = self.options;
        let started = std::time::Instant::now();
        let mut adam = Adam::new(opts.lr, policy.params().len());
        let mut stats = Vec::with_capacity(opts.epochs);
        let mut indices: Vec<usize> = (0..dataset.len()).collect();

        // Frozen-reference memoization: the reference's sequence
        // logprobs are pure functions of each pair, so computing them
        // once here and reusing the same f32s every epoch is exact —
        // ~one reference forward per pair total instead of one per pair
        // per epoch. Register the hit counter up front so metrics
        // reports always carry it.
        obskit::counter_add("dpo.ref_cache_hits", 0);
        let ref_lps = {
            let _s = obskit::span("dpo.ref");
            dataset
                .pairs
                .iter()
                .map(|p| {
                    Ok((
                        reference.log_prob(p.task, &p.winner)?,
                        reference.log_prob(p.task, &p.loser)?,
                    ))
                })
                .collect::<Result<Vec<_>, LmError>>()?
        };

        let mut tokens_seen = 0u64;
        for epoch in 0..opts.epochs {
            indices.shuffle(rng);
            let take = opts
                .pairs_per_epoch
                .unwrap_or(dataset.len())
                .min(dataset.len());
            let epoch_pairs = &indices[..take];

            // Scoped so the epoch span closes before the checkpoint
            // callback — checkpoint evals must not nest under it.
            let mut sum = PairEval {
                loss: 0.0,
                correct: 0.0,
                margin: 0.0,
            };
            {
                let epoch_span = obskit::span("dpo.epoch");
                let under = Some(epoch_span.handoff());
                let pair_grad = |i: usize, policy: &CondLm| {
                    let (ref_w, ref_l) = ref_lps[i];
                    obskit::counter_add("dpo.ref_cache_hits", 2);
                    pair_grad_under(policy, &dataset.pairs[i], ref_w, ref_l, opts.beta, under)
                };
                for batch in epoch_pairs.chunks(opts.batch_size) {
                    let mut grad = GradBuffer::zeros(policy);
                    let per_pair: Vec<(PairEval, GradBuffer)> = match pool {
                        Some(pool) if pool.threads() > 1 => {
                            let frozen: &CondLm = policy;
                            pool.map(batch, |_, &i| pair_grad(i, frozen))
                                .into_iter()
                                .collect::<Result<Vec<_>, LmError>>()?
                        }
                        _ => batch
                            .iter()
                            .map(|&i| pair_grad(i, policy))
                            .collect::<Result<Vec<_>, LmError>>()?,
                    };
                    for (&i, (eval, g)) in batch.iter().zip(&per_pair) {
                        let pair = &dataset.pairs[i];
                        tokens_seen += (pair.winner.len() + pair.loser.len() + 2) as u64;
                        sum.loss += eval.loss;
                        sum.correct += eval.correct;
                        sum.margin += eval.margin;
                        grad.add_scaled(g, 1.0 / batch.len() as f32);
                    }
                    adam.step(policy.params_mut(), &grad.0);
                }
            }
            let n = epoch_pairs.len() as f32;
            let epoch_stats = EpochStats {
                epoch,
                loss: sum.loss / n,
                accuracy: sum.correct / n,
                margin: sum.margin / n,
            };
            obskit::counter_add("dpo.pairs_trained", epoch_pairs.len() as u64);
            obskit::event(
                "dpo.epoch",
                vec![
                    ("epoch", epoch.into()),
                    ("loss", epoch_stats.loss.into()),
                    ("accuracy", epoch_stats.accuracy.into()),
                    ("margin", epoch_stats.margin.into()),
                ],
            );
            stats.push(epoch_stats);
            checkpoint(epoch, policy);
            // Training epochs are a flight-recorder beat (throttled).
            obskit::recorder::tick();
        }
        if obskit::enabled() {
            let secs = started.elapsed().as_secs_f64();
            if secs > 0.0 {
                obskit::gauge_set("dpo.tokens_per_sec", tokens_seen as f64 / secs);
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreferencePair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tinylm::{AdaptMode, LmConfig};

    fn setup() -> (CondLm, CondLm, PreferenceDataset) {
        let cfg = LmConfig {
            vocab_size: 10,
            num_tasks: 2,
            token_dim: 4,
            task_dim: 3,
            context: 2,
            hidden: 8,
            adapt: AdaptMode::Full,
            lora_scale: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let policy = CondLm::new(cfg, &mut rng);
        let reference = policy.clone();
        let mut ds = PreferenceDataset::new();
        // Consistent preferences: task 0 prefers "3 4 5", task 1 "5 4".
        for _ in 0..4 {
            ds.push(PreferencePair {
                task: 0,
                winner: vec![3, 4, 5],
                loser: vec![6, 7],
            });
            ds.push(PreferencePair {
                task: 1,
                winner: vec![5, 4],
                loser: vec![3, 3, 3],
            });
        }
        (policy, reference, ds)
    }

    #[test]
    fn training_improves_all_three_metrics() {
        let (mut policy, reference, ds) = setup();
        let trainer = DpoTrainer::new(TrainOptions {
            beta: 0.5,
            lr: 0.02,
            batch_size: 4,
            epochs: 30,
            pairs_per_epoch: None,
        });
        let mut rng = StdRng::seed_from_u64(11);
        let stats = trainer
            .train(&mut policy, &reference, &ds, &mut rng, |_, _| {})
            .unwrap();
        let first = stats.first().unwrap();
        let last = stats.last().unwrap();
        assert!(last.loss < first.loss, "{first:?} -> {last:?}");
        assert!(last.accuracy >= first.accuracy);
        assert_eq!(last.accuracy, 1.0);
        assert!(last.margin > 0.5);
        // The reference stayed frozen; policy diverged from it.
        assert_ne!(policy.params(), reference.params());
    }

    #[test]
    fn checkpoints_fire_each_epoch() {
        let (mut policy, reference, ds) = setup();
        let trainer = DpoTrainer::new(TrainOptions {
            epochs: 5,
            pairs_per_epoch: Some(2),
            ..TrainOptions::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = Vec::new();
        trainer
            .train(&mut policy, &reference, &ds, &mut rng, |e, m| {
                seen.push((e, m.params().len()));
            })
            .unwrap();
        assert_eq!(
            seen.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (policy0, reference, mut ds) = setup();
        // Heterogeneous extra pairs so that epoch subsampling differs
        // between seeds.
        for t in 0..8u32 {
            ds.push(PreferencePair {
                task: 0,
                winner: vec![3 + (t % 5), 4],
                loser: vec![8, 7 - (t % 3)],
            });
        }
        let trainer = DpoTrainer::new(TrainOptions {
            epochs: 3,
            pairs_per_epoch: Some(4),
            ..TrainOptions::default()
        });
        let run = |seed: u64| {
            let mut p = policy0.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let stats = trainer
                .train(&mut p, &reference, &ds, &mut rng, |_, _| {})
                .unwrap();
            (p, stats)
        };
        let (p1, s1) = run(7);
        let (p2, s2) = run(7);
        assert_eq!(p1.params(), p2.params());
        assert_eq!(s1, s2);
        let (_, s3) = run(8);
        assert_ne!(s1, s3, "different seeds should differ (data order)");
    }

    /// Heterogeneous dataset used by the equivalence tests.
    fn varied_dataset() -> (CondLm, CondLm, PreferenceDataset) {
        let (policy, reference, mut ds) = setup();
        for t in 0..9u32 {
            ds.push(PreferencePair {
                task: (t % 2) as usize,
                winner: vec![3 + (t % 5), 4, 5 + (t % 3)],
                loser: vec![8, 7 - (t % 3), 6, 3 + (t % 4)],
            });
        }
        (policy, reference, ds)
    }

    /// The reference-logprob cache is exact memoization: training matches,
    /// bit for bit, a hand-written loop that recomputes the reference
    /// forward for every pair visit (`dpo_loss_grad`), takes the batch
    /// mean in batch order and steps Adam.
    #[test]
    fn ref_cache_is_bit_exact() {
        let (policy0, reference, ds) = varied_dataset();
        let opts = TrainOptions {
            epochs: 4,
            pairs_per_epoch: Some(6),
            batch_size: 4,
            ..TrainOptions::default()
        };
        let mut p_trained = policy0.clone();
        let s_trained = DpoTrainer::new(opts)
            .train(
                &mut p_trained,
                &reference,
                &ds,
                &mut StdRng::seed_from_u64(13),
                |_, _| {},
            )
            .unwrap();

        let mut p = policy0.clone();
        let mut rng = StdRng::seed_from_u64(13);
        let mut adam = Adam::new(opts.lr, p.params().len());
        let mut indices: Vec<usize> = (0..ds.len()).collect();
        let mut s_loop = Vec::new();
        for epoch in 0..opts.epochs {
            indices.shuffle(&mut rng);
            let take = opts.pairs_per_epoch.unwrap_or(ds.len()).min(ds.len());
            let (mut loss, mut correct, mut margin) = (0.0f32, 0.0f32, 0.0f32);
            for batch in indices[..take].chunks(opts.batch_size) {
                let per_pair: Vec<_> = batch
                    .iter()
                    .map(|&i| crate::dpo_loss_grad(&p, &reference, &ds.pairs[i], opts.beta))
                    .collect::<Result<_, _>>()
                    .unwrap();
                let mut grad = GradBuffer::zeros(&p);
                for (eval, g) in &per_pair {
                    loss += eval.loss;
                    correct += eval.correct;
                    margin += eval.margin;
                    grad.add_scaled(g, 1.0 / batch.len() as f32);
                }
                adam.step(p.params_mut(), &grad.0);
            }
            let n = take as f32;
            s_loop.push(EpochStats {
                epoch,
                loss: loss / n,
                accuracy: correct / n,
                margin: margin / n,
            });
        }
        assert_eq!(s_trained, s_loop, "EpochStats must match the plain loop");
        assert_eq!(
            p_trained.params(),
            p.params(),
            "weights must be bit-identical"
        );
    }

    /// Pooled pair gradients reduce in batch order, so training is
    /// byte-identical at any thread count.
    #[test]
    fn pooled_training_is_bit_identical() {
        let (policy0, reference, ds) = varied_dataset();
        let opts = TrainOptions {
            epochs: 3,
            pairs_per_epoch: Some(8),
            batch_size: 4,
            ..TrainOptions::default()
        };
        let trainer = DpoTrainer::new(opts);
        let run = |pool: Option<&parkit::ThreadPool>| {
            let mut p = policy0.clone();
            let mut rng = StdRng::seed_from_u64(21);
            let stats = trainer
                .train_in(&mut p, &reference, &ds, &mut rng, |_, _| {}, pool)
                .unwrap();
            (p, stats)
        };
        let (p_serial, s_serial) = run(None);
        for threads in [2, 4] {
            let pool = parkit::ThreadPool::new(threads);
            let (p_pooled, s_pooled) = run(Some(&pool));
            assert_eq!(
                p_serial.params(),
                p_pooled.params(),
                "weights diverged at {threads} threads"
            );
            assert_eq!(s_serial, s_pooled);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dataset_panics() {
        let (mut policy, reference, _) = setup();
        let trainer = DpoTrainer::new(TrainOptions::default());
        let mut rng = StdRng::seed_from_u64(0);
        let _ = trainer.train(
            &mut policy,
            &reference,
            &PreferenceDataset::new(),
            &mut rng,
            |_, _| {},
        );
    }
}
