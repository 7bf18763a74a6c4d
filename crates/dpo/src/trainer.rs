use crate::loss::pair_grad_under;
use crate::{PairEval, PreferenceDataset};
use rand::seq::SliceRandom;
use rand::Rng;
use tinylm::optim::Adam;
use tinylm::{CondLm, GradBuffer, LmError};

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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

obskit::json_struct!(EpochStats, [epoch, loss, accuracy, margin]);

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
    /// out over `pool` (one thread when `None`).
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
        let one_thread = parkit::ThreadPool::new(1);
        let pool = pool.unwrap_or(&one_thread);
        let started = std::time::Instant::now();
        // Adam and every gradient cover only the trainable segment; the
        // frozen parameters are never touched.
        let trainable = policy.trainable();
        let mut adam = Adam::new(opts.lr, trainable.len());
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
            let reference = reference.merged();
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
                for batch in epoch_pairs.chunks(opts.batch_size) {
                    let mut grad = GradBuffer::zeros(policy);
                    let frozen: &CondLm = policy;
                    let per_pair: Vec<(PairEval, GradBuffer)> = pool
                        .map(batch, |_, &i| {
                            let (ref_w, ref_l) = ref_lps[i];
                            obskit::counter_add("dpo.ref_cache_hits", 2);
                            pair_grad_under(
                                frozen,
                                &dataset.pairs[i],
                                ref_w,
                                ref_l,
                                opts.beta,
                                under,
                            )
                        })
                        .into_iter()
                        .collect::<Result<Vec<_>, LmError>>()?;
                    for (&i, (eval, g)) in batch.iter().zip(&per_pair) {
                        let pair = &dataset.pairs[i];
                        tokens_seen += (pair.winner.len() + pair.loser.len() + 2) as u64;
                        sum.loss += eval.loss;
                        sum.correct += eval.correct;
                        sum.margin += eval.margin;
                        grad.add_scaled(g, 1.0 / batch.len() as f32);
                    }
                    adam.step(&mut policy.params_mut()[trainable.clone()], &grad.0);
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
        setup_with(AdaptMode::Full)
    }

    fn setup_with(adapt: AdaptMode) -> (CondLm, CondLm, PreferenceDataset) {
        let cfg = LmConfig {
            vocab_size: 10,
            num_tasks: 2,
            token_dim: 4,
            task_dim: 3,
            context: 2,
            hidden: 8,
            adapt,
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

    /// The adapt modes the equivalence tests run under: full fine-tuning
    /// and LoRA rank 2 (whose `B` matrices start at zero and turn
    /// non-zero with the first Adam step).
    const MODES: [AdaptMode; 2] = [AdaptMode::Full, AdaptMode::Lora { rank: 2 }];

    /// Heterogeneous dataset used by the equivalence tests.
    fn varied_dataset(adapt: AdaptMode) -> (CondLm, CondLm, PreferenceDataset) {
        let (policy, reference, mut ds) = setup_with(adapt);
        for t in 0..9u32 {
            ds.push(PreferencePair {
                task: (t % 2) as usize,
                winner: vec![3 + (t % 5), 4, 5 + (t % 3)],
                loser: vec![8, 7 - (t % 3), 6, 3 + (t % 4)],
            });
        }
        (policy, reference, ds)
    }

    /// Exact zeros in the trainable segment: LoRA's `B` matrices start
    /// at zero, so this falls once they move.
    fn trainable_zeros(p: &CondLm) -> usize {
        p.params()[p.trainable()]
            .iter()
            .filter(|&&v| v == 0.0)
            .count()
    }

    /// The reference-logprob cache is exact memoization: training matches,
    /// bit for bit, a hand-written loop that recomputes the reference
    /// forward for every pair visit (`dpo_loss_grad`), takes the batch
    /// mean in batch order and steps Adam over the whole parameter
    /// vector. Under LoRA the loop's frozen entries see a zero gradient,
    /// so this also pins the trainable-segment Adam against a full one.
    #[test]
    fn ref_cache_is_bit_exact() {
        for adapt in MODES {
            ref_cache_is_bit_exact_under(adapt);
        }
    }

    fn ref_cache_is_bit_exact_under(adapt: AdaptMode) {
        let (policy0, reference, ds) = varied_dataset(adapt);
        let opts = TrainOptions {
            epochs: 4,
            pairs_per_epoch: Some(6),
            batch_size: 4,
            ..TrainOptions::default()
        };
        let mut p_trained = policy0.clone();
        let mut zeros_after_epoch0 = None;
        let s_trained = DpoTrainer::new(opts)
            .train(
                &mut p_trained,
                &reference,
                &ds,
                &mut StdRng::seed_from_u64(13),
                |epoch, p| {
                    if epoch == 0 {
                        zeros_after_epoch0 = Some(trainable_zeros(p));
                    }
                },
            )
            .unwrap();
        if adapt != AdaptMode::Full {
            assert!(trainable_zeros(&policy0) > 0);
            assert_eq!(
                zeros_after_epoch0,
                Some(0),
                "B must be non-zero after epoch 0"
            );
        }

        let mut p = policy0.clone();
        let mut rng = StdRng::seed_from_u64(13);
        let trainable = p.trainable();
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
                // A full-length gradient whose frozen entries are zero.
                let mut grad = vec![0.0f32; p.params().len()];
                let c = 1.0 / batch.len() as f32;
                for (eval, g) in &per_pair {
                    loss += eval.loss;
                    correct += eval.correct;
                    margin += eval.margin;
                    for (a, b) in grad[trainable.clone()].iter_mut().zip(&g.0) {
                        *a += c * b;
                    }
                }
                adam.step(p.params_mut(), &grad);
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
        for adapt in MODES {
            pooled_training_is_bit_identical_under(adapt);
        }
    }

    fn pooled_training_is_bit_identical_under(adapt: AdaptMode) {
        let (policy0, reference, ds) = varied_dataset(adapt);
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
                "weights diverged at {threads} threads ({adapt:?})"
            );
            assert_eq!(s_serial, s_pooled);
        }
        if adapt != AdaptMode::Full {
            assert_eq!(trainable_zeros(&p_serial), 0, "B must have moved");
        }
    }

    /// FNV-1a over the bit patterns of `values`.
    fn fnv1a(values: &[f32]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// A short LoRA `DpoTrainer::train`, pinned bit for bit: the final
    /// adapters, a digest of every parameter, and the `EpochStats`. The
    /// values were recorded before the trainer stepped Adam over the
    /// trainable segment only and before the tape held the frozen base
    /// as constants, so they pin both changes as pure performance work.
    #[test]
    fn lora_training_matches_golden() {
        const ADAPTERS: [u32; 74] = [
            0x3d3d020c, 0x3b750be9, 0x3d0690bd, 0x3d0e300e, 0xbd2a7558, 0xbd1525b3, 0x3ca1c6cc,
            0x3d4cc83e, 0x3c94ef6f, 0xbc520bf4, 0xbc7b4fd6, 0xbd0f3fcb, 0xbd3fdc6f, 0xbcf4285e,
            0xbc943a1c, 0x3bdadd3c, 0xbd0147d4, 0x3ce9dafc, 0xbceabf44, 0x3d1c5212, 0xbc669cc8,
            0x3d17a476, 0x3d20d791, 0xbcc7633c, 0xb98bb4a4, 0xbcf197d3, 0x3bc0b3bd, 0xbd1c68f8,
            0x3d180025, 0xbd184da4, 0xbd1eedee, 0x3d0f386c, 0x3d23cde6, 0x3d17aa7a, 0xbd17a4a1,
            0x3d060751, 0xbc8fa86e, 0x3d0c934d, 0xbcc5c7c8, 0x3c3427eb, 0x3d094951, 0xbc70083d,
            0xba002a15, 0x3c52941e, 0xbadd87d6, 0x3bb87dbb, 0x3d4a90ca, 0xbd010845, 0x3cc28f8c,
            0xbb9f0425, 0xbd1dc94b, 0x3d2d9360, 0xbc436c78, 0x3cbbd39b, 0xbd2863ff, 0x3d421160,
            0xbce9797f, 0x3ce511f3, 0xbd1f6bae, 0xbd1d7f30, 0x3c8ebfb6, 0xbd1b10d5, 0xbced2cee,
            0x3d1ada15, 0x3d17602f, 0xbd1774ba, 0x3d17f137, 0x3d12bfd6, 0xbd03aedc, 0x3d084ea0,
            0x3c9f0247, 0xbcde61f2, 0xbd0dd1c9, 0x3d0b4396,
        ];
        const PARAMS_FNV1A: u64 = 0x9533_94fc_e4a9_0770;
        // (epoch, loss, accuracy, margin) bit patterns.
        const STATS: [(usize, u32, u32, u32); 4] = [
            (0, 0x3f317005, 0x3f000000, 0x3904d555),
            (1, 0x3f3152c1, 0x3f800000, 0x3afac555),
            (2, 0x3f3121d5, 0x3f555555, 0x3ba0a600),
            (3, 0x3f30e799, 0x3f800000, 0x3c0ab055),
        ];

        let (mut p, reference, ds) = varied_dataset(AdaptMode::Lora { rank: 2 });
        let opts = TrainOptions {
            epochs: 4,
            pairs_per_epoch: Some(6),
            batch_size: 4,
            ..TrainOptions::default()
        };
        let stats = DpoTrainer::new(opts)
            .train(
                &mut p,
                &reference,
                &ds,
                &mut StdRng::seed_from_u64(13),
                |_, _| {},
            )
            .unwrap();
        assert_eq!(
            p.trainable(),
            p.params().len() - ADAPTERS.len()..p.params().len()
        );
        let adapters: Vec<u32> = p.params()[p.trainable()]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(adapters, ADAPTERS);
        assert_eq!(fnv1a(p.params()), PARAMS_FNV1A);
        let stats: Vec<_> = stats
            .iter()
            .map(|s| {
                (
                    s.epoch,
                    s.loss.to_bits(),
                    s.accuracy.to_bits(),
                    s.margin.to_bits(),
                )
            })
            .collect();
        assert_eq!(stats, STATS);
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
