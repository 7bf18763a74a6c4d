use crate::PreferencePair;
use serde::{Deserialize, Serialize};
use tinylm::{CondLm, GradBuffer, LmError, SeqWorkspace};

/// Loss and metrics of one pair at the current parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairEval {
    /// DPO loss `−log σ(β·margin)`.
    pub loss: f32,
    /// `1.0` iff the policy assigns the winner a higher likelihood than
    /// the loser (`P(y_w|x,θ) > P(y_l|x,θ)`), the paper's accuracy term.
    pub correct: f32,
    /// Marginal preference
    /// `(log πθ(y_w) − log πref(y_w)) − (log πθ(y_l) − log πref(y_l))`.
    pub margin: f32,
}

/// Computes the DPO loss, metrics and the gradient of the loss with
/// respect to the policy parameters for one preference pair.
///
/// The gradient uses the closed form
///
/// ```text
/// ∇θ L = −β · σ(−β·margin) · ( ∇θ log πθ(y_w|x) − ∇θ log πθ(y_l|x) )
/// ```
///
/// so only the two sequence-likelihood gradients are needed.
///
/// # Errors
///
/// Returns [`LmError`] if the pair references unknown tasks or tokens.
///
/// # Example
///
/// ```
/// use dpo::{dpo_loss_grad, PreferencePair};
/// use rand::SeedableRng;
/// use tinylm::{AdaptMode, CondLm, LmConfig};
///
/// let cfg = LmConfig { vocab_size: 8, num_tasks: 1, adapt: AdaptMode::Full, ..LmConfig::default() };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let policy = CondLm::new(cfg, &mut rng);
/// let reference = policy.clone();
/// let pair = PreferencePair { task: 0, winner: vec![3, 4], loser: vec![5] };
/// let (eval, grad) = dpo_loss_grad(&policy, &reference, &pair, 0.5)?;
/// // At θ = θref the margin is exactly zero and the loss is ln 2.
/// assert!((eval.margin).abs() < 1e-5);
/// assert!((eval.loss - std::f32::consts::LN_2).abs() < 1e-5);
/// assert_eq!(grad.0.len(), policy.params().len());
/// # Ok::<(), tinylm::LmError>(())
/// ```
pub fn dpo_loss_grad(
    policy: &CondLm,
    reference: &CondLm,
    pair: &PreferencePair,
    beta: f32,
) -> Result<(PairEval, GradBuffer), LmError> {
    let ref_w = reference.log_prob(pair.task, &pair.winner)?;
    let ref_l = reference.log_prob(pair.task, &pair.loser)?;
    dpo_loss_grad_with_ref(policy, pair, ref_w, ref_l, beta)
}

/// [`dpo_loss_grad`] with the frozen reference's sequence log-likelihoods
/// already known.
///
/// The reference model never changes during a [`crate::DpoTrainer::train`]
/// call, so `reference.log_prob(task, y)` is a pure function of the pair —
/// precomputing it once per training run and passing the same `f32`s here
/// is *exact* memoization: every downstream float operation sees identical
/// inputs, and results are bit-identical to [`dpo_loss_grad`].
///
/// # Errors
///
/// Returns [`LmError`] if the pair references unknown tasks or tokens.
pub fn dpo_loss_grad_with_ref(
    policy: &CondLm,
    pair: &PreferencePair,
    ref_w: f32,
    ref_l: f32,
    beta: f32,
) -> Result<(PairEval, GradBuffer), LmError> {
    pair_grad_under(policy, pair, ref_w, ref_l, beta, None)
}

/// Opens a span under an explicit cross-thread parent when one is given,
/// or under the ambient thread-local parent otherwise.
fn maybe_span_under(name: &str, under: Option<obskit::Handoff>) -> obskit::Span {
    match under {
        Some(h) => obskit::span_under(name, h),
        None => obskit::span(name),
    }
}

/// The shared pair-gradient body: batched winner/loser graphs on one
/// recycled workspace tape, with `dpo.forward` / `dpo.backward` child
/// spans (parented under `under` so pooled workers attach to the epoch
/// span).
pub(crate) fn pair_grad_under(
    policy: &CondLm,
    pair: &PreferencePair,
    ref_w: f32,
    ref_l: f32,
    beta: f32,
    under: Option<obskit::Handoff>,
) -> Result<(PairEval, GradBuffer), LmError> {
    SeqWorkspace::with_tls(|ws| {
        ws.reset();
        let (graph_w, graph_l) = {
            let _s = maybe_span_under("dpo.forward", under);
            (
                policy.seq_forward_in(pair.task, &pair.winner, ws)?,
                policy.seq_forward_in(pair.task, &pair.loser, ws)?,
            )
        };
        let (lp_w, lp_l) = (graph_w.value(), graph_l.value());
        let (grad_w, grad_l) = {
            let _s = maybe_span_under("dpo.backward", under);
            (
                policy.seq_grad_in(&graph_w, ws),
                policy.seq_grad_in(&graph_l, ws),
            )
        };

        let margin = (lp_w - ref_w) - (lp_l - ref_l);
        let z = beta * margin;
        // loss = −log σ(z), computed stably.
        let loss = (-z).max(0.0) + (-(z.abs())).exp().ln_1p();
        // dloss/dz = −σ(−z)
        let sig_neg = 1.0 / (1.0 + z.exp());
        let coeff = -beta * sig_neg;

        let mut grad = grad_w;
        grad.scale(coeff);
        grad.add_scaled(&grad_l, -coeff);

        let correct = if lp_w > lp_l { 1.0 } else { 0.0 };
        Ok((
            PairEval {
                loss,
                correct,
                margin,
            },
            grad,
        ))
    })
}

/// Computes the **IPO** loss (Azar et al., 2023) and its gradient for one
/// pair: `L = (margin − 1/(2τ))²` with the same margin as DPO.
///
/// IPO regresses the preference margin to a fixed target instead of
/// pushing it to infinity through a sigmoid, which is more robust to
/// deterministic (noise-free) preferences — exactly the kind automated
/// verification feedback produces. Provided as the paper-adjacent
/// alternative objective for the ablation suite.
///
/// # Errors
///
/// Returns [`LmError`] if the pair references unknown tasks or tokens.
pub fn ipo_loss_grad(
    policy: &CondLm,
    reference: &CondLm,
    pair: &PreferencePair,
    tau: f32,
) -> Result<(PairEval, GradBuffer), LmError> {
    let (lp_w, grad_w) = policy.log_prob_grad(pair.task, &pair.winner)?;
    let (lp_l, grad_l) = policy.log_prob_grad(pair.task, &pair.loser)?;
    let ref_w = reference.log_prob(pair.task, &pair.winner)?;
    let ref_l = reference.log_prob(pair.task, &pair.loser)?;

    let margin = (lp_w - ref_w) - (lp_l - ref_l);
    let target = 1.0 / (2.0 * tau);
    let diff = margin - target;
    let loss = diff * diff;
    // dL/dθ = 2(margin − target) · (∇log πθ(y_w) − ∇log πθ(y_l))
    let coeff = 2.0 * diff;
    let mut grad = grad_w;
    grad.scale(coeff);
    grad.add_scaled(&grad_l, -coeff);

    Ok((
        PairEval {
            loss,
            correct: if lp_w > lp_l { 1.0 } else { 0.0 },
            margin,
        },
        grad,
    ))
}

/// Evaluates loss/accuracy/margin without computing gradients (cheap; for
/// held-out metrics).
///
/// # Errors
///
/// Returns [`LmError`] if the pair references unknown tasks or tokens.
pub fn eval_pair(
    policy: &CondLm,
    reference: &CondLm,
    pair: &PreferencePair,
    beta: f32,
) -> Result<PairEval, LmError> {
    let lp_w = policy.log_prob(pair.task, &pair.winner)?;
    let lp_l = policy.log_prob(pair.task, &pair.loser)?;
    let ref_w = reference.log_prob(pair.task, &pair.winner)?;
    let ref_l = reference.log_prob(pair.task, &pair.loser)?;
    let margin = (lp_w - ref_w) - (lp_l - ref_l);
    let z = beta * margin;
    let loss = (-z).max(0.0) + (-(z.abs())).exp().ln_1p();
    Ok(PairEval {
        loss,
        correct: if lp_w > lp_l { 1.0 } else { 0.0 },
        margin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tinylm::{AdaptMode, LmConfig};

    fn setup(adapt: AdaptMode) -> (CondLm, CondLm, PreferencePair) {
        let cfg = LmConfig {
            vocab_size: 10,
            num_tasks: 2,
            token_dim: 4,
            task_dim: 3,
            context: 2,
            hidden: 6,
            adapt,
            lora_scale: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let policy = CondLm::new(cfg, &mut rng);
        let reference = policy.clone();
        let pair = PreferencePair {
            task: 1,
            winner: vec![3, 4, 5],
            loser: vec![6, 7],
        };
        (policy, reference, pair)
    }

    #[test]
    fn at_reference_loss_is_ln2_and_margin_zero() {
        let (policy, reference, pair) = setup(AdaptMode::Full);
        let (eval, _) = dpo_loss_grad(&policy, &reference, &pair, 0.7).unwrap();
        assert!(eval.margin.abs() < 1e-4);
        assert!((eval.loss - std::f32::consts::LN_2).abs() < 1e-4);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (policy, reference, pair) = setup(AdaptMode::Full);
        let beta = 0.6;
        let (_, grad) = dpo_loss_grad(&policy, &reference, &pair, beta).unwrap();
        for &i in &[0usize, 17, 99] {
            let h = 1e-2f32;
            let mut pp = policy.clone();
            pp.params_mut()[i] += h;
            let mut pm = policy.clone();
            pm.params_mut()[i] -= h;
            let (ep, _) = dpo_loss_grad(&pp, &reference, &pair, beta).unwrap();
            let (em, _) = dpo_loss_grad(&pm, &reference, &pair, beta).unwrap();
            let num = (ep.loss - em.loss) / (2.0 * h);
            assert!(
                (num - grad.0[i]).abs() < 3e-2,
                "param {i}: numeric {num} vs analytic {}",
                grad.0[i]
            );
        }
    }

    #[test]
    fn descending_the_gradient_reduces_loss_and_raises_margin() {
        let (mut policy, reference, pair) = setup(AdaptMode::Full);
        let beta = 0.5;
        let (before, grad) = dpo_loss_grad(&policy, &reference, &pair, beta).unwrap();
        for (p, g) in policy.params_mut().iter_mut().zip(&grad.0) {
            *p -= 0.1 * g;
        }
        let (after, _) = dpo_loss_grad(&policy, &reference, &pair, beta).unwrap();
        assert!(after.loss < before.loss);
        assert!(after.margin > before.margin);
    }

    #[test]
    fn lora_gradient_respects_freezing() {
        let (policy, reference, pair) = setup(AdaptMode::Lora { rank: 2 });
        let (_, grad) = dpo_loss_grad(&policy, &reference, &pair, 0.5).unwrap();
        let mask = policy.trainable_mask();
        for (g, m) in grad.0.iter().zip(mask) {
            if !m {
                assert_eq!(*g, 0.0);
            }
        }
        assert!(grad.norm() > 0.0);
    }

    #[test]
    fn ipo_gradient_matches_finite_difference() {
        let (policy, reference, pair) = setup(AdaptMode::Full);
        let tau = 0.3;
        let (_, grad) = ipo_loss_grad(&policy, &reference, &pair, tau).unwrap();
        for &i in &[0usize, 23, 77] {
            let h = 1e-2f32;
            let mut pp = policy.clone();
            pp.params_mut()[i] += h;
            let mut pm = policy.clone();
            pm.params_mut()[i] -= h;
            let (ep, _) = ipo_loss_grad(&pp, &reference, &pair, tau).unwrap();
            let (em, _) = ipo_loss_grad(&pm, &reference, &pair, tau).unwrap();
            let num = (ep.loss - em.loss) / (2.0 * h);
            assert!(
                (num - grad.0[i]).abs() < 0.1,
                "param {i}: numeric {num} vs analytic {}",
                grad.0[i]
            );
        }
    }

    #[test]
    fn ipo_minimizes_at_target_margin() {
        let (mut policy, reference, pair) = setup(AdaptMode::Full);
        let tau = 0.5; // target margin = 1.0
        for _ in 0..300 {
            let (_, grad) = ipo_loss_grad(&policy, &reference, &pair, tau).unwrap();
            for (p, g) in policy.params_mut().iter_mut().zip(&grad.0) {
                *p -= 0.01 * g;
            }
        }
        let (eval, _) = ipo_loss_grad(&policy, &reference, &pair, tau).unwrap();
        assert!(
            (eval.margin - 1.0).abs() < 0.2,
            "margin should settle near the IPO target: {}",
            eval.margin
        );
    }

    #[test]
    fn eval_pair_matches_loss_grad() {
        let (policy, reference, pair) = setup(AdaptMode::Full);
        let (a, _) = dpo_loss_grad(&policy, &reference, &pair, 0.4).unwrap();
        let b = eval_pair(&policy, &reference, &pair, 0.4).unwrap();
        assert!((a.loss - b.loss).abs() < 1e-5);
        assert_eq!(a.correct, b.correct);
        assert!((a.margin - b.margin).abs() < 1e-5);
    }
}
