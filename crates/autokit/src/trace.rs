use crate::{ActSet, PropSet, Vocab};
use std::fmt;

/// One step of an execution: the observed symbol and the emitted action.
///
/// A step is an element of `2^P × 2^{P_A}` — the alphabet of the grounding
/// function `G(C, S)` in the paper's Section 4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Step {
    /// Environment observation `σ ∈ 2^P`.
    pub props: PropSet,
    /// Controller action `a ∈ 2^{P_A}` (empty = `ε`).
    pub acts: ActSet,
}

impl Step {
    /// Creates a step.
    pub fn new(props: PropSet, acts: ActSet) -> Self {
        Step { props, acts }
    }
}

/// A finite execution trace `(2^P × 2^{P_A})^N`.
///
/// Traces are produced by the `drivesim` grounding function and consumed by
/// the finite-trace (LTLf) monitor in `ltlcheck` to compute the empirical
/// satisfaction rates `P_Φ` of the paper's Section 4.2.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    steps: Vec<Step>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a step.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// The steps in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps `N`.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` iff the trace has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Iterates over steps.
    pub fn iter(&self) -> std::slice::Iter<'_, Step> {
        self.steps.iter()
    }

    /// Renders the trace with vocabulary names, one step per line.
    pub fn display<'a>(&'a self, vocab: &'a Vocab) -> TraceDisplay<'a> {
        TraceDisplay { trace: self, vocab }
    }
}

impl FromIterator<Step> for Trace {
    fn from_iter<I: IntoIterator<Item = Step>>(iter: I) -> Self {
        Trace {
            steps: iter.into_iter().collect(),
        }
    }
}

impl Extend<Step> for Trace {
    fn extend<I: IntoIterator<Item = Step>>(&mut self, iter: I) {
        self.steps.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Step;
    type IntoIter = std::slice::Iter<'a, Step>;
    fn into_iter(self) -> Self::IntoIter {
        self.steps.iter()
    }
}

/// Helper returned by [`Trace::display`].
#[derive(Debug)]
pub struct TraceDisplay<'a> {
    trace: &'a Trace,
    vocab: &'a Vocab,
}

impl fmt::Display for TraceDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.trace.steps.iter().enumerate() {
            writeln!(
                f,
                "{i:4}: obs = {{{}}}, act = {{{}}}",
                self.vocab.display_props(step.props),
                self.vocab.display_acts(step.acts)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(Step::new(PropSet::from_bits(1), ActSet::empty()));
        t.push(Step::new(PropSet::empty(), ActSet::from_bits(2)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.steps()[1].acts.bits(), 2);
    }

    #[test]
    fn collect_from_iterator() {
        let t: Trace = (0..3)
            .map(|i| Step::new(PropSet::from_bits(1 << i), ActSet::empty()))
            .collect();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn display_uses_vocab_names() {
        let mut v = Vocab::new();
        let g = v.add_prop("green").unwrap();
        let stop = v.add_act("stop").unwrap();
        let mut t = Trace::new();
        t.push(Step::new(PropSet::singleton(g), ActSet::singleton(stop)));
        let rendered = t.display(&v).to_string();
        assert!(rendered.contains("green"));
        assert!(rendered.contains("stop"));
    }
}
