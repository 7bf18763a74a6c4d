use tinylm::Token;

/// One preference triple `(x, y_w, y_l)`: the prompt is a task id (the
/// conditional language model's prompt encoding), `winner` is the
/// preferred response and `loser` the dispreferred one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreferencePair {
    /// Task (prompt) id.
    pub task: usize,
    /// Preferred response tokens `y_w`.
    pub winner: Vec<Token>,
    /// Dispreferred response tokens `y_l`.
    pub loser: Vec<Token>,
}

/// A DPO training dataset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreferenceDataset {
    /// The pairs, in insertion order.
    pub pairs: Vec<PreferencePair>,
}

impl PreferenceDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` iff no pairs are present.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Adds one pair.
    pub fn push(&mut self, pair: PreferencePair) {
        self.pairs.push(pair);
    }

    /// Builds all strictly-ordered pairs from scored responses to one
    /// task: every two responses with *different* scores yield one pair
    /// with the higher-scored response as winner. Ties produce no pair —
    /// the paper ranks by the number of satisfied specifications, and
    /// equal counts carry no preference signal.
    ///
    /// With `m` distinctly-scored responses this yields up to `C(m, 2)`
    /// pairs per task, matching the paper's `N · C₂(m)` data-point bound.
    ///
    /// # Example
    ///
    /// ```
    /// use dpo::PreferenceDataset;
    ///
    /// let mut ds = PreferenceDataset::new();
    /// ds.add_scored(0, &[(vec![5, 6], 13), (vec![7], 9), (vec![8], 13)]);
    /// // (13,9), (13,9) → two pairs; the 13-13 tie yields none.
    /// assert_eq!(ds.len(), 2);
    /// assert!(ds.pairs.iter().all(|p| p.winner != p.loser));
    /// ```
    pub fn add_scored(&mut self, task: usize, scored: &[(Vec<Token>, usize)]) {
        for i in 0..scored.len() {
            for j in (i + 1)..scored.len() {
                let (ref yi, si) = scored[i];
                let (ref yj, sj) = scored[j];
                if si == sj {
                    continue;
                }
                let (winner, loser) = if si > sj { (yi, yj) } else { (yj, yi) };
                self.pairs.push(PreferencePair {
                    task,
                    winner: winner.clone(),
                    loser: loser.clone(),
                });
            }
        }
    }

    /// Tasks present in the dataset, deduplicated and sorted.
    pub fn tasks(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.pairs.iter().map(|p| p.task).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl FromIterator<PreferencePair> for PreferenceDataset {
    fn from_iter<I: IntoIterator<Item = PreferencePair>>(iter: I) -> Self {
        PreferenceDataset {
            pairs: iter.into_iter().collect(),
        }
    }
}

impl Extend<PreferencePair> for PreferenceDataset {
    fn extend<I: IntoIterator<Item = PreferencePair>>(&mut self, iter: I) {
        self.pairs.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_scored_orders_by_score() {
        let mut ds = PreferenceDataset::new();
        ds.add_scored(3, &[(vec![1], 2), (vec![2], 5)]);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.pairs[0].winner, vec![2]);
        assert_eq!(ds.pairs[0].loser, vec![1]);
        assert_eq!(ds.pairs[0].task, 3);
    }

    #[test]
    fn ties_yield_no_pairs() {
        let mut ds = PreferenceDataset::new();
        ds.add_scored(0, &[(vec![1], 4), (vec![2], 4), (vec![3], 4)]);
        assert!(ds.is_empty());
    }

    #[test]
    fn pair_count_is_c2_when_all_distinct() {
        let mut ds = PreferenceDataset::new();
        let scored: Vec<(Vec<Token>, usize)> =
            (0..5).map(|i| (vec![i as Token], i as usize)).collect();
        ds.add_scored(0, &scored);
        assert_eq!(ds.len(), 10); // C(5,2)
    }

    #[test]
    fn tasks_deduplicated() {
        let mut ds = PreferenceDataset::new();
        ds.add_scored(2, &[(vec![1], 0), (vec![2], 1)]);
        ds.add_scored(0, &[(vec![1], 0), (vec![2], 1)]);
        ds.add_scored(2, &[(vec![3], 0), (vec![4], 1)]);
        assert_eq!(ds.tasks(), vec![0, 2]);
    }

    #[test]
    fn collect_and_extend() {
        let pair = PreferencePair {
            task: 0,
            winner: vec![1],
            loser: vec![2],
        };
        let mut ds: PreferenceDataset = std::iter::repeat_n(pair.clone(), 3).collect();
        ds.extend([pair]);
        assert_eq!(ds.len(), 4);
    }
}
