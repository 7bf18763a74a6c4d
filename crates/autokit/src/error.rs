use std::fmt;

/// Errors produced by automaton construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AutokitError {
    /// A proposition or action name was registered twice.
    DuplicateName(String),
    /// A name was looked up that is not in the vocabulary.
    UnknownName(String),
    /// The vocabulary cannot hold more propositions/actions (bitset width).
    VocabFull {
        /// Which vocabulary side overflowed: `"propositions"` or `"actions"`.
        kind: &'static str,
        /// The maximum number of entries supported.
        max: usize,
    },
    /// A state index was out of range for the automaton it was used with.
    InvalidState(usize),
    /// An automaton was built without any initial state.
    NoInitialState,
    /// Two components with different vocabularies were combined.
    VocabMismatch,
    /// A name contained characters outside `[a-z0-9 -]`.
    InvalidName(String),
}

impl fmt::Display for AutokitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutokitError::DuplicateName(name) => {
                write!(f, "name already registered: `{name}`")
            }
            AutokitError::UnknownName(name) => write!(f, "unknown name: `{name}`"),
            AutokitError::VocabFull { kind, max } => {
                write!(f, "vocabulary full: at most {max} {kind} are supported")
            }
            AutokitError::InvalidState(idx) => write!(f, "state index {idx} out of range"),
            AutokitError::NoInitialState => write!(f, "automaton has no initial state"),
            AutokitError::VocabMismatch => {
                write!(f, "components were built against different vocabularies")
            }
            AutokitError::InvalidName(name) => {
                write!(f, "invalid name `{name}`: only lowercase letters, digits, spaces and `-` are allowed")
            }
        }
    }
}

impl std::error::Error for AutokitError {}
