//! Diagnostic core: stable lint codes, severities, structured locations,
//! and human / JSON rendering.
//!
//! Every analyzer in this crate reports through [`Diagnostic`]. Codes are
//! stable identifiers (`SL101`, `SL300`, ...) that tools and tests may
//! match on; messages are for humans and carry no stability guarantee.

use obskit::json::{DecodeError, FromJson, ToJson, Value};
use std::fmt;

/// How serious a finding is.
///
/// `Error` findings make an input unusable as a feedback signal (an
/// unsatisfiable rule fails every controller); `Warning` findings are
/// almost certainly authoring mistakes; `Note` findings are expected in
/// healthy inputs but worth surfacing (e.g. rules that are vacuous in one
/// scenario but binding in another).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; expected in healthy inputs.
    Note,
    /// Probable authoring mistake.
    Warning,
    /// The input is unusable for verification-based feedback.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The catalog of lints. `SL002` and `SL3xx` are rule-book findings
/// (they reason about each rule's language on its own and under the
/// shipped world models and controller corpus — see [`crate::semantic`]),
/// `SL1xx` are controller/automaton lints, and `SL2xx` are parsed-step
/// lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// SL002 — the formula is a tautology; it passes every controller.
    TautologicalSpec,
    /// SL101 — a controller state is unreachable from the initial state.
    UnreachableState,
    /// SL102 — a transition can never fire (its guard requires and
    /// forbids the same proposition, or matches no known observation).
    DeadTransition,
    /// SL103 — a state has overlapping guards leading to different
    /// behaviour; resolution depends on transition order.
    NondeterministicState,
    /// SL104 — a reachable state has no enabled transition for some
    /// observation the world can produce.
    IncompleteState,
    /// SL105 — a state has no outgoing transitions at all (terminal by
    /// design, or a dead end).
    SinkState,
    /// SL106 — vocabulary atoms never referenced by the controller.
    UnusedAtom,
    /// SL201 — a step failed to parse into a guarded observation/action.
    UnparseableStep,
    /// SL202 — a step contains content tokens the lexicon cannot align.
    UnknownToken,
    /// SL203 — a step mentions several actions; only the first takes
    /// effect.
    AmbiguousStep,
    /// SL300 — Büchi emptiness on the spec-only automaton: the rule's
    /// language is empty, so it fails every controller in every world.
    SemUnsatisfiable,
    /// SL301 — the rule has the same verdict for every controller in
    /// some world: it holds with the controller left unconstrained (a
    /// maximally permissive controller already satisfies all fair
    /// paths), or no fair path of the world satisfies it at all. Either
    /// way it cannot rank controllers there.
    SemWorldVacuous,
    /// SL302 — the rule's trigger (the antecedent of its `□(a → …)`
    /// shape) is false on every reachable label of the world's product:
    /// the rule can never fire there.
    SemUnreachableTrigger,
    /// SL303 — two individually realizable rules have no common fair
    /// path in some world: no controller can pass both there, which
    /// silently caps every response's score.
    SemWorldConflict,
    /// SL304 — language containment under every provided world: any
    /// controller satisfying one rule satisfies the other, so the weaker
    /// rule adds no discrimination anywhere the book is deployed.
    SemWorldSubsumed,
    /// SL305 — corpus discrimination: every (or no) controller in the
    /// shipped corpus satisfies the rule, so it contributes zero DPO
    /// ranking power on that corpus.
    SemZeroDiscrimination,
}

impl LintCode {
    /// Every lint in the catalog, in code order.
    pub const ALL: [LintCode; 16] = [
        LintCode::TautologicalSpec,
        LintCode::UnreachableState,
        LintCode::DeadTransition,
        LintCode::NondeterministicState,
        LintCode::IncompleteState,
        LintCode::SinkState,
        LintCode::UnusedAtom,
        LintCode::UnparseableStep,
        LintCode::UnknownToken,
        LintCode::AmbiguousStep,
        LintCode::SemUnsatisfiable,
        LintCode::SemWorldVacuous,
        LintCode::SemUnreachableTrigger,
        LintCode::SemWorldConflict,
        LintCode::SemWorldSubsumed,
        LintCode::SemZeroDiscrimination,
    ];

    /// The stable identifier tools may match on.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::TautologicalSpec => "SL002",
            LintCode::UnreachableState => "SL101",
            LintCode::DeadTransition => "SL102",
            LintCode::NondeterministicState => "SL103",
            LintCode::IncompleteState => "SL104",
            LintCode::SinkState => "SL105",
            LintCode::UnusedAtom => "SL106",
            LintCode::UnparseableStep => "SL201",
            LintCode::UnknownToken => "SL202",
            LintCode::AmbiguousStep => "SL203",
            LintCode::SemUnsatisfiable => "SL300",
            LintCode::SemWorldVacuous => "SL301",
            LintCode::SemUnreachableTrigger => "SL302",
            LintCode::SemWorldConflict => "SL303",
            LintCode::SemWorldSubsumed => "SL304",
            LintCode::SemZeroDiscrimination => "SL305",
        }
    }

    /// Inverse of [`LintCode::code`].
    pub fn from_code(code: &str) -> Option<LintCode> {
        LintCode::ALL.into_iter().find(|c| c.code() == code)
    }

    /// The severity this lint reports at.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::UnparseableStep | LintCode::SemUnsatisfiable | LintCode::SemWorldConflict => {
                Severity::Error
            }
            LintCode::TautologicalSpec
            | LintCode::UnreachableState
            | LintCode::DeadTransition
            | LintCode::UnknownToken => Severity::Warning,
            // Note, not Warning: the paper's own rule book contains
            // subsuming pairs (e.g. phi_5 ⇒ phi_11) — redundancy (SL304)
            // does not corrupt the feedback signal, it only adds no
            // discrimination. The per-world and per-corpus findings
            // (SL301/302/305) are Note for the same reason: a healthy
            // rule book legitimately carries scenario-specific rules that
            // bind in one world and are vacuous in another, and rules
            // every template controller satisfies — advisory
            // signal-power findings, not defects that corrupt the
            // ranking.
            LintCode::NondeterministicState
            | LintCode::IncompleteState
            | LintCode::SinkState
            | LintCode::UnusedAtom
            | LintCode::AmbiguousStep
            | LintCode::SemWorldVacuous
            | LintCode::SemUnreachableTrigger
            | LintCode::SemWorldSubsumed
            | LintCode::SemZeroDiscrimination => Severity::Note,
        }
    }

    /// One-line description of what the lint checks.
    pub fn summary(self) -> &'static str {
        match self {
            LintCode::TautologicalSpec => "specification is a tautology",
            LintCode::UnreachableState => "controller state is unreachable",
            LintCode::DeadTransition => "transition can never fire",
            LintCode::NondeterministicState => "state resolves by transition order",
            LintCode::IncompleteState => "state lacks a transition for a reachable observation",
            LintCode::SinkState => "state has no outgoing transitions",
            LintCode::UnusedAtom => "vocabulary atoms are never referenced",
            LintCode::UnparseableStep => "step does not parse",
            LintCode::UnknownToken => "step contains out-of-lexicon tokens",
            LintCode::AmbiguousStep => "step mentions several actions",
            LintCode::SemUnsatisfiable => "specification language is empty (spec-only automaton)",
            LintCode::SemWorldVacuous => "specification cannot distinguish controllers in a world",
            LintCode::SemUnreachableTrigger => "specification trigger is unreachable in a world",
            LintCode::SemWorldConflict => "specifications have no common fair path in a world",
            LintCode::SemWorldSubsumed => "specification is subsumed under every world model",
            LintCode::SemZeroDiscrimination => "specification has zero ranking power on the corpus",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// What a diagnostic points at: a named subject (a spec, a controller, a
/// step list) and optionally an element within it (a second spec, a
/// state, a step index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    /// The primary subject, e.g. `spec phi_3` or `controller turn right`.
    pub subject: String,
    /// A finer-grained element, e.g. `state 2` or `step 4`.
    pub element: Option<String>,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.element {
            Some(el) => write!(f, "{}, {}", self.subject, el),
            None => write!(f, "{}", self.subject),
        }
    }
}

/// A single finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Severity (defaults to the code's catalog severity).
    pub severity: Severity,
    /// What the finding points at.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(
        code: LintCode,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            location: Location {
                subject: subject.into(),
                element: None,
            },
            message: message.into(),
        }
    }

    /// Attaches a finer-grained element to the location.
    pub fn element(mut self, element: impl Into<String>) -> Diagnostic {
        self.location.element = Some(element.into());
        self
    }

    /// Renders the classic compiler-style one-liner.
    pub fn render(&self) -> String {
        format!(
            "{}[{}]: {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

// The JSON schema is flat and stable: {"code", "severity", "subject",
// "element"?, "message"}, so the nested `Location` flattens and the
// schema cannot drift by refactor.
impl ToJson for Diagnostic {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("code", Value::Str(self.code.code().to_owned())),
            ("severity", Value::Str(self.severity.to_string())),
            ("subject", Value::Str(self.location.subject.clone())),
        ];
        if let Some(el) = &self.location.element {
            fields.push(("element", Value::Str(el.clone())));
        }
        fields.push(("message", Value::Str(self.message.clone())));
        Value::obj(fields)
    }
}

impl FromJson for Diagnostic {
    fn from_json(v: &Value) -> Result<Self, DecodeError> {
        let code_str: String = v.field_as("code")?;
        let code = LintCode::from_code(&code_str)
            .ok_or_else(|| DecodeError(format!("unknown lint code `{code_str}`")))?;
        let severity = match v.field_as::<String>("severity")?.as_str() {
            "note" => Severity::Note,
            "warning" => Severity::Warning,
            "error" => Severity::Error,
            other => return Err(DecodeError(format!("unknown severity `{other}`"))),
        };
        Ok(Diagnostic {
            code,
            severity,
            location: Location {
                subject: v.field_as("subject")?,
                element: v.get("element").map(String::from_json).transpose()?,
            },
            message: v.field_as("message")?,
        })
    }
}

/// Sorts diagnostics into the canonical report order: by subject, then
/// lint code, then element, then message.
///
/// Analyzers emit findings in analysis order, which is convenient for
/// them but an implementation detail for consumers; the CLI's human and
/// JSON output sort through this function so reports are deterministic
/// across runs and insensitive to analyzer scheduling. The sort is
/// stable, so equal keys keep their emission order. Semantic (`SL3xx`)
/// codes slot into the same ordering as every other code.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (
            &a.location.subject,
            a.code.code(),
            &a.location.element,
            &a.message,
        )
            .cmp(&(
                &b.location.subject,
                b.code.code(),
                &b.location.element,
                &b.message,
            ))
    });
}

/// Counts by severity, for exit-code and summary decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Number of `Error` diagnostics.
    pub errors: usize,
    /// Number of `Warning` diagnostics.
    pub warnings: usize,
    /// Number of `Note` diagnostics.
    pub notes: usize,
}

impl Tally {
    /// Tallies a diagnostic list.
    pub fn of(diags: &[Diagnostic]) -> Tally {
        let mut t = Tally::default();
        for d in diags {
            match d.severity {
                Severity::Error => t.errors += 1,
                Severity::Warning => t.warnings += 1,
                Severity::Note => t.notes += 1,
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn codes_are_unique_and_invertible() {
        for code in LintCode::ALL {
            assert_eq!(LintCode::from_code(code.code()), Some(code));
        }
        let mut codes: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), LintCode::ALL.len());
    }

    #[test]
    fn render_is_compiler_style() {
        let d = Diagnostic::new(LintCode::SemUnsatisfiable, "spec phi_1", "no model exists")
            .element("conjunct 2");
        assert_eq!(
            d.render(),
            "error[SL300]: spec phi_1, conjunct 2: no model exists"
        );
    }

    #[test]
    fn json_round_trip_preserves_fields() {
        let d = Diagnostic::new(LintCode::DeadTransition, "controller free", "guard p & !p")
            .element("transition 3");
        let json = d.to_json().to_json();
        assert!(json.contains("\"code\":\"SL102\""), "{json}");
        assert!(json.contains("\"severity\":\"warning\""), "{json}");
        assert!(json.contains("\"subject\":\"controller free\""), "{json}");
        let back = obskit::json::parse(&json).expect("parses");
        assert_eq!(Diagnostic::from_json(&back), Ok(d));
    }

    /// Text over quotes, backslashes, control characters and non-ASCII
    /// letters, to exercise the string escapes.
    const TEXT: &str = "[az \"\\\n\u{1}ü]{0,12}";

    proptest! {
        /// `from_json(parse(to_json(x))) == x` for arbitrary diagnostics,
        /// in both the compact and the pretty layout.
        #[test]
        fn arbitrary_diagnostic_round_trips(
            code in 0..LintCode::ALL.len(),
            severity in 0..3usize,
            (subject, message) in (TEXT, TEXT),
            (has_element, element) in (any::<bool>(), TEXT),
        ) {
            let mut d = Diagnostic::new(LintCode::ALL[code], subject, message);
            d.severity = [Severity::Note, Severity::Warning, Severity::Error][severity];
            if has_element {
                d = d.element(element);
            }
            for json in [d.to_json().to_json(), d.to_json().to_json_pretty()] {
                let parsed = obskit::json::parse(&json);
                prop_assert_eq!(parsed.map(|v| Diagnostic::from_json(&v)), Ok(Ok(d.clone())));
            }
        }
    }

    #[test]
    fn sort_is_canonical_and_idempotent() {
        let mk = |code, subject: &str, element: Option<&str>| {
            let d = Diagnostic::new(code, subject, "m");
            match element {
                Some(el) => d.element(el),
                None => d,
            }
        };
        let mut diags = vec![
            mk(LintCode::SemWorldVacuous, "spec phi_2", Some("world B")),
            mk(LintCode::TautologicalSpec, "spec phi_2", None),
            mk(LintCode::SemWorldVacuous, "spec phi_2", Some("world A")),
            mk(LintCode::SinkState, "controller x", Some("state 1")),
            mk(LintCode::SemUnsatisfiable, "spec phi_1", None),
        ];
        sort_diagnostics(&mut diags);
        let keys: Vec<(&str, &str)> = diags
            .iter()
            .map(|d| (d.location.subject.as_str(), d.code.code()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("controller x", "SL105"),
                ("spec phi_1", "SL300"),
                ("spec phi_2", "SL002"),
                ("spec phi_2", "SL301"),
                ("spec phi_2", "SL301"),
            ]
        );
        // Elements break ties deterministically.
        assert_eq!(diags[3].location.element.as_deref(), Some("world A"));
        let again = {
            let mut copy = diags.clone();
            sort_diagnostics(&mut copy);
            copy
        };
        assert_eq!(diags, again);
    }

    #[test]
    fn severity_ordering_supports_max() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }
}
