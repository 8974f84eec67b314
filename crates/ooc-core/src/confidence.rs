//! Confidence levels and object outcomes.

use std::fmt;

/// The three confidence levels of a vacillate-adopt-commit object
/// (paper §2), ordered `Vacillate < Adopt < Commit`.
///
/// * `Commit` — the system has agreed; it is safe to decide.
/// * `Adopt` — some processors may have agreed on this value; keep it.
/// * `Vacillate` — the system is undecided; consult the reconciliator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// No guarantee about other processors (except that nobody committed).
    Vacillate,
    /// Every other processor holds this value or vacillates.
    Adopt,
    /// Every other processor holds this value with adopt or commit.
    Commit,
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The paper abbreviates the levels by their first letter (§2).
        let s = match self {
            Confidence::Vacillate => "V",
            Confidence::Adopt => "A",
            Confidence::Commit => "C",
        };
        f.write_str(s)
    }
}

/// The two confidence levels of a classical adopt-commit object
/// (Gafni '98), ordered `Adopt < Commit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AcConfidence {
    /// The value may not be agreed; carry it to the next round.
    Adopt,
    /// All processors received this value; it is safe to decide.
    Commit,
}

impl fmt::Display for AcConfidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AcConfidence::Adopt => "A",
            AcConfidence::Commit => "C",
        };
        f.write_str(s)
    }
}

impl From<AcConfidence> for Confidence {
    /// Embeds the AC lattice into the VAC lattice (adopt ↦ adopt,
    /// commit ↦ commit); `Vacillate` has no AC counterpart, which is
    /// exactly the paper's point.
    fn from(c: AcConfidence) -> Confidence {
        match c {
            AcConfidence::Adopt => Confidence::Adopt,
            AcConfidence::Commit => Confidence::Commit,
        }
    }
}

/// The result of a vacillate-adopt-commit invocation: a confidence level
/// and a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VacOutcome<V> {
    /// Confidence level `X`.
    pub confidence: Confidence,
    /// The accompanying value `σ`.
    pub value: V,
}

impl<V> VacOutcome<V> {
    /// Convenience constructor for `(vacillate, v)`.
    pub fn vacillate(value: V) -> Self {
        VacOutcome {
            confidence: Confidence::Vacillate,
            value,
        }
    }

    /// Convenience constructor for `(adopt, v)`.
    pub fn adopt(value: V) -> Self {
        VacOutcome {
            confidence: Confidence::Adopt,
            value,
        }
    }

    /// Convenience constructor for `(commit, v)`.
    pub fn commit(value: V) -> Self {
        VacOutcome {
            confidence: Confidence::Commit,
            value,
        }
    }

    /// Whether the confidence is `Commit`.
    pub fn is_commit(&self) -> bool {
        self.confidence == Confidence::Commit
    }

    /// Maps the value, preserving the confidence.
    pub fn map<U>(self, f: impl FnOnce(V) -> U) -> VacOutcome<U> {
        VacOutcome {
            confidence: self.confidence,
            value: f(self.value),
        }
    }
}

impl<V: fmt::Display> fmt::Display for VacOutcome<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.confidence, self.value)
    }
}

/// The result of an adopt-commit invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcOutcome<V> {
    /// Confidence level.
    pub confidence: AcConfidence,
    /// The accompanying value.
    pub value: V,
}

impl<V> AcOutcome<V> {
    /// Convenience constructor for `(adopt, v)`.
    pub fn adopt(value: V) -> Self {
        AcOutcome {
            confidence: AcConfidence::Adopt,
            value,
        }
    }

    /// Convenience constructor for `(commit, v)`.
    pub fn commit(value: V) -> Self {
        AcOutcome {
            confidence: AcConfidence::Commit,
            value,
        }
    }

    /// Whether the confidence is `Commit`.
    pub fn is_commit(&self) -> bool {
        self.confidence == AcConfidence::Commit
    }

    /// Embeds into the VAC outcome lattice.
    pub fn into_vac(self) -> VacOutcome<V> {
        VacOutcome {
            confidence: self.confidence.into(),
            value: self.value,
        }
    }
}

impl<V: fmt::Display> fmt::Display for AcOutcome<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.confidence, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_is_ordered() {
        assert!(Confidence::Vacillate < Confidence::Adopt);
        assert!(Confidence::Adopt < Confidence::Commit);
        assert!(AcConfidence::Adopt < AcConfidence::Commit);
    }

    #[test]
    fn ac_embeds_into_vac() {
        assert_eq!(Confidence::from(AcConfidence::Adopt), Confidence::Adopt);
        assert_eq!(Confidence::from(AcConfidence::Commit), Confidence::Commit);
        assert_eq!(AcOutcome::commit(3).into_vac(), VacOutcome::commit(3));
    }

    #[test]
    fn constructors_set_confidence() {
        assert_eq!(VacOutcome::vacillate(1).confidence, Confidence::Vacillate);
        assert_eq!(VacOutcome::adopt(1).confidence, Confidence::Adopt);
        assert!(VacOutcome::commit(1).is_commit());
        assert!(!VacOutcome::adopt(1).is_commit());
        assert!(AcOutcome::commit(1).is_commit());
    }

    #[test]
    fn map_preserves_confidence() {
        let o = VacOutcome::adopt(2).map(|v| v * 10);
        assert_eq!(o, VacOutcome::adopt(20));
    }

    #[test]
    fn display_uses_paper_abbreviations() {
        assert_eq!(VacOutcome::commit(0).to_string(), "(C, 0)");
        assert_eq!(VacOutcome::vacillate(1).to_string(), "(V, 1)");
        assert_eq!(AcOutcome::adopt(1).to_string(), "(A, 1)");
    }
}
