//! Ben-Or's two message kinds (paper Algorithm 5).

/// Messages of one VAC round of Ben-Or.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenOrMsg {
    /// First exchange, the paper's `⟨1, v⟩`: report your preference.
    Report {
        /// The sender's current preference.
        value: bool,
    },
    /// Second exchange: the paper's `⟨2, v, ratify⟩` (when the sender saw a
    /// `> n/2` majority for `v` among reports) or `⟨2, ?⟩` (when it did
    /// not, encoded as `None`).
    Ratify {
        /// `Some(v)` to ratify `v`; `None` for the `⟨2, ?⟩` non-vote.
        value: Option<bool>,
    },
}

impl BenOrMsg {
    /// Whether this is a ratify message carrying a value.
    pub fn is_real_ratify(&self) -> bool {
        matches!(self, BenOrMsg::Ratify { value: Some(_) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_ratify_detection() {
        assert!(BenOrMsg::Ratify { value: Some(true) }.is_real_ratify());
        assert!(!BenOrMsg::Ratify { value: None }.is_real_ratify());
        assert!(!BenOrMsg::Report { value: true }.is_real_ratify());
    }
}
