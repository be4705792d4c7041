//! Error type for RAMBO construction, mutation and serialization.

use rambo_bitvec::DecodeError;
use std::fmt;

/// Errors surfaced by the RAMBO index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RamboError {
    /// Parameters fail validation (zero dimensions, B < 2, …).
    InvalidParams(String),
    /// A document with this name is already registered; document identity is
    /// the partition-hash input, so duplicates would silently alias buckets.
    DuplicateDocument(String),
    /// A document id not issued by this index was used.
    UnknownDocument(u32),
    /// Fold-over requested but the current bucket count is not divisible by
    /// two (or folding would leave fewer than one bucket).
    FoldUnavailable(String),
    /// Binary deserialization failed.
    Decode(DecodeError),
}

impl fmt::Display for RamboError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParams(msg) => write!(f, "invalid RAMBO parameters: {msg}"),
            Self::DuplicateDocument(name) => write!(f, "document already indexed: {name}"),
            Self::UnknownDocument(id) => write!(f, "unknown document id: {id}"),
            Self::FoldUnavailable(msg) => write!(f, "cannot fold: {msg}"),
            Self::Decode(e) => write!(f, "RAMBO decode failed: {e}"),
        }
    }
}

impl std::error::Error for RamboError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for RamboError {
    fn from(e: DecodeError) -> Self {
        Self::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(RamboError::InvalidParams("B=0".into())
            .to_string()
            .contains("B=0"));
        assert!(RamboError::DuplicateDocument("x".into())
            .to_string()
            .contains('x'));
        assert!(RamboError::UnknownDocument(9).to_string().contains('9'));
        assert!(RamboError::FoldUnavailable("odd B".into())
            .to_string()
            .contains("odd B"));
    }
}
