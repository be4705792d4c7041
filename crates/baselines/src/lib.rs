//! Baselines from the RAMBO paper's evaluation (Tables 1, 2, 3, 5).
//!
//! Every comparator the paper measures against is implemented here, from
//! scratch, behind one [`MembershipIndex`] trait so the bench harnesses can
//! sweep them uniformly:
//!
//! | Paper baseline | Type here | Notes |
//! |---|---|---|
//! | Inverted index (Table 1) | [`InvertedIndex`] | exact; doubles as the ground truth oracle for every FPR measurement |
//! | BIGSI (Bradley et al.) | [`BitSlicedIndex`] | uniform bit-sliced signature matrix: row = filter bit position, column = document |
//! | COBS (Bingmann et al.) | [`CompactBitSliced`] | the "compact" variant: documents sorted by cardinality and grouped into blocks with per-block filter sizes |
//! | SBT (Solomon–Kingsford) | [`Sbt`] | greedy-insertion union tree over equal-size Bloom filters |
//! | SSBT (Solomon–Kingsford 2017) | [`SplitSbt`] (dense) | split sim/rem filters — subtree-level resolution and pruning |
//! | HowDeSBT (Harris–Medvedev) | [`SplitSbt`] (compressed) | split filters stored as RRR vectors (see DESIGN.md, "Substitutions" item 4) |
//!
//! RAMBO itself implements the same trait via an adapter ([`RamboIndex`]),
//! so a Table 2 row is literally a loop over `Vec<Box<dyn MembershipIndex>>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitsliced;
mod inverted;
mod sbt;
mod split;
mod traits;

pub use bitsliced::{BitSlicedIndex, CompactBitSliced};
pub use inverted::InvertedIndex;
pub use sbt::Sbt;
pub use split::SplitSbt;
pub use traits::{MembershipIndex, RamboIndex};

/// A document ready for batch indexing: `(name, distinct terms)`.
///
/// All baselines consume pre-hashed/packed `u64` terms (packed k-mers, or
/// word ids / word hashes for text) — the same representation the RAMBO core
/// uses on its fast path.
pub type DocTerms = (String, Vec<u64>);
