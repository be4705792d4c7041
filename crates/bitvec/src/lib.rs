//! Bit-vector substrate for the RAMBO reproduction.
//!
//! Three structures, each motivated by a specific need of the paper:
//!
//! * [`BitVec`] — the dense, word-addressed bit array underlying every Bloom
//!   filter and every document bitmap. The paper's §5.1 "Bitmap arrays"
//!   discussion (union = word-OR, intersection = word-AND, efficient once
//!   >15% of bits are set) is implemented here as whole-word operations.
//! * [`RankBitVec`] — a rank/select index over a dense vector (512-bit
//!   superblocks + word scans). Used wherever we need "how many set bits
//!   before position i" style queries, e.g. converting result bitmaps to
//!   ranked document lists.
//! * [`RrrVec`] — an RRR-style compressed bitvector (Raman–Raman–Rao \[25\]),
//!   cited by the paper as the compression used by HowDeSBT and SSBT for
//!   their tree nodes (Table 3 caption). Blocks of 15 bits are stored as a
//!   (class, offset) pair under enumerative coding; supports `access` and
//!   `rank1` without decompression. Its row-major sibling [`RrrMatrix`]
//!   stores an `m × B` matrix as one RRR stream per row — the compressed
//!   storage backend for cold BFU tiers.
//! * [`PagedWords`] — file-backed word storage faulted in row-aligned
//!   blocks through the sharded, byte-budgeted block cache of a
//!   [`PagedFile`], so a many-GB catalog opens by reading metadata only and
//!   queries touch just the rows they probe (per-tier traffic in
//!   [`BlockCacheCounters`]).
//!
//! All structures serialize to a compact binary form (magic + version header)
//! and deserialize with validation, since the paper's fold-over workflow
//! writes indexes to disk at multiple sizes. Dense word payloads are
//! 8-byte-aligned on disk so indexes can also be *opened in place*: the
//! [`WordStore`] storage abstraction backs a [`BitVec`] either with owned
//! words or with a zero-copy view into a caller-provided `Arc<[u8]>`
//! (typically a memory-mapped file), and the word-loop hot paths run through
//! the runtime-dispatched kernels in [`kernel`] — a portable unrolled
//! [`Backend::Scalar`] everywhere, 256-bit [`Backend::Avx2`] variants where
//! `is_x86_feature_detected!` confirms support (pin a [`Kernel`] to choose
//! one explicitly).
//!
//! Unsafe policy: the crate is `deny(unsafe_code)` with scoped, audited
//! allows in exactly two places — the aligned `&[u8]` → `&[u64]`
//! reinterpretation behind the zero-copy view (see `store::cast_words`),
//! and the guarded `target_feature` dispatch of the AVX2 kernels (see
//! [`kernel`]'s module docs and DESIGN.md for the safety arguments).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod error;
pub mod kernel;
mod paged;
mod rank;
mod rrr;
mod store;

pub use dense::BitVec;
pub use error::DecodeError;
pub use kernel::{Backend, Kernel};
pub use paged::{BlockCacheCounters, BlockCacheSnapshot, PageGuard, PagedFile, PagedWords};
pub use rank::RankBitVec;
pub use rrr::{RrrMatrix, RrrVec};
pub use store::{skip_word_padding, write_word_padding, WordStore, WordView};
