//! Bit-vector substrate for the RAMBO reproduction.
//!
//! Each structure answers a specific need of the paper:
//!
//! * [`BitVec`] — the dense, word-addressed bit array behind every
//!   query-time document bitmap and every baseline filter. The paper's §5.1
//!   "Bitmap arrays" discussion (union = word-OR, intersection = word-AND,
//!   efficient once >15% of bits are set) is implemented here as whole-word
//!   operations through the portable unrolled kernels in [`kernel`], one
//!   compilation that LLVM auto-vectorizes at the baseline target.
//! * [`RrrVec`] — an RRR-style compressed bitvector (Raman–Raman–Rao \[25\]),
//!   cited by the paper as the compression used by HowDeSBT and SSBT for
//!   their tree nodes (Table 3 caption). Blocks of 15 bits are stored as a
//!   (class, offset) pair under enumerative coding; supports `access` and
//!   `rank1` without decompression. It only sizes the baselines' nodes;
//!   RAMBO's BFU matrices are stored dense.
//! * [`WordStore`] — the word storage behind a BFU matrix: owned words, or
//!   a zero-copy [`WordView`] into a caller-provided `Arc<[u8]>` (typically
//!   a memory-mapped index file), so an index whose 8-byte-aligned word
//!   payloads sit in that buffer opens in place.
//! * [`PagedWords`] — file-backed word storage faulted in row-aligned
//!   blocks through the sharded, byte-budgeted block cache of a
//!   [`PagedFile`], so a many-GB catalog opens by reading metadata only and
//!   queries touch just the rows they probe (per-tier traffic in
//!   [`BlockCacheCounters`]).
//!
//! Unsafe policy: the crate is `deny(unsafe_code)` with one scoped, audited
//! allow — the aligned `&[u8]` → `&[u64]` reinterpretation behind the
//! zero-copy view (see `store::cast_words` and DESIGN.md for the safety
//! argument). CI fails if the keyword appears in any other file here.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod error;
pub mod kernel;
mod paged;
mod rrr;
mod store;

pub use dense::BitVec;
pub use error::DecodeError;
pub use paged::{BlockCacheCounters, BlockCacheSnapshot, PageGuard, PagedFile, PagedWords};
pub use rrr::RrrVec;
pub use store::{skip_word_padding, write_word_padding, WordStore, WordView};
