//! Bloom filter substrate for the RAMBO reproduction.
//!
//! The paper's §2.1 defines the classic Bloom filter and the two identities
//! RAMBO is built on:
//!
//! * **no false negatives** — every inserted key sets all of its `η` bits, so
//!   a later membership test can never miss it;
//! * **bitwise-OR = set union** — the filter of `S₁ ∪ S₂` with shared
//!   parameters equals the OR of the individual filters. This is what makes
//!   a *Bloom Filter for the Union* (BFU) constructible by streaming inserts,
//!   and what makes the §5.3 *fold-over* operation (OR-ing half the index
//!   onto the other half) semantically a coarser partition.
//!
//! [`BloomFilter`] is the fixed-size filter with Kirsch–Mitzenmacher double
//! hashing — the BFU building block.
//!
//! Sizing math ((`m`, `η`) from (`n`, `p`)) lives in [`params`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod filter;
pub mod params;

pub use error::BloomError;
pub use filter::BloomFilter;
pub use params::BloomParams;
