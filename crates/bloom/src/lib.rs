//! Bloom-filter sizing math for the RAMBO reproduction.
//!
//! RAMBO's Bloom filter is the BFU: one bucket's column of a repetition's
//! bit matrix (paper §2.1, §3), stored and probed by `rambo-core`. What
//! lives here is the arithmetic that sizes it ([`params::optimal_m`]) and
//! predicts its false-positive rate ([`params::expected_fpr`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod params;
