//! Workload generation and measurement harness utilities reproducing the
//! RAMBO paper's experimental methodology (§5).
//!
//! * [`archive`] — synthetic ENA-like genome archives: per-document distinct
//!   k-mer counts drawn from a clipped lognormal matched to the paper's §5.1
//!   statistics (scaled), with shared-ancestry overlap; both the *McCortex*
//!   path (pre-filtered distinct k-mer sets) and the *FASTQ* path (simulated
//!   error-laden reads, k-mers extracted on ingestion).
//! * [`fpr`] — the §5.2 false-positive methodology: plant unseen terms with
//!   exponentially distributed multiplicity `V ~ Exp(α)`, query them, and
//!   compare against the recorded ground truth.
//! * [`timing`] / [`stats`] — wall-clock measurement and summary statistics.
//! * [`telemetry`] — lock-free result-cache counters for the serving
//!   engine.
//! * [`report`] — fixed-width table printing so each harness binary emits
//!   rows shaped like the paper's tables.
//! * [`netclient`] — a raw-bytes TCP test client (timeouts, frame-split
//!   injection, binary and RESP framings) shared by the serving crates'
//!   protocol test suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod fpr;
pub mod netclient;
pub mod report;
pub mod stats;
pub mod telemetry;
pub mod timing;

pub use archive::{ArchiveParams, SyntheticArchive};
pub use fpr::{FprMeasurement, PlantedQueries};
pub use netclient::TestClient;
pub use report::Table;
pub use telemetry::{CacheSnapshot, CacheTelemetry};
pub use timing::time;
