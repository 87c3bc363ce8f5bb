//! # xlsm-core — the ISPASS'20 study: bottleneck analyses and case studies
//!
//! This crate is the paper's *contribution* layer, sitting on top of the
//! engine/device/workload substrates:
//!
//! * [`model`] — the analytic throttling model of Section IV-A
//!   (Equations 1–2): predicted application-level throughput once the write
//!   controller engages, explaining why throttled throughput collapses to a
//!   hardware-independent level.
//! * case study V-A, the two-stage throttling policy that removes the
//!   near-stop situation under periodic write bursts, is one decision of
//!   the engine's write controller (`ThrottlePolicy::TwoStage`); the
//!   stability probe sweeps it next to the compaction schedulers.
//! * [`casestudy::dynamic_l0`] — case study V-B: dynamic Level-0 management
//!   that adapts memtable/L0-file size to the observed read/write ratio
//!   (+13 % throughput at 90 % reads in the paper).
//! * [`casestudy::nvm_wal`] — case study V-C: relocating the WAL to
//!   byte-addressable NVM (−18.8 % p90 write latency in the paper); the
//!   module builds the NVM filesystem and an experiment sets
//!   `DbOptions::wal_fs` to it.
//! * [`experiment`] — testbed assembly (device → filesystem → engine) with
//!   the paper's scaled geometry, shared by every figure harness.
//! * [`report`] — table/TSV emission for the figure binaries.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod casestudy;
pub mod experiment;
pub mod model;
pub mod report;

pub use casestudy::dynamic_l0::DynamicL0Manager;
pub use experiment::{scaled_fs_options, Testbed};
pub use model::throttled_throughput_kops;
