//! # xlsm-suite — facade for the `xlsm` storage-evolution study
//!
//! Re-exports every layer of the workspace so examples and integration tests
//! can depend on a single crate:
//!
//! * [`sim`] — deterministic virtual-time runtime ([`xlsm_sim`])
//! * [`device`] — simulated SSD/NVM devices ([`xlsm_device`])
//! * [`simfs`] — in-memory filesystem over devices ([`xlsm_simfs`])
//! * [`engine`] — the LSM-tree key-value store ([`xlsm_engine`])
//! * [`workload`] — db_bench-equivalent harness ([`xlsm_workload`])
//! * [`study`] — the paper's analyses and case studies ([`xlsm_core`])
//!
//! See the repository README for a quickstart.

#![deny(unsafe_code)]

pub use xlsm_core as study;
pub use xlsm_device as device;
pub use xlsm_engine as engine;
pub use xlsm_sim as sim;
pub use xlsm_simfs as simfs;
pub use xlsm_workload as workload;
