//! # xlsm-workload — the `db_bench` equivalent
//!
//! Workload generation and measurement for the storage-evolution study:
//!
//! * [`spec::WorkloadSpec`] — `randomreadrandomwrite`-style mixes with
//!   configurable read/write ratio, value size, thread count, duration and
//!   periodic write bursts (for the case-study experiments);
//! * [`driver`] — closed-loop client threads against an [`xlsm_engine::Db`],
//!   with 100 ms throughput timelines; per-op latency is the engine's own
//!   op record ([`xlsm_engine::OpRecord`]);
//! * [`rawio`] — raw-device microbenchmarks (the Intel Open Storage Toolkit
//!   stand-in behind the paper's Fig. 1);
//! * [`sampler`] — background samplers for time series such as the Level-0
//!   file count (Fig. 8) or the writer-queue depth (Fig. 16);
//! * [`keys`] — deterministic key/value generation (uniform and zipfian).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod driver;
pub mod keys;
pub mod rawio;
pub mod sampler;
pub mod spec;

pub use driver::{fill_db, run_workload, WorkloadResult};
pub use keys::{KeySpace, ValueGenerator};
pub use rawio::{raw_mixed_kops, RawIoResult};
pub use sampler::Sampler;
pub use spec::{BurstSpec, KeyDistribution, WorkloadSpec};
