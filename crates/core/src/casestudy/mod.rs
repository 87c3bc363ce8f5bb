//! The case studies of Section V that live above the engine: V-B
//! ([`dynamic_l0`]), logic the engine does not have, and V-C ([`nvm_wal`]),
//! the NVM device its log goes on. V-A is one decision of the engine's
//! write controller, `ThrottlePolicy::TwoStage`. A case study here is
//! logic; its options are set where the experiment runs.

pub mod dynamic_l0;
pub mod nvm_wal;
