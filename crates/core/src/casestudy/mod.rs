//! The case studies of Section V that live above the engine — V-B
//! ([`dynamic_l0`]) and V-C ([`nvm_wal`]); V-A is the engine's
//! `ThrottlePolicy::TwoStage` — plus the [`policy`] module: one sweepable
//! stability-policy family of option settings.

pub mod dynamic_l0;
pub mod nvm_wal;
pub mod policy;
