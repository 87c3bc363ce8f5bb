//! The **stability-policy family**: one enum naming every performance-
//! stability intervention the stability probe sweeps, so the benches and
//! figure harnesses can sweep them uniformly.
//!
//! The paper's case study V-A (two-stage throttling) attacks write-stall
//! instability from the *foreground* side — pacing writers. The scheduler
//! work puts it in a wider family that also includes *background*
//! interventions: which level the compactor services next
//! ([`xlsm_engine::CompactionScheduler`]) and how fast the background I/O
//! may run ([`xlsm_engine::BgIoLimiter`]).
//!
//! Every member is fully described by its options
//! ([`StabilityPolicy::apply`]). Case study V-B (dynamic Level-0
//! management) is not a member: under the probe's write-heavy bursts its
//! manager never has a decision to make (see EXPERIMENTS.md); it is
//! measured where it acts, by [`super::dynamic_l0`] and Fig. 19.

use xlsm_engine::{CompactionScheduler, DbOptions, ThrottlePolicy};

/// Background I/O budget granted to the [`StabilityPolicy::Fair`] variant,
/// in bytes per second of virtual time. Chosen to sit above the steady
/// compaction demand of the scaled testbeds on every device (so the mean
/// throughput stays within a few percent of greedy) while clipping the
/// bursts where flush and compaction I/O gang up on the device at once.
/// Auto-tuning scales it up with measured compaction debt (to 4× under
/// sustained pressure), so a temporarily undersized budget self-corrects
/// instead of wedging the LSM.
pub const FAIR_BG_IO_RATE: u64 = 256 << 20;

/// Stage-1 rate floor of [`ThrottlePolicy::TwoStage`] in the stability sweep
/// (bytes/s): half the default `delayed_write_rate`. Fig. 18's own harness
/// floors at the full 16 MiB/s.
pub const TWO_STAGE_MIN_RATE: u64 = 8 << 20;

/// One member of the stability-policy family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StabilityPolicy {
    /// Baseline: greedy max-score compaction picking, unlimited background
    /// I/O, the stock Algorithm-1 write controller.
    Greedy,
    /// Round-robin compaction picking across eligible levels; otherwise the
    /// baseline configuration.
    RoundRobin,
    /// Deficit-based fair compaction picking **plus** the shared
    /// background-I/O budget with flush priority and debt-scaled
    /// auto-tuning — the full scheduler-side intervention.
    Fair,
    /// Case study V-A: two-stage throttling (foreground-side), greedy
    /// compaction picking.
    TwoStage,
}

impl StabilityPolicy {
    /// Every member, in the order the stability tables report them.
    pub const ALL: [StabilityPolicy; 4] = [
        StabilityPolicy::Greedy,
        StabilityPolicy::RoundRobin,
        StabilityPolicy::Fair,
        StabilityPolicy::TwoStage,
    ];

    /// Stable identifier used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            StabilityPolicy::Greedy => "greedy",
            StabilityPolicy::RoundRobin => "round-robin",
            StabilityPolicy::Fair => "fair",
            StabilityPolicy::TwoStage => "two-stage",
        }
    }

    /// Configures `opts` for this policy.
    pub fn apply(self, opts: &mut DbOptions) {
        match self {
            StabilityPolicy::Greedy => {
                opts.compaction_scheduler = CompactionScheduler::Greedy;
            }
            StabilityPolicy::RoundRobin => {
                opts.compaction_scheduler = CompactionScheduler::RoundRobin;
            }
            StabilityPolicy::Fair => {
                opts.compaction_scheduler = CompactionScheduler::Fair;
                opts.bg_io_rate_bytes_per_sec = FAIR_BG_IO_RATE;
            }
            StabilityPolicy::TwoStage => {
                opts.compaction_scheduler = CompactionScheduler::Greedy;
                opts.throttle_policy = ThrottlePolicy::TwoStage {
                    min_rate: TWO_STAGE_MIN_RATE,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_installs_the_named_scheduler() {
        for policy in StabilityPolicy::ALL {
            let mut opts = DbOptions::default();
            policy.apply(&mut opts);
            let expect = match policy {
                StabilityPolicy::RoundRobin => CompactionScheduler::RoundRobin,
                StabilityPolicy::Fair => CompactionScheduler::Fair,
                _ => CompactionScheduler::Greedy,
            };
            assert_eq!(opts.compaction_scheduler, expect, "{policy:?}");
        }
    }

    #[test]
    fn only_fair_enables_the_io_budget() {
        for policy in StabilityPolicy::ALL {
            let mut opts = DbOptions::default();
            policy.apply(&mut opts);
            if policy == StabilityPolicy::Fair {
                assert_eq!(opts.bg_io_rate_bytes_per_sec, FAIR_BG_IO_RATE);
            } else {
                assert_eq!(opts.bg_io_rate_bytes_per_sec, 0);
            }
            opts.validate().expect("policy options must validate");
        }
    }

    #[test]
    fn two_stage_installs_the_case_study_throttle() {
        let mut opts = DbOptions::default();
        StabilityPolicy::TwoStage.apply(&mut opts);
        assert_eq!(
            opts.throttle_policy,
            ThrottlePolicy::TwoStage {
                min_rate: TWO_STAGE_MIN_RATE
            }
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = StabilityPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StabilityPolicy::ALL.len());
    }
}
