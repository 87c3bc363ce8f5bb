//! Deterministic fault injection for the simulated filesystem.
//!
//! A [`FaultPlan`] describes *what* should go wrong — scripted I/O errors
//! on the Nth read/write/sync/delete, torn-write truncation on append,
//! bit-flip corruption on read (scripted, or drawn from the plan's seeded
//! RNG), ENOSPC and capacity shrink at the Nth extent allocation, and a
//! scripted power cut — and the filesystem consults it at the top of
//! every [`crate::FileHandle`] operation. Because the plan is driven by a
//! seeded [`Xoshiro256`] stream and per-operation counters, a given
//! `(plan, workload)` pair always injects the exact same faults at the
//! exact same points: failures found by the fault oracle replay
//! deterministically.

use xlsm_sim::rng::Xoshiro256;

/// The class of filesystem operation a fault decision applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// [`crate::FileHandle::read_at`].
    Read,
    /// [`crate::FileHandle::append`].
    Append,
    /// [`crate::FileHandle::sync`] and [`crate::FileHandle::flush_data`].
    Sync,
}

impl FaultOp {
    /// Short name used in [`crate::FsError::Io::op`].
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Append => "append",
            FaultOp::Sync => "sync",
        }
    }
}

/// A deterministic description of the faults to inject.
///
/// Scripted `*_nth_*` triggers are 1-based and fire exactly once;
/// [`FaultPlan::bit_flip_read_prob`] draws from the plan's seeded RNG on
/// every matching read, and at zero draws nothing. When [`FaultPlan::path_filter`] is set, error/torn/bit-flip
/// triggers (and their per-class counters) only consider files whose path
/// contains the filter substring; the global operation counter that drives
/// [`FaultPlan::power_cut_at_op`] counts *every* operation regardless,
/// since power loss is not file-scoped.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's private RNG stream.
    pub seed: u64,
    /// Only operations on paths containing this substring are candidates
    /// for error/torn/bit-flip injection (`None` = all files).
    pub path_filter: Option<String>,
    /// Fail the Nth matching read (1-based).
    pub fail_nth_read: Option<u64>,
    /// Fail the Nth matching append (1-based).
    pub fail_nth_write: Option<u64>,
    /// Fail the Nth matching sync/flush (1-based).
    pub fail_nth_sync: Option<u64>,
    /// Tear the Nth matching append (1-based): a random strict prefix of
    /// the payload is applied before the error is returned, modelling a
    /// torn write.
    pub torn_write_nth: Option<u64>,
    /// Flip one random bit in the payload returned by the Nth matching
    /// read (1-based). The stored bytes are untouched — the corruption is
    /// transient, as with a bus/DRAM flip.
    pub bit_flip_nth_read: Option<u64>,
    /// Probability that a matching read's payload gets one bit flipped.
    pub bit_flip_read_prob: f64,
    /// Simulate a power cut when the global operation counter (reads +
    /// appends + syncs, all files) reaches this value (1-based).
    pub power_cut_at_op: Option<u64>,
    /// Fail the Nth extent allocation (1-based) with
    /// [`crate::FsError::DeviceFull`]. Allocations are counted on their own
    /// dedicated counter — they advance neither the global operation counter
    /// ([`FaultPlan::power_cut_at_op`] sweeps stay stable) nor the per-class
    /// read/write/sync counters, and [`FaultPlan::path_filter`] does not
    /// apply (the allocator is shared by all files).
    pub fail_nth_alloc: Option<u64>,
    /// At the Nth extent allocation (1-based), carve `pages` pages out of
    /// the allocator's free pool before the allocation proceeds — a scripted
    /// capacity shrink that drives the filesystem toward the full-disk edge
    /// deterministically. Uses the same dedicated allocation counter as
    /// [`FaultPlan::fail_nth_alloc`].
    pub shrink_at_alloc: Option<(u64, u64)>,
    /// Fail the Nth matching [`crate::SimFs::delete`] (1-based) with an
    /// I/O error, leaving the file in place. Deletes are counted on their
    /// own dedicated counter (the global operation counter that drives
    /// [`FaultPlan::power_cut_at_op`] does not advance);
    /// [`FaultPlan::path_filter`] applies as for the per-class triggers.
    pub fail_nth_delete: Option<u64>,
    /// Whether injected errors are reported as retryable (transient) or
    /// hard. Power-cut failures are always hard.
    pub retryable: bool,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            path_filter: None,
            fail_nth_read: None,
            fail_nth_write: None,
            fail_nth_sync: None,
            torn_write_nth: None,
            bit_flip_nth_read: None,
            bit_flip_read_prob: 0.0,
            power_cut_at_op: None,
            fail_nth_alloc: None,
            shrink_at_alloc: None,
            fail_nth_delete: None,
            retryable: true,
        }
    }
}

/// What the injector decided for one operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum FaultOutcome {
    /// Proceed normally.
    None,
    /// Fail the operation with an I/O error.
    Error {
        /// Whether the error should be reported as retryable.
        retryable: bool,
    },
    /// Apply only the first `keep` payload bytes, then fail (append only).
    Torn {
        /// Bytes of the payload to apply before failing (`keep < len`).
        keep: usize,
        /// Whether the error should be reported as retryable.
        retryable: bool,
    },
    /// Flip `bit` of `byte` in the returned payload (read only).
    BitFlip {
        /// Byte index within the returned payload.
        byte: usize,
        /// Bit index within that byte (0..8).
        bit: u32,
    },
    /// Cut power to the filesystem and fail the operation.
    PowerCut,
}

/// What the injector decided for one extent allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AllocFault {
    /// Proceed normally.
    None,
    /// Fail the allocation with [`crate::FsError::DeviceFull`].
    Fail,
    /// Carve this many pages out of the free pool, then proceed.
    Shrink(u64),
}

/// Live injector state: the plan plus its RNG stream and counters.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: Xoshiro256,
    ops: u64,
    reads: u64,
    writes: u64,
    syncs: u64,
    allocs: u64,
    deletes: u64,
}

impl FaultState {
    /// Total operations observed (the counter [`FaultPlan::power_cut_at_op`]
    /// triggers against) — lets a harness run a workload clean under an
    /// empty plan, read the op count, and then enumerate cut points.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    pub fn new(plan: FaultPlan) -> FaultState {
        let rng = Xoshiro256::new(plan.seed);
        FaultState {
            plan,
            rng,
            ops: 0,
            reads: 0,
            writes: 0,
            syncs: 0,
            allocs: 0,
            deletes: 0,
        }
    }

    fn matches(&self, path: &str) -> bool {
        match &self.plan.path_filter {
            Some(needle) => path.contains(needle.as_str()),
            None => true,
        }
    }

    fn chance(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.next_f64() < prob
    }

    /// Decides the fate of one extent allocation. Allocations run on their
    /// own counter so scripted ENOSPC/capacity-shrink triggers never shift
    /// the operation counts that power-cut triggers are set against.
    pub fn decide_alloc(&mut self) -> AllocFault {
        self.allocs += 1;
        if let Some((nth, pages)) = self.plan.shrink_at_alloc {
            if nth == self.allocs {
                return AllocFault::Shrink(pages);
            }
        }
        if self.plan.fail_nth_alloc == Some(self.allocs) {
            return AllocFault::Fail;
        }
        AllocFault::None
    }

    /// Decides the fate of one [`crate::SimFs::delete`] of `path`. Deletes
    /// run on their own counter, like allocations, so scripted delete
    /// failures never shift power-cut triggers. Returns whether the
    /// delete should fail (and whether the error is retryable).
    pub fn decide_delete(&mut self, path: &str) -> Option<bool> {
        if !self.matches(path) {
            return None;
        }
        self.deletes += 1;
        if self.plan.fail_nth_delete == Some(self.deletes) {
            return Some(self.plan.retryable);
        }
        None
    }

    /// Decides the fate of one operation on `path` moving `len` payload
    /// bytes.
    pub fn decide(&mut self, op: FaultOp, path: &str, len: usize) -> FaultOutcome {
        self.ops += 1;
        if self.plan.power_cut_at_op == Some(self.ops) {
            return FaultOutcome::PowerCut;
        }
        if !self.matches(path) {
            return FaultOutcome::None;
        }
        let retryable = self.plan.retryable;
        match op {
            FaultOp::Read => {
                self.reads += 1;
                if self.plan.fail_nth_read == Some(self.reads) {
                    return FaultOutcome::Error { retryable };
                }
                if len > 0
                    && (self.plan.bit_flip_nth_read == Some(self.reads)
                        || self.chance(self.plan.bit_flip_read_prob))
                {
                    return FaultOutcome::BitFlip {
                        byte: self.rng.next_below(len as u64) as usize,
                        bit: self.rng.next_below(8) as u32,
                    };
                }
            }
            FaultOp::Append => {
                self.writes += 1;
                if self.plan.torn_write_nth == Some(self.writes) {
                    let keep = if len > 0 {
                        self.rng.next_below(len as u64) as usize
                    } else {
                        0
                    };
                    return FaultOutcome::Torn { keep, retryable };
                }
                if self.plan.fail_nth_write == Some(self.writes) {
                    return FaultOutcome::Error { retryable };
                }
            }
            FaultOp::Sync => {
                self.syncs += 1;
                if self.plan.fail_nth_sync == Some(self.syncs) {
                    return FaultOutcome::Error { retryable };
                }
            }
        }
        FaultOutcome::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_nth_write_fires_once() {
        let mut s = FaultState::new(FaultPlan {
            fail_nth_write: Some(2),
            ..FaultPlan::default()
        });
        assert_eq!(s.decide(FaultOp::Append, "a", 10), FaultOutcome::None);
        assert_eq!(
            s.decide(FaultOp::Append, "a", 10),
            FaultOutcome::Error { retryable: true }
        );
        assert_eq!(s.decide(FaultOp::Append, "a", 10), FaultOutcome::None);
    }

    #[test]
    fn path_filter_scopes_counters() {
        let mut s = FaultState::new(FaultPlan {
            fail_nth_write: Some(1),
            path_filter: Some(".sst".into()),
            ..FaultPlan::default()
        });
        // Non-matching appends neither fail nor advance the write counter.
        assert_eq!(
            s.decide(FaultOp::Append, "db/000001.log", 8),
            FaultOutcome::None
        );
        assert_eq!(
            s.decide(FaultOp::Append, "db/000001.log", 8),
            FaultOutcome::None
        );
        assert_eq!(
            s.decide(FaultOp::Append, "db/000002.sst", 8),
            FaultOutcome::Error { retryable: true }
        );
    }

    #[test]
    fn torn_write_keeps_strict_prefix() {
        let mut s = FaultState::new(FaultPlan {
            torn_write_nth: Some(1),
            retryable: false,
            ..FaultPlan::default()
        });
        match s.decide(FaultOp::Append, "f", 100) {
            FaultOutcome::Torn { keep, retryable } => {
                assert!(keep < 100);
                assert!(!retryable);
            }
            other => panic!("expected torn outcome, got {other:?}"),
        }
    }

    #[test]
    fn power_cut_counts_all_ops() {
        let mut s = FaultState::new(FaultPlan {
            power_cut_at_op: Some(3),
            path_filter: Some("never-matches".into()),
            ..FaultPlan::default()
        });
        assert_eq!(s.decide(FaultOp::Read, "a", 1), FaultOutcome::None);
        assert_eq!(s.decide(FaultOp::Sync, "b", 0), FaultOutcome::None);
        assert_eq!(s.decide(FaultOp::Append, "c", 1), FaultOutcome::PowerCut);
    }

    #[test]
    fn alloc_faults_use_their_own_counter() {
        let mut s = FaultState::new(FaultPlan {
            fail_nth_alloc: Some(2),
            shrink_at_alloc: Some((1, 64)),
            power_cut_at_op: Some(1),
            ..FaultPlan::default()
        });
        // Allocations neither consult nor advance the global op counter.
        assert_eq!(s.decide_alloc(), AllocFault::Shrink(64));
        assert_eq!(s.ops(), 0);
        assert_eq!(s.decide_alloc(), AllocFault::Fail);
        assert_eq!(s.decide_alloc(), AllocFault::None);
        // The very first file op still hits the scripted power cut.
        assert_eq!(s.decide(FaultOp::Append, "a", 1), FaultOutcome::PowerCut);
    }

    #[test]
    fn delete_faults_use_their_own_counter_and_respect_the_filter() {
        let mut s = FaultState::new(FaultPlan {
            fail_nth_delete: Some(2),
            path_filter: Some(".log".into()),
            power_cut_at_op: Some(1),
            ..FaultPlan::default()
        });
        // Non-matching paths neither fail nor advance the delete counter.
        assert_eq!(s.decide_delete("db/000002.sst"), None);
        assert_eq!(s.decide_delete("db/000001.log"), None);
        assert_eq!(s.decide_delete("db/000003.log"), Some(true));
        assert_eq!(s.decide_delete("db/000004.log"), None);
        // Deletes never advanced the global op counter: the first file op
        // still hits the scripted power cut.
        assert_eq!(s.ops(), 0);
        assert_eq!(s.decide(FaultOp::Append, "a", 1), FaultOutcome::PowerCut);
    }

    #[test]
    fn probabilistic_stream_is_deterministic() {
        let plan = FaultPlan {
            bit_flip_read_prob: 0.3,
            seed: 42,
            ..FaultPlan::default()
        };
        let run = |plan: FaultPlan| {
            let mut s = FaultState::new(plan);
            (0..64)
                .map(|_| s.decide(FaultOp::Read, "x", 16) != FaultOutcome::None)
                .collect::<Vec<bool>>()
        };
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f), "some reads should flip at p=0.3");
        assert!(!a.iter().all(|&f| f), "not all reads should flip at p=0.3");
    }

    #[test]
    fn bit_flip_targets_payload_range() {
        let mut s = FaultState::new(FaultPlan {
            bit_flip_nth_read: Some(1),
            ..FaultPlan::default()
        });
        match s.decide(FaultOp::Read, "f", 17) {
            FaultOutcome::BitFlip { byte, bit } => {
                assert!(byte < 17);
                assert!(bit < 8);
            }
            other => panic!("expected bit flip, got {other:?}"),
        }
    }
}
