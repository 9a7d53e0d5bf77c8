//! Scripted executor faults: worker panics.
//!
//! The parallel executors (`ParallelScanner` shards, `ParallelCampaign`
//! block sub-shards) consume an [`ExecFaults`] before each unit of work.
//! A matched rule makes the worker panic right there — exercising the
//! executor's `catch_unwind`/requeue path. Rules are matched by `(worker,
//! nth unit that worker claimed)` and fire at most once, so a retried
//! unit runs clean unless a rule names its retry too.

use std::sync::atomic::{AtomicBool, Ordering};

/// One scripted executor fault: `worker` panics on its `nth` unit.
#[derive(Debug, Clone, Copy)]
pub struct ExecRule {
    /// Worker index the rule applies to.
    pub worker: usize,
    /// 0-based index of the unit of work, among the units this worker
    /// claims, at which the rule fires.
    pub nth: u64,
}

/// A scripted set of executor faults (the plan, before arming).
#[derive(Debug, Clone, Default)]
pub struct ExecPlan {
    /// The rules. Order is irrelevant; each fires at most once.
    pub rules: Vec<ExecRule>,
}

impl ExecPlan {
    /// A plan with one rule: `worker` panics on its `nth` claimed unit.
    pub fn panic_on(worker: usize, nth: u64) -> Self {
        ExecPlan {
            rules: vec![ExecRule { worker, nth }],
        }
    }

    /// Arms the plan for one executor run.
    pub fn armed(&self) -> ExecFaults {
        ExecFaults {
            rules: self
                .rules
                .iter()
                .map(|r| (*r, AtomicBool::new(false)))
                .collect(),
        }
    }
}

/// An armed [`ExecPlan`]: shared by reference across worker threads,
/// each rule consumed at most once.
#[derive(Debug, Default)]
pub struct ExecFaults {
    rules: Vec<(ExecRule, AtomicBool)>,
}

impl ExecFaults {
    /// Consults the plan for `worker` claiming its `unit`-th unit of
    /// work (0-based). Returns whether the worker must panic, consuming
    /// the matching rule.
    pub fn on_unit(&self, worker: usize, unit: u64) -> bool {
        self.rules.iter().any(|(rule, consumed)| {
            rule.worker == worker
                && rule.nth == unit
                && consumed
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
        })
    }

    /// Whether any rule is still unconsumed.
    pub fn pending(&self) -> bool {
        self.rules.iter().any(|(_, c)| !c.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_fire_once_on_matching_unit() {
        let plan = ExecPlan {
            rules: vec![
                ExecRule { worker: 0, nth: 0 },
                ExecRule { worker: 1, nth: 2 },
            ],
        };
        let faults = plan.armed();
        assert!(!faults.on_unit(0, 2));
        assert!(!faults.on_unit(1, 0));
        assert!(faults.on_unit(0, 0));
        assert!(faults.pending());
        assert!(faults.on_unit(1, 2));
        assert!(!faults.on_unit(1, 2), "consumed");
        assert!(!faults.on_unit(0, 0), "consumed");
        assert!(!faults.pending());
    }

    #[test]
    fn empty_plan_never_fires() {
        let faults = ExecPlan::default().armed();
        assert!(!faults.on_unit(0, 0));
        assert!(!faults.pending());
    }
}
