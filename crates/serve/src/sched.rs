//! Admission control and the two-level fair scheduler.
//!
//! The existing executors schedule *within* one campaign (per-block
//! bins of sub-shards); the daemon must schedule *across* campaigns owned by
//! different tenants. The shape here is a classic two-level queue:
//!
//! * level 1 — one FIFO of pending units per job (units run in index
//!   order within a job, which keeps resume bookkeeping trivial),
//! * level 2 — a deficit-round-robin (DRR) dispatcher over the jobs.
//!   Each round a job's deficit grows by `quantum × tenant weight`; the
//!   job dispatches units while its deficit covers their probe cost.
//!
//! DRR gives each tenant a long-run probe-volume share proportional to
//! its weight regardless of job sizes — a fifteen-block campaign and a
//! two-block job interleave instead of queueing, so the small job
//! finishes within ~2× of its solo runtime (asserted in the fairness
//! test below on a virtual clock).
//!
//! The scheduler is pure state-machine code: no clocks, no threads, no
//! I/O. Dispatch order is a deterministic function of the admitted job
//! set, which is half of the daemon's determinism story (the other half
//! being that units themselves are pure functions of `(spec, unit)`).

use std::collections::{BTreeMap, VecDeque};

/// Admission limits applied before a job enters the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Most jobs one tenant may have active (queued or running) at once.
    pub max_active_per_tenant: usize,
    /// Most jobs active across all tenants.
    pub max_active_total: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_active_per_tenant: 4,
            max_active_total: 16,
        }
    }
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant is at its active-job cap.
    TenantBusy {
        /// The refusing cap.
        limit: usize,
    },
    /// The daemon is at its global active-job cap.
    DaemonBusy {
        /// The refusing cap.
        limit: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TenantBusy { limit } => {
                write!(f, "tenant already has {limit} active jobs (the cap)")
            }
            AdmissionError::DaemonBusy { limit } => {
                write!(f, "daemon already has {limit} active jobs (the cap)")
            }
        }
    }
}

/// One job's pending-unit queue inside the dispatcher.
#[derive(Debug)]
struct JobQueue {
    job: u64,
    tenant: String,
    weight: u64,
    deficit: u64,
    /// Pending `(unit index, probe cost)` pairs, dispatched front-first.
    units: VecDeque<(usize, u64)>,
}

/// The deficit-round-robin dispatcher over admitted jobs.
///
/// `quantum` is the probe budget a weight-1 job accrues per round.
/// Jobs are visited in admission order; a job with enough deficit to
/// cover its head unit dispatches it (and keeps dispatching until the
/// deficit runs dry), then the cursor moves on.
#[derive(Debug)]
pub struct DrrScheduler {
    quantum: u64,
    jobs: Vec<JobQueue>,
    cursor: usize,
}

impl DrrScheduler {
    /// A dispatcher granting `quantum` probes per round per unit of
    /// tenant weight. Zero is clamped to 1.
    pub fn new(quantum: u64) -> Self {
        DrrScheduler {
            quantum: quantum.max(1),
            jobs: Vec::new(),
            cursor: 0,
        }
    }

    /// Admits a job with `units` pending `(index, cost)` pairs. Units
    /// dispatch in the given order.
    pub fn admit(
        &mut self,
        job: u64,
        tenant: &str,
        weight: u64,
        units: impl IntoIterator<Item = (usize, u64)>,
    ) {
        self.jobs.push(JobQueue {
            job,
            tenant: tenant.to_owned(),
            weight: weight.max(1),
            deficit: 0,
            units: units.into_iter().collect(),
        });
    }

    /// Removes a job (cancel or failure), dropping its pending units.
    pub fn remove(&mut self, job: u64) {
        if let Some(pos) = self.jobs.iter().position(|q| q.job == job) {
            self.jobs.remove(pos);
            if self.cursor > pos {
                self.cursor -= 1;
            }
        }
    }

    /// Puts a unit back at the *front* of its job's queue (a worker
    /// panicked mid-unit; the unit re-runs next). No deficit refund —
    /// the lost attempt's cost stays charged, which keeps misbehaving
    /// jobs from gaining share through failure.
    pub fn requeue(&mut self, job: u64, unit: usize, cost: u64) {
        if let Some(q) = self.jobs.iter_mut().find(|q| q.job == job) {
            q.units.push_front((unit, cost));
        }
    }

    /// Dispatches the next `(job, unit)` under DRR, or `None` when every
    /// queue is empty. Empty jobs stay admitted (their units may be
    /// requeued) but accrue no deficit.
    pub fn next_unit(&mut self) -> Option<(u64, usize)> {
        if self.total_pending() == 0 {
            return None;
        }
        loop {
            if self.jobs.is_empty() {
                return None;
            }
            self.cursor %= self.jobs.len();
            let q = &mut self.jobs[self.cursor];
            if q.units.is_empty() {
                self.cursor += 1;
                continue;
            }
            let (unit, cost) = *q.units.front().expect("non-empty queue");
            if q.deficit >= cost {
                q.deficit -= cost;
                q.units.pop_front();
                if q.units.is_empty() {
                    // A drained job must not bank leftover budget.
                    q.deficit = 0;
                }
                let job = q.job;
                return Some((job, unit));
            }
            // Weights come straight from `--weight TENANT=W`, so the
            // grant saturates instead of overflowing.
            q.deficit = q
                .deficit
                .saturating_add(self.quantum.saturating_mul(q.weight));
            self.cursor += 1;
        }
    }

    /// Pending units for one job.
    pub fn depth(&self, job: u64) -> usize {
        self.jobs
            .iter()
            .find(|q| q.job == job)
            .map_or(0, |q| q.units.len())
    }

    /// Pending units across all jobs.
    pub fn total_pending(&self) -> usize {
        self.jobs.iter().map(|q| q.units.len()).sum()
    }

    /// Pending units per tenant (for status output).
    pub fn tenant_depths(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for q in &self.jobs {
            *out.entry(q.tenant.clone()).or_insert(0) += q.units.len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit_uniform(sched: &mut DrrScheduler, job: u64, tenant: &str, units: usize, cost: u64) {
        sched.admit(job, tenant, 1, (0..units).map(|u| (u, cost)));
    }

    /// Simulates `workers` identical workers draining the scheduler on a
    /// virtual clock where a unit of cost `c` takes `c` ticks, returning
    /// each job's completion tick.
    fn simulate(
        sched: &mut DrrScheduler,
        workers: usize,
        costs: &BTreeMap<u64, u64>,
    ) -> BTreeMap<u64, u64> {
        let mut free_at = vec![0u64; workers];
        let mut done = BTreeMap::new();
        while let Some((job, _unit)) = sched.next_unit() {
            // Earliest-free worker takes the dispatch.
            let w = (0..workers)
                .min_by_key(|w| free_at[*w])
                .expect("workers > 0");
            free_at[w] += costs[&job];
            done.insert(job, free_at[w]);
        }
        done
    }

    #[test]
    fn small_job_is_not_starved_by_large_one() {
        // The acceptance fairness case: a 15-block campaign and a
        // 2-block job under equal tenant budgets. Solo, the small job
        // takes 2 cost-units of virtual time per worker; under DRR it
        // must finish within 2x that.
        let cost = 4096u64;
        for workers in [1usize, 2] {
            let mut sched = DrrScheduler::new(cost);
            admit_uniform(&mut sched, 1, "alice", 15, cost);
            admit_uniform(&mut sched, 2, "bob", 2, cost);
            let costs = BTreeMap::from([(1u64, cost), (2u64, cost)]);
            let done = simulate(&mut sched, workers, &costs);
            let solo = 2 * cost / workers as u64;
            assert!(
                done[&2] <= 2 * solo,
                "{workers} workers: small job finished at {} > 2x solo {}",
                done[&2],
                2 * solo
            );
            // The large job still completes.
            assert!(done.contains_key(&1));
        }
    }

    #[test]
    fn dispatch_order_is_deterministic() {
        let order = |quantum| {
            let mut sched = DrrScheduler::new(quantum);
            admit_uniform(&mut sched, 1, "a", 5, 100);
            admit_uniform(&mut sched, 2, "b", 3, 700);
            admit_uniform(&mut sched, 3, "a", 4, 50);
            let mut out = Vec::new();
            while let Some(d) = sched.next_unit() {
                out.push(d);
            }
            out
        };
        assert_eq!(order(256), order(256));
        // All units dispatch exactly once.
        assert_eq!(order(256).len(), 12);
    }

    #[test]
    fn weights_skew_share() {
        // Two equal jobs, one with triple weight: in the first rounds the
        // heavy job should dispatch ~3x the units of the light one.
        let mut sched = DrrScheduler::new(100);
        sched.admit(1, "heavy", 3, (0..30).map(|u| (u, 100)));
        sched.admit(2, "light", 1, (0..30).map(|u| (u, 100)));
        let mut first = Vec::new();
        for _ in 0..16 {
            first.push(sched.next_unit().expect("work pending").0);
        }
        let heavy = first.iter().filter(|j| **j == 1).count();
        let light = first.len() - heavy;
        assert!(
            heavy >= 2 * light,
            "heavy job got {heavy} of the first 16 dispatches vs {light}"
        );
    }

    #[test]
    fn max_weight_tenant_drains_without_overflow() {
        let mut sched = DrrScheduler::new(4096);
        sched.admit(1, "huge", u64::MAX, (0..5).map(|u| (u, 4096)));
        admit_uniform(&mut sched, 2, "small", 3, 4096);
        let mut order = Vec::new();
        while let Some(d) = sched.next_unit() {
            order.push(d);
        }
        assert_eq!(order.len(), 8, "every unit dispatches exactly once");
        assert_eq!(
            order.iter().filter(|(job, _)| *job == 1).count(),
            5,
            "{order:?}"
        );
        // The saturated deficit covers the heavy job's whole queue in its
        // first turn; the light job then drains in order.
        assert_eq!(order[5..], [(2, 0), (2, 1), (2, 2)]);
    }

    #[test]
    fn requeue_runs_next_without_deficit_refund() {
        let mut sched = DrrScheduler::new(10);
        admit_uniform(&mut sched, 1, "a", 2, 10);
        let (job, unit) = sched.next_unit().expect("dispatch");
        assert_eq!((job, unit), (1, 0));
        sched.requeue(1, 0, 10);
        assert_eq!(sched.next_unit(), Some((1, 0)), "requeued unit runs first");
        assert_eq!(sched.next_unit(), Some((1, 1)));
        assert_eq!(sched.next_unit(), None);
    }

    #[test]
    fn remove_drops_pending_units() {
        let mut sched = DrrScheduler::new(10);
        admit_uniform(&mut sched, 1, "a", 3, 10);
        admit_uniform(&mut sched, 2, "b", 3, 10);
        let _ = sched.next_unit();
        sched.remove(1);
        assert_eq!(sched.depth(1), 0);
        let mut rest = Vec::new();
        while let Some((job, _)) = sched.next_unit() {
            rest.push(job);
        }
        assert!(rest.iter().all(|j| *j == 2));
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn tenant_depths_aggregate_jobs() {
        let mut sched = DrrScheduler::new(10);
        admit_uniform(&mut sched, 1, "a", 3, 10);
        admit_uniform(&mut sched, 2, "a", 2, 10);
        admit_uniform(&mut sched, 3, "b", 1, 10);
        let depths = sched.tenant_depths();
        assert_eq!(depths["a"], 5);
        assert_eq!(depths["b"], 1);
        assert_eq!(sched.total_pending(), 6);
    }
}
