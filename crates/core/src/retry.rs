//! The scan loop's retransmission timers: one FIFO lane per attempt.
//!
//! A retry of attempt `a` is armed `rto_ticks << a` ticks after its send,
//! and the run's clock never goes back, so within one attempt the timers
//! arrive in deadline order and, being numbered in arm order, in
//! `(deadline, seq)` order. Each lane is therefore a queue that stays
//! sorted by appending, and the earliest timer overall is the least
//! front over the lanes: what a `(deadline, seq)` heap pops, for a push
//! and a compare of at most `probes_per_target − 1` fronts.

use std::collections::VecDeque;

/// Armed retransmission timers, popped in `(deadline, seq)` order.
///
/// Lane `l` holds the timers armed by attempt `l` (the retries that will
/// be attempt `l + 1`). Every lane must be armed in non-decreasing
/// deadline order; the scanner's clock guarantees it, and a restore
/// inserts a cut's timers in the `(deadline, seq)` order the cut keeps.
#[derive(Debug)]
pub(crate) struct RetryLanes<T> {
    lanes: Vec<VecDeque<(u64, u64, T)>>,
    len: usize,
    next_seq: u64,
}

impl<T> RetryLanes<T> {
    /// No timers; the next armed one gets sequence number `seq`.
    pub(crate) fn with_next_seq(seq: u64) -> Self {
        RetryLanes {
            lanes: Vec::new(),
            len: 0,
            next_seq: seq,
        }
    }

    /// Arms a timer at `deadline` in `lane` under the next sequence
    /// number.
    pub(crate) fn arm(&mut self, lane: usize, deadline: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push(lane, deadline, seq, payload);
    }

    /// Re-inserts a checkpointed timer under its original sequence
    /// number, below the counter the lanes were created with. Restored
    /// timers go in `(deadline, seq)` order, before any new arm.
    pub(crate) fn insert_restored(&mut self, lane: usize, deadline: u64, seq: u64, payload: T) {
        debug_assert!(
            seq < self.next_seq,
            "restored seq {seq} >= next_seq {}",
            self.next_seq
        );
        self.push(lane, deadline, seq, payload);
    }

    fn push(&mut self, lane: usize, deadline: u64, seq: u64, payload: T) {
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let lane = &mut self.lanes[lane];
        debug_assert!(
            lane.back()
                .is_none_or(|&(d, s, _)| (d, s) < (deadline, seq)),
            "lane out of (deadline, seq) order"
        );
        lane.push_back((deadline, seq, payload));
        self.len += 1;
    }

    /// Pops the earliest timer with `deadline <= now`, as
    /// `(deadline, seq, payload)`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, u64, T)> {
        let mut first: Option<(usize, u64, u64)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(&(d, s, _)) = lane.front() {
                if first.is_none_or(|(_, fd, fs)| (d, s) < (fd, fs)) {
                    first = Some((i, d, s));
                }
            }
        }
        let (i, deadline, _) = first?;
        if deadline > now {
            return None;
        }
        self.len -= 1;
        self.lanes[i].pop_front()
    }

    /// Number of armed timers.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no timers remain.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sequence number the next armed timer will get.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Iterates timers as `(deadline, seq, &payload)`, lane by lane
    /// (checkpoint capture sorts by `(deadline, seq)` itself).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64, &T)> {
        self.lanes.iter().flatten().map(|(d, s, p)| (*d, *s, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xmap_reactor::TimerHeap;

    /// Splitmix-style generator: turns one proptest-drawn seed into an
    /// arbitrary operation sequence.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// What a checkpoint does to the lanes: every timer out in
    /// `(deadline, seq)` order, then back into fresh lanes under the
    /// same counter. The payload names its lane, as a retry's attempt
    /// does.
    fn capture_and_restore(lanes: &RetryLanes<(usize, u64)>) -> RetryLanes<(usize, u64)> {
        let mut timers: Vec<(u64, u64, (usize, u64))> =
            lanes.iter().map(|(d, s, p)| (d, s, *p)).collect();
        timers.sort_by_key(|&(d, s, _)| (d, s));
        let mut restored = RetryLanes::with_next_seq(lanes.next_seq());
        for (d, s, p) in timers {
            restored.insert_restored(p.0, d, s, p);
        }
        restored
    }

    #[test]
    fn fires_in_deadline_then_seq_order_across_lanes() {
        let mut lanes = RetryLanes::with_next_seq(0);
        lanes.arm(1, 5, "a");
        lanes.arm(0, 3, "b");
        lanes.arm(1, 5, "c");
        lanes.arm(0, 5, "d");
        let mut fired = Vec::new();
        while let Some((_, _, p)) = lanes.pop_due(10) {
            fired.push(p);
        }
        assert_eq!(fired, vec!["b", "a", "c", "d"]);
        assert!(lanes.is_empty());
    }

    #[test]
    fn not_due_stays() {
        let mut lanes = RetryLanes::with_next_seq(0);
        lanes.arm(2, 7, ());
        assert!(lanes.pop_due(6).is_none());
        assert_eq!(lanes.len(), 1);
        assert!(lanes.pop_due(7).is_some());
        assert!(lanes.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arms at a non-decreasing clock, `rto_ticks << attempt` out as
        /// the scanner arms them, interleaved with advances and pops and
        /// one capture-and-restore: the lanes pop exactly the
        /// `(deadline, seq, payload)` sequence the heap pops.
        #[test]
        fn lanes_pop_what_the_heap_pops(
            probes in 2u32..=5,
            rto in 0u64..=8,
            seed in any::<u64>(),
        ) {
            let mut g = Gen(seed);
            let steps = 1 + g.below(300);
            let restore_at = g.below(steps);
            let mut heap = TimerHeap::new();
            let mut lanes = RetryLanes::with_next_seq(0);
            let mut now = 0u64;
            let mut id = 0u64;
            for step in 0..steps {
                if step == restore_at {
                    lanes = capture_and_restore(&lanes);
                }
                match g.below(4) {
                    0 | 1 => {
                        let attempt = g.below(u64::from(probes) - 1) as usize;
                        let deadline = now + (rto << attempt);
                        heap.arm(deadline, (attempt, id));
                        lanes.arm(attempt, deadline, (attempt, id));
                        id += 1;
                    }
                    2 => now += g.below(3),
                    _ => prop_assert_eq!(lanes.pop_due(now), heap.pop_due(now)),
                }
                prop_assert_eq!(lanes.len(), heap.len());
                prop_assert_eq!(lanes.next_seq(), heap.next_seq());
            }
            while !heap.is_empty() {
                prop_assert_eq!(lanes.pop_due(now), heap.pop_due(now));
                now += 1;
            }
            prop_assert!(lanes.is_empty());
            prop_assert_eq!(lanes.pop_due(u64::MAX), None);
        }
    }
}
