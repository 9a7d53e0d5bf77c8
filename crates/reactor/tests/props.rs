//! Property tests for the reactor's two ordering-critical structures.
//!
//! The scan loop's byte-identity contract rests on the timer heap
//! firing in a total, deterministic order and on the receive queue never
//! dropping a reply. Both are checked here against naive reference
//! models under proptest-driven operation sequences.

use proptest::prelude::*;
use xmap_reactor::{BoundedQueue, TimerHeap};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary arms drained at an arbitrary sequence of advancing
    /// clocks fire in strict `(deadline, seq)` order, never early, and
    /// every armed timer fires exactly once.
    #[test]
    fn timers_fire_in_deadline_then_arm_order(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let n = 1 + g.below(64) as usize;
        let mut heap = TimerHeap::new();
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let deadline = g.below(16); // dense deadlines force tie-breaks
            let id = heap.arm(deadline, deadline);
            expected.push((deadline, id.seq()));
        }
        // The reference model: sort by (deadline, seq).
        expected.sort_unstable();

        let mut fired: Vec<(u64, u64)> = Vec::new();
        let mut now = 0u64;
        while fired.len() < n {
            while let Some((deadline, seq, payload)) = heap.pop_due(now) {
                prop_assert!(deadline <= now, "fired early: {deadline} > {now}");
                prop_assert_eq!(payload, deadline, "payload follows its timer");
                fired.push((deadline, seq));
            }
            now += 1 + g.below(4);
        }
        prop_assert_eq!(fired, expected);
        prop_assert!(heap.is_empty());
    }

    /// A random interleaving of arm / cancel / re-arm / pop keeps the
    /// heap consistent with a naive model: cancelled timers never fire,
    /// stale handles never swallow live timers, `len` always equals the
    /// model's live count, and the survivors drain in model order.
    #[test]
    fn cancel_and_rearm_never_corrupt_the_live_set(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut heap = TimerHeap::new();
        // Model: live timers as (deadline, seq); retired handles kept
        // around so stale cancels get exercised.
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut handles = Vec::new();
        let mut stale = Vec::new();
        let mut now = 0u64;

        for _ in 0..200 {
            match g.below(5) {
                0 | 1 => {
                    let deadline = now + g.below(8);
                    let id = heap.arm(deadline, ());
                    live.push((deadline, id.seq()));
                    handles.push(id);
                }
                2 => {
                    // Cancel a handle: sometimes live, sometimes stale.
                    let pool = if !handles.is_empty() && g.below(4) > 0 {
                        &mut handles
                    } else {
                        &mut stale
                    };
                    if !pool.is_empty() {
                        let id = pool.swap_remove(g.below(pool.len() as u64) as usize);
                        let was_live = live.iter().any(|&(_, s)| s == id.seq());
                        prop_assert_eq!(heap.cancel(id), was_live);
                        live.retain(|&(_, s)| s != id.seq());
                        stale.push(id);
                    }
                }
                3 => {
                    // Cancel + immediate re-arm at a new deadline (the
                    // engine's re-schedule path).
                    if !handles.is_empty() {
                        let i = g.below(handles.len() as u64) as usize;
                        let old = handles.swap_remove(i);
                        if heap.cancel(old) {
                            live.retain(|&(_, s)| s != old.seq());
                        }
                        stale.push(old);
                        let deadline = now + g.below(8);
                        let id = heap.arm(deadline, ());
                        live.push((deadline, id.seq()));
                        handles.push(id);
                    }
                }
                _ => {
                    now += g.below(4);
                    while let Some((deadline, seq, ())) = heap.pop_due(now) {
                        prop_assert!(deadline <= now);
                        // The model says this exact timer is the next due.
                        live.sort_unstable();
                        prop_assert!(!live.is_empty());
                        prop_assert_eq!(live.remove(0), (deadline, seq));
                        handles.retain(|h| h.seq() != seq);
                    }
                    if let Some(&(d, _)) = live.iter().min() {
                        prop_assert!(d > now, "due timer left unfired");
                    }
                }
            }
            prop_assert_eq!(heap.len(), live.len());
        }

        // Drain what's left; it must come out exactly in model order.
        live.sort_unstable();
        let mut drained = Vec::new();
        while let Some((deadline, seq, ())) = heap.pop_due(u64::MAX) {
            drained.push((deadline, seq));
        }
        prop_assert_eq!(drained, live);
    }

    /// Backpressure property: however pushes and pops interleave, the
    /// queue never loses or reorders an item — every element drains in
    /// FIFO order — while saturation events and the high watermark
    /// account exactly for the over-capacity regime.
    #[test]
    fn bounded_queue_never_drops_a_reply(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let capacity = 1 + g.below(8) as usize;
        let mut q = BoundedQueue::new(capacity);
        let mut model = std::collections::VecDeque::new();
        let mut pushed = 0u64;
        let mut expected_saturated = 0u64;
        let mut expected_watermark = 0usize;

        for _ in 0..300 {
            if g.below(3) > 0 {
                let depth = model.len();
                let saturated = q.push(pushed);
                prop_assert_eq!(saturated, depth >= capacity,
                    "saturation must mean at-or-over capacity");
                if saturated {
                    expected_saturated += 1;
                }
                model.push_back(pushed);
                pushed += 1;
                expected_watermark = expected_watermark.max(model.len());
            } else {
                prop_assert_eq!(q.pop(), model.pop_front());
            }
            prop_assert_eq!(q.len(), model.len());
        }

        prop_assert_eq!(q.saturated_pushes(), expected_saturated);
        prop_assert_eq!(q.high_watermark(), expected_watermark);
        // Final drain: everything still there, still in order.
        let mut out = Vec::new();
        q.drain_into(&mut out);
        prop_assert_eq!(out, model.into_iter().collect::<Vec<_>>());
        prop_assert!(q.is_empty());
    }
}
