//! Property tests for the reactor's two ordering-critical structures.
//!
//! The scan loop's byte-identity contract rests on its retry timers
//! firing in a total, deterministic order — the order of this timer
//! heap, their reference model — and on the receive queue never
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
            expected.push((deadline, heap.next_seq()));
            heap.arm(deadline, deadline);
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
