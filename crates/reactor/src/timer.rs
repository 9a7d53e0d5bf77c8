//! Deadline-ordered timers with deterministic tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<T> {
    deadline: u64,
    seq: u64,
    payload: T,
}

// Reversed so `BinaryHeap` (a max-heap) pops the smallest
// `(deadline, seq)` first. `seq` is unique, so the order is total.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

/// A deadline-ordered timer heap.
///
/// Timers fire in `(deadline, seq)` order: equal deadlines break ties by
/// arm order, deterministically. A timer cannot be cancelled: its owner
/// decides when it pops whether it still matters, so `arm` and `pop_due`
/// are plain heap operations. Deadlines may be armed in any order; an
/// owner whose deadlines arrive sorted needs no heap (the scan loop's
/// per-attempt retry lanes pop exactly what this heap pops).
///
/// The sequence counter is exposed ([`next_seq`](TimerHeap::next_seq) /
/// [`with_next_seq`](TimerHeap::with_next_seq) /
/// [`insert_restored`](TimerHeap::insert_restored)) so an engine that
/// checkpoints its timers can restore them byte-identically.
#[derive(Debug)]
pub struct TimerHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for TimerHeap<T> {
    fn default() -> Self {
        TimerHeap::new()
    }
}

impl<T> TimerHeap<T> {
    /// An empty heap with the sequence counter at zero.
    pub fn new() -> Self {
        TimerHeap::with_next_seq(0)
    }

    /// An empty heap whose next armed timer gets sequence number `seq`
    /// (the checkpoint-restore path).
    pub fn with_next_seq(seq: u64) -> Self {
        TimerHeap {
            heap: BinaryHeap::new(),
            next_seq: seq,
        }
    }

    /// Arms a timer at `deadline` under the next sequence number.
    pub fn arm(&mut self, deadline: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            deadline,
            seq,
            payload,
        });
    }

    /// Re-inserts a checkpointed timer under its original sequence
    /// number. The caller owns sequencing: restored sequence numbers
    /// must be unique and below the counter this heap was created with.
    pub fn insert_restored(&mut self, deadline: u64, seq: u64, payload: T) {
        debug_assert!(
            seq < self.next_seq,
            "restored seq {seq} >= next_seq {}",
            self.next_seq
        );
        self.heap.push(Entry {
            deadline,
            seq,
            payload,
        });
    }

    /// Pops the earliest timer with `deadline <= now`. Returns
    /// `(deadline, seq, payload)`.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, u64, T)> {
        if self.heap.peek()?.deadline > now {
            return None;
        }
        let e = self.heap.pop().expect("peeked");
        Some((e.deadline, e.seq, e.payload))
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timers remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The sequence number the next armed timer will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Iterates timers as `(deadline, seq, &payload)` in arbitrary
    /// order (checkpoint capture sorts by `(deadline, seq)` itself).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &T)> {
        self.heap.iter().map(|e| (e.deadline, e.seq, &e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_then_seq_order() {
        let mut h = TimerHeap::new();
        h.arm(5, "a");
        h.arm(3, "b");
        h.arm(5, "c");
        h.arm(1, "d");
        let mut fired = Vec::new();
        while let Some((_, _, p)) = h.pop_due(10) {
            fired.push(p);
        }
        assert_eq!(fired, vec!["d", "b", "a", "c"]);
    }

    #[test]
    fn not_due_stays() {
        let mut h = TimerHeap::new();
        h.arm(7, ());
        assert!(h.pop_due(6).is_none());
        assert_eq!(h.len(), 1);
        assert!(h.pop_due(7).is_some());
        assert!(h.is_empty());
    }

    #[test]
    fn restored_seq_preserves_order() {
        let mut h = TimerHeap::with_next_seq(10);
        h.insert_restored(4, 7, "restored");
        assert_eq!(h.next_seq(), 10);
        h.arm(4, "fresh");
        assert_eq!(h.pop_due(4).map(|(_, s, p)| (s, p)), Some((7, "restored")));
        assert_eq!(h.pop_due(4).map(|(_, s, p)| (s, p)), Some((10, "fresh")));
    }
}
