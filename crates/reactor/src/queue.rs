//! The bounded receive queue: backpressure that reports, never drops.

use std::collections::VecDeque;

/// A FIFO queue with a *soft* capacity.
///
/// A scan reply that made it off the wire must reach the engine — a
/// receive queue that drops under load would silently corrupt hit-rate
/// measurements (the paper's core numbers). So `push` always succeeds;
/// what the capacity bounds is the *unreported* regime: pushes beyond it
/// are counted as saturation events and the depth high-watermark is
/// tracked, so an operator (or the queue-depth gauges a transport
/// exports) sees exactly when a real-wire deployment would have had to
/// engage backpressure on the sender instead.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    saturated: u64,
    high_watermark: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue with the given soft capacity (must be nonzero).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        BoundedQueue {
            items: VecDeque::new(),
            capacity,
            saturated: 0,
            high_watermark: 0,
        }
    }

    /// Enqueues an item. Never drops; returns `true` when the push hit
    /// or exceeded the soft capacity (a saturation event).
    pub fn push(&mut self, item: T) -> bool {
        let saturating = self.items.len() >= self.capacity;
        if saturating {
            self.saturated += 1;
        }
        self.items.push_back(item);
        self.high_watermark = self.high_watermark.max(self.items.len());
        saturating
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Drains every queued item into `out` (appending), in FIFO order.
    /// Returns how many were moved.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> usize {
        let n = self.items.len();
        // The scan loop polls twice per slot and most slots draw no
        // reply: skip the drain set-up for an empty queue.
        if n > 0 {
            out.extend(self.items.drain(..));
        }
        n
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The soft capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes that found the queue at or above capacity.
    pub fn saturated_pushes(&self) -> u64 {
        self.saturated
    }

    /// The deepest the queue has ever been.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_never_drops_past_capacity() {
        let mut q = BoundedQueue::new(4);
        for i in 0..10 {
            q.push(i);
        }
        assert_eq!(q.len(), 10, "soft capacity must not drop");
        assert_eq!(q.saturated_pushes(), 6);
        assert_eq!(q.high_watermark(), 10);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drain_preserves_order_and_empties() {
        let mut q = BoundedQueue::new(2);
        q.push("a");
        q.push("b");
        q.push("c");
        let mut out = vec!["pre"];
        assert_eq!(q.drain_into(&mut out), 3);
        assert_eq!(out, vec!["pre", "a", "b", "c"]);
        assert!(q.is_empty());
        assert_eq!(q.high_watermark(), 3);
    }
}
