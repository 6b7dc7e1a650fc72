//! A minimal binary-heap next-event scheduler: each event-mode shard's
//! queue.
//!
//! The event engine needs one primitive: "give me the earliest pending
//! event at or before `now`, breaking ties in the order they were
//! scheduled". A [`std::collections::BinaryHeap`] of `Reverse`-ordered
//! entries keyed on `(time, sequence)` provides exactly that with
//! `O(log n)` scheduling and popping. Times are integer sub-step indices,
//! never floats, so ordering is exact and replay-stable.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pending event: fires at integer time `at`, FIFO among equal times.
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic min-heap of timed events.
///
/// Events scheduled for the same time pop in insertion order (FIFO), which
/// keeps wake-up processing independent of heap internals and therefore
/// bit-identical across runs.
pub(crate) struct EventScheduler<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> EventScheduler<E> {
    /// An empty scheduler.
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty scheduler whose heap can hold `capacity` pending events
    /// without reallocating.
    ///
    /// The event backends size their queues for the steady state (at most one
    /// pending wake per rack plus a batch's worth of power edges) so the hot
    /// loop never grows the heap mid-run; a burst beyond the capacity still
    /// works, it just reallocates like any `Vec`.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Enqueue `event` to fire at integer time `at`.
    pub(crate) fn schedule(&mut self, at: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Pop the earliest event whose time is `<= now`, or `None` if the head
    /// of the queue is still in the future (or the queue is empty).
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, E)> {
        if self.heap.peek()?.0.at > now {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut s = EventScheduler::new();
        s.schedule(30, "c");
        s.schedule(10, "a");
        s.schedule(20, "b");
        assert_eq!(s.pop_due(u64::MAX), Some((10, "a")));
        assert_eq!(s.pop_due(u64::MAX), Some((20, "b")));
        assert_eq!(s.pop_due(u64::MAX), Some((30, "c")));
        assert_eq!(s.pop_due(u64::MAX), None);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut s = EventScheduler::new();
        for i in 0..16 {
            s.schedule(7, i);
        }
        for i in 0..16 {
            assert_eq!(s.pop_due(7), Some((7, i)));
        }
    }

    #[test]
    fn pop_due_gates_on_the_clock() {
        let mut s = EventScheduler::new();
        s.schedule(5, "later");
        s.schedule(2, "soon");
        assert_eq!(s.pop_due(1), None);
        assert_eq!(s.pop_due(2), Some((2, "soon")));
        assert_eq!(s.pop_due(4), None);
        assert_eq!(s.pop_due(9), Some((5, "later")));
        assert!(s.heap.is_empty());
        assert_eq!(s.pop_due(100), None);
    }

    #[test]
    fn with_capacity_retains_its_allocation_across_churn() {
        let mut s: EventScheduler<u32> = EventScheduler::with_capacity(64);
        let cap = s.heap.capacity();
        assert!(cap >= 64);
        // Many schedule/drain cycles that never exceed the requested
        // capacity must never grow the heap: the steady-state loop of the
        // event backends is allocation-free.
        for round in 0..200u64 {
            for i in 0..64u32 {
                s.schedule(round, i);
            }
            while s.pop_due(round).is_some() {}
            assert!(s.heap.is_empty());
            assert_eq!(s.heap.capacity(), cap, "round {round} reallocated");
        }
    }

    #[test]
    fn len_tracks_the_queue() {
        let mut s: EventScheduler<u8> = EventScheduler::new();
        assert!(s.heap.is_empty());
        s.schedule(1, 0);
        s.schedule(1, 1);
        assert_eq!(s.heap.len(), 2);
        s.pop_due(1);
        assert_eq!(s.heap.len(), 1);
    }
}
