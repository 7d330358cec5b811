//! Pending-event set.
//!
//! A thin wrapper over [`std::collections::BinaryHeap`] keyed by
//! ([`Time`], insertion sequence) so that events scheduled for the same
//! instant pop in **FIFO order**. Stable tie-breaking matters: the paper's
//! Figure 3 workload releases 16 tasks *per batch arrival*, i.e. many events
//! share a timestamp, and heuristic comparisons must see them in a
//! deterministic order for runs to be replayable.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: Time,
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
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered, FIFO-stable pending-event set.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The next event's `(time, payload)` without removing it — the event
    /// a [`pop`](Self::pop) would return. Used by the durable journal to
    /// frame an event record *before* the engine applies it.
    pub fn peek(&self) -> Option<(Time, &E)> {
        self.heap.peek().map(|e| (e.at, &e.event))
    }

    /// Sequence number the next [`schedule`](Self::schedule) will assign.
    /// Part of replay state: FIFO tie-breaking among same-time events is
    /// decided by these numbers.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// All pending entries as `(time, seq, payload)` triples, sorted by
    /// `(time, seq)` — a canonical, heap-layout-independent view for
    /// snapshots.
    pub fn snapshot_entries(&self) -> Vec<(Time, u64, E)>
    where
        E: Clone,
    {
        let mut entries: Vec<(Time, u64, E)> = self
            .heap
            .iter()
            .map(|e| (e.at, e.seq, e.event.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        entries
    }

    /// Rebuilds a queue from [`snapshot_entries`](Self::snapshot_entries)
    /// output plus the saved sequence counter. Existing sequence numbers
    /// are preserved verbatim so tie-breaking replays identically.
    pub fn restore(entries: Vec<(Time, u64, E)>, next_seq: u64) -> Self {
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for (at, seq, event) in entries {
            debug_assert!(seq < next_seq, "restored seq {seq} >= next_seq {next_seq}");
            heap.push(Entry { at, seq, event });
        }
        EventQueue { heap, next_seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(3.0), "c");
        q.schedule(Time::from(1.0), "a");
        q.schedule(Time::from(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time::from(5.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(10.0), "late");
        q.schedule(Time::from(1.0), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(Time::from(5.0), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from(7.0), ());
        assert_eq!(q.peek_time(), Some(Time::from(7.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO, 1);
        q.schedule(Time::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        // Sequence counter keeps increasing, FIFO order still holds after clear.
        q.schedule(Time::ZERO, 3);
        q.schedule(Time::ZERO, 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always pop in non-decreasing time order, and events that
        /// share a timestamp pop in insertion order.
        #[test]
        fn pop_order_is_time_then_fifo(times in proptest::collection::vec(0u32..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(Time::from(*t as f64), i);
            }
            let mut last: Option<(Time, usize)> = None;
            while let Some((at, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(at >= lt);
                    if at == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((at, idx));
            }
        }

        /// The queue drains exactly what was scheduled.
        #[test]
        fn conservation(times in proptest::collection::vec(0.0f64..100.0, 0..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(Time::from(*t), i);
            }
            prop_assert_eq!(q.len(), times.len());
            let mut seen = vec![false; times.len()];
            while let Some((_, idx)) = q.pop() {
                prop_assert!(!seen[idx]);
                seen[idx] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
