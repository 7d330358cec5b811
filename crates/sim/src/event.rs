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

impl<E> Entry<E> {
    /// `true` if `self` pops before `other`.
    fn before(&self, other: &Self) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// The items of a [feed](EventQueue::feed) in delivery order, read from
/// the caller's data as they are needed. A run that is the identity
/// `0..len` ascending in time (a valid trace's arrivals) keeps nothing per
/// item; a subset run (workflow roots) keeps its indices, and a run not
/// ascending in time keeps its positions in time order, 4 bytes an item.
struct FeedItems<E> {
    len: usize,
    /// Run positions in delivery order; `None` when the run ascends in
    /// time, so that position `p` delivers item `p`.
    order: Option<Box<[u32]>>,
    /// The index each run position names; `None` when item `k` is index `k`.
    index: Option<Box<[u32]>>,
    at: Box<dyn Fn(usize) -> Time + Send + Sync>,
    make: fn(usize) -> E,
}

impl<E> FeedItems<E> {
    /// The entry delivered at position `p`: the run's item `k` owns
    /// sequence number `k`.
    fn entry(&self, p: usize) -> Entry<E> {
        let k = self.order.as_ref().map_or(p, |order| order[p] as usize);
        let index = self.index.as_ref().map_or(k, |index| index[k] as usize);
        Entry {
            at: (self.at)(index),
            seq: k as u64,
            event: (self.make)(index),
        }
    }
}

/// The unpopped remainder of a feed. The head is kept materialised
/// because [`EventQueue::peek`] hands out `&E`.
struct Feed<E> {
    head: Entry<E>,
    /// Delivery position of the item after the head.
    next: usize,
    items: FeedItems<E>,
}

impl<E> Feed<E> {
    fn len(&self) -> usize {
        1 + self.items.len - self.next
    }
}

/// A time-ordered, FIFO-stable pending-event set.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Remainder of the initial run, if one was [fed](Self::feed) and is
    /// not yet exhausted.
    feed: Option<Feed<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            feed: None,
        }
    }

    /// Installs a run of initial events on an unused queue, exactly as if
    /// each `index` of `run` had been [`schedule`](Self::schedule)d in
    /// turn at `at(index)` with the event `make(index)`: item `k` owns
    /// sequence number `k` and later events number on from the run's
    /// length. Times and events are read only as items reach the head,
    /// so `at` reads the caller's data (an `Arc` of a trace's tasks)
    /// rather than a copy. The run `0..n` already ascending in time (a
    /// valid trace) costs nothing per item; a subset or a run out of time
    /// order keeps 4 bytes an item, the latter stably sorted by time,
    /// which is the `(time, seq)` order.
    pub fn feed(
        &mut self,
        run: impl IntoIterator<Item = usize>,
        at: impl Fn(usize) -> Time + Send + Sync + 'static,
        make: fn(usize) -> E,
    ) {
        assert!(
            self.next_seq == 0 && self.feed.is_none(),
            "a feed goes on an unused queue"
        );
        let narrow = |n: usize| u32::try_from(n).expect("feed run or index exceeds u32::MAX");
        let run = run.into_iter();
        let hint = run.size_hint().0;
        // The indices are kept from the first one that is not its position.
        let mut index: Option<Vec<u32>> = None;
        let mut len = 0;
        for (k, i) in run.enumerate() {
            match index.as_mut() {
                Some(list) => list.push(narrow(i)),
                None if i == k => {}
                None => {
                    let mut list = Vec::with_capacity(hint);
                    list.extend(0..narrow(k));
                    list.push(narrow(i));
                    index = Some(list);
                }
            }
            len = k + 1;
        }
        let index = index.map(Vec::into_boxed_slice);
        let time = |k: usize| at(index.as_ref().map_or(k, |index| index[k] as usize));
        let order = (!(0..len).map(time).is_sorted()).then(|| {
            let mut order: Vec<u32> = (0..narrow(len)).collect();
            order.sort_by_key(|&k| time(k as usize));
            order.into_boxed_slice()
        });
        self.next_seq = len as u64;
        let items = FeedItems {
            len,
            order,
            index,
            at: Box::new(at),
            make,
        };
        self.feed = (len > 0).then(|| Feed {
            head: items.entry(0),
            next: 1,
            items,
        });
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = match self.feed.as_mut() {
            None => self.heap.pop(),
            Some(feed) if self.heap.peek().is_some_and(|top| top.before(&feed.head)) => {
                self.heap.pop()
            }
            Some(feed) if feed.next < feed.items.len => {
                let entry = feed.items.entry(feed.next);
                feed.next += 1;
                Some(std::mem::replace(&mut feed.head, entry))
            }
            Some(_) => self.feed.take().map(|feed| feed.head),
        };
        entry.map(|e| (e.at, e.event))
    }

    /// The entry a [`pop`](Self::pop) would remove.
    fn front(&self) -> Option<&Entry<E>> {
        match (&self.feed, self.heap.peek()) {
            (Some(feed), Some(top)) if top.before(&feed.head) => Some(top),
            (Some(feed), _) => Some(&feed.head),
            (None, top) => top,
        }
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.front().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.feed.as_ref().map_or(0, Feed::len)
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.feed.is_none()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.feed = None;
    }

    /// The next event's `(time, payload)` without removing it — the event
    /// a [`pop`](Self::pop) would return. Used by the durable journal to
    /// frame an event record *before* the engine applies it.
    pub fn peek(&self) -> Option<(Time, &E)> {
        self.front().map(|e| (e.at, &e.event))
    }

    /// Sequence number the next [`schedule`](Self::schedule) will assign.
    /// Part of replay state: FIFO tie-breaking among same-time events is
    /// decided by these numbers.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// All pending entries as `(time, seq, payload)` triples, sorted by
    /// `(time, seq)` — a canonical, heap-layout-independent view for
    /// snapshots. A feed's remainder appears as the entries it stands for.
    pub fn snapshot_entries(&self) -> Vec<(Time, u64, E)>
    where
        E: Clone,
    {
        let fed = self.feed.iter().flat_map(|feed| {
            let head = (feed.head.at, feed.head.seq, feed.head.event.clone());
            let rest = (feed.next..feed.items.len).map(|p| {
                let entry = feed.items.entry(p);
                (entry.at, entry.seq, entry.event)
            });
            std::iter::once(head).chain(rest)
        });
        let mut entries: Vec<(Time, u64, E)> = self
            .heap
            .iter()
            .map(|e| (e.at, e.seq, e.event.clone()))
            .chain(fed)
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        entries
    }

    /// Rebuilds a queue from [`snapshot_entries`](Self::snapshot_entries)
    /// output plus the saved sequence counter. Existing sequence numbers
    /// are preserved verbatim so tie-breaking replays identically. Every
    /// entry goes into the heap, a snapshotted feed remainder included.
    pub fn restore(entries: Vec<(Time, u64, E)>, next_seq: u64) -> Self {
        let mut queue = Self::with_capacity(entries.len());
        for (at, seq, event) in entries {
            debug_assert!(seq < next_seq, "restored seq {seq} >= next_seq {next_seq}");
            queue.heap.push(Entry { at, seq, event });
        }
        queue.next_seq = next_seq;
        queue
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

    #[test]
    fn feed_item_wins_a_tie_with_a_later_scheduled_event() {
        let mut q = EventQueue::new();
        q.feed(
            [7, 8],
            |i| Time::from(if i == 7 { 1.0 } else { 5.0 }),
            |i| i,
        );
        assert_eq!(q.next_seq(), 2);
        q.schedule(Time::from(5.0), 100);
        q.schedule(Time::from(1.0), 101);
        assert_eq!(q.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![7, 101, 8, 100]);
        assert!(q.is_empty());
    }

    #[test]
    fn unsorted_feed_pops_in_time_then_run_order() {
        let mut q = EventQueue::new();
        let run = [3.0, 1.0, 3.0, 0.5, 1.0];
        q.feed(0..run.len(), move |i| Time::from(run[i]), |i| i);
        let seqs: Vec<u64> = q.snapshot_entries().iter().map(|e| e.1).collect();
        assert_eq!(seqs, vec![3, 1, 4, 0, 2], "seq is the position in the run");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![3, 1, 4, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "unused queue")]
    fn feed_on_a_used_queue_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO, 0usize);
        q.feed([1], |_| Time::ZERO, |i| i);
    }

    /// The shapes of run a feed meets — a whole trace in time order,
    /// workflow roots (a subset), a trace out of time order, and the roots
    /// of such a trace — keep a list only where the run is not the
    /// identity in time order, and each counts, pops, snapshots
    /// half-consumed and restores exactly as its items scheduled one by
    /// one do.
    #[test]
    fn every_run_shape_matches_scheduling_in_turn() {
        let sorted = [0.5, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0];
        let unsorted = [3.0, 1.0, 3.0, 0.5, 1.0, 0.5, 2.0];
        let roots = vec![0, 1, 3, 6];
        let whole: Vec<usize> = (0..7).collect();
        let cases = [
            (sorted, whole.clone(), (false, false)),
            (sorted, roots.clone(), (false, true)),
            (unsorted, whole, (true, false)),
            (unsorted, roots, (true, true)),
        ];
        let drain = |q: &mut EventQueue<usize>| -> Vec<(Time, usize)> {
            std::iter::from_fn(|| q.pop()).collect()
        };
        for (times, run, lists) in cases {
            let times: Vec<Time> = times.iter().map(|&t| Time::from(t)).collect();
            let shared = times.clone();
            let mut fed = EventQueue::new();
            fed.feed(run.iter().copied(), move |i| shared[i], |i| i);
            let items = &fed.feed.as_ref().expect("a non-empty run").items;
            assert_eq!((items.order.is_some(), items.index.is_some()), lists);
            let mut reference = EventQueue::new();
            for &i in &run {
                reference.schedule(times[i], i);
            }
            for q in [&mut fed, &mut reference] {
                q.schedule(Time::from(1.0), 100);
            }
            for _ in 0..run.len() / 2 {
                assert_eq!(fed.len(), reference.len());
                assert_eq!(fed.pop(), reference.pop());
            }
            assert_eq!(fed.len(), reference.len());
            let entries = fed.snapshot_entries();
            assert_eq!(entries, reference.snapshot_entries());
            let mut restored = EventQueue::restore(entries, fed.next_seq());
            let want = drain(&mut reference);
            assert_eq!(drain(&mut fed), want);
            assert_eq!(drain(&mut restored), want);
        }
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

        /// A queue fed a run is indistinguishable from one that scheduled
        /// the run item by item: same pops, `len`, `peek`, `next_seq` and
        /// `snapshot_entries` at every step of an arbitrary interleaving
        /// of `schedule` and `pop`, and a queue restored from the fed
        /// queue's snapshot at any step continues the same way — for the
        /// whole of a time-sorted or unsorted trace, and for a subset of
        /// it (workflow roots).
        #[test]
        fn fed_queue_equals_scheduled_queue(
            mut times in proptest::collection::vec(0u32..30, 0..60),
            sorted in any::<bool>(),
            keep in proptest::collection::vec(any::<bool>(), 60),
            subset in any::<bool>(),
            ops in proptest::collection::vec((any::<bool>(), 0u32..40), 0..120),
            cut in 0usize..120,
        ) {
            if sorted {
                times.sort_unstable();
            }
            let at = |t: u32| Time::from(t as f64);
            let run: Vec<usize> = (0..times.len()).filter(|&i| !subset || keep[i]).collect();
            let shared = times.clone();
            let mut fed: EventQueue<usize> = EventQueue::new();
            fed.feed(run.iter().copied(), move |i| at(shared[i]), |i| i);
            let mut reference = EventQueue::new();
            for &i in &run {
                reference.schedule(at(times[i]), i);
            }
            let mut restored: Option<EventQueue<usize>> = None;
            for (step, &(push, t)) in ops.iter().enumerate() {
                prop_assert_eq!(fed.len(), reference.len());
                prop_assert_eq!(fed.is_empty(), reference.is_empty());
                prop_assert_eq!(fed.next_seq(), reference.next_seq());
                prop_assert_eq!(fed.peek_time(), reference.peek_time());
                prop_assert_eq!(
                    fed.peek().map(|(t, e)| (t, *e)),
                    reference.peek().map(|(t, e)| (t, *e))
                );
                prop_assert_eq!(fed.snapshot_entries(), reference.snapshot_entries());
                if step == cut {
                    restored = Some(EventQueue::restore(fed.snapshot_entries(), fed.next_seq()));
                }
                if push {
                    for q in [&mut fed, &mut reference].into_iter().chain(restored.as_mut()) {
                        q.schedule(at(t), 1000 + step);
                    }
                } else {
                    let want = reference.pop();
                    prop_assert_eq!(fed.pop(), want);
                    if let Some(q) = restored.as_mut() {
                        prop_assert_eq!(q.pop(), want);
                    }
                }
            }
            let drain = |q: &mut EventQueue<usize>| -> Vec<(Time, usize)> {
                std::iter::from_fn(|| q.pop()).collect()
            };
            let want = drain(&mut reference);
            prop_assert_eq!(drain(&mut fed), want.clone());
            if let Some(q) = restored.as_mut() {
                prop_assert_eq!(drain(q), want);
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
