//! Next-event-time-advance simulation engine.
//!
//! The engine owns a [`Model`] and an [`EventQueue`]; `run_*` pops the
//! earliest event, advances the clock, and hands the event to the model,
//! which may schedule further events. This is the classic DES loop — the
//! task-service site, the market economy, and every experiment harness in
//! the workspace are all models driven by this engine.

use crate::event::EventQueue;
use crate::malloc::pin_malloc_thresholds;
use crate::time::Time;

/// A simulation model: application state plus an event handler.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handles `event` occurring at `now`. New events go into `queue`;
    /// scheduling into the past is a logic error the engine will catch.
    fn handle(&mut self, now: Time, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// The discrete-event engine: clock + queue + model.
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: Time,
    handled: u64,
}

impl<M: Model> Engine<M> {
    /// Wraps `model` with an empty queue at time zero. Like every way
    /// into a run, it first pins the allocator policy
    /// ([`pin_malloc_thresholds`]).
    pub fn new(model: M) -> Self {
        pin_malloc_thresholds();
        Engine {
            model,
            queue: EventQueue::new(),
            now: Time::ZERO,
            handled: 0,
        }
    }

    /// Current simulation time (the timestamp of the last handled event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.handled
    }

    /// Read access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the engine and returns the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Read access to the pending-event queue (for snapshotting).
    pub fn queue(&self) -> &EventQueue<M::Event> {
        &self.queue
    }

    /// Reassembles an engine from checkpointed parts: a restored model, a
    /// restored queue, and the saved clock and event counter. The inverse
    /// of reading `queue()` / `now()` / `events_handled()` off a live
    /// engine at an event boundary. A restored run pins the allocator
    /// policy as a fresh one does.
    pub fn from_parts(model: M, queue: EventQueue<M::Event>, now: Time, handled: u64) -> Self {
        pin_malloc_thresholds();
        if let Some(next) = queue.peek_time() {
            assert!(next >= now, "restored queue holds an event before `now`");
        }
        Engine {
            model,
            queue,
            now,
            handled,
        }
    }

    /// Schedules an initial/external event.
    pub fn schedule(&mut self, at: Time, event: M::Event) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.schedule(at, event);
    }

    /// Installs the run's initial events (a trace's arrivals) as a
    /// [feed](EventQueue::feed): the same order and sequence numbers as
    /// scheduling each `index` in turn at `at(index)`, without a heap
    /// entry each and, for a whole time-sorted trace, without a copy of
    /// its arrival times.
    pub fn feed(
        &mut self,
        run: impl IntoIterator<Item = usize>,
        at: impl Fn(usize) -> Time + Send + Sync + 'static,
        make: fn(usize) -> M::Event,
    ) {
        self.queue.feed(run, at, make);
        if let Some(first) = self.queue.peek_time() {
            assert!(
                first >= self.now,
                "cannot schedule into the past: {first:?} < {:?}",
                self.now
            );
        }
    }

    /// Handles a single event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, event)) => {
                debug_assert!(at >= self.now, "event queue went backwards");
                self.now = at;
                self.handled += 1;
                self.model.handle(at, event, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// An M/D/1-ish toy: arrivals every 2 t.u., service takes 3 t.u.,
    /// single server, FIFO. Used to validate the engine against hand
    /// computation.
    struct ToyQueue {
        arrivals_left: u32,
        busy_until: Time,
        completions: Vec<Time>,
    }

    #[derive(Debug)]
    enum Ev {
        Arrive,
        Complete,
    }

    impl Model for ToyQueue {
        type Event = Ev;
        fn handle(&mut self, now: Time, event: Ev, queue: &mut EventQueue<Ev>) {
            match event {
                Ev::Arrive => {
                    let start = self.busy_until.max(now);
                    let done = start + Duration::from(3.0);
                    self.busy_until = done;
                    queue.schedule(done, Ev::Complete);
                    self.arrivals_left -= 1;
                    if self.arrivals_left > 0 {
                        queue.schedule(now + Duration::from(2.0), Ev::Arrive);
                    }
                }
                Ev::Complete => self.completions.push(now),
            }
        }
    }

    fn toy(n: u32) -> Engine<ToyQueue> {
        let mut e = Engine::new(ToyQueue {
            arrivals_left: n,
            busy_until: Time::ZERO,
            completions: Vec::new(),
        });
        e.schedule(Time::ZERO, Ev::Arrive);
        e
    }

    #[test]
    fn toy_queue_matches_hand_computation() {
        let mut e = toy(3);
        e.run_to_completion();
        // Arrivals at 0, 2, 4; service 3 each, FIFO: completions 3, 6, 9.
        assert_eq!(
            e.model().completions,
            vec![Time::from(3.0), Time::from(6.0), Time::from(9.0)]
        );
        assert_eq!(e.now(), Time::from(9.0));
        // 3 arrivals + 3 completions.
        assert_eq!(e.events_handled(), 6);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut e = toy(1);
        e.run_to_completion();
        e.schedule(Time::from(1.0), Ev::Arrive);
    }

    #[test]
    fn clock_is_monotone() {
        struct Recorder {
            seen: Vec<Time>,
        }
        impl Model for Recorder {
            type Event = u8;
            fn handle(&mut self, now: Time, _: u8, _: &mut EventQueue<u8>) {
                self.seen.push(now);
            }
        }
        let mut e = Engine::new(Recorder { seen: vec![] });
        for t in [5.0, 1.0, 3.0, 1.0, 9.0, 0.0] {
            e.schedule(Time::from(t), 0);
        }
        e.run_to_completion();
        let seen = &e.model().seen;
        assert!(seen.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(seen.len(), 6);
    }
}
