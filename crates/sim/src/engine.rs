//! The simulation engine: clock + event queue.
//!
//! The engine is deliberately passive — it owns the clock and the queue but
//! not the simulated world. The caller pops events with
//! [`Engine::next_before`] and keeps ownership of world state while it
//! handles them, scheduling follow-up events as it goes, without any
//! `RefCell`/aliasing gymnastics:
//!
//! ```
//! use rvs_sim::{Engine, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Tick }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, Ev::Tick);
//! let mut ticks = 0u32;
//! while let Some((_t, Ev::Tick)) = engine.next_before(SimTime::from_secs(10)) {
//!     ticks += 1;
//!     engine.schedule_in(SimDuration::from_secs(1), Ev::Tick);
//! }
//! assert_eq!(ticks, 10); // fires at 0s..9s; the 10s event is past the horizon
//! assert_eq!(engine.now(), SimTime::from_secs(10));
//! ```

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulation engine over an application event type `E`.
#[derive(Debug, Clone)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at zero.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The events still pending, in no particular order.
    pub fn pending_events(&self) -> impl Iterator<Item = &E> {
        self.queue.events()
    }

    /// Schedule `event` at absolute time `t`.
    ///
    /// # Panics
    /// Panics when `t` is in the past — scheduling backwards would silently
    /// corrupt causality.
    pub fn schedule_at(&mut self, t: SimTime, event: E) {
        assert!(
            t >= self.now,
            "cannot schedule event at {t} before current time {}",
            self.now
        );
        self.queue.push(t, event);
    }

    /// Schedule `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let t = self.now.saturating_add(delay);
        self.queue.push(t, event);
    }

    /// Pop the next event if it fires strictly before `horizon`, advancing
    /// the clock to its timestamp. Returns `None` when the queue is empty or
    /// the next event lies at/after the horizon (the clock then advances to
    /// the horizon).
    pub fn next_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if matches!(self.queue.peek_time(), Some(t) if t < horizon) {
            if let Some((t, e)) = self.queue.pop() {
                self.now = t;
                return Some((t, e));
            }
        }
        if horizon > self.now && horizon != SimTime::MAX {
            self.now = horizon;
        }
        None
    }
}

/// Stable binary encoding: clock, then the queue. Restore
/// rebuilds the engine directly (bypassing [`Engine::schedule_at`]'s
/// past-time assertion, which restored queues trivially satisfy anyway).
impl<E: rvs_checkpoint::Persist> rvs_checkpoint::Persist for Engine<E> {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        self.now.persist(enc);
        self.queue.persist(enc);
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let now = SimTime::restore(dec)?;
        let queue = EventQueue::restore(dec)?;
        Ok(Engine { now, queue })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), Ev::Ping(1));
        eng.schedule_at(SimTime::from_secs(2), Ev::Ping(0));
        let (t, e) = eng.next_before(SimTime::MAX).unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(e, Ev::Ping(0));
        assert_eq!(eng.now(), SimTime::from_secs(2));
        assert!(eng.pending_events().eq([&Ev::Ping(1)]));
        let (t, _) = eng.next_before(SimTime::MAX).unwrap();
        assert_eq!(t, SimTime::from_secs(5));
    }

    #[test]
    fn horizon_is_exclusive_and_advances_clock() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(10), Ev::Stop);
        assert!(eng.next_before(SimTime::from_secs(10)).is_none());
        assert_eq!(eng.now(), SimTime::from_secs(10));
        // The event is still pending and fires once the horizon moves on.
        assert!(eng.next_before(SimTime::from_secs(11)).is_some());
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), Ev::Stop);
        eng.next_before(SimTime::MAX);
        eng.schedule_at(SimTime::from_secs(1), Ev::Stop);
    }
}
