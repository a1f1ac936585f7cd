//! The deterministic event queue.
//!
//! A binary min-heap keyed by `(time, sequence)`. The sequence number makes
//! pop order total even when many events share a timestamp — essential for
//! reproducibility because gossip rounds frequently collide on the clock.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event together with its scheduled firing time and insertion sequence.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic priority queue of timed events.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Pre-allocate capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`. Events scheduled at equal times
    /// fire in insertion order.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// The pending events, in no particular order.
    pub(crate) fn events(&self) -> impl Iterator<Item = &E> {
        self.heap.iter().map(|s| &s.event)
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Stable binary encoding. A `BinaryHeap`'s internal arrangement depends on
/// its operation history, so the canonical form is the entry list sorted by
/// `(time, seq)` — the exact pop order — plus `next_seq`. Sequence numbers
/// are preserved verbatim so timestamp ties keep firing in their original
/// insertion order after restore.
impl<E: rvs_checkpoint::Persist> rvs_checkpoint::Persist for EventQueue<E> {
    fn persist(&self, enc: &mut rvs_checkpoint::Encoder) {
        enc.u64(self.next_seq);
        let mut entries: Vec<&Scheduled<E>> = self.heap.iter().collect();
        entries.sort_by_key(|s| (s.time, s.seq));
        enc.usize(entries.len());
        for s in entries {
            s.time.persist(enc);
            enc.u64(s.seq);
            s.event.persist(enc);
        }
    }

    fn restore(dec: &mut rvs_checkpoint::Decoder<'_>) -> Result<Self, rvs_checkpoint::DecodeError> {
        let next_seq = dec.u64()?;
        let len = dec.seq_len()?;
        let mut heap = BinaryHeap::with_capacity(len);
        for _ in 0..len {
            let time = SimTime::restore(dec)?;
            let seq = dec.u64()?;
            let event = E::restore(dec)?;
            heap.push(Scheduled { time, seq, event });
        }
        Ok(EventQueue { heap, next_seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 10);
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_secs(5), 5);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
