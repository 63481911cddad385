//! The discrete-event queue.
//!
//! Events are ordered by virtual time with a monotone sequence number as a
//! tie breaker, which makes event ordering (and therefore every simulation
//! run) fully deterministic.

use crate::dynamics::LinkChange;
use crate::link::LinkId;
use crate::node::NodeId;
use crate::packet::Datagram;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::ops::{Index, IndexMut};

/// What happens when an event fires.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A datagram arrives at a node (either its destination or a forwarding
    /// hop).
    DatagramArrival {
        /// The node where the datagram arrives.
        node: NodeId,
        /// The datagram itself.
        datagram: Datagram,
        /// The link it arrived on (None for loopback deliveries).
        via: Option<LinkId>,
    },
    /// A timer set by an application fires.
    Timer {
        /// The node whose application owns the timer.
        node: NodeId,
        /// The identifier returned by `Context::set_timer`.
        timer_id: u64,
    },
    /// The application on a node should be started.
    Start {
        /// The node to start.
        node: NodeId,
    },
    /// A scheduled link mutation takes effect (time-varying scenarios, see
    /// [`crate::dynamics`]).
    LinkChange {
        /// The directed link being mutated.
        link: LinkId,
        /// The mutation.
        change: LinkChange,
    },
}

/// A scheduled event, as [`EventQueue::pop`] hands it out.
#[derive(Debug, Clone)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number used to break ties deterministically.
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// "No slot" and "no lane" in the `u32` links below.
const NONE: u32 = u32::MAX;

/// What the heap orders: when an event fires, its tie-breaking sequence
/// number, and the slot its body is parked in.  Sifting moves these few
/// words, never the datagram an event carries.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One parked event.
#[derive(Debug)]
struct Slot {
    at: SimTime,
    seq: u64,
    /// The slot waiting behind this one in its lane; in a free slot, the
    /// next free one.
    next: u32,
    /// The lane the event waits in, [`NONE`] if it has a key of its own.
    lane: u32,
    /// `None` marks a free slot.
    kind: Option<EventKind>,
}

/// Slots per chunk of the [`Slab`] (64 KiB).
const CHUNK: usize = 512;

/// The parked events.  Free slots are reused, most recently freed first,
/// and the slab grows a chunk at a time: a parked event never moves, and
/// the footprint is the deepest the queue has been.  (One `Vec` of slots
/// doubles and copies itself on the way up: 23 MB of peak RSS against
/// 18.5 MB on the benchmark's `wan_loop`, at the same speed.)
#[derive(Debug)]
struct Slab {
    chunks: Vec<Vec<Slot>>,
    /// The most recently freed slot, [`NONE`] when every slot is in use.
    free: u32,
}

impl Default for Slab {
    fn default() -> Self {
        Slab {
            chunks: Vec::new(),
            free: NONE,
        }
    }
}

impl Slab {
    /// Park an event; returns its slot.
    fn insert(&mut self, parked: Slot) -> u32 {
        let slot = self.free;
        if slot != NONE {
            self.free = std::mem::replace(&mut self[slot], parked).next;
            return slot;
        }
        if self.chunks.last().is_none_or(|last| last.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let slots = (self.chunks.len() - 1) * CHUNK;
        let last = self.chunks.last_mut().expect("pushed above");
        last.push(parked);
        u32::try_from(slots + last.len() - 1).expect("fewer than 2^32 pending events")
    }

    /// Free `slot`, whose event has been taken out.
    fn release(&mut self, slot: u32) {
        self[slot].next = std::mem::replace(&mut self.free, slot);
    }
}

impl Index<u32> for Slab {
    type Output = Slot;
    fn index(&self, slot: u32) -> &Slot {
        &self.chunks[slot as usize / CHUNK][slot as usize % CHUNK]
    }
}

impl IndexMut<u32> for Slab {
    fn index_mut(&mut self, slot: u32) -> &mut Slot {
        &mut self.chunks[slot as usize / CHUNK][slot as usize % CHUNK]
    }
}

/// A deterministic min-priority event queue: events pop in `(at, seq)`
/// order, `seq` being the order they were pushed in.
///
/// The heap holds one small key per *candidate* for the next pop; the
/// bodies are parked in a slab.  An event pushed with [`EventQueue::push`]
/// is its own candidate.  Events pushed with [`EventQueue::push_fifo`] —
/// datagrams in flight on one link, which mostly arrive in the order they
/// were sent — wait in a per-link lane that is sorted by construction (a
/// list threaded through the slab), and only the front of a lane is a
/// candidate: the heap stays as small as the number of busy links however
/// many datagrams are in flight, and the pop order is exactly that of one
/// heap over every event (a k-way merge of sorted lanes).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Key>,
    slots: Slab,
    /// The last slot of each lane, [`NONE`] for an idle lane; the first is
    /// the one the lane's key in the heap names.
    lanes: Vec<u32>,
    len: usize,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Stamp a new event with the next sequence number and park it.
    fn park(&mut self, at: SimTime, lane: u32, kind: EventKind) -> Key {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let slot = self.slots.insert(Slot {
            at,
            seq,
            next: NONE,
            lane,
            kind: Some(kind),
        });
        Key { at, seq, slot }
    }

    /// Schedule an event at `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let key = self.park(at, NONE, kind);
        self.heap.push(key);
    }

    /// Schedule an event at `at` that usually fires no earlier than the
    /// events already pushed on the same `lane` (arrivals over one link).
    /// Pops exactly as if pushed with [`EventQueue::push`]: an event that
    /// does fire earlier (a jittered link reorders) simply takes that path.
    pub fn push_fifo(&mut self, lane: usize, at: SimTime, kind: EventKind) {
        if lane >= self.lanes.len() {
            self.lanes.resize(lane + 1, NONE);
        }
        let last = self.lanes[lane];
        if last != NONE && at < self.slots[last].at {
            return self.push(at, kind);
        }
        let key = self.park(at, lane as u32, kind);
        self.lanes[lane] = key.slot;
        match last {
            // The lane was idle: its front is a candidate.
            NONE => self.heap.push(key),
            last => self.slots[last].next = key.slot,
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let mut top = self.heap.peek_mut()?;
        let Key { at, seq, slot } = *top;
        let freed = &mut self.slots[slot];
        let (next, lane) = (freed.next, freed.lane);
        let kind = freed.kind.take();
        let kind = kind.expect("a queued key names a parked event");
        self.slots.release(slot);
        self.len -= 1;
        if next != NONE {
            // The event behind it in the lane takes over the key, which
            // sinks to its place when `top` goes out of scope.
            let behind = &self.slots[next];
            *top = Key {
                at: behind.at,
                seq: behind.seq,
                slot: next,
            };
        } else {
            PeekMut::pop(top);
            if lane != NONE {
                self.lanes[lane as usize] = NONE;
            }
        }
        Some(Event { at, seq, kind })
    }

    /// Remove and return the earliest event if it fires at or before
    /// `deadline`.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|key| key.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(
            SimTime::from_secs(3.0),
            EventKind::Start { node: NodeId(3) },
        );
        q.push(
            SimTime::from_secs(1.0),
            EventKind::Start { node: NodeId(1) },
        );
        q.push(
            SimTime::from_secs(2.0),
            EventKind::Start { node: NodeId(2) },
        );
        let order: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_secs())
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(
                SimTime::from_secs(1.0),
                EventKind::Timer {
                    node: NodeId(0),
                    timer_id: i,
                },
            );
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { timer_id, .. } => timer_id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.peek_time().is_none());
        q.push(
            SimTime::from_secs(2.0),
            EventKind::Start { node: NodeId(0) },
        );
        q.push(
            SimTime::from_secs(1.0),
            EventKind::Start { node: NodeId(0) },
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time().unwrap(), SimTime::from_secs(1.0));
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_due_stops_at_the_deadline() {
        let mut q = EventQueue::new();
        assert!(q.pop_due(SimTime::from_secs(9.0)).is_none());
        q.push(
            SimTime::from_secs(1.0),
            EventKind::Start { node: NodeId(1) },
        );
        q.push(
            SimTime::from_secs(2.0),
            EventKind::Start { node: NodeId(2) },
        );
        assert!(q.pop_due(SimTime::from_secs(0.5)).is_none());
        let due = q.pop_due(SimTime::from_secs(1.0)).expect("due at 1.0");
        assert_eq!(due.at, SimTime::from_secs(1.0));
        assert!(q.pop_due(SimTime::from_secs(1.5)).is_none());
        assert_eq!(q.len(), 1);
    }

    /// The queue as it was first written: whole events, payload included,
    /// sifted through one `BinaryHeap`.  The slab queue must pop the same
    /// events in the same order.
    struct WholeEvent(Event);

    impl PartialEq for WholeEvent {
        fn eq(&self, other: &Self) -> bool {
            self.0.at == other.0.at && self.0.seq == other.0.seq
        }
    }
    impl Eq for WholeEvent {}
    impl Ord for WholeEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            let (a, b) = (&self.0, &other.0);
            b.at.cmp(&a.at).then_with(|| b.seq.cmp(&a.seq))
        }
    }
    impl PartialOrd for WholeEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    #[derive(Default)]
    struct ReferenceQueue {
        heap: BinaryHeap<WholeEvent>,
        next_seq: u64,
    }

    impl ReferenceQueue {
        fn push(&mut self, at: SimTime, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(WholeEvent(Event { at, seq, kind }));
        }
        fn pop(&mut self) -> Option<Event> {
            self.heap.pop().map(|e| e.0)
        }
    }

    #[test]
    fn slab_and_lanes_pop_what_the_whole_event_heap_pops() {
        let timer_id = |e: &Event| match e.kind {
            EventKind::Timer { timer_id, .. } => timer_id,
            _ => unreachable!(),
        };
        let (mut via_lane, mut reordered) = (0u64, 0u64);
        for seed in 0..50 {
            let mut rng = crate::rng::SimRng::new(seed);
            let (mut q, mut reference) = (EventQueue::new(), ReferenceQueue::default());
            let (mut pushed, mut peak_slots) = (0u64, 0);
            // Each lane's clock: mostly it moves forward in coarse steps (so
            // lanes tie with each other and with the slab), sometimes an
            // event is pushed behind it (a jittered link reorders).
            let mut lane_clock = [0u32; 3];
            // Every tenth schedule starts with a long climb, so its slab
            // spans several chunks.
            let climb = if seed % 10 == 0 { 4 * CHUNK as u64 } else { 0 };
            for _ in 0..2000 + 2 * climb {
                // Phases of net growth and net drain, so freed slots are
                // reused while others stay occupied; few distinct times, so
                // most pushes tie with a pending event.
                let grow = pushed < climb || (pushed / 200) % 2 == 0;
                if rng.coin(if grow { 0.7 } else { 0.3 }) {
                    let kind = EventKind::Timer {
                        node: NodeId(0),
                        timer_id: pushed,
                    };
                    let lane = rng.index(lane_clock.len() + 1);
                    let at = if let Some(clock) = lane_clock.get_mut(lane) {
                        *clock += rng.index(2) as u32;
                        let behind = rng.index(4) as u32 * u32::from(rng.coin(0.2));
                        let at = SimTime::from_secs(f64::from(clock.saturating_sub(behind)));
                        let last = q.lanes.get(lane).filter(|last| **last != NONE);
                        let last_at = last.map(|last| q.slots[*last].at);
                        reordered += u64::from(last_at.is_some_and(|last_at| at < last_at));
                        via_lane += 1;
                        q.push_fifo(lane, at, kind.clone());
                        at
                    } else {
                        let at = SimTime::from_secs(rng.index(40) as f64);
                        q.push(at, kind.clone());
                        at
                    };
                    reference.push(at, kind);
                    pushed += 1;
                } else {
                    let (got, expected) = (q.pop(), reference.pop());
                    assert_eq!(got.is_some(), expected.is_some());
                    if let (Some(got), Some(expected)) = (got, expected) {
                        assert_eq!((got.at, got.seq), (expected.at, expected.seq));
                        assert_eq!(timer_id(&got), timer_id(&expected));
                    }
                }
                assert_eq!(q.len(), reference.heap.len());
                assert_eq!(q.peek_time(), reference.heap.peek().map(|e| e.0.at));
                // Every slot is parked on or on the free list.
                let some = |slot: u32| Some(slot).filter(|slot| *slot != NONE);
                let free =
                    std::iter::successors(some(q.slots.free), |slot| some(q.slots[*slot].next));
                let slots = || q.slots.chunks.iter().flatten();
                assert_eq!(slots().count(), q.len() + free.count());
                // One candidate per event outside the lanes and per busy lane.
                let parked = slots().filter(|slot| slot.kind.is_some());
                let alone = parked.filter(|slot| slot.lane == NONE).count();
                let busy = q.lanes.iter().filter(|last| **last != NONE).count();
                assert_eq!(q.heap.len(), alone + busy);
                peak_slots = peak_slots.max(q.len());
            }
            // Slots were recycled: the slab never outgrew its deepest use.
            assert_eq!(q.slots.chunks.iter().flatten().count(), peak_slots);
            assert!(climb == 0 || peak_slots > 2 * CHUNK, "{peak_slots}");
            while let Some(expected) = reference.pop() {
                assert_eq!(q.pop().map(|e| timer_id(&e)), Some(timer_id(&expected)));
            }
            assert!(q.pop().is_none() && q.is_empty());
        }
        assert!(
            via_lane > 20_000 && reordered > 1_000,
            "{via_lane} {reordered}"
        );
    }
}
