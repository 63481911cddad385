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
    },
    /// A timer set by an application fires.
    Timer {
        /// The node whose application owns the timer.
        node: NodeId,
        /// The key the application passed to `Context::set_timer`.
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
    /// Nothing happens; the event only keeps the clock running up to its
    /// time (see [`crate::sim::Simulator::wake_at`]).
    Wake,
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

/// What the heap orders: when an event fires (the bits of its
/// [`SimTime`], which order as the time does), its tie-breaking sequence
/// number, the slot its body is parked in and the lane it heads
/// ([`NONE`] for an event with a key of its own).  Sifting compares one
/// integer and moves these 24 bytes, never the datagram an event carries.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
    lane: u32,
}

impl Key {
    /// `(at, seq)` as one integer, which orders as the pair does.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.at) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl Eq for Key {}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        other.rank().cmp(&self.rank())
    }
}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One parked event.
#[derive(Debug)]
struct Slot {
    /// The bits of the event's time, as in its [`Key`].
    at: u64,
    seq: u64,
    /// The slot waiting behind this one in its lane; in a free slot, the
    /// next free one.
    next: u32,
    /// The slot waiting in front of this one in its lane, [`NONE`] at the
    /// lane's front (and outside the lanes).
    prev: u32,
    /// `None` marks a free slot.
    kind: Option<EventKind>,
}

/// Slots per chunk of the [`Slab`] (48 KiB).
const CHUNK: usize = 512;

/// The parked events.  Free slots are reused, most recently freed first,
/// and the slab grows a chunk at a time: a parked event never moves, and
/// the footprint is the deepest the queue has been.  A chunk is a
/// fixed-size array, so finding a slot is one load of its chunk's address
/// and an index that needs no bounds check.  (One `Vec` of slots indexes
/// faster, but doubles and copies itself on the way up; reserving its
/// capacity up front instead leaves a multi-megabyte block to the
/// allocator, and the benchmark's `wan_loop` peak RSS then read 1–1.4 MB
/// higher in two of nine runs.)
#[derive(Debug)]
struct Slab {
    chunks: Vec<Box<[Slot; CHUNK]>>,
    /// Slots handed out so far: each one below is parked or free.
    used: u32,
    /// The most recently freed slot, [`NONE`] when every slot is in use.
    free: u32,
}

impl Default for Slab {
    fn default() -> Self {
        Slab {
            chunks: Vec::new(),
            used: 0,
            free: NONE,
        }
    }
}

impl Slab {
    /// Park an event; returns its slot.
    #[inline]
    fn insert(&mut self, parked: Slot) -> u32 {
        let slot = self.free;
        if slot != NONE {
            self.free = std::mem::replace(&mut self[slot], parked).next;
            return slot;
        }
        self.grow(parked)
    }

    /// Park an event in a slot never used before, adding a chunk when
    /// every one is.
    fn grow(&mut self, parked: Slot) -> u32 {
        let slot = self.used;
        if slot as usize == self.chunks.len() * CHUNK {
            let vacant = || Slot {
                at: 0,
                seq: 0,
                next: NONE,
                prev: NONE,
                kind: None,
            };
            let chunk: Box<[Slot]> = (0..CHUNK).map(|_| vacant()).collect();
            self.chunks
                .push(chunk.try_into().expect("a chunk has CHUNK slots"));
        }
        self.used = slot.checked_add(1).expect("fewer than 2^32 pending events");
        self[slot] = parked;
        slot
    }

    /// Take the event parked in `slot` out and free the slot; returns the
    /// event and the slot that waited behind it in its lane.
    #[inline]
    fn vacate(&mut self, slot: u32) -> (EventKind, u32) {
        let free = std::mem::replace(&mut self.free, slot);
        let vacated = &mut self[slot];
        let kind = vacated.kind.take();
        let behind = std::mem::replace(&mut vacated.next, free);
        (kind.expect("a queued key names a parked event"), behind)
    }
}

impl Index<u32> for Slab {
    type Output = Slot;
    #[inline]
    fn index(&self, slot: u32) -> &Slot {
        &self.chunks[slot as usize / CHUNK][slot as usize % CHUNK]
    }
}

impl IndexMut<u32> for Slab {
    #[inline]
    fn index_mut(&mut self, slot: u32) -> &mut Slot {
        &mut self.chunks[slot as usize / CHUNK][slot as usize % CHUNK]
    }
}

/// How far back from its tail a lane looks for an arrival's place before
/// the arrival takes a key of its own instead: a link's jitter reorders
/// it behind a bounded number of earlier arrivals (on the Fig. 8 links, 6
/// on average and 34 at most), and the bound keeps a push O(1) whatever a
/// link's jitter.
const MAX_BACKTRACK: u32 = 64;

/// A deterministic min-priority event queue: events pop in `(at, seq)`
/// order, `seq` being the order they were pushed in.
///
/// The heap holds one small key per *candidate* for the next pop; the
/// bodies are parked in a slab.  An event pushed with [`EventQueue::push`]
/// is its own candidate.  Events pushed with [`EventQueue::push_fifo`] —
/// datagrams in flight on one link — wait in a per-link lane, a list
/// threaded both ways through the slab and sorted by `(at, seq)`, and only
/// the front of a lane is a candidate: the heap stays as small as the
/// number of busy links however many datagrams are in flight, and the pop
/// order is exactly that of one heap over every event (a k-way merge of
/// sorted lanes).  A link delivers mostly in order, so an arrival usually
/// joins its lane at the tail; one that a jittered link reorders walks
/// back from the tail to its place, and only one that would overtake the
/// lane's front (or lies more than [`MAX_BACKTRACK`] places back) takes a
/// key of its own.
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

    /// Stamp a new event with the next sequence number and park it
    /// between `prev` and `next`.
    #[inline]
    fn park(&mut self, at: u64, prev: u32, next: u32, kind: EventKind) -> (u64, u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let slot = self.slots.insert(Slot {
            at,
            seq,
            next,
            prev,
            kind: Some(kind),
        });
        (seq, slot)
    }

    /// Schedule an event at `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let at = at.to_bits();
        let (seq, slot) = self.park(at, NONE, NONE, kind);
        self.heap.push(Key {
            at,
            seq,
            slot,
            lane: NONE,
        });
    }

    /// Schedule an event at `at` that usually fires no earlier than the
    /// events already pushed on the same `lane` (arrivals over one link).
    /// Pops exactly as if pushed with [`EventQueue::push`].
    #[inline]
    pub fn push_fifo(&mut self, lane: usize, at: SimTime, kind: EventKind) {
        if lane >= self.lanes.len() {
            self.lanes.resize(lane + 1, NONE);
        }
        let tail = self.lanes[lane];
        let at_bits = at.to_bits();
        if tail == NONE {
            // The lane was idle: its front is a candidate.
            let (seq, slot) = self.park(at_bits, NONE, NONE, kind);
            self.lanes[lane] = slot;
            let (at, lane) = (at_bits, lane as u32);
            return self.heap.push(Key {
                at,
                seq,
                slot,
                lane,
            });
        }
        // The new event's `seq` is the largest yet, so its place is right
        // behind the last event that fires no later than it does.
        let mut before = tail;
        let mut steps = 0;
        while self.slots[before].at > at_bits {
            before = self.slots[before].prev;
            steps += 1;
            if before == NONE || steps > MAX_BACKTRACK {
                return self.push(at, kind);
            }
        }
        let after = self.slots[before].next;
        let (_, slot) = self.park(at_bits, before, after, kind);
        self.slots[before].next = slot;
        match after {
            NONE => self.lanes[lane] = slot,
            after => self.slots[after].prev = slot,
        }
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let mut top = self.heap.peek_mut()?;
        let Key {
            at,
            seq,
            slot,
            lane,
        } = *top;
        let (kind, next) = self.slots.vacate(slot);
        self.len -= 1;
        if next != NONE {
            // The event behind it in the lane takes over the key, which
            // sinks to its place when `top` goes out of scope.
            let behind = &mut self.slots[next];
            behind.prev = NONE;
            *top = Key {
                at: behind.at,
                seq: behind.seq,
                slot: next,
                lane,
            };
        } else {
            PeekMut::pop(top);
            if lane != NONE {
                self.lanes[lane as usize] = NONE;
            }
        }
        let at = SimTime::from_bits(at);
        Some(Event { at, seq, kind })
    }

    /// Remove and return the earliest event if it fires at or before
    /// `deadline`.
    #[inline]
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        if self.heap.peek()?.at > deadline.to_bits() {
            return None;
        }
        self.pop()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|key| SimTime::from_bits(key.at))
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
    #[cfg(target_pointer_width = "64")]
    fn a_parked_event_takes_96_bytes() {
        // The largest body is a `Datagram` inline: its destination and
        // payload.
        assert_eq!(std::mem::size_of::<Slot>(), 96);
        assert_eq!(CHUNK * std::mem::size_of::<Slot>(), 48 << 10);
    }

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
        // The same counts over the Fig. 8-shaped schedules alone, and how
        // many of their pops tie in time with the previous pop from another
        // lane (or from outside the lanes).
        let (mut fig8_via_lane, mut fig8_reordered, mut fig8_ties) = (0u64, 0u64, 0u64);
        let mut fig8_spilled = 0u64;
        for seed in 0..80 {
            let mut rng = crate::rng::SimRng::new(seed);
            let (mut q, mut reference) = (EventQueue::new(), ReferenceQueue::default());
            let (mut pushed, mut peak_slots) = (0u64, 0);
            // Schedules 50 and up are shaped like the Fig. 8 links: each of
            // eight lanes sends one datagram per transmit time (its clock
            // steps by one) and delivers it after a uniform jitter of up to
            // 15 transmit times, so most arrivals land behind the lane's
            // last one; every lane starts at 0 on the same grid, so lanes
            // tie exactly.  The others: each lane's clock mostly moves
            // forward in coarse steps (so lanes tie with each other and
            // with the slab), and sometimes an event is pushed behind it.
            let fig8 = seed >= 50;
            let mut lane_clock = vec![0u32; if fig8 { 8 } else { 3 }];
            // The lane (or `lane_clock.len()`, none) each event went to.
            let mut lane_of = Vec::new();
            let mut last_pop: Option<(SimTime, usize)> = None;
            // Every tenth schedule starts with a long climb, so its slab
            // spans several chunks.
            let climb = if seed % 10 == 0 { 4 * CHUNK as u64 } else { 0 };
            for _ in 0..2000 + 2 * climb {
                // Phases of net growth and net drain, so freed slots are
                // reused while others stay occupied; few distinct times, so
                // most pushes tie with a pending event.  A Fig. 8-shaped
                // schedule drains more slowly: its links stay busy.
                let grow = pushed < climb || (pushed / 200) % 2 == 0;
                let drain = if fig8 { 0.45 } else { 0.3 };
                if rng.coin(if grow { 0.7 } else { drain }) {
                    let kind = EventKind::Timer {
                        node: NodeId(0),
                        timer_id: pushed,
                    };
                    let lane = rng.index(lane_clock.len() + 1);
                    // One transmit time is 1/1024 s, exact in binary.
                    let tick = |ticks: u32| SimTime::from_secs(f64::from(ticks) / 1024.0);
                    let at = if let Some(clock) = lane_clock.get_mut(lane) {
                        let at = if fig8 {
                            *clock += 1;
                            tick(*clock + rng.index(16) as u32)
                        } else {
                            *clock += rng.index(2) as u32;
                            let behind = rng.index(4) as u32 * u32::from(rng.coin(0.2));
                            SimTime::from_secs(f64::from(clock.saturating_sub(behind)))
                        };
                        let last = q.lanes.get(lane).filter(|last| **last != NONE);
                        let last_at = last.map(|last| q.slots[*last].at);
                        let behind = last_at.is_some_and(|last_at| at.to_bits() < last_at);
                        reordered += u64::from(behind);
                        via_lane += 1;
                        let keys = q.heap.len();
                        q.push_fifo(lane, at, kind.clone());
                        if fig8 {
                            fig8_reordered += u64::from(behind);
                            fig8_via_lane += 1;
                            // A reordered arrival with a key of its own.
                            fig8_spilled += u64::from(behind && q.heap.len() > keys);
                        }
                        at
                    } else if fig8 {
                        // A timer armed near the lanes' current time.
                        let now = lane_clock.iter().min().copied().unwrap_or(0);
                        let at = tick(now + rng.index(40) as u32);
                        q.push(at, kind.clone());
                        at
                    } else {
                        let at = SimTime::from_secs(rng.index(40) as f64);
                        q.push(at, kind.clone());
                        at
                    };
                    lane_of.push(lane);
                    reference.push(at, kind);
                    pushed += 1;
                } else {
                    let (got, expected) = (q.pop(), reference.pop());
                    assert_eq!(got.is_some(), expected.is_some());
                    if let (Some(got), Some(expected)) = (got, expected) {
                        assert_eq!((got.at, got.seq), (expected.at, expected.seq));
                        assert_eq!(timer_id(&got), timer_id(&expected));
                        let lane = lane_of[timer_id(&got) as usize];
                        let tie = last_pop.is_some_and(|(at, from)| at == got.at && from != lane);
                        fig8_ties += u64::from(fig8 && tie);
                        last_pop = Some((got.at, lane));
                    }
                }
                assert_eq!(q.len(), reference.heap.len());
                assert_eq!(q.peek_time(), reference.heap.peek().map(|e| e.0.at));
                // Every slot is parked on or on the free list.
                let some = |slot: u32| Some(slot).filter(|slot| *slot != NONE);
                let free =
                    std::iter::successors(some(q.slots.free), |slot| some(q.slots[*slot].next));
                assert_eq!(q.slots.used as usize, q.len() + free.count());
                let slots = (0..q.slots.used).map(|slot| &q.slots[slot]);
                assert_eq!(slots.filter(|slot| slot.kind.is_some()).count(), q.len());
                // One candidate per event outside the lanes and per busy
                // lane: every parked event is a key's or waits behind a
                // lane's front, linked both ways in `(at, seq)` order.
                let mut reached = 0;
                for key in q.heap.iter() {
                    let front = &q.slots[key.slot];
                    assert_eq!((front.at, front.seq, front.prev), (key.at, key.seq, NONE));
                    let mut slot = key.slot;
                    reached += 1;
                    while let Some(next) = some(q.slots[slot].next) {
                        let (here, behind) = (&q.slots[slot], &q.slots[next]);
                        assert!((here.at, here.seq) < (behind.at, behind.seq));
                        assert_eq!(behind.prev, slot);
                        (slot, reached) = (next, reached + 1);
                    }
                    match key.lane {
                        NONE => assert_eq!(slot, key.slot),
                        lane => assert_eq!(q.lanes[lane as usize], slot),
                    }
                }
                assert_eq!(reached, q.len());
                let busy = q.lanes.iter().filter(|last| **last != NONE).count();
                let fronts = q.heap.iter().filter(|key| key.lane != NONE).count();
                assert_eq!(fronts, busy);
                peak_slots = peak_slots.max(q.len());
            }
            // Slots were recycled: the slab never outgrew its deepest use.
            assert_eq!(q.slots.used as usize, peak_slots);
            assert_eq!(q.slots.chunks.len(), peak_slots.div_ceil(CHUNK));
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
        // Most Fig. 8-shaped arrivals land behind their lane's last one,
        // and lanes tie exactly.
        assert!(
            fig8_via_lane > 30_000
                && fig8_reordered * 100 > 55 * fig8_via_lane
                && fig8_ties > 10_000,
            "{fig8_via_lane} {fig8_reordered} {fig8_ties}"
        );
        // And their lanes absorb them: few overtake a lane's front.
        assert!(
            fig8_spilled * 5 < fig8_reordered,
            "{fig8_spilled} of {fig8_reordered}"
        );
    }
}
