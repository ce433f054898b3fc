//! An indexed time-wheel event queue.
//!
//! Gate delays in this kit are a few hundred ps, so almost every scheduled
//! event lands within a few thousand ps of the current time. The wheel
//! exploits that: a ring of [`SPAN`] one-picosecond slots indexed by
//! `time % SPAN`, with a two-level occupancy bitmap (`u64` words scanned
//! via `trailing_zeros`) so finding the next non-empty slot is a handful
//! of word tests instead of a heap sift. Events beyond the wheel's span
//! (power-gating collapse/restore scheduled microseconds out, testbench
//! stimulus) overflow into a [`BinaryHeap`] and are drained back into the
//! wheel as the base cursor advances.
//!
//! Slot storage is one pooled arena: each slot is a head/tail linked list
//! threaded through `nodes`, and claimed slots return their nodes to a
//! free list. The arena only grows to the peak number of queued events,
//! so a long run touches a few cache-resident nodes instead of thousands
//! of per-slot buffers.
//!
//! Ordering is **bit-identical** to the `BinaryHeap<Reverse<Event>>` it
//! replaces: events pop in `(time, seq)` order. Within the active window
//! a slot holds exactly one timestamp. Pushes arrive in `seq` order, so a
//! slot is already sorted unless an overflow drain appended an older
//! event behind newer ones; only then is the claimed slot sorted.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled value change. Totally ordered by `(time, seq, ..)` so the
/// queue pops in schedule order within a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Event {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) net: u32,
    pub(crate) value_tag: u8,
}

/// Wheel span in picoseconds (and slots — 1 ps each). Power of two so the
/// modulo is a mask.
const SPAN: u64 = 8192;
const WORDS: usize = (SPAN as usize) / 64;
/// End-of-list marker for arena links.
const NIL: u32 = u32::MAX;

/// One arena entry: a queued event and the next entry of its list (the
/// slot's list while queued, the free list once released).
#[derive(Debug, Clone, Copy)]
struct Node {
    ev: Event,
    next: u32,
}

/// A slot's event list in the arena, `NIL`/`NIL` when empty.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// The event queue: near-future ring + far-future overflow heap.
#[derive(Debug)]
pub(crate) struct TimeWheel {
    /// Pooled storage for every slotted event.
    nodes: Vec<Node>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    slots: Vec<Slot>,
    /// Occupancy bitmap over `slots`; bit `s` set iff `slots[s]` non-empty.
    words: [u64; WORDS],
    /// Lower bound on every queued event's time; scan origin.
    base: u64,
    overflow: BinaryHeap<Reverse<Event>>,
    /// Events currently in `slots` (not counting `overflow`/`current`).
    in_slots: usize,
    /// The slot being drained: events of one timestamp, sorted by seq.
    current: Vec<Event>,
    /// Read cursor into `current` (drained front-to-back).
    cursor: usize,
    /// Base advances (slot claims) — the wheel-throughput numerator.
    pub(crate) advances: u64,
    /// Events that missed the window and went to the overflow heap.
    pub(crate) overflows: u64,
}

impl TimeWheel {
    pub(crate) fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
            slots: vec![EMPTY; SPAN as usize],
            words: [0; WORDS],
            base: 0,
            overflow: BinaryHeap::new(),
            in_slots: 0,
            current: Vec::new(),
            cursor: 0,
            advances: 0,
            overflows: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.in_slots == 0 && self.overflow.is_empty() && self.cursor >= self.current.len()
    }

    /// Queues an event. `ev.time` must be `>= self.base` (the simulator
    /// never schedules into the past).
    pub(crate) fn push(&mut self, ev: Event) {
        debug_assert!(ev.time >= self.base, "scheduled into the past");
        if ev.time < self.base + SPAN {
            self.link(ev);
        } else {
            self.overflow.push(Reverse(ev));
            self.overflows += 1;
        }
    }

    /// Appends `ev` to its slot's list, reusing a free arena node if any.
    fn link(&mut self, ev: Event) {
        let node = Node { ev, next: NIL };
        let i = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        let s = (ev.time % SPAN) as usize;
        let slot = &mut self.slots[s];
        if slot.head == NIL {
            slot.head = i;
            self.words[s / 64] |= 1 << (s % 64);
        } else {
            self.nodes[slot.tail as usize].next = i;
        }
        slot.tail = i;
        self.in_slots += 1;
    }

    /// Pops the earliest event whose time is `<= deadline`, or `None`
    /// (leaving the queue untouched) if the next event lies beyond it.
    pub(crate) fn pop_le(&mut self, deadline: u64) -> Option<Event> {
        // Finish draining the in-flight timestamp first: `current` always
        // holds the globally earliest events (nothing earlier can be
        // scheduled once its timestamp is being processed).
        if self.cursor < self.current.len() {
            let ev = self.current[self.cursor];
            if ev.time > deadline {
                return None;
            }
            self.cursor += 1;
            return Some(ev);
        }

        loop {
            // Slide overflow events into the wheel whenever they fit the
            // window. This must happen before slot selection: a far-future
            // event queued long ago can precede wheel events pushed after
            // the base advanced past its time.
            while let Some(&Reverse(head)) = self.overflow.peek() {
                if head.time >= self.base + SPAN {
                    break;
                }
                self.overflow.pop();
                self.link(head);
            }

            if self.in_slots == 0 {
                // Wheel empty: jump the window to the overflow head — but
                // only when it is due. Moving the base past the deadline
                // would strand a later push at an earlier time behind it.
                let &Reverse(head) = self.overflow.peek()?;
                if head.time > deadline {
                    return None;
                }
                self.base = head.time;
                continue;
            }

            let s = self.next_slot();
            let Slot { head, tail } = self.slots[s];
            let t = self.nodes[head as usize].ev.time;
            if t > deadline {
                return None;
            }
            // Claim the whole slot (one timestamp) and hand its nodes back
            // to the free list in one splice.
            self.current.clear();
            let mut sorted = true;
            let mut i = head;
            while i != NIL {
                let node = self.nodes[i as usize];
                sorted &= self.current.last().is_none_or(|p| p.seq < node.ev.seq);
                self.current.push(node.ev);
                i = node.next;
            }
            self.nodes[tail as usize].next = self.free;
            self.free = head;
            self.slots[s] = EMPTY;
            // Only an overflow drain appends out of sequence; sort then,
            // giving exactly the (time, seq) order a min-heap would.
            if !sorted {
                self.current.sort_unstable_by_key(|e| e.seq);
            }
            self.cursor = 1;
            self.words[s / 64] &= !(1 << (s % 64));
            self.in_slots -= self.current.len();
            self.base = t;
            self.advances += 1;
            return Some(self.current[0]);
        }
    }

    /// Index of the occupied slot with the earliest time. Slots are
    /// scanned from `base`'s slot, wrapping — which is exactly increasing
    /// time order for the window `[base, base + SPAN)`.
    fn next_slot(&self) -> usize {
        debug_assert!(self.in_slots > 0);
        let b = (self.base % SPAN) as usize;
        let (w0, bit0) = (b / 64, b % 64);
        // Tail of the starting word.
        let masked = self.words[w0] & !((1u64 << bit0) - 1);
        if masked != 0 {
            return w0 * 64 + masked.trailing_zeros() as usize;
        }
        // Remaining words, wrapping; the starting word's head comes last.
        for k in 1..=WORDS {
            let w = (w0 + k) % WORDS;
            let mut word = self.words[w];
            if k == WORDS {
                word &= (1u64 << bit0) - 1;
            }
            if word != 0 {
                return w * 64 + word.trailing_zeros() as usize;
            }
        }
        unreachable!("in_slots > 0 but bitmap empty");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u64) -> Event {
        Event {
            time,
            seq,
            net: 0,
            value_tag: 0,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimeWheel::new();
        for &(t, s) in &[(50, 1), (10, 2), (10, 3), (7000, 4), (50, 5)] {
            w.push(ev(t, s));
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| w.pop_le(u64::MAX))
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(order, vec![(10, 2), (10, 3), (50, 1), (50, 5), (7000, 4)]);
        assert!(w.is_empty());
    }

    #[test]
    fn deadline_is_respected_without_losing_events() {
        let mut w = TimeWheel::new();
        w.push(ev(100, 1));
        w.push(ev(200, 2));
        assert_eq!(w.pop_le(150).map(|e| e.seq), Some(1));
        assert_eq!(w.pop_le(150), None);
        assert!(!w.is_empty());
        assert_eq!(w.pop_le(250).map(|e| e.seq), Some(2));
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut w = TimeWheel::new();
        w.push(ev(5, 1));
        w.push(ev(1_000_000, 2)); // way past the span: overflow heap
        w.push(ev(2_000_000, 3));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(5));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(1_000_000));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(2_000_000));
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_event_precedes_later_wheel_pushes() {
        // Regression for the subtle case: an event overflows, the base
        // advances past its time, then a *newer* wheel event is pushed
        // with a later timestamp. The old overflow event must still pop
        // first.
        let mut w = TimeWheel::new();
        w.push(ev(0, 1));
        w.push(ev(10_000, 2)); // overflow (>= SPAN)
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(1));
        // Base is now 0 → after popping, push an event the wheel accepts
        // directly but which must come *after* the overflow one.
        w.push(ev(500, 3));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(3));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(2));
    }

    #[test]
    fn pop_past_deadline_leaves_base_for_earlier_pushes() {
        // Regression: with no slotted events and the overflow head beyond
        // the deadline, `pop_le` used to jump the base to that head anyway,
        // so a later push at an earlier time landed behind the base and
        // popped after the far-future event.
        let mut w = TimeWheel::new();
        w.push(ev(10_000, 1)); // overflow (>= SPAN)
        assert_eq!(w.pop_le(500), None);
        w.push(ev(600, 2));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(600));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(10_000));
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_drain_behind_newer_events_is_sorted_on_claim() {
        // The overflow event (seq 1) is drained into a slot that already
        // holds a newer event for the same timestamp (seq 3).
        let mut w = TimeWheel::new();
        w.push(ev(0, 0));
        w.push(ev(9_000, 1)); // overflow
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(0));
        w.push(ev(2_000, 2));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(2));
        w.push(ev(9_000, 3)); // in the window now; joins slot 9000 % SPAN
        let order: Vec<u64> = std::iter::from_fn(|| w.pop_le(u64::MAX))
            .map(|e| e.seq)
            .collect();
        assert_eq!(order, vec![1, 3]);
    }

    #[test]
    fn arena_reuses_released_nodes() {
        // A steady stream of short-delay events must recycle the same few
        // nodes rather than grow the arena with the event count.
        let mut w = TimeWheel::new();
        for k in 0..10_000u64 {
            w.push(ev(k * 3, 2 * k));
            w.push(ev(k * 3 + 1, 2 * k + 1));
            assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(2 * k));
            assert_eq!(w.pop_le(u64::MAX).map(|e| e.seq), Some(2 * k + 1));
        }
        assert!(w.is_empty());
        assert!(w.nodes.len() <= 2, "arena grew to {}", w.nodes.len());
    }

    #[test]
    fn wrapping_slot_scan_keeps_time_order() {
        let mut w = TimeWheel::new();
        // Advance base into the middle of the ring.
        w.push(ev(5000, 1));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(5000));
        // Now schedule across the wrap boundary (slot indices wrap at 8192).
        w.push(ev(9000, 2)); // slot 808 (wrapped) — but time 9000
        w.push(ev(8000, 3)); // slot 8000 — time 8000, must pop first
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(8000));
        assert_eq!(w.pop_le(u64::MAX).map(|e| e.time), Some(9000));
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // Drive both queues with the same deterministic, sim-like pattern:
        // each popped event schedules a few more at time + small delay,
        // occasionally far in the future.
        let mut wheel = TimeWheel::new();
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for t in [0u64, 3, 9, 100] {
            for _ in 0..8 {
                seq += 1;
                let e = ev(t + rand() % 50, seq);
                wheel.push(e);
                heap.push(Reverse(e));
            }
        }
        for _ in 0..2000 {
            let a = wheel.pop_le(u64::MAX);
            let b = heap.pop().map(|Reverse(e)| e);
            assert_eq!(a, b);
            let Some(e) = a else { break };
            // Reschedule deterministically from the popped event.
            if e.seq % 3 == 0 {
                seq += 1;
                let delay = if e.seq % 11 == 0 {
                    50_000
                } else {
                    1 + rand() % 300
                };
                let n = ev(e.time + delay, seq);
                wheel.push(n);
                heap.push(Reverse(n));
            }
        }
        assert_eq!(wheel.is_empty(), heap.is_empty());
    }
}
