//! The discrete-event core: a time-ordered queue with deterministic
//! tie-breaking (FIFO among same-time events via a monotone sequence
//! number), so identical seeds replay identical packet-level schedules.
//!
//! Internally the queue is a two-level hierarchical timing wheel with a
//! heap for far-future timers (see DESIGN.md §5.4). The wheel replaces the
//! original `BinaryHeap`-only implementation: a DES under load pops in
//! near-monotone time order, so most operations touch only the small
//! current-window buffer instead of sifting an O(log n) heap. Pop order is
//! *identical* to the heap's — total order on `(at, seq)` — which the
//! test-only shadow heap cross-check pins event by event.

use crate::fault::FaultAction;
use crate::time::SimTime;
use crate::topology::{NodeId, PortId};
use int_dataplane::Frame;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Connection identifier on a host (unique per host for its lifetime).
pub type ConnId = u64;

/// Everything that can happen in the simulated world.
///
/// Frames travel boxed: an `Event` is moved on every wheel placement and
/// heap sift, so the in-flight payload must stay a couple of words. The box
/// also lets the engine recycle frame buffers through its pool without
/// copying.
#[derive(Debug)]
pub enum Event {
    /// A frame finished propagating and arrives at `node` on `port`.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Receiving port on that node.
        port: PortId,
        /// The frame itself (boxed to keep the event small).
        frame: Box<Frame>,
    },
    /// `node`'s `port` finished serializing its current frame; the port is
    /// free to start on the next queued frame.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// Transmitting port.
        port: PortId,
    },
    /// An application timer fired.
    AppTimer {
        /// Host the app runs on.
        node: NodeId,
        /// Which app on that host.
        app_idx: usize,
        /// App-chosen timer identifier.
        timer_id: u64,
    },
    /// A TCP retransmission timer fired.
    TcpTimer {
        /// Host owning the connection.
        node: NodeId,
        /// Connection.
        conn: ConnId,
        /// Timer generation: stale timers (generation mismatch) are ignored.
        generation: u64,
    },
    /// A scheduled fault transition (link down/up, switch fail/recover)
    /// from an installed [`FaultPlan`](crate::fault::FaultPlan) fires.
    Fault(FaultAction),
}

// Lock in the compact event layout: wheel placements and heap sifts move
// `Scheduled` by value, so a regression here (e.g. inlining `Frame` back
// into `Arrive`) is a silent slowdown of the hottest loop. 32 bytes =
// discriminant + the largest variant (`TcpTimer`: node + conn + generation).
const _: () = assert!(std::mem::size_of::<Event>() <= 32, "Event grew past two words per field");

struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Shadow of a scheduled event for the wheel-vs-heap cross-check: the
/// original `BinaryHeap` ordering, minus the (non-cloneable) payload.
#[cfg(test)]
#[derive(PartialEq, Eq)]
struct ShadowKey {
    at: SimTime,
    seq: u64,
}

#[cfg(test)]
impl PartialOrd for ShadowKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
#[cfg(test)]
impl Ord for ShadowKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Slots per wheel level. 256 keeps the occupancy bitmap at four words and
/// the slot index a single byte mask.
const SLOTS: usize = 256;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// log2 of the L0 window width in ns: 2^16 ns ≈ 65.5 µs per window,
/// ≈ 16.8 ms L0 horizon. Sub-window order is resolved by the
/// current-window heap, so the width only trades heap size against
/// wheel hops; 65 µs comfortably covers a serialization burst.
const L0_SHIFT: u32 = 16;
/// log2 of the L1 slot width in ns: 2^24 ns ≈ 16.8 ms per slot (one L0
/// horizon), ≈ 4.29 s L1 horizon. Beyond that — TCP RTO backoff tails,
/// fault plans, long app timers — events wait in the overflow heap.
const L1_SHIFT: u32 = 24;

#[inline]
fn occ_set(occ: &mut [u64; 4], slot: usize) {
    occ[slot >> 6] |= 1u64 << (slot & 63);
}

#[inline]
fn occ_clear(occ: &mut [u64; 4], slot: usize) {
    occ[slot >> 6] &= !(1u64 << (slot & 63));
}

#[inline]
fn occ_test(occ: &[u64; 4], slot: usize) -> bool {
    occ[slot >> 6] & (1u64 << (slot & 63)) != 0
}

#[inline]
fn occ_empty(occ: &[u64; 4]) -> bool {
    occ.iter().all(|&w| w == 0)
}

/// Smallest cyclic distance `d` (1..=255) such that slot `(from + d) % 256`
/// is occupied. Masked word scan from `from + 1`: at most five word reads
/// regardless of occupancy (the fifth revisits the start word for the bits
/// below the starting position). Slot `from` itself is never occupied while
/// searching — the wheel files only strictly-ahead slots — so the wrapped
/// scan cannot produce a stale distance-256 hit.
fn next_occupied(occ: &[u64; 4], from: usize) -> Option<usize> {
    let start = (from + 1) & (SLOTS - 1);
    let first = start >> 6;
    let mut mask = !0u64 << (start & 63);
    for word in first..first + 5 {
        let bits = occ[word & 3] & mask;
        if bits != 0 {
            let slot = ((word & 3) << 6) + bits.trailing_zeros() as usize;
            return Some(((slot + SLOTS - 1 - from) & (SLOTS - 1)) + 1);
        }
        mask = !0;
    }
    None
}

/// Deterministic time-ordered event queue.
///
/// Hierarchical timing wheel: the current L0 window's events live in the
/// small `cur` min-heap, near-future windows hash into 256 L0 slots,
/// further events into 256 L1 slots, and everything past the L1 horizon
/// waits in an overflow heap. Each undrained slot holds events of exactly
/// one window/L1-slot value (the wheel advances before indices can alias),
/// so draining a slot never needs window disambiguation.
pub struct EventQueue {
    /// Current L0 window number: `cur` holds events with `at >> 16 <= win`.
    win: u64,
    /// Current-window events. A heap (earliest first via the inverted
    /// `Scheduled` ordering), not a sorted vec: when a burst lands in one
    /// window this degrades to exactly the original whole-queue heap
    /// instead of O(n) inserts, and in the common case it holds a handful
    /// of events and stays cache-local.
    cur: BinaryHeap<Scheduled>,
    /// L0 wheel: slot `w & 255` holds window `w`, `w - win` in 1..=255.
    l0: Box<[Vec<Scheduled>; SLOTS]>,
    occ0: [u64; 4],
    /// L1 wheel: slot `v & 255` holds L1 value `v = at >> 24`,
    /// `v - (win >> 8)` in 1..=255.
    l1: Box<[Vec<Scheduled>; SLOTS]>,
    occ1: [u64; 4],
    /// Events past the L1 horizon, ordered by the original heap discipline.
    overflow: BinaryHeap<Scheduled>,
    len: usize,
    next_seq: u64,
    /// When enabled, mirrors every push into the original binary-heap
    /// ordering and asserts on every pop that the wheel agrees — the
    /// wheel-vs-heap equivalence check from DESIGN.md §5.4.
    #[cfg(test)]
    shadow: Option<BinaryHeap<ShadowKey>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            win: 0,
            cur: BinaryHeap::new(),
            l0: Box::new(std::array::from_fn(|_| Vec::new())),
            occ0: [0; 4],
            l1: Box::new(std::array::from_fn(|_| Vec::new())),
            occ1: [0; 4],
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            #[cfg(test)]
            shadow: None,
        }
    }

    /// Mirror every subsequent push into a reference binary heap and assert
    /// on every pop that the wheel produces the exact heap order. Test-only
    /// (costs a heap op per push/pop). Enable on a fresh queue. The
    /// wheel tests below and the engine's
    /// `wheel_pops_in_exact_heap_order_on_congested_run` turn it on.
    #[cfg(test)]
    pub(crate) fn enable_cross_check(&mut self) {
        assert!(self.len == 0, "enable the cross-check before scheduling events");
        self.shadow = Some(BinaryHeap::new());
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        #[cfg(test)]
        if let Some(shadow) = &mut self.shadow {
            shadow.push(ShadowKey { at, seq });
        }
        self.len += 1;
        self.place(Scheduled { at, seq, event });
    }

    /// File one event into the level its distance from `win` selects.
    fn place(&mut self, s: Scheduled) {
        let w = s.at.0 >> L0_SHIFT;
        if w <= self.win {
            // Current window (or, permissively, the past).
            self.cur.push(s);
        } else if w - self.win < SLOTS as u64 {
            let slot = (w & SLOT_MASK) as usize;
            self.l0[slot].push(s);
            occ_set(&mut self.occ0, slot);
        } else {
            let v = s.at.0 >> L1_SHIFT;
            if v - (self.win >> 8) < SLOTS as u64 {
                let slot = (v & SLOT_MASK) as usize;
                self.l1[slot].push(s);
                occ_set(&mut self.occ1, slot);
            } else {
                self.overflow.push(s);
            }
        }
    }

    /// Advance the wheel until `cur` holds the next event. Caller
    /// guarantees `len > 0` and `cur` is empty.
    fn advance(&mut self) {
        loop {
            if !self.cur.is_empty() {
                return;
            }
            if occ_empty(&self.occ0) && occ_empty(&self.occ1) {
                // Everything pending is in overflow: jump straight to it.
                let top = self.overflow.peek().expect("len > 0 with empty wheels");
                self.win = top.at.0 >> L0_SHIFT;
            }
            // Promote overflow events that now fall under the L1 horizon.
            // Overflow times always exceed every wheel-resident time, so
            // promoting here (before picking a slot) preserves order.
            let vw = self.win >> 8;
            while let Some(top) = self.overflow.peek() {
                if (top.at.0 >> L1_SHIFT) - vw >= SLOTS as u64 {
                    break;
                }
                let s = self.overflow.pop().expect("peeked");
                self.place(s);
            }
            if !self.cur.is_empty() {
                return;
            }
            // Earliest candidate per level: an occupied L0 slot at window
            // `w0`, or an L1 slot whose first window is `b1`.
            let d0 = next_occupied(&self.occ0, (self.win & SLOT_MASK) as usize);
            let d1 = next_occupied(&self.occ1, (vw & SLOT_MASK) as usize);
            let w0 = d0.map(|d| self.win + d as u64);
            let b1 = d1.map(|d| (vw + d as u64) << (L1_SHIFT - L0_SHIFT));
            let take_l0 = match (w0, b1) {
                (Some(w0), Some(b1)) => w0 < b1,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("len > 0 but no event found in any level"),
            };
            if take_l0 {
                // The next event sits in the L0 wheel: jump to its window
                // and drain the slot into `cur`.
                let w0 = w0.expect("L0 chosen");
                self.win = w0;
                let slot = (w0 & SLOT_MASK) as usize;
                self.cur.extend(self.l0[slot].drain(..));
                occ_clear(&mut self.occ0, slot);
                return;
            }
            // The next event sits in the L1 wheel (or ties an L0 slot at
            // exactly `b1`): cascade the L1 slot across the L0 wheel,
            // merging the tied L0 slot if present.
            let b1 = b1.expect("L1 chosen");
            self.win = b1;
            let v = b1 >> (L1_SHIFT - L0_SHIFT);
            let slot = (v & SLOT_MASK) as usize;
            let mut moved = std::mem::take(&mut self.l1[slot]);
            occ_clear(&mut self.occ1, slot);
            for s in moved.drain(..) {
                let w = s.at.0 >> L0_SHIFT;
                debug_assert!(w >= b1 && w - b1 < SLOTS as u64);
                if w == self.win {
                    self.cur.push(s);
                } else {
                    let slot = (w & SLOT_MASK) as usize;
                    self.l0[slot].push(s);
                    occ_set(&mut self.occ0, slot);
                }
            }
            // An L0 slot indexed `b1 & 255` can only hold window `b1`
            // itself (the wheel never aliases): merge it.
            let slot = (self.win & SLOT_MASK) as usize;
            if occ_test(&self.occ0, slot) {
                debug_assert!(self.l0[slot].iter().all(|s| s.at.0 >> L0_SHIFT == self.win));
                self.cur.extend(self.l0[slot].drain(..));
                occ_clear(&mut self.occ0, slot);
            }
            // `cur` may still be empty (every event landed in a later L0
            // slot): loop and re-search from the new win.
        }
    }

    /// Pop the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            self.advance();
        }
        let s = self.cur.pop().expect("advance fills the current window");
        self.len -= 1;
        #[cfg(test)]
        if let Some(shadow) = &mut self.shadow {
            let k = shadow.pop().expect("shadow heap tracks len");
            assert!(
                (k.at, k.seq) == (s.at, s.seq),
                "wheel diverged from heap order: wheel popped (at={}, seq={}), heap (at={}, seq={})",
                s.at.0,
                s.seq,
                k.at.0,
                k.seq,
            );
        }
        Some((s.at, s.event))
    }

    /// Time of the next event without removing it. Takes `&mut self`
    /// because peeking may advance the wheel to locate the next window
    /// (order is unaffected).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            self.advance();
        }
        self.cur.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn timer(id: u64) -> Event {
        Event::AppTimer { node: NodeId(0), app_idx: 0, timer_id: id }
    }

    fn timer_id(ev: &Event) -> u64 {
        match ev {
            Event::AppTimer { timer_id, .. } => *timer_id,
            _ => panic!("not a timer"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), timer(3));
        q.push(SimTime(10), timer(1));
        q.push(SimTime(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| timer_id(&e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        for id in 0..100 {
            q.push(t, timer(id));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| timer_id(&e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), timer(1));
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_routes_through_overflow() {
        let mut q = EventQueue::new();
        q.enable_cross_check();
        // Spread across every level: current window, L0, L1, overflow
        // (the L1 horizon is 2^32 ns ≈ 4.29 s).
        let times = [
            0u64,
            1,
            1 << L0_SHIFT,
            (1 << L1_SHIFT) + 3,
            1_000_000_000,
            (1 << 32) + 17,
            10_000_000_000,
            300_000_000_000,
        ];
        for (id, &t) in times.iter().enumerate() {
            q.push(SimTime(t), timer(id as u64));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| timer_id(&e)).collect();
        assert_eq!(order, (0..times.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_promotes_in_order_after_wheel_drains() {
        let mut q = EventQueue::new();
        q.enable_cross_check();
        // Two far-future bursts beyond the L1 horizon, pushed before a
        // near event; FIFO ties inside each burst.
        for id in 0..10 {
            q.push(SimTime(8_000_000_000), timer(100 + id));
        }
        for id in 0..10 {
            q.push(SimTime(5_000_000_000), timer(id));
        }
        q.push(SimTime(5), timer(50));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| timer_id(&e)).collect();
        let mut expect = vec![50];
        expect.extend(0..10);
        expect.extend(100..110);
        assert_eq!(order, expect);
    }

    #[test]
    fn cascade_at_level_boundaries() {
        let mut q = EventQueue::new();
        q.enable_cross_check();
        // Times straddling window and slot edges, pushed shuffled.
        let mut times: Vec<u64> = Vec::new();
        for base in [1u64 << L0_SHIFT, 1 << L1_SHIFT, 1 << 32, 255 << L0_SHIFT, 256 << L0_SHIFT] {
            times.extend([base - 1, base, base + 1]);
        }
        // Deterministic shuffle: stride through the list.
        for i in 0..times.len() {
            q.push(SimTime(times[(i * 7) % times.len()]), timer(i as u64));
        }
        let mut got: Vec<u64> = Vec::new();
        while let Some((at, _)) = q.pop() {
            got.push(at.0);
        }
        let mut expect = times.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.enable_cross_check();
        // Drain a window partially, then push events at the already-open
        // window time and beyond — like an engine handler scheduling a
        // zero-delay follow-up while dispatching.
        q.push(SimTime(100), timer(0));
        q.push(SimTime(200), timer(1));
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime(100));
        q.push(SimTime(100), timer(2)); // same time as the popped event
        q.push(SimTime(150), timer(3));
        q.push(SimTime(90_000_000), timer(4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| timer_id(&e)).collect();
        assert_eq!(order, vec![2, 3, 1, 4]);
    }

    proptest! {
        /// The wheel agrees with the shadow binary heap under random
        /// interleavings of pushes and pops across all level horizons
        /// (`ops` mixes deltas clustered near zero with multi-second and
        /// past-horizon jumps; `pop_every` interleaves drains).
        #[test]
        fn random_schedule_matches_reference_heap(
            ops in proptest::collection::vec((0u64..1u64 << 34, 0u8..4), 1..120),
            pop_every in 1usize..5,
        ) {
            let mut q = EventQueue::new();
            q.enable_cross_check();
            let mut clock = 0u64; // mimic the engine: never schedule in the past
            let mut pushed = 0u64;
            let mut popped = 0usize;
            for (i, &(raw, scale)) in ops.iter().enumerate() {
                // Scale the raw delta so small windows, L0, L1, and
                // overflow all see traffic.
                let delta = match scale {
                    0 => raw & 0xFFF,            // within a window
                    1 => raw & 0xFF_FFFF,        // L0/L1 range
                    2 => raw & 0xF_FFFF_FFFF,    // up to ~64 s: overflow
                    _ => 0,                      // exact ties
                };
                q.push(SimTime(clock + delta), timer(pushed));
                pushed += 1;
                if i % pop_every == 0 {
                    if let Some((at, _)) = q.pop() {
                        popped += 1;
                        // The cross-check asserts order; track time too.
                        prop_assert!(at.0 >= clock || clock == 0 || at.0 <= clock);
                        clock = clock.max(at.0);
                    }
                }
            }
            let mut last = clock;
            while let Some((at, _)) = q.pop() {
                popped += 1;
                prop_assert!(at.0 >= last || popped == 1);
                last = at.0;
            }
            prop_assert_eq!(popped as u64, pushed);
            prop_assert!(q.is_empty());
        }
    }
}
