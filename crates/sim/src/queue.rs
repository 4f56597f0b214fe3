//! The event queue at the heart of the discrete-event simulation.
//!
//! [`EventQueue`] is a min-heap ordered by `(time, key, seq)`: firing
//! time first, then a caller-supplied *canonical key*, then a
//! monotonically increasing sequence number. Events scheduled through
//! the plain [`schedule_at`]/[`schedule_in`] APIs carry key 0, so for
//! them the order degenerates to the classic "same instant fires in
//! insertion order" contract. Keyed scheduling
//! ([`schedule_at_keyed`]) lets the kernel impose a *content-derived*
//! tie order (e.g. home-node id) that is identical no matter in
//! which order the handlers inserted the events, so same-instant work
//! on different nodes runs in a fixed, content-derived order.
//!
//! [`schedule_at`]: EventQueue::schedule_at
//! [`schedule_in`]: EventQueue::schedule_in
//! [`schedule_at_keyed`]: EventQueue::schedule_at_keyed
//!
//! Scheduled events can be cancelled by token. Liveness is tracked
//! with a generation-stamped slot table instead of a hash set: every
//! entry carries a `(slot, gen)` pair, and an entry is live iff its
//! generation still matches `slots[slot]`. Cancelling (and popping)
//! bumps the slot's generation, so the liveness test on the hot pop
//! path is a single array compare — no hashing, no probe — and
//! `cancel` stays O(1) (amortized; it may pop already-dead heap heads
//! to keep the head live, which restores `&self` peeks). Teardown
//! storms that cancel many timers at once are bounded by periodic
//! compaction: when dead entries outnumber live ones the heap is
//! rebuilt without them.

use crate::{Duration, Instant};

/// Token identifying a scheduled event, used for cancellation.
///
/// Internally a `(slot, generation)` pair: the slot is reused after
/// the event fires or is cancelled, the generation disambiguates the
/// reuse. A stale token therefore never cancels a later event (a
/// generation would have to wrap around `u32` on one slot between the
/// token's creation and its use — billions of reschedules — for a
/// false match).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledEvent {
    slot: u32,
    gen: u32,
}

/// A heap node: ordering key plus the slot holding the payload.
/// Payloads live in the slot table, not the heap, so a sift moves 32
/// bytes regardless of the event type's size.
struct Entry {
    /// Firing time in nanoseconds (primary key).
    at: u64,
    /// Caller-supplied canonical tie key (secondary). 0 for events
    /// scheduled through the unkeyed APIs.
    key: u32,
    /// Tie-breaking sequence number — unique, so `(at, key, seq)` is
    /// a *total* order: any correct min-heap pops the exact same
    /// sequence, and the heap's internal layout is free to change
    /// without touching determinism.
    seq: u64,
    slot: u32,
    gen: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

impl Entry {
    #[inline]
    fn key(&self) -> (u64, u32, u64) {
        (self.at, self.key, self.seq)
    }
}

/// Time-ordered, insertion-stable event queue.
///
/// The heap is a hand-rolled 4-ary min-heap: half the depth of a
/// binary heap and four children per cache line's worth of entries,
/// which measurably beats `std::collections::BinaryHeap` on the
/// kernel's push/pop-dominated hot path.
pub struct EventQueue<E> {
    heap: Vec<Entry>,
    /// `slots[s]` is the generation a live entry in slot `s` must
    /// carry. Bumped when the slot's event fires or is cancelled.
    slots: Vec<u32>,
    /// `payloads[s]` holds the pending payload of a live entry in
    /// slot `s` (`None` once fired/cancelled).
    payloads: Vec<Option<E>>,
    /// Slots whose event has fired or been cancelled, ready for reuse.
    free_slots: Vec<u32>,
    /// Dead entries still buried in the heap (cancelled, not yet
    /// removed). Drives compaction.
    stale: usize,
    next_seq: u64,
    now: Instant,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            payloads: Vec::new(),
            free_slots: Vec::new(),
            stale: 0,
            next_seq: 0,
            now: Instant::ZERO,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Instant {
        self.now
    }

    #[inline]
    fn is_live(&self, entry: &Entry) -> bool {
        self.slots[entry.slot as usize] == entry.gen
    }

    /// Retire a slot after its entry fired or was cancelled: bump the
    /// generation (invalidating outstanding tokens) and recycle it.
    #[inline]
    fn retire_slot(&mut self, slot: u32) {
        let s = slot as usize;
        self.slots[s] = self.slots[s].wrapping_add(1);
        self.free_slots.push(slot);
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; it panics in debug
    /// builds and is clamped to `now` in release builds so a long
    /// experiment degrades instead of aborting.
    pub fn schedule_at(&mut self, at: Instant, payload: E) -> ScheduledEvent {
        self.schedule_at_keyed(at, 0, payload)
    }

    /// Schedule `payload` at absolute time `at` with a canonical tie
    /// key. Among same-instant events, lower keys fire first; equal
    /// keys fall back to insertion order. Unkeyed events carry key 0
    /// and therefore fire before any keyed event at the same instant.
    pub fn schedule_at_keyed(&mut self, at: Instant, key: u32, payload: E) -> ScheduledEvent {
        debug_assert!(at >= self.now, "scheduling in the past: {at} < {}", self.now);
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.slots.push(0);
                self.payloads.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize];
        self.payloads[slot as usize] = Some(payload);
        self.heap_push(Entry {
            at: at.nanos(),
            key,
            seq,
            slot,
            gen,
        });
        ScheduledEvent { slot, gen }
    }

    /// Schedule `payload` after global span `delay`.
    pub fn schedule_in(&mut self, delay: Duration, payload: E) -> ScheduledEvent {
        self.schedule_at_keyed(self.now + delay, 0, payload)
    }

    /// Schedule `payload` after global span `delay` with a canonical
    /// tie key (see [`schedule_at_keyed`]).
    ///
    /// [`schedule_at_keyed`]: EventQueue::schedule_at_keyed
    pub fn schedule_in_keyed(&mut self, delay: Duration, key: u32, payload: E) -> ScheduledEvent {
        self.schedule_at_keyed(self.now + delay, key, payload)
    }

    /// Cancel a previously scheduled event. Cancelling an event that
    /// already fired (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, token: ScheduledEvent) {
        if self.slots.get(token.slot as usize).copied() != Some(token.gen) {
            return;
        }
        self.payloads[token.slot as usize] = None;
        self.retire_slot(token.slot);
        self.stale += 1;
        // Keep the heap head live so `peek_time` stays `&self`.
        self.purge_dead_head();
        self.maybe_compact();
    }

    /// Pop dead entries off the heap head. Invariant maintained after
    /// every mutation: if the heap is non-empty, its head is live.
    fn purge_dead_head(&mut self) {
        while let Some(head) = self.heap.first() {
            if self.is_live(head) {
                break;
            }
            self.heap_pop();
            self.stale -= 1;
        }
    }

    /// Rebuild the heap without dead entries once they dominate, so a
    /// teardown storm does not leave the heap bloated for the rest of
    /// a long run. O(live) via bulk heapify; amortized against the
    /// cancels that created the dead entries.
    fn maybe_compact(&mut self) {
        if self.stale > 64 && self.stale * 2 > self.heap.len() {
            let slots = &self.slots;
            self.heap.retain(|e| slots[e.slot as usize] == e.gen);
            self.heapify();
            self.stale = 0;
        }
    }

    /// Pop the next live event, advancing `now` to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        loop {
            let entry = self.heap_pop()?;
            if !self.is_live(&entry) {
                self.stale -= 1;
                continue;
            }
            let payload = self.payloads[entry.slot as usize]
                .take()
                .expect("live entry has a payload");
            self.retire_slot(entry.slot);
            // Restore the live-head invariant for `&self` peeks.
            self.purge_dead_head();
            let at = Instant::from_nanos(entry.at);
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            return Some((at, payload));
        }
    }

    // ------------------------------------------------------------------
    // 4-ary min-heap primitives (root at 0; children of i are
    // 4i+1..=4i+4). Only `key` ordering matters, and keys are unique.
    // ------------------------------------------------------------------

    fn heap_push(&mut self, entry: Entry) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<Entry> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let entry = self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        entry
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[i].key() >= self.heap[parent].key() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            let last_child = (first_child + 3).min(len - 1);
            for c in first_child + 1..=last_child {
                if self.heap[c].key() < self.heap[min].key() {
                    min = c;
                }
            }
            if self.heap[min].key() >= self.heap[i].key() {
                break;
            }
            self.heap.swap(i, min);
            i = min;
        }
    }

    /// Re-establish the heap property over the whole vector (Floyd's
    /// bottom-up heapify, O(n)). Used after compaction.
    fn heapify(&mut self) {
        let len = self.heap.len();
        if len < 2 {
            return;
        }
        for i in (0..=(len - 2) / 4).rev() {
            self.sift_down(i);
        }
    }

    /// Timestamp of the next live event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<Instant> {
        // The head is live by invariant (see `purge_dead_head`).
        self.heap.first().map(|e| Instant::from_nanos(e.at))
    }

    /// Number of entries in the heap, *including* dead ones awaiting
    /// removal or compaction.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no live events remain. The live-head invariant makes
    /// this a plain emptiness check: a non-empty heap has a live head.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` if the token still refers to a pending (not yet fired,
    /// not cancelled) event. Lets callers that retain tokens for later
    /// cancellation prune their bookkeeping without popping anything.
    #[inline]
    pub fn token_is_live(&self, token: ScheduledEvent) -> bool {
        self.slots.get(token.slot as usize).copied() == Some(token.gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_millis(30), "c");
        q.schedule_at(Instant::from_millis(10), "a");
        q.schedule_at(Instant::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(Duration::from_millis(75), ());
        assert_eq!(q.now(), Instant::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Instant::from_millis(75));
        assert_eq!(q.now(), t);
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let tok = q.schedule_at(Instant::from_millis(1), "dead");
        q.schedule_at(Instant::from_millis(2), "alive");
        q.cancel(tok);
        assert_eq!(q.pop().map(|(_, e)| e), Some("alive"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule_at(Instant::from_millis(1), 1);
        assert!(q.pop().is_some());
        q.cancel(tok); // must not panic or affect later events
        q.schedule_at(Instant::from_millis(2), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule_at(Instant::from_millis(1), 1);
        q.schedule_at(Instant::from_millis(9), 9);
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(Instant::from_millis(9)));
    }

    #[test]
    fn is_empty_accounts_for_cancellations() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        let tok = q.schedule_in(Duration::from_secs(1), 0);
        assert!(!q.is_empty());
        q.cancel(tok);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_token_never_cancels_slot_reuse() {
        let mut q = EventQueue::new();
        // Fire an event, keep its (now stale) token.
        let stale = q.schedule_at(Instant::from_millis(1), "first");
        assert!(q.pop().is_some());
        // The freed slot is reused by the next schedule.
        let _live = q.schedule_at(Instant::from_millis(2), "second");
        q.cancel(stale); // must NOT kill "second"
        assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule_at(Instant::from_millis(1), "dead");
        q.schedule_at(Instant::from_millis(2), "alive");
        q.cancel(tok);
        q.cancel(tok); // second cancel must not retire the reused slot
        let replacement = q.schedule_at(Instant::from_millis(3), "late");
        let _ = replacement;
        assert_eq!(q.pop().map(|(_, e)| e), Some("alive"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
    }

    #[test]
    fn token_liveness_tracks_fire_and_cancel() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(Instant::from_millis(1), "a");
        let b = q.schedule_at(Instant::from_millis(2), "b");
        assert!(q.token_is_live(a) && q.token_is_live(b));
        q.cancel(a);
        assert!(!q.token_is_live(a));
        assert!(q.pop().is_some());
        assert!(!q.token_is_live(b), "fired token must read as dead");
    }

    #[test]
    fn keyed_ties_fire_in_key_order_then_insertion_order() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(5);
        // Insert in scrambled key order, with two entries per key.
        for (key, tag) in [(3u32, "c0"), (1, "a0"), (2, "b0"), (1, "a1"), (3, "c1"), (2, "b1")] {
            q.schedule_at_keyed(t, key, tag);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a0", "a1", "b0", "b1", "c0", "c1"]);
    }

    #[test]
    fn unkeyed_events_precede_keyed_at_same_instant() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(1);
        q.schedule_at_keyed(t, 7, "keyed");
        q.schedule_at(t, "unkeyed");
        assert_eq!(q.pop().map(|(_, e)| e), Some("unkeyed"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("keyed"));
    }

    #[test]
    fn keyed_order_is_insertion_invariant() {
        // The canonical point: two different insertion interleavings
        // of the same (time, key) multiset pop identically (per key,
        // relative insertion order preserved).
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let t = Instant::from_millis(9);
        for (k, v) in [(2u32, 20), (1, 10), (3, 30)] {
            a.schedule_at_keyed(t, k, v);
        }
        for (k, v) in [(3u32, 30), (2, 20), (1, 10)] {
            b.schedule_at_keyed(t, k, v);
        }
        let pa: Vec<_> = std::iter::from_fn(|| a.pop()).map(|(_, e)| e).collect();
        let pb: Vec<_> = std::iter::from_fn(|| b.pop()).map(|(_, e)| e).collect();
        assert_eq!(pa, pb);
        assert_eq!(pa, vec![10, 20, 30]);
    }

    #[test]
    fn generation_reuse_stress_under_windowed_draining() {
        // Deterministic schedule/cancel/drain churn: thousands of
        // slot reuses interleaved with window drains must never let a
        // stale token cancel a reused slot or lose/duplicate events.
        let mut q = EventQueue::new();
        let mut next_id: u64 = 0;
        let mut live: Vec<(u64, ScheduledEvent)> = Vec::new();
        let mut stale: Vec<ScheduledEvent> = Vec::new();
        let mut expected: Vec<u64> = Vec::new();
        let mut popped: Vec<u64> = Vec::new();
        let mut t = 0u64;
        // xorshift for a deterministic but scrambled action stream.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..2000u64 {
            match rand() % 4 {
                // Schedule 1-3 events a short way out.
                0 | 1 => {
                    for _ in 0..=(rand() % 3) {
                        let id = next_id;
                        next_id += 1;
                        let at = Instant::from_nanos(t + 1 + rand() % 1000);
                        let key = (rand() % 8) as u32;
                        let tok = q.schedule_at_keyed(at, key, id);
                        live.push((id, tok));
                    }
                }
                // Cancel a live event; also fire a stale token.
                2 => {
                    if !live.is_empty() {
                        let i = (rand() as usize) % live.len();
                        let (_, tok) = live.swap_remove(i);
                        q.cancel(tok);
                        stale.push(tok);
                    }
                    if let Some(s) = stale.get(round as usize % stale.len().max(1)) {
                        q.cancel(*s); // stale: must be a no-op
                    }
                }
                // Drain a window.
                _ => {
                    let horizon = Instant::from_nanos(t + 200 + rand() % 600);
                    while q.peek_time().is_some_and(|at| at < horizon) {
                        let (_, id) = q.pop().expect("peeked head");
                        popped.push(id);
                        let i = live
                            .iter()
                            .position(|(l, _)| *l == id)
                            .expect("drained event was live");
                        let (_, tok) = live.swap_remove(i);
                        assert!(!q.token_is_live(tok), "drained token must be dead");
                        stale.push(tok);
                    }
                    t = q.now().nanos().max(t);
                }
            }
        }
        // Flush the remainder and check the full pop set.
        while let Some((_, id)) = q.pop() {
            popped.push(id);
            let i = live.iter().position(|(l, _)| *l == id).expect("was live");
            live.swap_remove(i);
        }
        assert!(live.is_empty(), "every live event must eventually pop");
        expected.extend(0..next_id);
        popped.sort_unstable();
        let cancelled = expected.len() - popped.len();
        assert!(cancelled > 0, "stress must exercise cancellation");
        // No duplicates: sorted pops are strictly increasing.
        assert!(popped.windows(2).all(|w| w[0] < w[1]), "no event pops twice");
    }

    #[test]
    fn compaction_preserves_order_and_liveness() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        let mut kill = Vec::new();
        for i in 0..1000u64 {
            let tok = q.schedule_at(Instant::from_millis(i), i);
            if i % 2 == 0 {
                kill.push(tok);
            } else {
                keep.push(i);
            }
        }
        for tok in kill {
            q.cancel(tok); // triggers compaction on the way
        }
        assert!(q.raw_len() < 1000, "compaction should have shrunk the heap");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, keep);
    }
}
