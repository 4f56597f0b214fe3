//! The event queue at the heart of the discrete-event simulation.
//!
//! [`EventQueue`] pops events in `(time, key, seq)` order: firing
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
//! ## A calendar queue
//!
//! The simulated BLE connections fire every 65–85 ms whether or not
//! they carry data, so almost every pending event lies a few
//! milliseconds to one connection interval ahead of `now`. The queue
//! exploits that clustering (R. Brown, "Calendar queues", CACM 31(10),
//! 1988) with three tiers, split by *bucket* `at >> BUCKET_SHIFT`:
//!
//! * the **front**: every entry whose bucket is at most
//!   `front_bucket`, kept sorted (descending, so the next event is
//!   the last element);
//! * the **wheel**: [`WHEEL_BUCKETS`] fixed-width buckets holding the
//!   entries of the following buckets up to one horizon
//!   (`WHEEL_BUCKETS << BUCKET_SHIFT` ns ≈ 134 ms) past the front,
//!   each an unsorted intrusive list in one shared arena, with an
//!   occupancy bitmap to skip empty buckets;
//! * the **overflow**: a 4-ary min-heap of the entries beyond the
//!   horizon (supervision timers, CoAP sweeps, producer sends, RPL
//!   ticks), moved into the wheel as the front advances.
//!
//! Scheduling into the front is a binary-search insert into a short
//! vector, into the wheel an O(1) list push. When the front drains,
//! the next occupied bucket is found in the bitmap and sorted into the
//! front. Both are O(1) per event for the near-future events that
//! dominate; only the few far timers pay the heap's O(log n).
//!
//! Correctness rests on two facts. `(at, key, seq)` is a *total*
//! order (`seq` is unique), so any structure that always yields the
//! minimum pops the identical event sequence. And the tiers partition
//! the pending entries by bucket, which is monotone in `at`: every
//! front entry precedes every wheel entry, which precedes every
//! overflow entry, so the front's last element is the global minimum.
//! A wheel bucket holds entries of one bucket number only (the wheel
//! spans less than one lap past the front), so a bucket moved into
//! the front never drags a later lap's entries with it.
//!
//! ## Cancellation
//!
//! Scheduled events can be cancelled by token. Liveness is tracked
//! with a generation-stamped slot table instead of a hash set: every
//! entry carries a `(slot, gen)` pair, and an entry is live iff its
//! generation still matches `slots[slot]`. Cancelling (and popping)
//! bumps the slot's generation, so the liveness test on the hot pop
//! path is a single array compare — no hashing, no probe — and
//! `cancel` stays O(1) (amortized; it may drop already-dead entries
//! at the head to keep the head live, which keeps peeks `&self`).
//! Dead entries elsewhere are dropped when their bucket reaches the
//! front. Teardown storms that cancel many timers at once are bounded
//! by periodic compaction: when dead entries outnumber live ones all
//! three tiers are rebuilt without them.

use crate::{Duration, Instant};

/// log₂ of a wheel bucket's width in nanoseconds: 2¹⁶ ns ≈ 65.5 µs,
/// about one empty connection event's worth of kernel events.
const BUCKET_SHIFT: u32 = 16;
/// Buckets on the wheel (a power of two). With [`BUCKET_SHIFT`] the
/// wheel spans 2048 × 65.5 µs ≈ 134 ms, past the longest (85 ms)
/// connection interval, so an LL timer never lands in the overflow.
const WHEEL_BUCKETS: usize = 2048;
const WHEEL_MASK: u64 = WHEEL_BUCKETS as u64 - 1;
/// Words of the wheel's occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_BUCKETS / 64;
/// End of an arena list.
const NIL: u32 = u32::MAX;

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

/// A queued entry: ordering key plus the slot holding the payload.
/// Payloads live in the slot table, not the tiers, so moving an entry
/// between tiers copies 32 bytes regardless of the event type's size.
#[derive(Clone, Copy)]
struct Entry {
    /// Firing time in nanoseconds (primary key).
    at: u64,
    /// Tie-breaking sequence number — unique, so `(at, key, seq)` is
    /// a *total* order and the pop sequence is independent of the
    /// queue's internal layout.
    seq: u64,
    /// Caller-supplied canonical tie key (secondary). 0 for events
    /// scheduled through the unkeyed APIs.
    key: u32,
    slot: u32,
    gen: u32,
    /// Next entry of the same wheel bucket (an arena index, or
    /// [`NIL`]); also links the arena's free list. Unused in the
    /// front and the overflow.
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

impl Entry {
    #[inline]
    fn key(&self) -> (u64, u32, u64) {
        (self.at, self.key, self.seq)
    }

    #[inline]
    fn bucket(&self) -> u64 {
        self.at >> BUCKET_SHIFT
    }
}

/// Time-ordered, insertion-stable event queue (a calendar queue; see
/// the module docs).
pub struct EventQueue<E> {
    /// Entries of buckets `<= front_bucket`, sorted by descending
    /// `(at, key, seq)`. Invariant after every mutation: if it is
    /// non-empty its last entry is live, and if it is empty the wheel
    /// is empty too.
    front: Vec<Entry>,
    /// Bucket number the front covers up to (inclusive).
    front_bucket: u64,
    /// Storage of wheel entries; buckets are lists through
    /// [`Entry::next`].
    arena: Vec<Entry>,
    /// Head of the arena's free list.
    free_node: u32,
    /// `heads[b & WHEEL_MASK]`: first arena index of wheel bucket `b`,
    /// for `front_bucket < b < front_bucket + WHEEL_BUCKETS`.
    heads: Box<[u32]>,
    /// Bit `i` set iff `heads[i]` is a non-empty list.
    occupied: [u64; WHEEL_WORDS],
    /// Entries (live or dead) on the wheel.
    wheel_len: usize,
    /// 4-ary min-heap of entries at buckets
    /// `>= front_bucket + WHEEL_BUCKETS`. Its head is live whenever
    /// the front is empty.
    overflow: Vec<Entry>,
    /// `slots[s]` is the generation a live entry in slot `s` must
    /// carry. Bumped when the slot's event fires or is cancelled.
    slots: Vec<u32>,
    /// `payloads[s]` holds the pending payload of a live entry in
    /// slot `s` (`None` once fired/cancelled).
    payloads: Vec<Option<E>>,
    /// Slots whose event has fired or been cancelled, ready for reuse.
    free_slots: Vec<u32>,
    /// Dead entries still held in some tier (cancelled, not yet
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
            front: Vec::new(),
            front_bucket: 0,
            arena: Vec::new(),
            free_node: NIL,
            heads: vec![NIL; WHEEL_BUCKETS].into_boxed_slice(),
            occupied: [0; WHEEL_WORDS],
            wheel_len: 0,
            overflow: Vec::new(),
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
        debug_assert!(
            at >= self.now,
            "scheduling in the past: {at} < {}",
            self.now
        );
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
        let front_was_empty = self.front.is_empty();
        self.place(Entry {
            at: at.nanos(),
            seq,
            key,
            slot,
            gen,
            next: NIL,
        });
        // A new entry is live, so only an empty front can need work:
        // the entry may have gone to the wheel, which the front must
        // then advance to.
        if front_was_empty && self.wheel_len > 0 {
            self.settle();
        }
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
        if !self.token_is_live(token) {
            return;
        }
        self.payloads[token.slot as usize] = None;
        self.retire_slot(token.slot);
        self.stale += 1;
        // Keep the head live so `peek_time` stays `&self`.
        self.settle();
        self.maybe_compact();
    }

    /// Pop the next live event, advancing `now` to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        // Both heads are live by invariant (see `settle`).
        let entry = match self.front.pop() {
            Some(e) => e,
            None => {
                // Front and wheel are empty: jump to the overflow's
                // head and pull its horizon onto the wheel.
                let e = self.heap_pop()?;
                self.front_bucket = e.bucket();
                self.refill_from_overflow();
                self.sort_front();
                e
            }
        };
        let payload = self.payloads[entry.slot as usize]
            .take()
            .expect("live entry has a payload");
        self.retire_slot(entry.slot);
        self.settle();
        let at = Instant::from_nanos(entry.at);
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        Some((at, payload))
    }

    /// Put an entry into the tier its bucket belongs to.
    #[inline]
    fn place(&mut self, entry: Entry) {
        let bucket = entry.bucket();
        if bucket <= self.front_bucket {
            let key = entry.key();
            let at = self.front.partition_point(|e| e.key() > key);
            self.front.insert(at, entry);
        } else if bucket - self.front_bucket < WHEEL_BUCKETS as u64 {
            self.wheel_push(bucket, entry);
        } else {
            self.heap_push(entry);
        }
    }

    /// Restore the head invariant: drop dead entries off the front's
    /// end, advance the front through the wheel while it is empty,
    /// and, once front and wheel are both empty, drop dead entries off
    /// the overflow's head.
    fn settle(&mut self) {
        loop {
            match self.front.last() {
                Some(e) if self.is_live(e) => return,
                Some(_) => {
                    self.front.pop();
                    self.stale -= 1;
                }
                None if self.wheel_len > 0 => self.advance(),
                None => break,
            }
        }
        while let Some(head) = self.overflow.first() {
            if self.is_live(head) {
                break;
            }
            self.heap_pop();
            self.stale -= 1;
        }
    }

    /// Move the front to the next occupied wheel bucket. Requires an
    /// empty front and a non-empty wheel.
    fn advance(&mut self) {
        debug_assert!(self.front.is_empty() && self.wheel_len > 0);
        let bucket = self.next_occupied();
        self.front_bucket = bucket;
        // The horizon moved with the front; overflow entries now
        // inside it land on slots of the buckets just skipped, which
        // are empty, and never in `bucket` itself.
        self.refill_from_overflow();
        let slot = (bucket & WHEEL_MASK) as usize;
        let mut node = std::mem::replace(&mut self.heads[slot], NIL);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        while node != NIL {
            let entry = self.arena[node as usize];
            self.arena[node as usize].next = self.free_node;
            self.free_node = node;
            self.wheel_len -= 1;
            node = entry.next;
            if self.is_live(&entry) {
                self.front.push(entry);
            } else {
                self.stale -= 1;
            }
        }
        self.sort_front();
    }

    /// First occupied wheel bucket after `front_bucket`. The wheel
    /// spans less than one lap, so a circular scan of the bitmap from
    /// the slot after the front finds the earliest one.
    fn next_occupied(&self) -> u64 {
        let start = (self.front_bucket + 1) & WHEEL_MASK;
        let mut word = start as usize / 64;
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        for _ in 0..=WHEEL_WORDS {
            if bits != 0 {
                let slot = (word * 64) as u64 + u64::from(bits.trailing_zeros());
                return self.front_bucket + 1 + (slot.wrapping_sub(start) & WHEEL_MASK);
            }
            word = (word + 1) % WHEEL_WORDS;
            bits = self.occupied[word];
        }
        unreachable!("advance on an empty wheel")
    }

    /// Move overflow entries that the horizon now covers onto the
    /// wheel (or, when the front jumped onto their bucket, into the
    /// unsorted front; callers sort it). Dead ones are dropped.
    fn refill_from_overflow(&mut self) {
        let horizon = self.front_bucket + WHEEL_BUCKETS as u64;
        while self.overflow.first().is_some_and(|e| e.bucket() < horizon) {
            let entry = self.heap_pop().expect("non-empty overflow");
            if !self.is_live(&entry) {
                self.stale -= 1;
            } else if entry.bucket() <= self.front_bucket {
                self.front.push(entry);
            } else {
                self.wheel_push(entry.bucket(), entry);
            }
        }
    }

    fn sort_front(&mut self) {
        self.front
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
    }

    fn wheel_push(&mut self, bucket: u64, mut entry: Entry) {
        let slot = (bucket & WHEEL_MASK) as usize;
        entry.next = self.heads[slot];
        let node = if self.free_node != NIL {
            let node = self.free_node;
            self.free_node = self.arena[node as usize].next;
            self.arena[node as usize] = entry;
            node
        } else {
            self.arena.push(entry);
            u32::try_from(self.arena.len() - 1)
                .ok()
                .filter(|&n| n != NIL)
                .expect("fewer than 2^32 - 1 wheel entries")
        };
        self.heads[slot] = node;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.wheel_len += 1;
    }

    /// Rebuild all three tiers without dead entries once they
    /// dominate, so a teardown storm does not leave the queue bloated
    /// for the rest of a long run. O(entries); amortized against the
    /// cancels that created the dead entries.
    fn maybe_compact(&mut self) {
        if self.stale <= 64 || self.stale * 2 <= self.raw_len() {
            return;
        }
        let slots = &self.slots;
        let live = |e: &Entry| slots[e.slot as usize] == e.gen;
        self.front.retain(live);
        self.overflow.retain(live);
        for slot in 0..WHEEL_BUCKETS {
            let mut node = self.heads[slot];
            let mut kept = NIL;
            while node != NIL {
                let entry = self.arena[node as usize];
                if live(&entry) {
                    self.arena[node as usize].next = kept;
                    kept = node;
                } else {
                    self.arena[node as usize].next = self.free_node;
                    self.free_node = node;
                    self.wheel_len -= 1;
                }
                node = entry.next;
            }
            self.heads[slot] = kept;
            if kept == NIL {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
            }
        }
        self.heapify();
        self.stale = 0;
        self.settle();
    }

    // ------------------------------------------------------------------
    // 4-ary min-heap primitives for the overflow (root at 0; children
    // of i are 4i+1..=4i+4). Only `key` ordering matters, and keys are
    // unique.
    // ------------------------------------------------------------------

    fn heap_push(&mut self, entry: Entry) {
        self.overflow.push(entry);
        self.sift_up(self.overflow.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<Entry> {
        let last = self.overflow.len().checked_sub(1)?;
        self.overflow.swap(0, last);
        let entry = self.overflow.pop();
        if !self.overflow.is_empty() {
            self.sift_down(0);
        }
        entry
    }

    fn sift_up(&mut self, mut i: usize) {
        let heap = &mut self.overflow;
        while i > 0 {
            let parent = (i - 1) / 4;
            if heap[i].key() >= heap[parent].key() {
                break;
            }
            heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let heap = &mut self.overflow;
        let len = heap.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            let last_child = (first_child + 3).min(len - 1);
            for c in first_child + 1..=last_child {
                if heap[c].key() < heap[min].key() {
                    min = c;
                }
            }
            if heap[min].key() >= heap[i].key() {
                break;
            }
            heap.swap(i, min);
            i = min;
        }
    }

    /// Re-establish the heap property over the whole overflow
    /// (Floyd's bottom-up heapify, O(n)). Used after compaction.
    fn heapify(&mut self) {
        let len = self.overflow.len();
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
        // The front's last entry is the live minimum; an empty front
        // means an empty wheel, leaving the overflow's live head.
        self.front
            .last()
            .or_else(|| self.overflow.first())
            .map(|e| Instant::from_nanos(e.at))
    }

    /// Number of queued entries, *including* dead ones awaiting
    /// removal or compaction.
    pub fn raw_len(&self) -> usize {
        self.front.len() + self.wheel_len + self.overflow.len()
    }

    /// `true` if no live events remain. The head invariant makes this
    /// a plain emptiness check: a non-empty front or overflow has a
    /// live head, and the wheel is empty whenever the front is.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty() && self.overflow.is_empty()
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
        for (key, tag) in [
            (3u32, "c0"),
            (1, "a0"),
            (2, "b0"),
            (1, "a1"),
            (3, "c1"),
            (2, "b1"),
        ] {
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
        assert!(
            popped.windows(2).all(|w| w[0] < w[1]),
            "no event pops twice"
        );
    }

    #[test]
    fn extreme_instants_pop_in_order() {
        // Bucket arithmetic at the top of the time range must neither
        // overflow nor alias a far entry onto a near wheel bucket.
        let mut q = EventQueue::new();
        let max = Instant::from_nanos(u64::MAX);
        q.schedule_at(max, "max");
        q.schedule_at(Instant::from_nanos(u64::MAX - 1), "max-1");
        q.schedule_at(Instant::from_secs(10), "10s");
        q.schedule_at(Instant::from_millis(1), "1ms");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["1ms", "10s", "max-1", "max"]);
        assert_eq!(q.now(), max);
        q.schedule_at(max, "again");
        assert_eq!(q.pop(), Some((max, "again")));
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
        assert!(
            q.raw_len() < 1000,
            "compaction should have shrunk the queue"
        );
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, keep);
    }
}
