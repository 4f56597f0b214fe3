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
//! ## No cancellation
//!
//! An event, once scheduled, pops. Each entry holds its payload
//! inline, so scheduling and popping touch nothing but the tiers. A
//! caller that no longer wants an event makes it inert instead of
//! removing it: the payload carries enough state for the handler to
//! recognise it as stale (a generation, a boot epoch, or the id of a
//! connection that no longer exists) and do nothing. Such a dead
//! event costs one pop, where removing it early would cost a liveness
//! check on every push and pop of every other event.

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

/// A queued event: its ordering key, its wheel link and the payload
/// itself.
struct Entry<E> {
    /// Firing time in nanoseconds (primary key).
    at: u64,
    /// Tie-breaking sequence number — unique, so `(at, key, seq)` is
    /// a *total* order and the pop sequence is independent of the
    /// queue's internal layout.
    seq: u64,
    /// Caller-supplied canonical tie key (secondary). 0 for events
    /// scheduled through the unkeyed APIs.
    key: u32,
    /// Next entry of the same wheel bucket (an arena index, or
    /// [`NIL`]); also links the arena's free list. Unused in the
    /// front and the overflow.
    next: u32,
    payload: E,
}

// The ordering key and the wheel link; moving an entry between tiers
// copies these 24 bytes plus the payload.
const _: () = assert!(std::mem::size_of::<Entry<()>>() == 24);

impl<E> Entry<E> {
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
    /// empty, the wheel is empty too.
    front: Vec<Entry<E>>,
    /// Bucket number the front covers up to (inclusive).
    front_bucket: u64,
    /// Storage of wheel entries; buckets are lists through
    /// [`Entry::next`]. Free cells (on the list from `free_node`)
    /// hold no payload.
    arena: Vec<Entry<Option<E>>>,
    /// Head of the arena's free list.
    free_node: u32,
    /// `heads[b & WHEEL_MASK]`: first arena index of wheel bucket `b`,
    /// for `front_bucket < b < front_bucket + WHEEL_BUCKETS`.
    heads: Box<[u32]>,
    /// Bit `i` set iff `heads[i]` is a non-empty list.
    occupied: [u64; WHEEL_WORDS],
    /// Entries on the wheel.
    wheel_len: usize,
    /// 4-ary min-heap of entries at buckets
    /// `>= front_bucket + WHEEL_BUCKETS`.
    overflow: Vec<Entry<E>>,
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
            next_seq: 0,
            now: Instant::ZERO,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; it panics in debug
    /// builds and is clamped to `now` in release builds so a long
    /// experiment degrades instead of aborting.
    pub fn schedule_at(&mut self, at: Instant, payload: E) {
        self.schedule_at_keyed(at, 0, payload)
    }

    /// Schedule `payload` at absolute time `at` with a canonical tie
    /// key. Among same-instant events, lower keys fire first; equal
    /// keys fall back to insertion order. Unkeyed events carry key 0
    /// and therefore fire before any keyed event at the same instant.
    pub fn schedule_at_keyed(&mut self, at: Instant, key: u32, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling in the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.place(Entry {
            at: at.nanos(),
            seq,
            key,
            next: NIL,
            payload,
        });
        // The entry may have gone to the wheel while the front was
        // empty; the front must then advance to it.
        self.settle();
    }

    /// Schedule `payload` after global span `delay`.
    pub fn schedule_in(&mut self, delay: Duration, payload: E) {
        self.schedule_at_keyed(self.now + delay, 0, payload)
    }

    /// Schedule `payload` after global span `delay` with a canonical
    /// tie key (see [`schedule_at_keyed`]).
    ///
    /// [`schedule_at_keyed`]: EventQueue::schedule_at_keyed
    pub fn schedule_in_keyed(&mut self, delay: Duration, key: u32, payload: E) {
        self.schedule_at_keyed(self.now + delay, key, payload)
    }

    /// Pop the next event, advancing `now` to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
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
        self.settle();
        let at = Instant::from_nanos(entry.at);
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        Some((at, entry.payload))
    }

    /// Put an entry into the tier its bucket belongs to.
    #[inline]
    fn place(&mut self, entry: Entry<E>) {
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

    /// Restore the front invariant: an empty front advances to the
    /// wheel's next occupied bucket.
    #[inline]
    fn settle(&mut self) {
        if self.front.is_empty() && self.wheel_len > 0 {
            self.advance();
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
            let cell = &mut self.arena[node as usize];
            let next = std::mem::replace(&mut cell.next, self.free_node);
            self.front.push(Entry {
                at: cell.at,
                seq: cell.seq,
                key: cell.key,
                next: NIL,
                payload: cell.payload.take().expect("wheel entry holds a payload"),
            });
            self.free_node = node;
            self.wheel_len -= 1;
            node = next;
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
    /// unsorted front; callers sort it).
    fn refill_from_overflow(&mut self) {
        let horizon = self.front_bucket + WHEEL_BUCKETS as u64;
        while self.overflow.first().is_some_and(|e| e.bucket() < horizon) {
            let entry = self.heap_pop().expect("non-empty overflow");
            if entry.bucket() <= self.front_bucket {
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

    fn wheel_push(&mut self, bucket: u64, entry: Entry<E>) {
        let slot = (bucket & WHEEL_MASK) as usize;
        let cell = Entry {
            at: entry.at,
            seq: entry.seq,
            key: entry.key,
            next: self.heads[slot],
            payload: Some(entry.payload),
        };
        let node = if self.free_node != NIL {
            let node = self.free_node;
            self.free_node = self.arena[node as usize].next;
            self.arena[node as usize] = cell;
            node
        } else {
            self.arena.push(cell);
            u32::try_from(self.arena.len() - 1)
                .ok()
                .filter(|&n| n != NIL)
                .expect("fewer than 2^32 - 1 wheel entries")
        };
        self.heads[slot] = node;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.wheel_len += 1;
    }

    // ------------------------------------------------------------------
    // 4-ary min-heap primitives for the overflow (root at 0; children
    // of i are 4i+1..=4i+4). Only `key` ordering matters, and keys are
    // unique.
    // ------------------------------------------------------------------

    fn heap_push(&mut self, entry: Entry<E>) {
        self.overflow.push(entry);
        self.sift_up(self.overflow.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<Entry<E>> {
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

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<Instant> {
        // The front's last entry is the minimum; an empty front means
        // an empty wheel, leaving the overflow's head.
        self.front
            .last()
            .or_else(|| self.overflow.first())
            .map(|e| Instant::from_nanos(e.at))
    }

    /// `true` if no events remain. The wheel is empty whenever the
    /// front is, so this checks the front and the overflow only.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty() && self.overflow.is_empty()
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
}
