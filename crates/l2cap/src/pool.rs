//! Byte-budget buffer pools.
//!
//! Constrained IoT stacks do not malloc freely: RIOT's GNRC owns a
//! fixed packet buffer (6144 B by default) and NimBLE an msys mbuf pool
//! (6600 B in the paper's setup). Once a pool is exhausted, packets are
//! dropped. The paper attributes *all* packet losses in the high-load
//! scenario to exactly this (§5.2: "All packet losses can be attributed
//! to overflowing packet buffers").
//!
//! [`BufPool`] models such a pool as a byte counter with explicit
//! alloc/free, a high-water mark, and a drop counter. It deliberately
//! does not own the actual byte storage — the simulation keeps payloads
//! in ordinary `Vec`s — it only enforces the *budget*.

/// A byte-budget pool with drop accounting.
#[derive(Debug, Clone)]
pub struct BufPool {
    capacity: usize,
    used: usize,
    highwater: usize,
    drops: u64,
    allocs: u64,
}

impl BufPool {
    /// A pool with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        BufPool {
            capacity,
            used: 0,
            highwater: 0,
            drops: 0,
            allocs: 0,
        }
    }

    /// Try to reserve `bytes`. On success the pool shrinks; on failure
    /// the drop counter increments and `false` is returned.
    #[must_use = "allocation failure means the packet must be dropped"]
    pub fn alloc(&mut self, bytes: usize) -> bool {
        if self.used + bytes > self.capacity {
            self.drops += 1;
            return false;
        }
        self.used += bytes;
        self.allocs += 1;
        if self.used > self.highwater {
            self.highwater = self.used;
        }
        true
    }

    /// Return `bytes` to the pool. Panics if more is freed than was
    /// allocated — that is always an accounting bug.
    pub fn free(&mut self, bytes: usize) {
        assert!(
            bytes <= self.used,
            "BufPool::free({bytes}) with only {} bytes allocated",
            self.used
        );
        self.used -= bytes;
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.capacity - self.used
    }

    /// Highest occupancy ever observed.
    pub fn highwater(&self) -> usize {
        self.highwater
    }

    /// Number of failed allocations (each is a dropped packet).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Number of successful allocations.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = BufPool::new(100);
        assert!(p.alloc(60));
        assert_eq!(p.used(), 60);
        assert_eq!(p.available(), 40);
        p.free(60);
        assert_eq!(p.used(), 0);
        assert_eq!(p.highwater(), 60);
    }

    #[test]
    fn exhaustion_counts_drops() {
        let mut p = BufPool::new(100);
        assert!(p.alloc(80));
        assert!(!p.alloc(30));
        assert_eq!(p.drops(), 1);
        assert_eq!(p.used(), 80, "failed alloc must not consume budget");
        assert!(p.alloc(20), "exact fit must succeed");
        assert!(!p.alloc(1));
        assert_eq!(p.drops(), 2);
    }

    #[test]
    #[should_panic]
    fn over_free_panics() {
        let mut p = BufPool::new(10);
        assert!(p.alloc(5));
        p.free(6);
    }

    #[test]
    fn highwater_tracks_peak_not_current() {
        let mut p = BufPool::new(100);
        assert!(p.alloc(70));
        p.free(50);
        assert!(p.alloc(10));
        assert_eq!(p.highwater(), 70);
        assert_eq!(p.used(), 30);
    }

    #[test]
    fn zero_sized_alloc_always_succeeds() {
        let mut p = BufPool::new(0);
        assert!(p.alloc(0));
        assert!(!p.alloc(1));
    }
}
