//! A recycling pool of byte buffers for the data-path hot loop.
//!
//! Every PDU a frame carries used to allocate a fresh `Vec<u8>` at
//! each layer of each hop (L2CAP segmentation → LL queue → in-flight
//! copy → receive copy). [`BytePool`] closes that loop: buffers are
//! taken from a free list, filled, handed down the stack, and
//! returned when the kernel is done with them (`tx_end` for
//! transmitted frames, after reassembly for received ones).
//!
//! The pool only saves what comes back to it. A take is free once the
//! free list has warmed up to the working set of in-flight buffers,
//! and a recycled buffer keeps its capacity, so after warm-up a take
//! reallocates only for a payload longer than any that buffer held.
//! A path that takes a buffer and never returns it — or allocates its
//! own `Vec` instead — still allocates every time: whether a path is
//! allocation-free is a property of the path, checked end to end by
//! the `alloc_budget` test, not of this type.
//!
//! This is memory *recycling*, distinct from the NimBLE-style
//! `mindgap_l2cap::BufPool`, which models a byte *budget* (admission
//! control and drops). The two compose: `BufPool` decides whether a
//! payload may enter the stack, `BytePool` provides the storage.
//!
//! Determinism: the pool only changes where buffer bytes live, never
//! their contents or the order anything is processed in, so pooled
//! and unpooled runs produce identical artifacts.

/// Recycling free list of `Vec<u8>` buffers.
#[derive(Debug, Default)]
pub struct BytePool {
    free: Vec<Vec<u8>>,
    allocs: u64,
    reuses: u64,
}

/// Free-list bound: beyond this, returned buffers are dropped instead
/// of retained. Big enough for the working set of any paper topology
/// (tens of in-flight PDUs), small enough to bound idle memory.
const MAX_FREE: usize = 256;

impl BytePool {
    /// An empty pool (no buffers retained yet).
    pub fn new() -> Self {
        BytePool::default()
    }

    /// Take an empty buffer, reusing a recycled one when available.
    #[inline]
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                self.reuses += 1;
                buf
            }
            None => {
                self.allocs += 1;
                Vec::new()
            }
        }
    }

    /// Take a buffer initialized to a copy of `data`.
    #[inline]
    pub fn take_copy(&mut self, data: &[u8]) -> Vec<u8> {
        let mut buf = self.take();
        buf.extend_from_slice(data);
        buf
    }

    /// Return a buffer to the pool. Its contents are cleared; its
    /// capacity is what makes the next [`BytePool::take`] free.
    #[inline]
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || self.free.len() >= MAX_FREE {
            return; // nothing worth retaining
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Buffers currently waiting on the free list.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Fresh heap allocations performed (pool misses).
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Takes served from the free list (pool hits).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_capacity() {
        let mut p = BytePool::new();
        let mut a = p.take();
        a.extend_from_slice(&[1, 2, 3, 4]);
        let cap = a.capacity();
        p.put(a);
        let b = p.take();
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(b.capacity(), cap, "recycled buffer keeps its storage");
        assert_eq!(p.reuses(), 1);
        assert_eq!(p.allocs(), 1);
    }

    #[test]
    fn take_copy_matches_source() {
        let mut p = BytePool::new();
        let data = [9u8, 8, 7];
        let buf = p.take_copy(&data);
        assert_eq!(buf, data);
    }

    #[test]
    fn zero_capacity_buffers_are_not_retained() {
        let mut p = BytePool::new();
        p.put(Vec::new());
        assert_eq!(p.idle(), 0);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut p = BytePool::new();
        for _ in 0..(MAX_FREE + 10) {
            p.put(Vec::with_capacity(8));
        }
        assert_eq!(p.idle(), MAX_FREE);
    }
}
