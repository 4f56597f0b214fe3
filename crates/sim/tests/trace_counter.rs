//! `Trace` is a counter: emitting stores nothing and allocates nothing,
//! and `dropped()` — the `trace_dropped` artifact field — is exactly
//! the number of emits beyond the 2²⁰ budget.
//!
//! A counting global allocator observes every heap allocation made on
//! the test thread, so a regression back to buffering records fails
//! here instead of showing up only as peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mindgap_sim::{Trace, TRACE_BUDGET};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot may already be torn down at thread exit.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are ours; the counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

#[test]
fn emits_allocate_nothing_and_count_past_the_budget() {
    // The budget is part of the artifact contract: changing it changes
    // every non-zero `trace_dropped`.
    assert_eq!(TRACE_BUDGET, 1 << 20);

    let before = allocated();
    let mut trace = Trace::default();
    for _ in 0..TRACE_BUDGET {
        trace.emit();
    }
    let at_budget = trace.dropped();
    trace.emit();
    let one_past = trace.dropped();
    for _ in 1..2 * TRACE_BUDGET {
        trace.emit();
    }
    let after = allocated();

    assert_eq!(after - before, 0, "emitting into a Trace allocated");
    assert_eq!(at_budget, 0, "emits within the budget are not dropped");
    assert_eq!(one_past, 1);
    assert_eq!(trace.dropped(), 2 * TRACE_BUDGET);
}
