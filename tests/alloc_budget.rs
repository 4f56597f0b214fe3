//! Allocation budget of the connection transport's packet path.
//!
//! Runs the overloaded paper tree (`perfbench`'s `tree-burst` sub-run
//! 0: randomized 65–85 ms connection intervals, 80 ms producers) for
//! two simulated durations and checks that the *extra* heap
//! allocations per *extra* kernel event stay under a small bound.
//! Formation, record set-up and harvest cost the same in both runs, so
//! the difference isolates the steady-state data path: L2CAP
//! segmentation and reassembly, 6LoWPAN, IPv6 forwarding and CoAP.
//!
//! The counting allocator counts on the calling thread only, because
//! the test harness runs other tests on other threads at the same
//! time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mindgap::core::IntervalPolicy;
use mindgap::sim::Duration;
use mindgap::testbed::{run_ble, ExperimentSpec, Topology};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when the counter is gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `tree-burst`'s sub-run 0 at seed 42, cut to `seconds` of
/// measurement.
fn tree_burst(seconds: u64) -> ExperimentSpec {
    ExperimentSpec::paper_default(
        Topology::paper_tree(),
        IntervalPolicy::Randomized {
            lo: Duration::from_millis(65),
            hi: Duration::from_millis(85),
        },
        42,
    )
    .with_producer_interval(Duration::from_millis(80))
    .with_duration(Duration::from_secs(seconds))
}

/// (heap allocations, kernel events) of one run.
fn run(seconds: u64) -> (u64, u64) {
    let spec = tree_burst(seconds);
    let before = allocs_on_this_thread();
    let result = run_ble(&spec);
    let allocs = allocs_on_this_thread() - before;
    (allocs, result.events_processed)
}

#[test]
fn overloaded_tree_allocates_almost_nothing_per_event() {
    let (short_allocs, short_events) = run(10);
    let (long_allocs, long_events) = run(30);
    assert!(
        long_events > short_events + 10_000,
        "longer run must do more"
    );
    let extra_events = long_events - short_events;
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    let per_event = extra_allocs as f64 / extra_events as f64;
    eprintln!(
        "alloc budget: {extra_allocs} extra allocations over {extra_events} extra events \
         = {per_event:.4} per event"
    );
    assert!(
        per_event < 0.1,
        "steady-state packet path allocates {per_event:.3} times per kernel event \
         ({extra_allocs} allocations over {extra_events} events)"
    );
}
