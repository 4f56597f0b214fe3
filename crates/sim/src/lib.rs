//! # mindgap-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `mindgap` reproduction of
//! *“Mind the Gap: Multi-hop IPv6 over BLE in the IoT”* (CoNEXT ’21).
//! It provides the minimal, fully deterministic machinery every other
//! crate builds on:
//!
//! * [`Instant`] / [`Duration`] — integer nanosecond simulated time.
//!   Nanosecond resolution matters: the paper's headline phenomenon
//!   (*connection shading*) is driven by clock drifts of a few
//!   microseconds per second, which must accumulate without rounding
//!   artefacts over multi-hour simulated experiments.
//! * [`Clock`] — a per-node local clock with parts-per-million drift.
//!   BLE link-layer timers run in the *owning node's* local time; the
//!   kernel converts them to global simulation time. Relative drift
//!   between two nodes' clocks is what makes independently scheduled
//!   connection events slide past each other.
//! * [`EventQueue`] — a time-ordered, insertion-stable priority queue
//!   generic over the event payload. Ties in timestamp are broken by
//!   insertion order so simulations are bit-reproducible.
//! * [`Rng`] — a seedable xoshiro256★★ generator. We ship our own small
//!   implementation (public-domain algorithm) instead of depending on
//!   the `rand` crate in the kernel so that simulation results can never
//!   change under us due to an upstream algorithm swap.
//! * [`Trace`] — a control-plane event counter that stores no records;
//!   the paper's STDIO event logging (§4.2) maps onto the obs timeline
//!   and counters (`mindgap-obs`) instead.
//!
//! The kernel deliberately knows nothing about radios, packets or
//! protocols; higher crates define their own event enums and drive the
//! queue from an orchestration loop (see `mindgap-core`'s `World`).
//!
//! ## Determinism contract
//!
//! Running the same simulation twice with the same master seed produces
//! identical event sequences, metrics and timelines. Everything stochastic
//! derives from [`Rng`] streams forked from the master seed via
//! [`Rng::fork`].
//!
//! ## Example
//!
//! The kernel in miniature — and the origin of connection shading:
//! two clocks a few ppm apart schedule the "same" 75 ms interval, and
//! their global firing times slide apart a little more every round.
//!
//! ```
//! use mindgap_sim::{Clock, Duration, EventQueue, Instant};
//!
//! let fast = Clock::with_ppm(5.0);
//! let slow = Clock::with_ppm(-5.0);
//! let itv = Duration::from_millis(75);
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule_at(Instant::ZERO + fast.to_global(itv), "fast");
//! q.schedule_at(Instant::ZERO + slow.to_global(itv), "slow");
//!
//! let (t_fast, who) = q.pop().unwrap();
//! assert_eq!(who, "fast"); // the fast clock's interval is globally shorter
//! let (t_slow, _) = q.pop().unwrap();
//! // ~10 ppm relative drift ≈ 750 ns gained per 75 ms interval: after
//! // ~10 000 intervals (12.5 min) the trains are a whole event apart.
//! assert_eq!((t_slow - t_fast).nanos(), 750);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod pool;
mod queue;
mod rng;
mod time;
mod trace;

pub use clock::Clock;
pub use pool::BytePool;
pub use queue::{EventQueue, ScheduledEvent};
pub use rng::Rng;
pub use time::{Duration, Instant};
pub use trace::{Trace, TRACE_BUDGET};

/// Identifies a simulated node (board) in the testbed.
///
/// Node ids are small dense integers assigned by the topology builder;
/// they double as indices into per-node state tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index form for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
