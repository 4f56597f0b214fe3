//! Control-plane event counter.
//!
//! The paper's experiment framework dumps protocol events to each
//! node's STDIO and reconstructs network state offline (§4.2), within a
//! bounded STDIO capacity. The simulation keeps only the part of that
//! bookkeeping an artifact reads: how many control-plane events (link
//! layer, connection manager, buffer accounting) a run emitted beyond
//! the record budget. No records are stored — the obs timeline and
//! counters (`mindgap-obs`) carry the events themselves.

/// Record budget of a [`Trace`]: emits beyond it count as dropped.
pub const TRACE_BUDGET: u64 = 1 << 20;

/// Counts control-plane emits; stores nothing.
#[derive(Debug, Default)]
pub struct Trace {
    emitted: u64,
}

impl Trace {
    /// Count one control-plane event. Callers emit for link-layer,
    /// connection-manager and buffer events only; `trace_dropped` in
    /// existing artifacts was counted over exactly that set.
    #[inline]
    pub fn emit(&mut self) {
        self.emitted += 1;
    }

    /// Emits beyond the [`TRACE_BUDGET`] — the `trace_dropped`
    /// artifact field.
    pub fn dropped(&self) -> u64 {
        self.emitted.saturating_sub(TRACE_BUDGET)
    }
}
