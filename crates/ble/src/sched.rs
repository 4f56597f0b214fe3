//! The per-node radio reservation timeline.
//!
//! A BLE SoC has one radio. Every planned radio activity — a
//! connection event we coordinate, a listen window for a connection we
//! subordinate, an advertising event, a scan window — books a time
//! reservation here. Bookings are **first-come-first-served**: a new
//! booking that overlaps an existing one is refused, and the caller
//! must skip (or shorten) its activity.
//!
//! This mirrors NimBLE's scheduler and is the mechanism behind the
//! paper's *connection shading* (§6.1): when clock drift pushes the
//! connection events of two connections into overlap, one of them
//! systematically loses the booking race, misses events, and — if the
//! overlap persists long enough — hits its supervision timeout.

use mindgap_sim::Instant;

use crate::conn::ConnId;

/// Reservation identity (for cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResId(u64);

/// What a reservation is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResKind {
    /// A connection event we coordinate (exact anchor transmission).
    ConnEvent(ConnId),
    /// A listen window for a connection we subordinate.
    Listen(ConnId),
    /// An advertising event (three-channel ADV_IND train).
    Adv,
    /// A scan window.
    Scan,
}

impl ResKind {
    /// The connection this reservation belongs to, if any.
    pub fn conn(&self) -> Option<ConnId> {
        match self {
            ResKind::ConnEvent(c) | ResKind::Listen(c) => Some(*c),
            _ => None,
        }
    }
}

/// One booked slot.
#[derive(Debug, Clone, Copy)]
pub struct Reservation {
    /// Identity.
    pub id: ResId,
    /// Inclusive start.
    pub start: Instant,
    /// Exclusive end.
    pub end: Instant,
    /// Purpose.
    pub kind: ResKind,
}

/// Booking refusal: the requested span overlaps an existing
/// reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// Start of the earliest-starting overlapping reservation — an
    /// early shortened booking may end here (scan windows).
    pub busy_from: Instant,
    /// End of the earliest-ending overlapping reservation — a late
    /// partial booking may start here (subordinate listens).
    pub busy_until: Instant,
    /// Whether a blocker belongs to a connection (vs adv/scan).
    pub blocked_by_conn: bool,
}

/// The timeline. Reservations are kept sorted by start time.
#[derive(Debug, Default)]
pub struct RadioScheduler {
    items: Vec<Reservation>,
    next_id: u64,
    /// Booking refusals observed (diagnostic: scheduling collisions).
    pub conflicts: u64,
}

impl RadioScheduler {
    /// An empty timeline.
    pub fn new() -> Self {
        RadioScheduler::default()
    }

    /// Try to book `[start, end)`. On overlap, returns the earliest
    /// blocker's end so the caller can attempt a shortened booking.
    pub fn try_book(
        &mut self,
        start: Instant,
        end: Instant,
        kind: ResKind,
    ) -> Result<ResId, Conflict> {
        assert!(end > start, "empty reservation");
        let mut busy_from: Option<Instant> = None;
        let mut busy_until: Option<Instant> = None;
        let mut blocked_by_conn = false;
        for r in &self.items {
            if r.start >= end {
                // Items are sorted by start; no further overlaps.
                break;
            }
            if start < r.end {
                busy_from = Some(busy_from.map_or(r.start, |b| b.min(r.start)));
                busy_until = Some(busy_until.map_or(r.end, |b| b.min(r.end)));
                blocked_by_conn |= r.kind.conn().is_some();
            }
        }
        if let (Some(busy_from), Some(busy_until)) = (busy_from, busy_until) {
            self.conflicts += 1;
            return Err(Conflict {
                busy_from,
                busy_until,
                blocked_by_conn,
            });
        }
        let id = ResId(self.next_id);
        self.next_id += 1;
        let pos = self.items.partition_point(|r| r.start <= start);
        self.items.insert(
            pos,
            Reservation {
                id,
                start,
                end,
                kind,
            },
        );
        Ok(id)
    }

    /// Remove a reservation by id (no-op if already gone).
    pub fn remove(&mut self, id: ResId) {
        self.items.retain(|r| r.id != id);
    }

    /// Remove everything belonging to a connection (teardown).
    pub fn remove_conn(&mut self, conn: ConnId) {
        self.items.retain(|r| r.kind.conn() != Some(conn));
    }

    /// Drop reservations that ended at or before `now`.
    pub fn purge_before(&mut self, now: Instant) {
        self.items.retain(|r| r.end > now);
    }

    /// The start of the next reservation strictly after `t`, ignoring
    /// the reservation `exclude` (the caller's own). Used to bound
    /// connection-event extension: packets may be exchanged until the
    /// next *other* radio activity begins (paper §2.2, Fig. 4).
    pub fn next_start_after(&self, t: Instant, exclude: ResId) -> Option<Instant> {
        // Items are sorted by start: the first entry past `t` that
        // isn't ours has the minimal start.
        let from = self.items.partition_point(|r| r.start <= t);
        self.items[from..]
            .iter()
            .find(|r| r.id != exclude)
            .map(|r| r.start)
    }

    /// `true` if `[start, end)` overlaps nothing (optionally ignoring
    /// one reservation).
    pub fn is_free(&self, start: Instant, end: Instant, exclude: Option<ResId>) -> bool {
        // Sorted by start: nothing at or past `end` can overlap.
        !self
            .items
            .iter()
            .take_while(|r| r.start < end)
            .any(|r| Some(r.id) != exclude && start < r.end)
    }

    /// Remove all advertising/scan reservations overlapping
    /// `[start, end)` and return them — connection bookings preempt
    /// background activities, as in real controllers. Returns `None`
    /// (removing nothing) when a *connection* reservation also
    /// overlaps, because connections never preempt each other.
    pub fn preempt_non_conn(&mut self, start: Instant, end: Instant) -> Option<Vec<Reservation>> {
        let mut any_conn = false;
        let victims: Vec<Reservation> = self
            .items
            .iter()
            .filter(|r| {
                let overlaps = r.start < end && start < r.end;
                if overlaps && r.kind.conn().is_some() {
                    any_conn = true;
                }
                overlaps && r.kind.conn().is_none()
            })
            .copied()
            .collect();
        if any_conn {
            return None;
        }
        for v in &victims {
            self.remove(v.id);
        }
        Some(victims)
    }

    /// Number of live reservations (diagnostic).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mindgap_sim::Duration;

    fn ms(v: u64) -> Instant {
        Instant::from_millis(v)
    }

    #[test]
    fn non_overlapping_bookings_succeed() {
        let mut s = RadioScheduler::new();
        let a = s.try_book(ms(0), ms(2), ResKind::Adv).unwrap();
        let b = s.try_book(ms(2), ms(4), ResKind::Scan).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.conflicts, 0);
    }

    #[test]
    fn overlap_refused_first_come_wins() {
        let mut s = RadioScheduler::new();
        let _ = s
            .try_book(ms(10), ms(12), ResKind::ConnEvent(ConnId(1)))
            .unwrap();
        let err = s
            .try_book(ms(11), ms(13), ResKind::ConnEvent(ConnId(2)))
            .unwrap_err();
        assert_eq!(err.busy_until, ms(12));
        assert!(err.blocked_by_conn);
        assert_eq!(s.conflicts, 1);
        // Late partial booking starting at the blocker's end works.
        assert!(s
            .try_book(err.busy_until, ms(13), ResKind::Listen(ConnId(2)))
            .is_ok());
    }

    #[test]
    fn earliest_ending_blocker_reported() {
        let mut s = RadioScheduler::new();
        let _ = s.try_book(ms(10), ms(11), ResKind::Adv).unwrap();
        let _ = s.try_book(ms(12), ms(20), ResKind::Scan).unwrap();
        let err = s
            .try_book(ms(10), ms(15), ResKind::ConnEvent(ConnId(1)))
            .unwrap_err();
        assert_eq!(err.busy_until, ms(11));
        assert!(!err.blocked_by_conn);
    }

    #[test]
    fn remove_frees_slot() {
        let mut s = RadioScheduler::new();
        let a = s.try_book(ms(0), ms(5), ResKind::Adv).unwrap();
        s.remove(a);
        assert!(s.try_book(ms(1), ms(2), ResKind::Scan).is_ok());
    }

    #[test]
    fn remove_conn_clears_all_its_reservations() {
        let mut s = RadioScheduler::new();
        let _ = s
            .try_book(ms(0), ms(1), ResKind::ConnEvent(ConnId(7)))
            .unwrap();
        let _ = s
            .try_book(ms(2), ms(3), ResKind::Listen(ConnId(7)))
            .unwrap();
        let _ = s
            .try_book(ms(4), ms(5), ResKind::ConnEvent(ConnId(8)))
            .unwrap();
        s.remove_conn(ConnId(7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn purge_drops_past_only() {
        let mut s = RadioScheduler::new();
        let _ = s.try_book(ms(0), ms(1), ResKind::Adv).unwrap();
        let _ = s.try_book(ms(5), ms(6), ResKind::Adv).unwrap();
        s.purge_before(ms(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn next_start_after_excludes_own() {
        let mut s = RadioScheduler::new();
        let own = s
            .try_book(ms(0), ms(1), ResKind::ConnEvent(ConnId(1)))
            .unwrap();
        let _ = s
            .try_book(ms(8), ms(9), ResKind::ConnEvent(ConnId(2)))
            .unwrap();
        assert_eq!(s.next_start_after(ms(0), own), Some(ms(8)));
        let t = ms(8) + Duration::from_micros(1);
        assert_eq!(s.next_start_after(t, own), None);
    }

    #[test]
    fn is_free_checks_span() {
        let mut s = RadioScheduler::new();
        let id = s.try_book(ms(5), ms(7), ResKind::Adv).unwrap();
        assert!(!s.is_free(ms(6), ms(8), None));
        assert!(s.is_free(ms(6), ms(8), Some(id)));
        assert!(
            s.is_free(ms(7), ms(8), None),
            "touching ends do not overlap"
        );
    }

    #[test]
    fn adjacent_reservations_allowed() {
        let mut s = RadioScheduler::new();
        let _ = s.try_book(ms(0), ms(5), ResKind::Adv).unwrap();
        assert!(s.try_book(ms(5), ms(10), ResKind::Scan).is_ok());
    }

    #[test]
    #[should_panic]
    fn empty_span_rejected() {
        let mut s = RadioScheduler::new();
        let _ = s.try_book(ms(1), ms(1), ResKind::Adv);
    }
}
