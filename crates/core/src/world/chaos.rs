//! Fault injection (`mindgap-chaos`): an installed [`FaultSchedule`]
//! becomes `Ev::Fault`/`Ev::FaultClear` events on the world's queue,
//! and their handlers crash and reboot nodes, black out links, jam
//! channels and step clocks. The schedule's [`RecoveryTracker`] folds
//! the recovery spans as the world records them. A child module of
//! `world`, so it works on `World`'s fields directly.

use mindgap_chaos::{labels, FaultKind, FaultRecovery, FaultSchedule, RecoveryTracker, FOREVER_NS};
use mindgap_obs::Span;
use mindgap_phy::Channel;
use mindgap_sim::{Clock, Duration, Instant, NodeId};

use super::{make_node, node_key, Ev, Link, World};

/// Injector state: the installed schedule, one scratch slot per fault
/// (the channel interference a jammer burst found, restored when it
/// clears) and the recovery fold.
pub(super) struct ChaosState {
    faults: Vec<mindgap_chaos::Fault>,
    scratch: Vec<f64>,
    recovery: RecoveryTracker,
}

impl World {
    /// Install a [`FaultSchedule`]: every fault becomes a regular
    /// event at its exact simulated instant, so injection timing is
    /// byte-reproducible regardless of host parallelism. Call before
    /// (or during) the run; faults whose time already passed fire
    /// immediately. Panics on an invalid schedule, if one is already
    /// installed, or in an 802.15.4 world.
    pub fn install_faults(&mut self, schedule: &FaultSchedule) {
        assert!(
            self.ieee_cfg.is_none(),
            "fault injection is not supported on the 802.15.4 baseline"
        );
        if schedule.is_empty() {
            return;
        }
        if let Err(e) = schedule.validate(self.nodes.len()) {
            panic!("invalid fault schedule: {e}");
        }
        assert!(
            self.chaos.is_none(),
            "a fault schedule is already installed"
        );
        let faults = schedule.faults.clone();
        let now = self.queue.now();
        for (i, f) in faults.iter().enumerate() {
            let at = Instant::ZERO + Duration::from_nanos(f.at_ns);
            self.queue.schedule_at(at.max(now), Ev::Fault(i as u32));
        }
        self.chaos = Some(Box::new(ChaosState {
            scratch: vec![0.0; faults.len()],
            recovery: RecoveryTracker::new(schedule, now.nanos()),
            faults,
        }));
    }

    /// Per-fault recovery metrics of the faults fired so far, in
    /// firing order (empty without an installed schedule). They are
    /// folded as spans are recorded, so neither `timeline_cap` nor an
    /// `obs-off` build changes them.
    pub fn recovery(&self) -> Vec<FaultRecovery> {
        self.chaos
            .as_ref()
            .map_or_else(Vec::new, |c| c.recovery.finish())
    }

    /// Record a span the recovery fold reads: on the timeline, and
    /// into the tracker when a schedule is installed.
    #[inline]
    pub(super) fn record_recovery_span(&mut self, now: Instant, node: NodeId, span: Span) {
        self.obs.timeline.record(now, node, span);
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.recovery.observe(now.nanos(), node.0, &span);
        }
    }

    /// Record a fault marker (the ground truth recovery keys off).
    fn record_fault(&mut self, now: Instant, node: NodeId, label: &'static str, a: u64, b: u64) {
        self.record_recovery_span(now, node, Span::Fault { label, a, b });
        self.trace.emit();
    }

    /// Schedule the clearing event unless the fault is permanent.
    fn schedule_clear(&mut self, now: Instant, idx: u32, lasts: Duration) {
        if lasts.nanos() < FOREVER_NS {
            self.queue.schedule_at(now + lasts, Ev::FaultClear(idx));
        }
    }

    pub(super) fn inject_fault(&mut self, now: Instant, idx: u32) {
        let Some(chaos) = self.chaos.as_ref() else {
            return;
        };
        let fault = chaos.faults[idx as usize];
        let (node, marker) = fault.kind.marker();
        self.record_recovery_span(now, node, marker);
        self.trace.emit();
        match fault.kind {
            FaultKind::NodeCrash { node, down_for } => {
                self.crash_node(NodeId(node));
                self.schedule_clear(now, idx, down_for);
            }
            FaultKind::LinkBlackout { a, b, lasts } => {
                self.medium.set_out_of_range(NodeId(a), NodeId(b), true);
                self.schedule_clear(now, idx, lasts);
            }
            FaultKind::JammerBurst {
                channel,
                per,
                lasts,
            } => {
                let ch = Channel::ble_data(channel);
                let prev = self.medium.channel_interference(ch);
                self.chaos.as_mut().expect("checked above").scratch[idx as usize] = prev;
                self.medium.set_channel_interference(ch, per);
                self.schedule_clear(now, idx, lasts);
            }
            FaultKind::ClockDrift { node, delta_ppm } => {
                let i = node as usize;
                // Clock::with_ppm rejects |ppm| ≥ 10_000; repeated
                // drift steps saturate just below that.
                self.clock_ppms[i] = (self.clock_ppms[i] + delta_ppm).clamp(-9_999.0, 9_999.0);
                let clock = Clock::with_ppm(self.clock_ppms[i]);
                match &mut self.nodes[i].link {
                    Link::Conn(c) => c.ll.set_clock(clock),
                    Link::Adv(adv) => adv.set_clock(clock),
                    Link::Ieee(_) => {}
                }
            }
        }
    }

    pub(super) fn clear_fault(&mut self, now: Instant, idx: u32) {
        let Some(chaos) = self.chaos.as_ref() else {
            return;
        };
        let fault = chaos.faults[idx as usize];
        match fault.kind {
            FaultKind::NodeCrash { node, .. } => self.reboot_node(now, NodeId(node)),
            FaultKind::LinkBlackout { a, b, .. } => {
                self.record_fault(now, NodeId(a), labels::LINK_RESTORE, a as u64, b as u64);
                self.medium.set_in_range(NodeId(a), NodeId(b), true);
            }
            FaultKind::JammerBurst { channel, .. } => {
                let prev = chaos.scratch[idx as usize];
                self.record_fault(
                    now,
                    NodeId(mindgap_chaos::recovery::NO_NODE),
                    labels::JAMMER_CLEAR,
                    channel as u64,
                    u64::MAX,
                );
                self.medium
                    .set_channel_interference(Channel::ble_data(channel), prev);
            }
            // Drifts are permanent steps: they schedule no clear.
            FaultKind::ClockDrift { .. } => {}
        }
    }

    /// Power-fail a node: all LL, L2CAP, stack, CoAP and statconn
    /// state is lost instantly. Peers only find out the BLE way —
    /// their supervision timeout expires. The node stays radio-silent
    /// until [`World::reboot_node`] runs.
    fn crash_node(&mut self, id: NodeId) {
        let i = id.index();
        assert!(!self.down[i], "node {} crashed while already down", id.0);
        if let Some((_, ch, _, _)) = self.listening[i] {
            self.index_listen_off(id, ch);
            self.listening[i] = None;
        }
        self.down[i] = true;
        // The node's queued timers stay queued; the new epoch turns
        // each into a no-op when it pops (see `Ev::LlTimer`).
        self.boot_epoch[i] = self.boot_epoch[i].wrapping_add(1);
        // Rebuild the node from its static config. RNG streams come
        // from the dedicated reboot stream so fault-free runs are
        // untouched; draws happen in event order, hence exactly
        // reproducible.
        let mut r = self.reboot_rng.fork(id.0 as u64);
        self.nodes[i] = make_node(
            &self.cfg,
            self.ieee_cfg.as_ref(),
            self.app.consumer,
            &self.node_cfgs[i],
            id,
            self.clock_ppms[i],
            |k| r.fork(k),
        );
    }

    /// Power the node back on: its link starts from scratch (see
    /// [`World::bring_up`]) and the periodic drivers restart with
    /// fresh jitter.
    fn reboot_node(&mut self, now: Instant, id: NodeId) {
        let i = id.index();
        debug_assert!(self.down[i], "reboot of a node that is not down");
        self.down[i] = false;
        self.record_fault(now, id, labels::NODE_REBOOT, id.0 as u64, u64::MAX);
        self.bring_up(id);
        let epoch = self.boot_epoch[i];
        if self.app.producers.contains(&id) {
            let jittered = self.nodes[i].rng.jittered_nanos(
                self.app.producer_interval.nanos(),
                self.app.producer_jitter.nanos(),
            );
            // Honour the global warmup gate if the reboot lands
            // inside it (fault schedules usually don't).
            let at = (now + Duration::from_nanos(jittered)).max(Instant::ZERO + self.app.warmup);
            self.queue
                .schedule_at_keyed(at, node_key(id), Ev::AppSend(id, epoch));
        }
        if self.nodes[i].rpl.is_some() {
            let jitter = self.nodes[i].rng.below(2_000_000_000);
            self.queue.schedule_at_keyed(
                now + Duration::from_secs(1) + Duration::from_nanos(jitter),
                node_key(id),
                Ev::RplTick(id, epoch),
            );
        }
    }
}
