//! The LE credit-based channel state machine.
//!
//! One [`CocChannel`] exists per BLE connection (RFC 7668 uses a single
//! IPSP channel per link). The transmit half segments SDUs (compressed
//! IPv6 datagrams) into K-frames of at most the peer's MPS, spending
//! one credit per K-frame; the receive half reassembles and returns
//! credits in batches, mirroring NimBLE's behaviour.
//!
//! Buffer economics: an SDU occupies NimBLE mbuf budget ([`BufPool`])
//! from `send_sdu` until its last K-frame is pulled by the link layer.
//! A full pool fails `send_sdu` — the packet is dropped exactly where
//! the paper's stack drops it (§5.2).

use std::collections::VecDeque;

use mindgap_sim::BytePool;

use crate::frame::{self, SDU_LEN_FIELD};
use crate::pool::BufPool;

/// NimBLE msys mbuf block size (bytes). The paper's 6600-byte packet
/// buffer (§4.2) is a pool of fixed-size blocks; queueing one SDU
/// consumes whole blocks regardless of its exact length, which is what
/// makes burst traffic overflow the pool long before the raw byte
/// count suggests (the Fig. 9b loss mechanism).
pub const MBUF_BLOCK: usize = 300;

/// Pool cost of queueing an SDU of `len` bytes (mbuf header + data,
/// rounded up to whole blocks).
pub fn mbuf_cost(len: usize) -> usize {
    (len + 8).div_ceil(MBUF_BLOCK).max(1) * MBUF_BLOCK
}

/// Local parameters of a credit-based channel.
#[derive(Debug, Clone, Copy)]
pub struct CocConfig {
    /// Maximum SDU size we can receive. RFC 7668 requires ≥ 1280.
    pub mtu: u16,
    /// Maximum K-frame payload we can receive per PDU.
    pub mps: u16,
    /// Credits granted to the peer when the channel opens.
    pub initial_credits: u16,
    /// Return credits to the peer once this many have been consumed.
    pub credit_batch: u16,
}

impl Default for CocConfig {
    fn default() -> Self {
        // Matches NimBLE's IPSP configuration on the paper's platform:
        // MTU 1280 (RFC 7668 minimum), MPS sized so one K-frame fills
        // one DLE link-layer packet (251 B LL payload − 4 B L2CAP
        // header = 247 B).
        CocConfig {
            mtu: 1280,
            mps: 247,
            initial_credits: 10,
            credit_batch: 5,
        }
    }
}

/// Why an SDU could not be accepted for transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SduSendError {
    /// The mbuf pool is exhausted — packet dropped (paper §5.2).
    PoolExhausted,
    /// The SDU exceeds the peer's MTU.
    TooLarge,
}

/// Protocol errors on the receive path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CocError {
    /// First K-frame shorter than the SDU-length field.
    Truncated,
    /// Announced SDU length exceeds our MTU.
    SduTooLarge,
    /// Reassembled bytes exceed the announced SDU length.
    SduLengthExceeded,
    /// Peer sent a K-frame although it had no credits. A spec
    /// violation; the connection should be terminated.
    CreditUnderflow,
}

struct TxSdu {
    data: Vec<u8>,
    /// Bytes already emitted in K-frames.
    offset: usize,
    /// Whether the first K-frame (with SDU-length prefix) went out.
    started: bool,
    /// Pool bytes charged for this SDU (freed when fully emitted).
    pool_cost: usize,
}

/// A full-duplex LE credit-based channel.
pub struct CocChannel {
    local: CocConfig,
    /// CID the peer allocated; K-frames we send carry this id.
    peer_cid: u16,
    /// CID we allocated; the peer's K-frames carry this id.
    local_cid: u16,
    peer_mtu: u16,
    peer_mps: u16,
    /// Credits available for our transmissions.
    tx_credits: u32,
    tx_queue: VecDeque<TxSdu>,
    /// In-progress reassembly: (announced length, collected bytes).
    rx_partial: Option<(usize, Vec<u8>)>,
    /// Credits the peer has left before we must replenish.
    peer_credits_outstanding: u32,
    consumed_since_grant: u16,
    /// `true` while the channel has queued data but zero credits
    /// (flow-control stall, §5.2). Edge-tracked so each stall counts
    /// once however many times `next_pdu` is polled during it.
    stalled: bool,
    /// Set on each stall edge; drained by [`CocChannel::take_stall_event`]
    /// so the host can timestamp the stall on its timeline.
    stall_event: bool,
    // --- statistics ---
    sdus_sent: u64,
    sdus_received: u64,
    pdus_sent: u64,
    pdus_received: u64,
    credit_stalls: u64,
}

impl CocChannel {
    /// Open a channel. `peer_mtu`/`peer_mps`/`peer_initial_credits`
    /// come from the peer's connection request/response; `local`
    /// describes our receive capabilities.
    pub fn new(
        local: CocConfig,
        local_cid: u16,
        peer_cid: u16,
        peer_mtu: u16,
        peer_mps: u16,
        peer_initial_credits: u16,
    ) -> Self {
        CocChannel {
            local,
            peer_cid,
            local_cid,
            peer_mtu,
            peer_mps,
            tx_credits: peer_initial_credits as u32,
            tx_queue: VecDeque::new(),
            rx_partial: None,
            peer_credits_outstanding: local.initial_credits as u32,
            consumed_since_grant: 0,
            stalled: false,
            stall_event: false,
            sdus_sent: 0,
            sdus_received: 0,
            pdus_sent: 0,
            pdus_received: 0,
            credit_stalls: 0,
        }
    }

    /// Convenience constructor for two symmetric endpoints.
    pub fn symmetric(cfg: CocConfig, local_cid: u16, peer_cid: u16) -> Self {
        CocChannel::new(
            cfg,
            local_cid,
            peer_cid,
            cfg.mtu,
            cfg.mps,
            cfg.initial_credits,
        )
    }

    /// Our CID (the one the peer addresses).
    pub fn local_cid(&self) -> u16 {
        self.local_cid
    }

    /// Queue an SDU for transmission, charging the mbuf pool in whole
    /// blocks (see [`mbuf_cost`]).
    pub fn send_sdu(&mut self, sdu: Vec<u8>, pool: &mut BufPool) -> Result<(), SduSendError> {
        self.queue_sdu(sdu, pool).map_err(|(e, _)| e)
    }

    /// [`CocChannel::send_sdu`] that hands a refused SDU's buffer back
    /// with the error, so a caller that drew it from a `BytePool` can
    /// return it there. A queued SDU's buffer goes to the pool
    /// [`CocChannel::next_pdu`] draws from once its last byte is sent.
    pub fn queue_sdu(
        &mut self,
        sdu: Vec<u8>,
        pool: &mut BufPool,
    ) -> Result<(), (SduSendError, Vec<u8>)> {
        if sdu.len() > self.peer_mtu as usize {
            return Err((SduSendError::TooLarge, sdu));
        }
        let pool_cost = mbuf_cost(sdu.len());
        if !pool.alloc(pool_cost) {
            return Err((SduSendError::PoolExhausted, sdu));
        }
        self.tx_queue.push_back(TxSdu {
            data: sdu,
            offset: 0,
            started: false,
            pool_cost,
        });
        Ok(())
    }

    /// `true` if data is queued (regardless of credit state).
    pub fn has_pending(&self) -> bool {
        !self.tx_queue.is_empty()
    }

    /// Credits currently available for transmission.
    pub fn tx_credits(&self) -> u32 {
        self.tx_credits
    }

    /// Produce the next K-frame as a complete basic L2CAP PDU
    /// (header + payload), or `None` if the queue is empty, credits
    /// are exhausted, or `max_pdu` cannot fit any payload.
    ///
    /// `max_pdu` is the link layer's current budget (e.g. the LL
    /// payload limit); the K-frame payload is capped at
    /// `min(peer MPS, max_pdu − 4)`. Pool bytes are released as SDU
    /// bytes leave the queue.
    ///
    /// The returned PDU buffer is drawn from `bufs` and encoded in
    /// place (basic header first, length patched at the end), and a
    /// fully sent SDU's buffer goes back to `bufs`, so segmentation
    /// allocates nothing in steady state.
    pub fn next_pdu(
        &mut self,
        max_pdu: usize,
        pool: &mut BufPool,
        bufs: &mut BytePool,
    ) -> Option<Vec<u8>> {
        if self.tx_credits == 0 {
            if !self.tx_queue.is_empty() && !self.stalled {
                self.stalled = true;
                self.stall_event = true;
                self.credit_stalls += 1;
            }
            return None;
        }
        let head = self.tx_queue.front_mut()?;
        let budget = (self.peer_mps as usize).min(max_pdu.checked_sub(frame::BASIC_HEADER_LEN)?);
        if budget == 0 {
            return None;
        }
        if !head.started && budget < SDU_LEN_FIELD {
            return None;
        }
        let mut pdu = bufs.take();
        frame::begin_basic(&mut pdu, self.peer_cid);
        if !head.started {
            pdu.extend_from_slice(&(head.data.len() as u16).to_le_bytes());
            head.started = true;
        }
        let room = budget - (pdu.len() - frame::BASIC_HEADER_LEN);
        let take = room.min(head.data.len() - head.offset);
        pdu.extend_from_slice(&head.data[head.offset..head.offset + take]);
        head.offset += take;
        let done = head.offset == head.data.len();
        if done {
            let sdu = self.tx_queue.pop_front().expect("head exists");
            pool.free(sdu.pool_cost);
            bufs.put(sdu.data);
            self.sdus_sent += 1;
        }
        self.tx_credits -= 1;
        self.pdus_sent += 1;
        frame::finish_basic(&mut pdu, 0);
        Some(pdu)
    }

    /// Feed a received K-frame payload (basic header already stripped).
    /// Returns a completed SDU when reassembly finishes.
    pub fn on_pdu(&mut self, payload: &[u8]) -> Result<Option<Vec<u8>>, CocError> {
        self.on_pdu_into(payload, &mut BytePool::new())
    }

    /// [`CocChannel::on_pdu`] reassembling into a buffer drawn from
    /// `bufs`. The completed SDU is that buffer: hand it back to `bufs`
    /// once consumed, and the receive path allocates nothing in steady
    /// state.
    pub fn on_pdu_into(
        &mut self,
        payload: &[u8],
        bufs: &mut BytePool,
    ) -> Result<Option<Vec<u8>>, CocError> {
        if self.peer_credits_outstanding == 0 {
            return Err(CocError::CreditUnderflow);
        }
        self.peer_credits_outstanding -= 1;
        self.pdus_received += 1;
        let (expected, buf) = match self.rx_partial.take() {
            // Continuation K-frame: plain SDU bytes.
            Some((expected, mut buf)) => {
                buf.extend_from_slice(payload);
                (expected, buf)
            }
            // First K-frame: 2-byte SDU length, then SDU bytes.
            None => {
                if payload.len() < SDU_LEN_FIELD {
                    return Err(CocError::Truncated);
                }
                let expected = u16::from_le_bytes([payload[0], payload[1]]) as usize;
                if expected > self.local.mtu as usize {
                    return Err(CocError::SduTooLarge);
                }
                let mut buf = bufs.take();
                buf.reserve(expected);
                buf.extend_from_slice(&payload[SDU_LEN_FIELD..]);
                (expected, buf)
            }
        };
        if buf.len() > expected {
            bufs.put(buf);
            return Err(CocError::SduLengthExceeded);
        }
        self.mark_consumed();
        if buf.len() == expected {
            self.sdus_received += 1;
            Ok(Some(buf))
        } else {
            self.rx_partial = Some((expected, buf));
            Ok(None)
        }
    }

    fn mark_consumed(&mut self) {
        self.consumed_since_grant += 1;
    }

    /// Credits we should grant back to the peer now (batched). The
    /// caller sends a Flow Control Credit Ind with the returned value
    /// when it is non-zero.
    pub fn credits_to_return(&mut self) -> u16 {
        if self.consumed_since_grant >= self.local.credit_batch {
            let n = self.consumed_since_grant;
            self.consumed_since_grant = 0;
            self.peer_credits_outstanding += n as u32;
            n
        } else {
            0
        }
    }

    /// Peer granted us additional credits.
    pub fn grant(&mut self, credits: u16) {
        self.tx_credits = (self.tx_credits + credits as u32).min(u16::MAX as u32);
        if self.tx_credits > 0 {
            self.stalled = false;
        }
    }

    /// Times the channel entered a zero-credit stall with data queued.
    pub fn credit_stalls(&self) -> u64 {
        self.credit_stalls
    }

    /// Drain the pending stall edge, if any: returns `true` once per
    /// stall, at the first poll after the stall began.
    pub fn take_stall_event(&mut self) -> bool {
        core::mem::take(&mut self.stall_event)
    }

    /// (sent SDUs, received SDUs, sent PDUs, received PDUs).
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.sdus_sent,
            self.sdus_received,
            self.pdus_sent,
            self.pdus_received,
        )
    }

    /// Bytes queued for transmission (for diagnostics).
    pub fn queued_bytes(&self) -> usize {
        self.tx_queue.iter().map(|s| s.data.len() - s.offset).sum()
    }

    /// Pool bytes currently charged by queued SDUs.
    pub fn queued_pool_cost(&self) -> usize {
        self.tx_queue.iter().map(|s| s.pool_cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (CocChannel, CocChannel, BufPool) {
        let cfg = CocConfig::default();
        let a = CocChannel::symmetric(cfg, 0x40, 0x41);
        let b = CocChannel::symmetric(cfg, 0x41, 0x40);
        (a, b, BufPool::new(crate::NIMBLE_BUF_BYTES))
    }

    /// Pump every pending PDU from `tx` into `rx`, returning completed
    /// SDUs, with `max_pdu` as the link budget.
    fn pump(
        tx: &mut CocChannel,
        rx: &mut CocChannel,
        pool: &mut BufPool,
        max_pdu: usize,
    ) -> Vec<Vec<u8>> {
        let mut sdus = Vec::new();
        let mut bufs = BytePool::new();
        while let Some(pdu) = tx.next_pdu(max_pdu, pool, &mut bufs) {
            let dec = frame::decode_basic(&pdu).unwrap();
            assert_eq!(dec.cid, rx.local_cid());
            if let Some(sdu) = rx.on_pdu(dec.payload).unwrap() {
                sdus.push(sdu);
            }
            let back = rx.credits_to_return();
            if back > 0 {
                tx.grant(back);
            }
        }
        sdus
    }

    #[test]
    fn single_frame_sdu_roundtrip() {
        let (mut a, mut b, mut pool) = pair();
        a.send_sdu(vec![7u8; 100], &mut pool).unwrap();
        let got = pump(&mut a, &mut b, &mut pool, 251);
        assert_eq!(got, vec![vec![7u8; 100]]);
        assert_eq!(pool.used(), 0, "pool must drain when SDU is sent");
    }

    #[test]
    fn multi_frame_segmentation_and_reassembly() {
        let (mut a, mut b, mut pool) = pair();
        let sdu: Vec<u8> = (0..1000u16).map(|i| i as u8).collect();
        a.send_sdu(sdu.clone(), &mut pool).unwrap();
        let got = pump(&mut a, &mut b, &mut pool, 251);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], sdu);
    }

    #[test]
    fn small_link_budget_produces_small_pdus() {
        let (mut a, mut b, mut pool) = pair();
        a.send_sdu(vec![1u8; 60], &mut pool).unwrap();
        // 27-byte legacy LL payload → 23 B K-frame payload.
        let pdu = a.next_pdu(27, &mut pool, &mut BytePool::new()).unwrap();
        assert_eq!(pdu.len(), 27);
        let dec = frame::decode_basic(&pdu).unwrap();
        assert!(b.on_pdu(dec.payload).unwrap().is_none(), "SDU incomplete");
        let got = pump(&mut a, &mut b, &mut pool, 27);
        assert_eq!(got[0].len(), 60);
    }

    #[test]
    fn credits_limit_transmission() {
        let cfg = CocConfig {
            initial_credits: 2,
            credit_batch: 2,
            ..CocConfig::default()
        };
        let mut a = CocChannel::symmetric(cfg, 0x40, 0x41);
        let mut b = CocChannel::symmetric(cfg, 0x41, 0x40);
        let mut pool = BufPool::new(10_000);
        // SDU needs 5 K-frames at MPS 247 → 1000 B + 2 B length.
        a.send_sdu(vec![9u8; 1200], &mut pool).unwrap();
        let mut bufs = BytePool::new();
        let p1 = a.next_pdu(251, &mut pool, &mut bufs).unwrap();
        let p2 = a.next_pdu(251, &mut pool, &mut bufs).unwrap();
        assert!(
            a.next_pdu(251, &mut pool, &mut bufs).is_none(),
            "out of credits"
        );
        // Deliver both; receiver then grants a batch back.
        for p in [p1, p2] {
            let dec = frame::decode_basic(&p).unwrap();
            let _ = b.on_pdu(dec.payload).unwrap();
        }
        let back = b.credits_to_return();
        assert_eq!(back, 2);
        a.grant(back);
        assert!(a.next_pdu(251, &mut pool, &mut bufs).is_some());
    }

    #[test]
    fn pool_exhaustion_drops_sdu() {
        let cfg = CocConfig::default();
        let mut a = CocChannel::symmetric(cfg, 0x40, 0x41);
        // Two blocks of budget: a 100 B SDU costs one whole block.
        let mut pool = BufPool::new(2 * MBUF_BLOCK);
        a.send_sdu(vec![0u8; 100], &mut pool).unwrap();
        assert_eq!(pool.used(), MBUF_BLOCK, "block-granular accounting");
        a.send_sdu(vec![0u8; 100], &mut pool).unwrap();
        assert_eq!(
            a.send_sdu(vec![0u8; 100], &mut pool),
            Err(SduSendError::PoolExhausted)
        );
        assert_eq!(pool.drops(), 1);
    }

    #[test]
    fn mbuf_cost_rounds_to_blocks() {
        assert_eq!(mbuf_cost(0), MBUF_BLOCK);
        assert_eq!(mbuf_cost(100), MBUF_BLOCK);
        assert_eq!(mbuf_cost(MBUF_BLOCK - 8), MBUF_BLOCK);
        assert_eq!(mbuf_cost(MBUF_BLOCK), 2 * MBUF_BLOCK);
        assert_eq!(mbuf_cost(1000), 4 * MBUF_BLOCK);
    }

    #[test]
    fn oversize_sdu_rejected() {
        let (mut a, _, mut pool) = pair();
        assert_eq!(
            a.send_sdu(vec![0u8; 1281], &mut pool),
            Err(SduSendError::TooLarge)
        );
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn interleaved_sdus_arrive_in_order() {
        let (mut a, mut b, mut pool) = pair();
        a.send_sdu(vec![1u8; 300], &mut pool).unwrap();
        a.send_sdu(vec![2u8; 300], &mut pool).unwrap();
        let got = pump(&mut a, &mut b, &mut pool, 251);
        assert_eq!(got.len(), 2);
        assert!(got[0].iter().all(|&x| x == 1));
        assert!(got[1].iter().all(|&x| x == 2));
    }

    #[test]
    fn credit_underflow_detected() {
        let cfg = CocConfig {
            initial_credits: 1,
            credit_batch: 100,
            ..CocConfig::default()
        };
        let mut b = CocChannel::symmetric(cfg, 0x41, 0x40);
        assert!(b.on_pdu(&[2, 0, 9, 9]).unwrap().is_some());
        assert_eq!(b.on_pdu(&[2, 0, 9, 9]), Err(CocError::CreditUnderflow));
    }

    #[test]
    fn announced_sdu_larger_than_mtu_rejected() {
        let cfg = CocConfig {
            mtu: 100,
            ..CocConfig::default()
        };
        let mut b = CocChannel::symmetric(cfg, 0x41, 0x40);
        let payload = [200u16.to_le_bytes().as_slice(), &[0u8; 50]].concat();
        assert_eq!(b.on_pdu(&payload), Err(CocError::SduTooLarge));
    }

    #[test]
    fn truncated_first_frame_rejected() {
        let (_, mut b, _) = pair();
        assert_eq!(b.on_pdu(&[5]), Err(CocError::Truncated));
    }

    #[test]
    fn zero_length_sdu() {
        let (mut a, mut b, mut pool) = pair();
        a.send_sdu(Vec::new(), &mut pool).unwrap();
        let got = pump(&mut a, &mut b, &mut pool, 251);
        assert_eq!(got, vec![Vec::<u8>::new()]);
    }

    #[test]
    fn pooled_path_recycles_sdu_and_pdu_buffers() {
        let (mut a, mut b, mut pool) = pair();
        let mut bufs = BytePool::new();
        for round in 0..50u8 {
            let mut sdu = bufs.take();
            sdu.extend_from_slice(&[round; 300]);
            a.queue_sdu(sdu, &mut pool).unwrap();
            while let Some(pdu) = a.next_pdu(251, &mut pool, &mut bufs) {
                let got = b
                    .on_pdu_into(&pdu[frame::BASIC_HEADER_LEN..], &mut bufs)
                    .unwrap();
                bufs.put(pdu);
                if let Some(got) = got {
                    assert_eq!(got, vec![round; 300]);
                    bufs.put(got);
                }
                let back = b.credits_to_return();
                if back > 0 {
                    a.grant(back);
                }
            }
        }
        assert!(bufs.allocs() <= 4, "{} allocations", bufs.allocs());
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn refused_sdu_comes_back_with_the_error() {
        let cfg = CocConfig::default();
        let mut a = CocChannel::symmetric(cfg, 0x40, 0x41);
        let mut pool = BufPool::new(MBUF_BLOCK);
        a.queue_sdu(vec![1; 10], &mut pool).unwrap();
        assert_eq!(
            a.queue_sdu(vec![2; 10], &mut pool),
            Err((SduSendError::PoolExhausted, vec![2; 10]))
        );
        assert_eq!(
            a.queue_sdu(vec![3; 1281], &mut pool)
                .map_err(|(e, b)| (e, b.len())),
            Err((SduSendError::TooLarge, 1281))
        );
    }
}
