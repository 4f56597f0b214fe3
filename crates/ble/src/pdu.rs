//! Data-channel PDU codec (Core Spec Vol 6 Part B §2.4).
//!
//! The 2-byte data PDU header carries the LLID, the 1-bit sequence
//! number (SN), the next-expected-sequence-number acknowledgement bit
//! (NESN), the More-Data flag (MD) and the payload length. These five
//! fields drive everything in §2.2 of the paper: acknowledgement,
//! retransmission, and the decision to extend a connection event.

/// LLID values for data-channel PDUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Llid {
    /// Continuation fragment, or an empty (keep-alive) PDU.
    DataContinuation,
    /// Start of an L2CAP message (or a complete one).
    DataStart,
    /// LL control PDU.
    Control,
}

impl Llid {
    fn bits(self) -> u8 {
        match self {
            Llid::DataContinuation => 0b01,
            Llid::DataStart => 0b10,
            Llid::Control => 0b11,
        }
    }
    fn from_bits(b: u8) -> Option<Llid> {
        match b & 0b11 {
            0b01 => Some(Llid::DataContinuation),
            0b10 => Some(Llid::DataStart),
            0b11 => Some(Llid::Control),
            _ => None, // 0b00 reserved
        }
    }
}

/// A data-channel PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPdu {
    /// Payload type.
    pub llid: Llid,
    /// Next expected sequence number (acknowledges the peer's SN).
    pub nesn: bool,
    /// Sequence number of this PDU.
    pub sn: bool,
    /// More data: sender has further PDUs queued for this event.
    pub md: bool,
    /// Payload (an L2CAP K-frame for data PDUs).
    pub payload: Vec<u8>,
}

/// Maximum payload with the Data Length Extension (paper §4.2).
pub const MAX_PAYLOAD_DLE: usize = 251;

impl DataPdu {
    /// An empty keep-alive PDU (exchanged on idle connection events,
    /// Fig. 3 of the paper).
    pub fn empty(nesn: bool, sn: bool, md: bool) -> Self {
        DataPdu {
            llid: Llid::DataContinuation,
            nesn,
            sn,
            md,
            payload: Vec::new(),
        }
    }

    /// `true` for zero-length keep-alives.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty() && self.llid == Llid::DataContinuation
    }

    /// On-air length including the 2-byte LL header (the PHY adds its
    /// own preamble/AA/CRC, see `mindgap_phy::airtime`).
    pub fn wire_len(&self) -> usize {
        2 + self.payload.len()
    }

    /// Encode into header + payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= MAX_PAYLOAD_DLE,
            "payload over DLE max"
        );
        let mut out = Vec::with_capacity(self.wire_len());
        let mut h0 = self.llid.bits();
        if self.nesn {
            h0 |= 1 << 2;
        }
        if self.sn {
            h0 |= 1 << 3;
        }
        if self.md {
            h0 |= 1 << 4;
        }
        out.push(h0);
        out.push(self.payload.len() as u8);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decode from header + payload bytes.
    pub fn decode(bytes: &[u8]) -> Option<DataPdu> {
        if bytes.len() < 2 {
            return None;
        }
        let llid = Llid::from_bits(bytes[0])?;
        let len = bytes[1] as usize;
        if bytes.len() != 2 + len {
            return None;
        }
        Some(DataPdu {
            llid,
            nesn: bytes[0] & (1 << 2) != 0,
            sn: bytes[0] & (1 << 3) != 0,
            md: bytes[0] & (1 << 4) != 0,
            payload: bytes[2..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_flag_combinations() {
        for nesn in [false, true] {
            for sn in [false, true] {
                for md in [false, true] {
                    let pdu = DataPdu {
                        llid: Llid::DataStart,
                        nesn,
                        sn,
                        md,
                        payload: vec![1, 2, 3],
                    };
                    assert_eq!(DataPdu::decode(&pdu.encode()), Some(pdu));
                }
            }
        }
    }

    #[test]
    fn empty_pdu_is_two_bytes() {
        let pdu = DataPdu::empty(true, false, false);
        let enc = pdu.encode();
        assert_eq!(enc.len(), 2);
        assert!(DataPdu::decode(&enc).unwrap().is_empty());
    }

    #[test]
    fn paper_frame_length() {
        // §4.3: 115 B final BLE packet = 2 B LL header + 113 B payload
        // (4 B L2CAP header + 2 B SDU length + 107 B compressed IP).
        let pdu = DataPdu {
            llid: Llid::DataStart,
            nesn: false,
            sn: false,
            md: false,
            payload: vec![0; 113],
        };
        assert_eq!(pdu.wire_len(), 115);
    }

    #[test]
    fn reserved_llid_rejected() {
        assert_eq!(DataPdu::decode(&[0b0000_0000, 0]), None);
    }

    #[test]
    fn length_mismatch_rejected() {
        let enc = DataPdu {
            llid: Llid::DataStart,
            nesn: false,
            sn: false,
            md: false,
            payload: vec![7; 10],
        }
        .encode();
        assert_eq!(DataPdu::decode(&enc[..enc.len() - 1]), None);
        let mut long = enc.clone();
        long.push(0);
        assert_eq!(DataPdu::decode(&long), None);
    }

    #[test]
    #[should_panic]
    fn oversize_payload_panics() {
        let _ = DataPdu {
            llid: Llid::DataStart,
            nesn: false,
            sn: false,
            md: false,
            payload: vec![0; 252],
        }
        .encode();
    }
}
