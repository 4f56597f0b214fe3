//! L2CAP wire formats (Bluetooth Core Spec Vol 3 Part A).
//!
//! Everything here is little-endian, as the spec demands. We implement
//! the subset RFC 7668 traffic exercises:
//!
//! * the basic L2CAP header (`length`, `channel id`) framing every PDU,
//! * **K-frames** used on LE credit-based channels — the first K-frame
//!   of an SDU carries a 2-byte SDU length,
//! * the three signaling PDUs of the LE credit-based connection
//!   lifecycle: *LE Credit Based Connection Request* / *Response* and
//!   *Flow Control Credit Ind*.

/// Size of the basic L2CAP header (`len` + `cid`).
pub const BASIC_HEADER_LEN: usize = 4;
/// Size of the SDU-length prefix on the first K-frame of an SDU.
pub const SDU_LEN_FIELD: usize = 2;
/// The fixed signaling channel for LE-U links.
pub const CID_LE_SIGNALING: u16 = 0x0005;
/// First dynamically allocated CID on LE-U links.
pub const CID_DYN_FIRST: u16 = 0x0040;

/// Errors from decoding L2CAP structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the structure demands.
    Truncated,
    /// The length field contradicts the buffer size.
    LengthMismatch,
    /// Unknown signaling code.
    UnknownCode(u8),
}

/// A decoded basic L2CAP PDU: header plus information payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicPdu<'a> {
    /// Destination channel id.
    pub cid: u16,
    /// Information payload (everything after the 4-byte header).
    pub payload: &'a [u8],
}

/// Start a basic PDU at the end of `out`: a length placeholder and
/// `cid`. Append the payload, then call [`finish_basic`] with the
/// returned start to patch the length.
pub fn begin_basic(out: &mut Vec<u8>, cid: u16) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&cid.to_le_bytes());
    start
}

/// Patch the length field of the basic PDU [`begin_basic`] started at
/// `start`: everything appended since is its payload.
pub fn finish_basic(out: &mut [u8], start: usize) {
    let len = out.len() - start - BASIC_HEADER_LEN;
    assert!(len <= u16::MAX as usize);
    out[start..start + 2].copy_from_slice(&(len as u16).to_le_bytes());
}

/// Decode a basic PDU, validating the length field.
pub fn decode_basic(bytes: &[u8]) -> Result<BasicPdu<'_>, DecodeError> {
    if bytes.len() < BASIC_HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let len = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    let cid = u16::from_le_bytes([bytes[2], bytes[3]]);
    if bytes.len() != BASIC_HEADER_LEN + len {
        return Err(DecodeError::LengthMismatch);
    }
    Ok(BasicPdu {
        cid,
        payload: &bytes[BASIC_HEADER_LEN..],
    })
}

/// Signaling PDUs used by LE credit-based channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// LE Credit Based Connection Request (code 0x14).
    ConnReq {
        /// Request/response matching id.
        identifier: u8,
        /// Protocol/Service Multiplexer (0x0023 for IPSP).
        psm: u16,
        /// Source (requester-local) CID.
        scid: u16,
        /// Maximum SDU size the sender can *receive*.
        mtu: u16,
        /// Maximum K-frame payload size the sender can *receive*.
        mps: u16,
        /// Initial credits granted to the peer.
        initial_credits: u16,
    },
    /// LE Credit Based Connection Response (code 0x15).
    ConnRsp {
        /// Matches the request's identifier.
        identifier: u8,
        /// Destination (responder-local) CID; 0 on refusal.
        dcid: u16,
        /// Responder's receive MTU.
        mtu: u16,
        /// Responder's receive MPS.
        mps: u16,
        /// Initial credits granted to the requester.
        initial_credits: u16,
        /// 0x0000 = success; anything else is a refusal reason.
        result: u16,
    },
    /// Flow Control Credit Ind (code 0x16): grants the peer additional
    /// credits on a channel.
    Credit {
        /// Request id (not matched; indications are unacknowledged).
        identifier: u8,
        /// Channel the credits apply to (sender-local CID).
        cid: u16,
        /// Number of additional credits.
        credits: u16,
    },
}

const CODE_CONN_REQ: u8 = 0x14;
const CODE_CONN_RSP: u8 = 0x15;
const CODE_CREDIT: u8 = 0x16;

impl Signal {
    /// Append the signaling-channel payload (code, id, len, data) to
    /// `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (code, identifier, fields): (u8, u8, &[u16]) = match *self {
            Signal::ConnReq {
                identifier,
                psm,
                scid,
                mtu,
                mps,
                initial_credits,
            } => (
                CODE_CONN_REQ,
                identifier,
                &[psm, scid, mtu, mps, initial_credits],
            ),
            Signal::ConnRsp {
                identifier,
                dcid,
                mtu,
                mps,
                initial_credits,
                result,
            } => (
                CODE_CONN_RSP,
                identifier,
                &[dcid, mtu, mps, initial_credits, result],
            ),
            Signal::Credit {
                identifier,
                cid,
                credits,
            } => (CODE_CREDIT, identifier, &[cid, credits]),
        };
        out.push(code);
        out.push(identifier);
        out.extend_from_slice(&(2 * fields.len() as u16).to_le_bytes());
        for f in fields {
            out.extend_from_slice(&f.to_le_bytes());
        }
    }

    /// Decode a signaling-channel payload.
    pub fn decode(bytes: &[u8]) -> Result<Signal, DecodeError> {
        if bytes.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        let code = bytes[0];
        let identifier = bytes[1];
        let len = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
        if bytes.len() != 4 + len {
            return Err(DecodeError::LengthMismatch);
        }
        let d = &bytes[4..];
        let u16_at = |i: usize| u16::from_le_bytes([d[i], d[i + 1]]);
        match code {
            CODE_CONN_REQ => {
                if len != 10 {
                    return Err(DecodeError::LengthMismatch);
                }
                Ok(Signal::ConnReq {
                    identifier,
                    psm: u16_at(0),
                    scid: u16_at(2),
                    mtu: u16_at(4),
                    mps: u16_at(6),
                    initial_credits: u16_at(8),
                })
            }
            CODE_CONN_RSP => {
                if len != 10 {
                    return Err(DecodeError::LengthMismatch);
                }
                Ok(Signal::ConnRsp {
                    identifier,
                    dcid: u16_at(0),
                    mtu: u16_at(2),
                    mps: u16_at(4),
                    initial_credits: u16_at(6),
                    result: u16_at(8),
                })
            }
            CODE_CREDIT => {
                if len != 4 {
                    return Err(DecodeError::LengthMismatch);
                }
                Ok(Signal::Credit {
                    identifier,
                    cid: u16_at(0),
                    credits: u16_at(2),
                })
            }
            other => Err(DecodeError::UnknownCode(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_basic(cid: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let start = begin_basic(&mut out, cid);
        out.extend_from_slice(payload);
        finish_basic(&mut out, start);
        out
    }

    fn encode(sig: Signal) -> Vec<u8> {
        let mut out = Vec::new();
        sig.encode_into(&mut out);
        out
    }

    #[test]
    fn basic_roundtrip() {
        let pdu = encode_basic(0x0040, b"hello");
        let dec = decode_basic(&pdu).unwrap();
        assert_eq!(dec.cid, 0x0040);
        assert_eq!(dec.payload, b"hello");
    }

    #[test]
    fn basic_rejects_bad_length() {
        let mut pdu = encode_basic(0x0040, b"hello");
        pdu.pop();
        assert_eq!(decode_basic(&pdu), Err(DecodeError::LengthMismatch));
        assert_eq!(decode_basic(&pdu[..3]), Err(DecodeError::Truncated));
    }

    #[test]
    fn basic_empty_payload() {
        let pdu = encode_basic(5, b"");
        let dec = decode_basic(&pdu).unwrap();
        assert!(dec.payload.is_empty());
    }

    #[test]
    fn conn_req_roundtrip() {
        let sig = Signal::ConnReq {
            identifier: 7,
            psm: crate::PSM_IPSP,
            scid: 0x0041,
            mtu: 1280,
            mps: 247,
            initial_credits: 10,
        };
        assert_eq!(Signal::decode(&encode(sig)).unwrap(), sig);
    }

    #[test]
    fn conn_rsp_roundtrip() {
        let sig = Signal::ConnRsp {
            identifier: 7,
            dcid: 0x0055,
            mtu: 1280,
            mps: 247,
            initial_credits: 4,
            result: 0,
        };
        assert_eq!(Signal::decode(&encode(sig)).unwrap(), sig);
    }

    #[test]
    fn credit_roundtrip() {
        let sig = Signal::Credit {
            identifier: 1,
            cid: 0x0041,
            credits: 3,
        };
        assert_eq!(Signal::decode(&encode(sig)).unwrap(), sig);
    }

    #[test]
    fn unknown_code_rejected() {
        let mut raw = encode(Signal::Credit {
            identifier: 1,
            cid: 1,
            credits: 1,
        });
        raw[0] = 0x77;
        assert_eq!(Signal::decode(&raw), Err(DecodeError::UnknownCode(0x77)));
    }

    #[test]
    fn signal_length_validated() {
        let mut raw = encode(Signal::Credit {
            identifier: 1,
            cid: 1,
            credits: 1,
        });
        raw.push(0);
        assert_eq!(Signal::decode(&raw), Err(DecodeError::LengthMismatch));
    }
}
