//! ICMPv6 (RFC 4443): echo, destination unreachable, time exceeded.
//!
//! Echo is used by the examples and tests as a first connectivity
//! check (the classic `ping` across the BLE mesh); the error messages
//! exercise the router's diagnostic path when routes are missing or
//! hop limits expire — conditions the paper's broken-link episodes
//! produce on the IP layer.

use crate::addr::Ipv6Addr;
use crate::udp::pseudo_checksum;
use crate::CodecError;

/// ICMPv6 message types we implement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Icmpv6 {
    /// Echo request (type 128).
    EchoRequest {
        /// Ping session identifier.
        identifier: u16,
        /// Sequence number within the session.
        sequence: u16,
        /// Opaque payload echoed back.
        payload: Vec<u8>,
    },
    /// Echo reply (type 129).
    EchoReply {
        /// Identifier copied from the request.
        identifier: u16,
        /// Sequence copied from the request.
        sequence: u16,
        /// Payload copied from the request.
        payload: Vec<u8>,
    },
    /// Destination unreachable (type 1). Carries the leading bytes of
    /// the offending packet.
    DestUnreachable {
        /// Code (0 = no route, 3 = address unreachable, …).
        code: u8,
        /// Start of the offending packet.
        invoking: Vec<u8>,
    },
    /// Time exceeded (type 3, code 0 = hop limit).
    TimeExceeded {
        /// Start of the offending packet.
        invoking: Vec<u8>,
    },
}

const TYPE_DEST_UNREACHABLE: u8 = 1;
const TYPE_TIME_EXCEEDED: u8 = 3;
const TYPE_ECHO_REQUEST: u8 = 128;
const TYPE_ECHO_REPLY: u8 = 129;

/// Maximum invoking-packet bytes carried in an error message. RFC 4443
/// allows up to the minimum MTU; constrained stacks truncate earlier.
pub const MAX_INVOKING: usize = 128;

impl Icmpv6 {
    /// Encode including a valid checksum for the given address pair.
    pub fn encode(&self, src: &Ipv6Addr, dst: &Ipv6Addr) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Icmpv6::EchoRequest {
                identifier,
                sequence,
                payload,
            }
            | Icmpv6::EchoReply {
                identifier,
                sequence,
                payload,
            } => {
                out.push(if matches!(self, Icmpv6::EchoRequest { .. }) {
                    TYPE_ECHO_REQUEST
                } else {
                    TYPE_ECHO_REPLY
                });
                out.push(0); // code
                out.extend_from_slice(&[0, 0]); // checksum placeholder
                out.extend_from_slice(&identifier.to_be_bytes());
                out.extend_from_slice(&sequence.to_be_bytes());
                out.extend_from_slice(payload);
            }
            Icmpv6::DestUnreachable { code, invoking } => {
                out.push(TYPE_DEST_UNREACHABLE);
                out.push(*code);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&[0, 0, 0, 0]); // unused
                out.extend_from_slice(&invoking[..invoking.len().min(MAX_INVOKING)]);
            }
            Icmpv6::TimeExceeded { invoking } => {
                out.push(TYPE_TIME_EXCEEDED);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&[0, 0, 0, 0]); // unused
                out.extend_from_slice(&invoking[..invoking.len().min(MAX_INVOKING)]);
            }
        }
        let csum = pseudo_checksum(src, dst, 58, &out);
        // ICMPv6 has no "absent checksum" convention; undo the UDP
        // 0→0xFFFF mapping if it triggered.
        let csum = if csum == 0xFFFF && checksum_would_be_zero(src, dst, &out) {
            0
        } else {
            csum
        };
        out[2..4].copy_from_slice(&csum.to_be_bytes());
        out
    }

    /// Decode and verify the checksum.
    pub fn decode(src: &Ipv6Addr, dst: &Ipv6Addr, msg: &[u8]) -> Result<Icmpv6, CodecError> {
        if msg.len() < 4 {
            return Err(CodecError::Truncated);
        }
        let mut check = msg.to_vec();
        check[2] = 0;
        check[3] = 0;
        let mut expect = pseudo_checksum(src, dst, 58, &check);
        if expect == 0xFFFF && checksum_would_be_zero(src, dst, &check) {
            expect = 0;
        }
        let got = u16::from_be_bytes([msg[2], msg[3]]);
        if got != expect {
            return Err(CodecError::BadChecksum);
        }
        match msg[0] {
            TYPE_ECHO_REQUEST | TYPE_ECHO_REPLY => {
                if msg.len() < 8 {
                    return Err(CodecError::Truncated);
                }
                let identifier = u16::from_be_bytes([msg[4], msg[5]]);
                let sequence = u16::from_be_bytes([msg[6], msg[7]]);
                let payload = msg[8..].to_vec();
                Ok(if msg[0] == TYPE_ECHO_REQUEST {
                    Icmpv6::EchoRequest {
                        identifier,
                        sequence,
                        payload,
                    }
                } else {
                    Icmpv6::EchoReply {
                        identifier,
                        sequence,
                        payload,
                    }
                })
            }
            TYPE_DEST_UNREACHABLE => {
                if msg.len() < 8 {
                    return Err(CodecError::Truncated);
                }
                Ok(Icmpv6::DestUnreachable {
                    code: msg[1],
                    invoking: msg[8..].to_vec(),
                })
            }
            TYPE_TIME_EXCEEDED => {
                if msg.len() < 8 {
                    return Err(CodecError::Truncated);
                }
                Ok(Icmpv6::TimeExceeded {
                    invoking: msg[8..].to_vec(),
                })
            }
            _ => Err(CodecError::Malformed),
        }
    }
}

/// `true` when the raw (pre-complement) sum is exactly 0xFFFF, i.e.
/// the one's-complement checksum is genuinely zero.
fn checksum_would_be_zero(src: &Ipv6Addr, dst: &Ipv6Addr, msg: &[u8]) -> bool {
    // Recompute without the 0→0xFFFF remap by checking the remap
    // precondition: pseudo_checksum returns 0xFFFF for both "sum
    // folds to 0xFFFF→complement 0" and "sum folds to 0→complement
    // 0xFFFF". Distinguish by recomputation.
    let mut sum: u32 = 0;
    for chunk in src.0.chunks(2).chain(dst.0.chunks(2)) {
        sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    let len = msg.len() as u32;
    sum += (len >> 16) + (len & 0xFFFF) + 58;
    let mut iter = msg.chunks_exact(2);
    for chunk in &mut iter {
        sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    if let [last] = iter.remainder() {
        sum += u16::from_be_bytes([*last, 0]) as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum == 0xFFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Addr, Ipv6Addr) {
        (Ipv6Addr::of_node(1), Ipv6Addr::of_node(2))
    }

    #[test]
    fn echo_roundtrip() {
        let (s, d) = addrs();
        let req = Icmpv6::EchoRequest {
            identifier: 0xBEEF,
            sequence: 3,
            payload: b"ping across the mesh".to_vec(),
        };
        let enc = req.encode(&s, &d);
        assert_eq!(Icmpv6::decode(&s, &d, &enc).unwrap(), req);
    }

    #[test]
    fn reply_roundtrip() {
        let (s, d) = addrs();
        let rep = Icmpv6::EchoReply {
            identifier: 1,
            sequence: 2,
            payload: Vec::new(),
        };
        let enc = rep.encode(&s, &d);
        assert_eq!(Icmpv6::decode(&s, &d, &enc).unwrap(), rep);
    }

    #[test]
    fn errors_roundtrip() {
        let (s, d) = addrs();
        for msg in [
            Icmpv6::DestUnreachable {
                code: 0,
                invoking: vec![1, 2, 3],
            },
            Icmpv6::TimeExceeded {
                invoking: vec![9; 40],
            },
        ] {
            let enc = msg.encode(&s, &d);
            assert_eq!(Icmpv6::decode(&s, &d, &enc).unwrap(), msg);
        }
    }

    #[test]
    fn invoking_packet_truncated_to_limit() {
        let (s, d) = addrs();
        let msg = Icmpv6::DestUnreachable {
            code: 3,
            invoking: vec![7; 500],
        };
        let enc = msg.encode(&s, &d);
        match Icmpv6::decode(&s, &d, &enc).unwrap() {
            Icmpv6::DestUnreachable { invoking, .. } => {
                assert_eq!(invoking.len(), MAX_INVOKING);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn corruption_detected() {
        let (s, d) = addrs();
        let mut enc = Icmpv6::EchoRequest {
            identifier: 5,
            sequence: 6,
            payload: b"x".to_vec(),
        }
        .encode(&s, &d);
        enc[5] ^= 0xFF;
        assert_eq!(Icmpv6::decode(&s, &d, &enc), Err(CodecError::BadChecksum));
    }

    #[test]
    fn unknown_type_rejected() {
        let (s, d) = addrs();
        let mut raw = vec![200u8, 0, 0, 0, 0, 0, 0, 0];
        let csum = pseudo_checksum(&s, &d, 58, &{
            let mut c = raw.clone();
            c[2] = 0;
            c[3] = 0;
            c
        });
        raw[2..4].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(Icmpv6::decode(&s, &d, &raw), Err(CodecError::Malformed));
    }

    #[test]
    fn truncated_rejected() {
        let (s, d) = addrs();
        assert_eq!(
            Icmpv6::decode(&s, &d, &[128, 0]),
            Err(CodecError::Truncated)
        );
    }
}
