//! Minimal CoAP endpoints: request/response matching.
//!
//! Mirrors what the paper's benchmark application does with gcoap
//! (§4.3): producers fire non-confirmable GETs and count matched
//! responses (CoAP PDR) and their round-trip times (CoAP RTT); the
//! consumer answers every request it receives.
//!
//! Time is an opaque `u64` nanosecond count supplied by the caller so
//! the crate stays simulation-agnostic.
//!
//! Besides the [`Message`]-based calls, each endpoint has a
//! buffer-writing form for the data path: [`Client::request_into`] and
//! [`Server::respond_into`] encode straight into the caller's outgoing
//! buffer, and [`Client::on_response_view`] and
//! [`Server::respond_into`] read a [`MessageView`], so an exchange
//! allocates nothing.

use std::collections::VecDeque;

use crate::msg::{put_header, put_option, put_payload, Code, Message, MessageView, MsgType};
use crate::OptionNumber;

/// A request awaiting its response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// Token used for matching.
    pub token: [u8; 4],
    /// Message id of the request.
    pub message_id: u16,
    /// When the request was handed to the network.
    pub sent_at_ns: u64,
}

/// A matched response with its measured round-trip time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completed {
    /// The original pending entry.
    pub request: PendingRequest,
    /// Round-trip time in nanoseconds.
    pub rtt_ns: u64,
    /// Response code.
    pub code: Code,
    /// Response payload.
    pub payload: Vec<u8>,
}

/// A response matched to its request ([`Client::on_response_view`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matched {
    /// The original pending entry.
    pub request: PendingRequest,
    /// Round-trip time in nanoseconds.
    pub rtt_ns: u64,
}

/// Client side: token allocation and response matching.
#[derive(Debug)]
pub struct Client {
    next_mid: u16,
    next_token: u64,
    pending: VecDeque<PendingRequest>,
    /// Completed exchanges counter.
    pub completed: u64,
    /// Requests that timed out.
    pub timed_out: u64,
    /// Requests sent.
    pub sent: u64,
}

impl Client {
    /// A client whose message-id/token sequences start at `seed`
    /// (distinct per node to ease trace reading).
    pub fn new(seed: u16) -> Self {
        Client {
            next_mid: seed,
            next_token: (seed as u64) << 32,
            pending: VecDeque::new(),
            completed: 0,
            timed_out: 0,
            sent: 0,
        }
    }

    /// Allocate the next message id and token and register the
    /// request as pending.
    fn register(&mut self, now_ns: u64) -> (u16, [u8; 4]) {
        let mid = self.next_mid;
        self.next_mid = self.next_mid.wrapping_add(1);
        let [.., a, b, c, d] = self.next_token.to_be_bytes();
        let token = [a, b, c, d];
        self.next_token += 1;
        self.pending.push_back(PendingRequest {
            token,
            message_id: mid,
            sent_at_ns: now_ns,
        });
        self.sent += 1;
        (mid, token)
    }

    /// Build a request and register it as pending.
    pub fn request(
        &mut self,
        now_ns: u64,
        mtype: MsgType,
        code: Code,
        path: &str,
        payload: Vec<u8>,
    ) -> Message {
        let (mid, token) = self.register(now_ns);
        let mut msg = Message::request(mtype, code, mid, &token);
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            msg = msg.with_path_segment(seg);
        }
        msg.with_payload(payload)
    }

    /// [`Client::request`], encoded straight onto the end of `out`:
    /// the bytes are those of the returned message's
    /// [`Message::encode`].
    pub fn request_into(
        &mut self,
        now_ns: u64,
        mtype: MsgType,
        code: Code,
        path: &str,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        assert!(code.is_request());
        let (mid, token) = self.register(now_ns);
        put_header(out, mtype, code, mid, &token);
        let mut prev = 0;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            put_option(
                out,
                &mut prev,
                OptionNumber::UriPath.value(),
                seg.as_bytes(),
            );
        }
        put_payload(out, payload);
    }

    /// Match an incoming response by token. Returns the completed
    /// exchange, or `None` for stale/unknown tokens.
    pub fn on_response(&mut self, msg: &Message, now_ns: u64) -> Option<Completed> {
        let m = self.take_match(msg.code, &msg.token, now_ns)?;
        Some(Completed {
            request: m.request,
            rtt_ns: m.rtt_ns,
            code: msg.code,
            payload: msg.payload.clone(),
        })
    }

    /// [`Client::on_response`] on a borrowed message.
    pub fn on_response_view(&mut self, msg: &MessageView<'_>, now_ns: u64) -> Option<Matched> {
        self.take_match(msg.code, msg.token, now_ns)
    }

    fn take_match(&mut self, code: Code, token: &[u8], now_ns: u64) -> Option<Matched> {
        if !code.is_response() {
            return None;
        }
        let idx = self.pending.iter().position(|p| p.token[..] == *token)?;
        let request = self.pending.remove(idx).expect("index valid");
        self.completed += 1;
        Some(Matched {
            rtt_ns: now_ns.saturating_sub(request.sent_at_ns),
            request,
        })
    }

    /// Drop pending requests older than `timeout_ns`, returning them.
    pub fn expire(&mut self, now_ns: u64, timeout_ns: u64) -> Vec<PendingRequest> {
        let mut out = Vec::new();
        while let Some(front) = self.pending.front() {
            if now_ns.saturating_sub(front.sent_at_ns) >= timeout_ns {
                out.push(self.pending.pop_front().expect("front exists"));
                self.timed_out += 1;
            } else {
                break;
            }
        }
        out
    }

    /// Number of outstanding requests.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

/// What the server should send back for a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReply {
    /// The response message, ready to encode.
    pub message: Message,
}

/// Server side: answers requests, echoing tokens; piggybacks ACKs for
/// confirmable requests.
#[derive(Debug)]
pub struct Server {
    next_mid: u16,
    /// Requests handled.
    pub handled: u64,
    /// Recent (message-id) window for CON deduplication.
    recent_mids: VecDeque<u16>,
    /// Duplicate CONs suppressed.
    pub duplicates: u64,
}

const DEDUP_WINDOW: usize = 32;

impl Server {
    /// A server whose own message ids start at `seed`.
    pub fn new(seed: u16) -> Self {
        Server {
            next_mid: seed,
            handled: 0,
            recent_mids: VecDeque::new(),
            duplicates: 0,
        }
    }

    /// Handle a request, producing a response with `code` and
    /// `payload`. Returns `None` for non-requests or suppressed
    /// duplicates.
    pub fn respond(&mut self, req: &Message, code: Code, payload: Vec<u8>) -> Option<ServerReply> {
        let (mtype, message_id) = self.accept(req.mtype, req.code, req.message_id)?;
        Some(ServerReply {
            message: Message {
                mtype,
                code,
                message_id,
                token: req.token.clone(),
                options: Vec::new(),
                payload,
            },
        })
    }

    /// [`Server::respond`] to a borrowed request, encoding the response
    /// straight onto the end of `out`. Returns `false` (and writes
    /// nothing) where `respond` returns `None`.
    pub fn respond_into(
        &mut self,
        req: &MessageView<'_>,
        code: Code,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> bool {
        let Some((mtype, message_id)) = self.accept(req.mtype, req.code, req.message_id) else {
            return false;
        };
        put_header(out, mtype, code, message_id, req.token);
        put_payload(out, payload);
        true
    }

    /// Admit a request: the response's type and message id, or `None`
    /// for a non-request or a suppressed duplicate.
    fn accept(&mut self, mtype: MsgType, code: Code, message_id: u16) -> Option<(MsgType, u16)> {
        if !code.is_request() {
            return None;
        }
        if mtype == MsgType::Confirmable {
            if self.recent_mids.contains(&message_id) {
                self.duplicates += 1;
                return None;
            }
            self.recent_mids.push_back(message_id);
            if self.recent_mids.len() > DEDUP_WINDOW {
                self.recent_mids.pop_front();
            }
        }
        self.handled += 1;
        Some(match mtype {
            // Piggybacked response inside the ACK: same message id.
            MsgType::Confirmable => (MsgType::Acknowledgement, message_id),
            // Separate NON response: fresh message id, same token.
            _ => {
                let mid = self.next_mid;
                self.next_mid = self.next_mid.wrapping_add(1);
                (MsgType::NonConfirmable, mid)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_request_response_matching() {
        let mut c = Client::new(100);
        let mut s = Server::new(500);
        let req = c.request(
            1_000,
            MsgType::NonConfirmable,
            Code::GET,
            "/sensor",
            vec![1; 39],
        );
        assert_eq!(req.uri_path(), "/sensor");
        let reply = s.respond(&req, Code::CONTENT, b"ok".to_vec()).unwrap();
        assert_eq!(reply.message.mtype, MsgType::NonConfirmable);
        assert_eq!(reply.message.token, req.token);
        assert_ne!(reply.message.message_id, req.message_id);
        let done = c.on_response(&reply.message, 5_000).unwrap();
        assert_eq!(done.rtt_ns, 4_000);
        assert_eq!(done.code, Code::CONTENT);
        assert_eq!(c.completed, 1);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn con_request_gets_piggybacked_ack() {
        let mut c = Client::new(1);
        let mut s = Server::new(2);
        let req = c.request(0, MsgType::Confirmable, Code::GET, "/x", Vec::new());
        let reply = s.respond(&req, Code::CONTENT, Vec::new()).unwrap();
        assert_eq!(reply.message.mtype, MsgType::Acknowledgement);
        assert_eq!(reply.message.message_id, req.message_id);
        assert!(c.on_response(&reply.message, 10).is_some());
    }

    #[test]
    fn duplicate_con_suppressed() {
        let mut s = Server::new(2);
        let mut c = Client::new(1);
        let req = c.request(0, MsgType::Confirmable, Code::GET, "/x", Vec::new());
        assert!(s.respond(&req, Code::CONTENT, Vec::new()).is_some());
        assert!(s.respond(&req, Code::CONTENT, Vec::new()).is_none());
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.handled, 1);
    }

    #[test]
    fn duplicate_non_not_suppressed() {
        // NON carries no reliability; gcoap answers each copy.
        let mut s = Server::new(2);
        let mut c = Client::new(1);
        let req = c.request(0, MsgType::NonConfirmable, Code::GET, "/x", Vec::new());
        assert!(s.respond(&req, Code::CONTENT, Vec::new()).is_some());
        assert!(s.respond(&req, Code::CONTENT, Vec::new()).is_some());
    }

    #[test]
    fn unknown_token_ignored() {
        let mut c = Client::new(1);
        let _ = c.request(0, MsgType::NonConfirmable, Code::GET, "/x", Vec::new());
        let bogus = Message {
            mtype: MsgType::NonConfirmable,
            code: Code::CONTENT,
            message_id: 999,
            token: b"nope".to_vec(),
            options: Vec::new(),
            payload: Vec::new(),
        };
        assert!(c.on_response(&bogus, 1).is_none());
        assert_eq!(c.outstanding(), 1);
    }

    #[test]
    fn late_response_after_expiry_ignored() {
        let mut c = Client::new(1);
        let mut s = Server::new(2);
        let req = c.request(0, MsgType::NonConfirmable, Code::GET, "/x", Vec::new());
        let expired = c.expire(2_000_000_000, 1_000_000_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(c.timed_out, 1);
        let reply = s.respond(&req, Code::CONTENT, Vec::new()).unwrap();
        assert!(c.on_response(&reply.message, 3_000_000_000).is_none());
    }

    #[test]
    fn expire_only_old_requests() {
        let mut c = Client::new(1);
        let _ = c.request(0, MsgType::NonConfirmable, Code::GET, "/a", Vec::new());
        let _ = c.request(
            900_000_000,
            MsgType::NonConfirmable,
            Code::GET,
            "/b",
            Vec::new(),
        );
        let expired = c.expire(1_000_000_000, 500_000_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(c.outstanding(), 1);
    }

    #[test]
    fn tokens_are_unique_across_requests() {
        let mut c = Client::new(1);
        let t1 = c.request(0, MsgType::NonConfirmable, Code::GET, "/", Vec::new());
        let t2 = c.request(0, MsgType::NonConfirmable, Code::GET, "/", Vec::new());
        assert_ne!(t1.token, t2.token);
        assert_ne!(t1.message_id, t2.message_id);
    }

    #[test]
    fn non_request_input_rejected_by_server() {
        let mut s = Server::new(1);
        let not_req = Message {
            mtype: MsgType::NonConfirmable,
            code: Code::CONTENT,
            message_id: 1,
            token: Vec::new(),
            options: Vec::new(),
            payload: Vec::new(),
        };
        assert!(s.respond(&not_req, Code::CONTENT, Vec::new()).is_none());
    }

    #[test]
    fn roundtrip_through_wire_format() {
        let mut c = Client::new(7);
        let mut s = Server::new(9);
        let req = c.request(
            100,
            MsgType::NonConfirmable,
            Code::GET,
            "/p/q",
            vec![0xAB; 39],
        );
        let wire = req.encode();
        let parsed = Message::decode(&wire).unwrap();
        let reply = s.respond(&parsed, Code::CONTENT, vec![1, 2, 3]).unwrap();
        let wire2 = reply.message.encode();
        let parsed2 = Message::decode(&wire2).unwrap();
        let done = c.on_response(&parsed2, 400).unwrap();
        assert_eq!(done.rtt_ns, 300);
        assert_eq!(done.payload, vec![1, 2, 3]);
    }

    #[test]
    fn buffer_writing_forms_match_message_encoding() {
        let (mut c1, mut c2) = (Client::new(3), Client::new(3));
        let (mut s1, mut s2) = (Server::new(7), Server::new(7));
        let cases: [(MsgType, &str, &[u8]); 4] = [
            (MsgType::NonConfirmable, "/bench", &[0xA5; 39]),
            (MsgType::Confirmable, "/a/b//c", b""),
            (MsgType::Confirmable, "/a/b//c", b"x"),
            (MsgType::NonConfirmable, "/", &[1; 300]),
        ];
        for (mtype, path, payload) in cases {
            let msg = c1.request(5, mtype, Code::GET, path, payload.to_vec());
            let mut wire = vec![0xEE]; // what is already there stays
            c2.request_into(5, mtype, Code::GET, path, payload, &mut wire);
            assert_eq!(wire[1..], msg.encode()[..]);
            let req = MessageView::parse(&wire[1..]).unwrap();
            for _ in 0..2 {
                // The second round is a duplicate: CONs are suppressed.
                let reply = s1.respond(&msg, Code::CONTENT, b"ok".to_vec());
                let mut out = Vec::new();
                let answered = s2.respond_into(&req, Code::CONTENT, b"ok", &mut out);
                assert_eq!(answered, reply.is_some());
                let Some(reply) = reply else {
                    assert!(out.is_empty());
                    continue;
                };
                assert_eq!(out, reply.message.encode());
                let resp = MessageView::parse(&out).unwrap();
                let want = c1.on_response(&reply.message, 9);
                let got = c2.on_response_view(&resp, 9);
                assert_eq!(
                    want.map(|w| (w.request, w.rtt_ns)),
                    got.map(|g| (g.request, g.rtt_ns))
                );
            }
        }
        assert_eq!((c1.completed, s1.duplicates), (c2.completed, s2.duplicates));
        assert_eq!(s2.duplicates, 2);
    }
}
