//! # mindgap-coap — the Constrained Application Protocol (RFC 7252)
//!
//! The paper measures the network at the CoAP layer: every producer
//! sends a *non-confirmable GET* with a 39-byte payload to the
//! consumer, which answers each request (§4.3); CoAP PDR and CoAP RTT
//! are the headline metrics of §5 and §6.
//!
//! This crate provides:
//!
//! * [`Message`] — the full RFC 7252 wire codec: 4-byte header,
//!   token, delta-encoded options (including the 13/14 extended
//!   forms), payload marker.
//! * [`Client`] / [`Server`] — the small request/response state
//!   machines the experiments need: token generation and matching,
//!   message-id handling, piggybacked ACK responses for CON and plain
//!   response messages for NON, plus RTT bookkeeping hooks.
//!
//! Like RIOT's gcoap, the implementation is socket-agnostic: messages
//! are byte vectors moved through any UDP transport.
//!
//! ## Buffer-writing forms
//!
//! [`Message`] owns its token, options and payload, so decoding one
//! allocates. The data path uses the borrowed forms instead:
//! [`MessageView::parse`] validates a message in place (same errors as
//! [`Message::decode`]), [`Client::request_into`] and
//! [`Server::respond_into`] encode straight onto the end of the
//! caller's outgoing buffer (same bytes as [`Message::encode`]), and
//! [`Client::on_response_view`] matches a borrowed response.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod endpoint;
mod msg;

pub use endpoint::{Client, Completed, Matched, PendingRequest, Server, ServerReply};
pub use msg::{Code, DecodeError, Message, MessageView, MsgType, OptionNumber, COAP_DEFAULT_PORT};
