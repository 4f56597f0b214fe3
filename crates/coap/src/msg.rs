//! CoAP message codec (RFC 7252 §3).

use core::fmt;

/// The default CoAP UDP port.
pub const COAP_DEFAULT_PORT: u16 = 5683;

/// CoAP message type (2-bit `T` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgType {
    /// Confirmable — demands an ACK.
    Confirmable,
    /// Non-confirmable — the paper's producers use this (§4.3).
    NonConfirmable,
    /// Acknowledgement — may piggyback a response.
    Acknowledgement,
    /// Reset — rejects a message.
    Reset,
}

impl MsgType {
    fn bits(self) -> u8 {
        match self {
            MsgType::Confirmable => 0,
            MsgType::NonConfirmable => 1,
            MsgType::Acknowledgement => 2,
            MsgType::Reset => 3,
        }
    }
    fn from_bits(b: u8) -> MsgType {
        match b & 0b11 {
            0 => MsgType::Confirmable,
            1 => MsgType::NonConfirmable,
            2 => MsgType::Acknowledgement,
            _ => MsgType::Reset,
        }
    }
}

/// CoAP code: 3-bit class, 5-bit detail (`c.dd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Code(pub u8);

#[allow(missing_docs)]
impl Code {
    pub const EMPTY: Code = Code(0x00);
    pub const GET: Code = Code(0x01);
    pub const POST: Code = Code(0x02);
    pub const PUT: Code = Code(0x03);
    pub const DELETE: Code = Code(0x04);
    pub const CONTENT: Code = Code(0x45); // 2.05
    pub const CHANGED: Code = Code(0x44); // 2.04
    pub const NOT_FOUND: Code = Code(0x84); // 4.04
    pub const METHOD_NOT_ALLOWED: Code = Code(0x85); // 4.05
    pub const INTERNAL_ERROR: Code = Code(0xA0); // 5.00

    /// Class digit (0 = request, 2 = success, 4/5 = error).
    pub fn class(self) -> u8 {
        self.0 >> 5
    }
    /// Detail digits.
    pub fn detail(self) -> u8 {
        self.0 & 0x1F
    }
    /// `true` for request codes (class 0, nonzero detail).
    pub fn is_request(self) -> bool {
        self.class() == 0 && self.detail() != 0
    }
    /// `true` for response codes (class 2–5).
    pub fn is_response(self) -> bool {
        (2..=5).contains(&self.class())
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:02}", self.class(), self.detail())
    }
}

/// Well-known option numbers used by this stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionNumber {
    /// Uri-Path (11), repeatable.
    UriPath,
    /// Content-Format (12).
    ContentFormat,
    /// Uri-Query (15), repeatable.
    UriQuery,
    /// Any other option, by number.
    Other(u16),
}

impl OptionNumber {
    /// Numeric value.
    pub fn value(self) -> u16 {
        match self {
            OptionNumber::UriPath => 11,
            OptionNumber::ContentFormat => 12,
            OptionNumber::UriQuery => 15,
            OptionNumber::Other(n) => n,
        }
    }
}

impl From<u16> for OptionNumber {
    fn from(n: u16) -> Self {
        match n {
            11 => OptionNumber::UriPath,
            12 => OptionNumber::ContentFormat,
            15 => OptionNumber::UriQuery,
            other => OptionNumber::Other(other),
        }
    }
}

/// Codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Message shorter than its structure requires.
    Truncated,
    /// Version field is not 1.
    BadVersion,
    /// Token length > 8 (reserved values).
    BadTokenLength,
    /// Option delta/length nibble 15 outside the payload marker.
    MessageFormat,
}

/// A CoAP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message type.
    pub mtype: MsgType,
    /// Code (method or response).
    pub code: Code,
    /// Message ID (deduplication / ACK matching).
    pub message_id: u16,
    /// Token (request/response matching), 0–8 bytes.
    pub token: Vec<u8>,
    /// Options, sorted by number at encode time.
    pub options: Vec<(OptionNumber, Vec<u8>)>,
    /// Payload (after the 0xFF marker).
    pub payload: Vec<u8>,
}

impl Message {
    /// A request message.
    pub fn request(mtype: MsgType, code: Code, message_id: u16, token: &[u8]) -> Self {
        assert!(code.is_request());
        assert!(token.len() <= 8);
        Message {
            mtype,
            code,
            message_id,
            token: token.to_vec(),
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Add one Uri-Path segment.
    pub fn with_path_segment(mut self, segment: &str) -> Self {
        self.options
            .push((OptionNumber::UriPath, segment.as_bytes().to_vec()));
        self
    }

    /// Set the payload.
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// The Uri-Path reassembled as `/seg/seg`.
    pub fn uri_path(&self) -> String {
        let mut s = String::new();
        for (n, v) in &self.options {
            if *n == OptionNumber::UriPath {
                s.push('/');
                s.push_str(&String::from_utf8_lossy(v));
            }
        }
        if s.is_empty() {
            s.push('/');
        }
        s
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.token.len() <= 8, "token too long");
        let mut out = Vec::with_capacity(4 + self.token.len() + self.payload.len() + 8);
        put_header(
            &mut out,
            self.mtype,
            self.code,
            self.message_id,
            &self.token,
        );
        let mut opts: Vec<(u16, &[u8])> = self
            .options
            .iter()
            .map(|(n, v)| (n.value(), v.as_slice()))
            .collect();
        opts.sort_by_key(|(n, _)| *n);
        let mut prev = 0u16;
        for (num, val) in opts {
            put_option(&mut out, &mut prev, num, val);
        }
        put_payload(&mut out, &self.payload);
        out
    }

    /// Decode from bytes: [`MessageView::parse`], copied out.
    pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
        let mut options = Vec::new();
        let v = MessageView::parse_with(bytes, |number, value| {
            options.push((OptionNumber::from(number), value.to_vec()))
        })?;
        Ok(Message {
            mtype: v.mtype,
            code: v.code,
            message_id: v.message_id,
            token: v.token.to_vec(),
            options,
            payload: v.payload.to_vec(),
        })
    }
}

/// A CoAP message parsed in place: the fields the endpoints match on,
/// borrowing the received bytes, so parsing allocates nothing. The
/// options are validated but not kept; [`Message::decode`] keeps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageView<'a> {
    /// Message type.
    pub mtype: MsgType,
    /// Code (method or response).
    pub code: Code,
    /// Message ID.
    pub message_id: u16,
    /// Token, 0–8 bytes.
    pub token: &'a [u8],
    /// Payload (after the 0xFF marker).
    pub payload: &'a [u8],
}

impl<'a> MessageView<'a> {
    /// Parse and validate a message, with the same errors as
    /// [`Message::decode`].
    pub fn parse(bytes: &'a [u8]) -> Result<MessageView<'a>, DecodeError> {
        Self::parse_with(bytes, |_, _| {})
    }

    /// [`MessageView::parse`], handing each option's number and value
    /// to `on_option` in wire order.
    fn parse_with(
        bytes: &'a [u8],
        mut on_option: impl FnMut(u16, &'a [u8]),
    ) -> Result<MessageView<'a>, DecodeError> {
        if bytes.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        if bytes[0] >> 6 != 1 {
            return Err(DecodeError::BadVersion);
        }
        let mtype = MsgType::from_bits(bytes[0] >> 4);
        let tkl = (bytes[0] & 0x0F) as usize;
        if tkl > 8 {
            return Err(DecodeError::BadTokenLength);
        }
        let code = Code(bytes[1]);
        let message_id = u16::from_be_bytes([bytes[2], bytes[3]]);
        if bytes.len() < 4 + tkl {
            return Err(DecodeError::Truncated);
        }
        let token = &bytes[4..4 + tkl];

        let mut pos = 4 + tkl;
        let mut number = 0u16;
        let mut payload: &[u8] = &[];
        while pos < bytes.len() {
            if bytes[pos] == 0xFF {
                if pos + 1 == bytes.len() {
                    // Zero-length payload after marker is a format error.
                    return Err(DecodeError::MessageFormat);
                }
                payload = &bytes[pos + 1..];
                break;
            }
            let value = read_option(bytes, &mut pos, &mut number)?;
            on_option(number, &bytes[value]);
        }
        Ok(MessageView {
            mtype,
            code,
            message_id,
            token,
            payload,
        })
    }
}

/// Read the option whose header byte is at `*pos`: extended delta and
/// length, then the value. Advances `pos` past it and `number` by its
/// delta; returns where the value lies in `bytes`.
fn read_option(
    bytes: &[u8],
    pos: &mut usize,
    number: &mut u16,
) -> Result<core::ops::Range<usize>, DecodeError> {
    let b = bytes[*pos];
    let (delta, p1) = read_ext(b >> 4, bytes, *pos + 1)?;
    let (len, p2) = read_ext(b & 0x0F, bytes, p1)?;
    *number = number
        .checked_add(delta)
        .ok_or(DecodeError::MessageFormat)?;
    let end = p2 + len as usize;
    if end > bytes.len() {
        return Err(DecodeError::Truncated);
    }
    *pos = end;
    Ok(p2..end)
}

/// Append the fixed header and the token.
pub(crate) fn put_header(
    out: &mut Vec<u8>,
    mtype: MsgType,
    code: Code,
    message_id: u16,
    token: &[u8],
) {
    out.push(0x40 | (mtype.bits() << 4) | token.len() as u8);
    out.push(code.0);
    out.extend_from_slice(&message_id.to_be_bytes());
    out.extend_from_slice(token);
}

/// Append option `num` with `value`, delta-encoded against `*prev`
/// (options go out in ascending number order).
pub(crate) fn put_option(out: &mut Vec<u8>, prev: &mut u16, num: u16, value: &[u8]) {
    let delta = num - *prev;
    let len = value.len() as u16;
    *prev = num;
    out.push((nibble(delta) << 4) | nibble(len));
    put_ext(out, delta);
    put_ext(out, len);
    out.extend_from_slice(value);
}

/// Append the payload marker and payload, if there is a payload.
pub(crate) fn put_payload(out: &mut Vec<u8>, payload: &[u8]) {
    if !payload.is_empty() {
        out.push(0xFF);
        out.extend_from_slice(payload);
    }
}

/// The 4-bit field that encodes a delta or length `v`.
fn nibble(v: u16) -> u8 {
    match v {
        0..=12 => v as u8,
        13..=268 => 13,
        _ => 14,
    }
}

/// Append the 0–2 extension bytes [`nibble`] announces for `v`.
fn put_ext(out: &mut Vec<u8>, v: u16) {
    match v {
        0..=12 => {}
        13..=268 => out.push((v - 13) as u8),
        _ => out.extend_from_slice(&(v - 269).to_be_bytes()),
    }
}

/// Decode a nibble + extension bytes at `pos`.
fn read_ext(n: u8, bytes: &[u8], pos: usize) -> Result<(u16, usize), DecodeError> {
    match n {
        0..=12 => Ok((n as u16, pos)),
        13 => {
            if pos >= bytes.len() {
                return Err(DecodeError::Truncated);
            }
            Ok((bytes[pos] as u16 + 13, pos + 1))
        }
        14 => {
            if pos + 2 > bytes.len() {
                return Err(DecodeError::Truncated);
            }
            let v = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]);
            v.checked_add(269)
                .map(|v| (v, pos + 2))
                .ok_or(DecodeError::MessageFormat)
        }
        _ => Err(DecodeError::MessageFormat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Message {
        Message::request(MsgType::NonConfirmable, Code::GET, 0x1234, b"tk01")
            .with_path_segment("sensors")
            .with_path_segment("temp")
            .with_payload(vec![7u8; 39])
    }

    #[test]
    fn roundtrip_paper_request() {
        let m = sample();
        let enc = m.encode();
        assert_eq!(Message::decode(&enc).unwrap(), m);
    }

    #[test]
    fn paper_request_size_is_reasonable() {
        // 4 hdr + 4 token + options + 1 marker + 39 payload ≲ 65 B.
        let enc = sample().encode();
        assert!(enc.len() < 70, "encoded {} bytes", enc.len());
    }

    #[test]
    fn empty_message() {
        let m = Message {
            mtype: MsgType::Reset,
            code: Code::EMPTY,
            message_id: 9,
            token: Vec::new(),
            options: Vec::new(),
            payload: Vec::new(),
        };
        let enc = m.encode();
        assert_eq!(enc.len(), 4);
        assert_eq!(Message::decode(&enc).unwrap(), m);
    }

    #[test]
    fn uri_path_reconstruction() {
        assert_eq!(sample().uri_path(), "/sensors/temp");
        let bare = Message::request(MsgType::NonConfirmable, Code::GET, 1, b"");
        assert_eq!(bare.uri_path(), "/");
    }

    #[test]
    fn large_option_delta_uses_extended_form() {
        let mut m = Message::request(MsgType::Confirmable, Code::GET, 1, b"t");
        m.options.push((OptionNumber::Other(500), vec![1, 2]));
        m.options.push((OptionNumber::Other(4000), vec![3]));
        let enc = m.encode();
        let dec = Message::decode(&enc).unwrap();
        assert_eq!(dec.options.len(), 2);
        assert_eq!(dec.options[0].0.value(), 500);
        assert_eq!(dec.options[1].0.value(), 4000);
    }

    #[test]
    fn long_option_value() {
        let mut m = Message::request(MsgType::Confirmable, Code::GET, 1, b"t");
        m.options.push((OptionNumber::Other(11), vec![9u8; 300]));
        let dec = Message::decode(&m.encode()).unwrap();
        assert_eq!(dec.options[0].1.len(), 300);
    }

    #[test]
    fn options_sorted_on_encode() {
        let mut m = Message::request(MsgType::Confirmable, Code::GET, 1, b"");
        m.options.push((OptionNumber::UriQuery, b"q=1".to_vec()));
        m.options.push((OptionNumber::UriPath, b"a".to_vec()));
        let dec = Message::decode(&m.encode()).unwrap();
        assert_eq!(dec.options[0].0, OptionNumber::UriPath);
        assert_eq!(dec.options[1].0, OptionNumber::UriQuery);
    }

    #[test]
    fn marker_without_payload_rejected() {
        let mut enc = Message::request(MsgType::Confirmable, Code::GET, 1, b"").encode();
        enc.push(0xFF);
        assert_eq!(Message::decode(&enc), Err(DecodeError::MessageFormat));
    }

    #[test]
    fn bad_version_rejected() {
        let mut enc = sample().encode();
        enc[0] = (enc[0] & 0x3F) | 0x80;
        assert_eq!(Message::decode(&enc), Err(DecodeError::BadVersion));
    }

    #[test]
    fn reserved_token_length_rejected() {
        let mut enc = sample().encode();
        enc[0] = (enc[0] & 0xF0) | 0x0D;
        assert_eq!(Message::decode(&enc), Err(DecodeError::BadTokenLength));
    }

    #[test]
    fn truncated_rejected() {
        let enc = sample().encode();
        assert_eq!(Message::decode(&enc[..3]), Err(DecodeError::Truncated));
        assert_eq!(Message::decode(&enc[..5]), Err(DecodeError::Truncated));
    }

    #[test]
    fn code_classes() {
        assert!(Code::GET.is_request());
        assert!(!Code::GET.is_response());
        assert!(Code::CONTENT.is_response());
        assert_eq!(Code::CONTENT.to_string(), "2.05");
        assert_eq!(Code::NOT_FOUND.to_string(), "4.04");
        assert!(!Code::EMPTY.is_request());
    }

    #[test]
    fn nibble_boundaries() {
        for v in [0u16, 12, 13, 268, 269, 1000, u16::MAX - 300] {
            let mut buf = Vec::new();
            put_ext(&mut buf, v);
            let ext_len = buf.len();
            buf.push(0xAA); // trailing noise
            let (back, used) = read_ext(nibble(v), &buf, 0).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, ext_len);
        }
    }
}
