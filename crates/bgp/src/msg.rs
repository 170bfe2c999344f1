//! BGP-4 messages and their RFC 4271 wire format.
//!
//! Every message that crosses a simulated link is encoded to real wire bytes
//! and decoded on arrival, so the codec is exercised by every experiment and
//! transmission delay reflects true message size.

use std::fmt;

use crate::attrs::{PathAttributes, SharedAttrs};
use crate::inline::InlineVec;
use crate::types::{Asn, Prefix, RouterId};
use crate::wire::{CodecError, Reader, Writer};

/// Length of the fixed header (marker + length + type).
pub const HEADER_LEN: usize = 19;
/// Maximum message length permitted by RFC 4271.
pub const MAX_MESSAGE_LEN: usize = 4096;

const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;
const TYPE_ROUTE_REFRESH: u8 = 5;

/// A capability advertised in OPEN (RFC 5492 parameter type 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Multiprotocol extensions (RFC 4760): AFI/SAFI pair.
    MultiProtocol {
        /// Address family identifier (1 = IPv4).
        afi: u16,
        /// Subsequent AFI (1 = unicast).
        safi: u8,
    },
    /// Route refresh (RFC 2918).
    RouteRefresh,
    /// Four-octet AS numbers (RFC 6793).
    FourOctetAs(Asn),
    /// Graceful restart (RFC 4724): the sender asks its peers to retain
    /// its routes as stale for up to `restart_time_secs` after a session
    /// drop. The framework models neither the restart-state flag nor
    /// per-AFI forwarding-state bits, so only the restart time is carried
    /// (flags nibble encoded as zero).
    GracefulRestart {
        /// Restart time in seconds (12-bit field on the wire).
        restart_time_secs: u16,
    },
    /// Anything we don't model, carried raw.
    Unknown {
        /// Capability code.
        code: u8,
        /// Raw capability value.
        value: Vec<u8>,
    },
}

/// OPEN message: session parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMsg {
    /// Protocol version, always 4.
    pub version: u8,
    /// The sender's ASN (full 32-bit value; the 2-octet header field carries
    /// AS_TRANS when it doesn't fit).
    pub asn: Asn,
    /// Proposed hold time in seconds (0 disables keepalive/hold).
    pub hold_time_secs: u16,
    /// Sender's BGP identifier.
    pub router_id: RouterId,
    /// Advertised capabilities.
    pub capabilities: Vec<Capability>,
}

impl OpenMsg {
    /// Standard OPEN for this framework: 4-octet-AS + MP-IPv4 + route
    /// refresh capabilities.
    pub fn standard(asn: Asn, router_id: RouterId, hold_time_secs: u16) -> OpenMsg {
        OpenMsg {
            version: 4,
            asn,
            hold_time_secs,
            router_id,
            capabilities: vec![
                Capability::MultiProtocol { afi: 1, safi: 1 },
                Capability::RouteRefresh,
                Capability::FourOctetAs(asn),
            ],
        }
    }

    /// The sender's RFC 4724 restart time; `None` without the capability.
    pub(crate) fn graceful_restart_secs(&self) -> Option<u16> {
        self.capabilities.iter().find_map(|c| match c {
            Capability::GracefulRestart { restart_time_secs } => Some(*restart_time_secs),
            _ => None,
        })
    }
}

/// The prefixes of one UPDATE block. Nearly every UPDATE names one prefix
/// (each attribute set is its own message), so up to three sit inside the
/// message and only a table dump or a mass withdrawal allocates.
pub type PrefixList = InlineVec<Prefix, 3>;

/// UPDATE message: withdrawals plus (optionally) one advertisement of a set
/// of prefixes sharing path attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateMsg {
    /// Prefixes no longer reachable via the sender.
    pub withdrawn: PrefixList,
    /// Attributes for the advertised NLRI (must be present when `nlri` is),
    /// shared by handle with whoever built or will store them.
    pub attrs: Option<SharedAttrs>,
    /// Newly advertised prefixes.
    pub nlri: PrefixList,
}

impl UpdateMsg {
    /// An announcement of `prefixes` with shared `attrs`.
    pub fn announce(prefixes: impl Into<PrefixList>, attrs: impl Into<SharedAttrs>) -> UpdateMsg {
        UpdateMsg {
            withdrawn: PrefixList::new(),
            attrs: Some(attrs.into()),
            nlri: prefixes.into(),
        }
    }

    /// A pure withdrawal of `prefixes`.
    pub fn withdraw(prefixes: impl Into<PrefixList>) -> UpdateMsg {
        UpdateMsg {
            withdrawn: prefixes.into(),
            attrs: None,
            nlri: PrefixList::new(),
        }
    }

    /// True when the message carries nothing.
    pub fn is_empty(&self) -> bool {
        self.withdrawn.is_empty() && self.nlri.is_empty()
    }

    /// RFC 7606 "treat-as-withdraw" salvage: given the raw bytes of an
    /// UPDATE whose path attributes failed to decode, recover the prefixes
    /// it was talking about without interpreting any attribute *content*.
    /// The attribute block is walked as pure TLV framing (flags, type,
    /// 1- or 2-byte length, skip); the withdrawn and NLRI blocks must parse
    /// as prefixes. Returns a pure withdrawal of every mentioned prefix, or
    /// `None` when the framing itself is broken (header, lengths, prefix
    /// encodings) — those errors still warrant a session reset.
    pub fn salvage_withdraw(bytes: &[u8]) -> Option<UpdateMsg> {
        let mut r = Reader::new(bytes);
        let marker = r.take(16, "marker").ok()?;
        if marker.iter().any(|&b| b != 0xFF) {
            return None;
        }
        let len = r.u16("length").ok()? as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&len) || len != bytes.len() {
            return None;
        }
        if r.u8("type").ok()? != TYPE_UPDATE {
            return None;
        }
        let wd_len = r.u16("withdrawn length").ok()? as usize;
        let mut wd = r.sub(wd_len, "withdrawn routes").ok()?;
        let mut withdrawn = PrefixList::new();
        while !wd.is_empty() {
            withdrawn.push(wd.nlri_prefix().ok()?);
        }
        let at_len = r.u16("attrs length").ok()? as usize;
        let mut at = r.sub(at_len, "path attributes").ok()?;
        while !at.is_empty() {
            let flags = at.u8("attr flags").ok()?;
            let _ty = at.u8("attr type").ok()?;
            let alen = if flags & 0x10 != 0 {
                at.u16("attr ext len").ok()? as usize
            } else {
                at.u8("attr len").ok()? as usize
            };
            at.take(alen, "attr value").ok()?;
        }
        while !r.is_empty() {
            withdrawn.push(r.nlri_prefix().ok()?);
        }
        Some(UpdateMsg::withdraw(withdrawn))
    }
}

/// NOTIFICATION error codes (RFC 4271 §4.5). Only the codes this
/// implementation can emit are named; others decode as `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifCode {
    /// Message header error.
    MessageHeader,
    /// OPEN message error.
    OpenMessage,
    /// UPDATE message error.
    UpdateMessage,
    /// Hold timer expired.
    HoldTimerExpired,
    /// FSM error.
    FsmError,
    /// Administrative cease.
    Cease,
    /// Unmodeled code.
    Other(u8),
}

impl NotifCode {
    fn to_u8(self) -> u8 {
        match self {
            NotifCode::MessageHeader => 1,
            NotifCode::OpenMessage => 2,
            NotifCode::UpdateMessage => 3,
            NotifCode::HoldTimerExpired => 4,
            NotifCode::FsmError => 5,
            NotifCode::Cease => 6,
            NotifCode::Other(c) => c,
        }
    }

    fn from_u8(c: u8) -> NotifCode {
        match c {
            1 => NotifCode::MessageHeader,
            2 => NotifCode::OpenMessage,
            3 => NotifCode::UpdateMessage,
            4 => NotifCode::HoldTimerExpired,
            5 => NotifCode::FsmError,
            6 => NotifCode::Cease,
            other => NotifCode::Other(other),
        }
    }
}

/// NOTIFICATION message: fatal session error, connection closes after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMsg {
    /// Error code.
    pub code: NotifCode,
    /// Error subcode (0 when unspecific).
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

/// Any BGP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpMessage {
    /// Session open.
    Open(OpenMsg),
    /// Route advertisement/withdrawal.
    Update(UpdateMsg),
    /// Fatal error.
    Notification(NotificationMsg),
    /// Liveness.
    Keepalive,
    /// Re-advertisement request (RFC 2918): the peer asks for the full
    /// Adj-RIB-Out again, e.g. after a policy change.
    RouteRefresh {
        /// Address family (1 = IPv4).
        afi: u16,
        /// Subsequent address family (1 = unicast).
        safi: u8,
    },
}

impl fmt::Display for BgpMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BgpMessage::Open(o) => write!(f, "OPEN({}, hold {}s)", o.asn, o.hold_time_secs),
            BgpMessage::Update(u) => write!(
                f,
                "UPDATE(+{} -{}{})",
                u.nlri.len(),
                u.withdrawn.len(),
                u.attrs
                    .as_ref()
                    .map(|a| format!(" path [{}]", a.as_path))
                    .unwrap_or_default()
            ),
            BgpMessage::Notification(n) => write!(f, "NOTIFICATION({:?}/{})", n.code, n.subcode),
            BgpMessage::Keepalive => write!(f, "KEEPALIVE"),
            BgpMessage::RouteRefresh { afi, safi } => {
                write!(f, "ROUTE-REFRESH({afi}/{safi})")
            }
        }
    }
}

impl BgpMessage {
    /// Encode to RFC 4271 wire bytes, including the 19-byte header.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Encode into a reusable scratch writer: the writer is cleared first,
    /// and on return holds exactly the wire bytes [`encode`](Self::encode)
    /// would have produced. Every length field is back-patched in place, so
    /// the whole message — sub-blocks included — is written in one pass
    /// with no intermediate buffers; a caller looping over messages pays
    /// for at most one buffer growth, ever.
    pub fn encode_into(&self, w: &mut Writer) {
        w.clear();
        w.bytes(&[0xFF; 16]);
        w.u16(0); // length, patched below
        match self {
            BgpMessage::Open(o) => {
                w.u8(TYPE_OPEN);
                w.u8(o.version);
                let my_as = if o.asn.is_16bit() {
                    o.asn.0 as u16
                } else {
                    Asn::TRANS.0 as u16
                };
                w.u16(my_as);
                w.u16(o.hold_time_secs);
                w.u32(o.router_id.0);
                // Optional parameters: one capabilities parameter.
                if o.capabilities.is_empty() {
                    w.u8(0);
                } else {
                    let opt_pos = w.len();
                    w.u8(0); // total opt params length, patched below
                    w.u8(2); // param type: capabilities
                    let caps_pos = w.len();
                    w.u8(0); // capabilities length, patched below
                    for c in &o.capabilities {
                        encode_capability(w, c);
                    }
                    let caps_len = w.len() - caps_pos - 1;
                    w.patch_u8(caps_pos, caps_len as u8);
                    w.patch_u8(opt_pos, (caps_len + 2) as u8);
                }
            }
            BgpMessage::Update(u) => {
                w.u8(TYPE_UPDATE);
                let wd_pos = w.len();
                w.u16(0); // withdrawn routes length, patched below
                for p in &u.withdrawn {
                    w.nlri_prefix(*p);
                }
                w.patch_u16(wd_pos, (w.len() - wd_pos - 2) as u16);
                let at_pos = w.len();
                w.u16(0); // total path attribute length, patched below
                if let Some(attrs) = &u.attrs {
                    attrs.encode(w);
                }
                w.patch_u16(at_pos, (w.len() - at_pos - 2) as u16);
                for p in &u.nlri {
                    w.nlri_prefix(*p);
                }
            }
            BgpMessage::Notification(n) => {
                w.u8(TYPE_NOTIFICATION);
                w.u8(n.code.to_u8());
                w.u8(n.subcode);
                w.bytes(&n.data);
            }
            BgpMessage::Keepalive => {
                w.u8(TYPE_KEEPALIVE);
            }
            BgpMessage::RouteRefresh { afi, safi } => {
                w.u8(TYPE_ROUTE_REFRESH);
                w.u16(*afi);
                w.u8(0);
                w.u8(*safi);
            }
        }
        let len = w.len();
        assert!(len <= MAX_MESSAGE_LEN, "message too long: {len}");
        w.patch_u16(16, len as u16);
    }

    /// Decode one message from wire bytes. The buffer must contain exactly
    /// one message.
    pub fn decode(bytes: &[u8]) -> Result<BgpMessage, CodecError> {
        let mut r = Reader::new(bytes);
        let marker = r.take(16, "marker")?;
        if marker.iter().any(|&b| b != 0xFF) {
            return Err(CodecError::BadMarker);
        }
        let len = r.u16("length")?;
        if (len as usize) < HEADER_LEN || len as usize > MAX_MESSAGE_LEN {
            return Err(CodecError::BadLength(len));
        }
        if len as usize != bytes.len() {
            return Err(CodecError::BadLength(len));
        }
        let ty = r.u8("type")?;
        let msg = match ty {
            TYPE_OPEN => {
                let version = r.u8("version")?;
                if version != 4 {
                    return Err(CodecError::BadVersion(version));
                }
                let my_as = r.u16("my AS")?;
                let hold = r.u16("hold time")?;
                let router_id = RouterId(r.u32("router id")?);
                let opt_len = r.u8("opt params len")? as usize;
                let mut opts = r.sub(opt_len, "opt params")?;
                let mut capabilities = Vec::new();
                while !opts.is_empty() {
                    let ptype = opts.u8("param type")?;
                    let plen = opts.u8("param len")? as usize;
                    let mut body = opts.sub(plen, "param body")?;
                    if ptype == 2 {
                        while !body.is_empty() {
                            capabilities.push(decode_capability(&mut body)?);
                        }
                    }
                    // Non-capability parameters are ignored (deprecated auth).
                }
                // Honor the 4-octet-AS capability for the true ASN.
                let asn = capabilities
                    .iter()
                    .find_map(|c| match c {
                        Capability::FourOctetAs(a) => Some(*a),
                        _ => None,
                    })
                    .unwrap_or(Asn(my_as as u32));
                BgpMessage::Open(OpenMsg {
                    version,
                    asn,
                    hold_time_secs: hold,
                    router_id,
                    capabilities,
                })
            }
            TYPE_UPDATE => {
                let wd_len = r.u16("withdrawn length")? as usize;
                let mut wd = r.sub(wd_len, "withdrawn routes")?;
                let mut withdrawn = PrefixList::new();
                while !wd.is_empty() {
                    withdrawn.push(wd.nlri_prefix()?);
                }
                let at_len = r.u16("attrs length")? as usize;
                let mut at = r.sub(at_len, "path attributes")?;
                let attrs = if at_len == 0 {
                    None
                } else {
                    Some(PathAttributes::decode(&mut at)?.into())
                };
                let mut nlri = PrefixList::new();
                while !r.is_empty() {
                    nlri.push(r.nlri_prefix()?);
                }
                if !nlri.is_empty() && attrs.is_none() {
                    return Err(CodecError::BadAttribute {
                        code: 0,
                        reason: "NLRI without path attributes",
                    });
                }
                BgpMessage::Update(UpdateMsg {
                    withdrawn,
                    attrs,
                    nlri,
                })
            }
            TYPE_NOTIFICATION => {
                let code = NotifCode::from_u8(r.u8("notif code")?);
                let subcode = r.u8("notif subcode")?;
                let data = r.take(r.remaining(), "notif data")?.to_vec();
                BgpMessage::Notification(NotificationMsg {
                    code,
                    subcode,
                    data,
                })
            }
            TYPE_KEEPALIVE => {
                if len as usize != HEADER_LEN {
                    return Err(CodecError::BadLength(len));
                }
                BgpMessage::Keepalive
            }
            TYPE_ROUTE_REFRESH => {
                let afi = r.u16("refresh afi")?;
                let _res = r.u8("refresh reserved")?;
                let safi = r.u8("refresh safi")?;
                BgpMessage::RouteRefresh { afi, safi }
            }
            other => return Err(CodecError::BadMessageType(other)),
        };
        if !r.is_empty() {
            return Err(CodecError::TrailingBytes(r.remaining()));
        }
        Ok(msg)
    }
}

fn encode_capability(w: &mut Writer, c: &Capability) {
    match c {
        Capability::MultiProtocol { afi, safi } => {
            w.u8(1);
            w.u8(4);
            w.u16(*afi);
            w.u8(0);
            w.u8(*safi);
        }
        Capability::RouteRefresh => {
            w.u8(2);
            w.u8(0);
        }
        Capability::FourOctetAs(asn) => {
            w.u8(65);
            w.u8(4);
            w.u32(asn.0);
        }
        Capability::GracefulRestart { restart_time_secs } => {
            w.u8(64);
            w.u8(2);
            // Flags nibble (restart-state etc.) always zero; 12-bit time.
            w.u16(restart_time_secs & 0x0FFF);
        }
        Capability::Unknown { code, value } => {
            w.u8(*code);
            w.u8(value.len() as u8);
            w.bytes(value);
        }
    }
}

fn decode_capability(r: &mut Reader<'_>) -> Result<Capability, CodecError> {
    let code = r.u8("cap code")?;
    let len = r.u8("cap len")? as usize;
    let mut body = r.sub(len, "cap body")?;
    Ok(match (code, len) {
        (1, 4) => {
            let afi = body.u16("mp afi")?;
            let _res = body.u8("mp reserved")?;
            let safi = body.u8("mp safi")?;
            Capability::MultiProtocol { afi, safi }
        }
        (2, 0) => Capability::RouteRefresh,
        (64, 2) => Capability::GracefulRestart {
            restart_time_secs: body.u16("gr time")? & 0x0FFF,
        },
        (65, 4) => Capability::FourOctetAs(Asn(body.u32("as4")?)),
        _ => Capability::Unknown {
            code,
            value: body.take(len, "cap raw")?.to_vec(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::pfx;
    use std::net::Ipv4Addr;

    fn roundtrip(m: &BgpMessage) -> BgpMessage {
        let bytes = m.encode();
        BgpMessage::decode(&bytes).expect("decode")
    }

    #[test]
    fn keepalive_roundtrip_is_19_bytes() {
        let m = BgpMessage::Keepalive;
        let bytes = m.encode();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn open_roundtrip_16bit_as() {
        let m = BgpMessage::Open(OpenMsg::standard(
            Asn(65001),
            RouterId::from_ip(Ipv4Addr::new(10, 0, 0, 1)),
            90,
        ));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn open_roundtrip_32bit_as_uses_as_trans() {
        let big = Asn(4_200_000_001);
        let m = BgpMessage::Open(OpenMsg::standard(
            big,
            RouterId::from_ip(Ipv4Addr::new(10, 0, 0, 2)),
            180,
        ));
        let bytes = m.encode();
        // The 2-octet field (at offset 20..22) must carry AS_TRANS.
        assert_eq!(
            u16::from_be_bytes([bytes[20], bytes[21]]) as u32,
            Asn::TRANS.0
        );
        // But decoding recovers the true ASN from the capability.
        match roundtrip(&m) {
            BgpMessage::Open(o) => assert_eq!(o.asn, big),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_announce_roundtrip() {
        let mut attrs = PathAttributes::originate(Ipv4Addr::new(10, 0, 0, 1));
        attrs.as_path = crate::attrs::AsPath::from_seq([65001, 65002]);
        let m = BgpMessage::Update(UpdateMsg::announce(
            vec![pfx("10.1.0.0/16"), pfx("10.2.0.0/16")],
            attrs,
        ));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn update_withdraw_roundtrip() {
        let m = BgpMessage::Update(UpdateMsg::withdraw(vec![pfx("10.1.0.0/16")]));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn update_mixed_roundtrip() {
        let attrs = PathAttributes::originate(Ipv4Addr::new(192, 0, 2, 1));
        let m = BgpMessage::Update(UpdateMsg {
            withdrawn: [pfx("198.51.100.0/24")].into(),
            attrs: Some(attrs.into()),
            nlri: [pfx("203.0.113.0/24")].into(),
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn notification_roundtrip() {
        let m = BgpMessage::Notification(NotificationMsg {
            code: NotifCode::HoldTimerExpired,
            subcode: 0,
            data: vec![9, 9],
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn route_refresh_roundtrip() {
        let m = BgpMessage::RouteRefresh { afi: 1, safi: 1 };
        let bytes = m.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        assert_eq!(roundtrip(&m), m);
        assert_eq!(m.to_string(), "ROUTE-REFRESH(1/1)");
    }

    #[test]
    fn bad_marker_rejected() {
        let mut bytes = BgpMessage::Keepalive.encode();
        bytes[3] = 0x00;
        assert_eq!(BgpMessage::decode(&bytes), Err(CodecError::BadMarker));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut bytes = BgpMessage::Keepalive.encode();
        bytes[17] = 100; // claim a longer message
        assert!(matches!(
            BgpMessage::decode(&bytes),
            Err(CodecError::BadLength(_))
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = BgpMessage::Keepalive.encode();
        bytes[18] = 9;
        assert_eq!(
            BgpMessage::decode(&bytes),
            Err(CodecError::BadMessageType(9))
        );
    }

    #[test]
    fn bad_version_rejected() {
        let m = BgpMessage::Open(OpenMsg::standard(Asn(1), RouterId(1), 0));
        let mut bytes = m.encode();
        bytes[19] = 3; // version field
        assert_eq!(BgpMessage::decode(&bytes), Err(CodecError::BadVersion(3)));
    }

    #[test]
    fn nlri_without_attrs_rejected() {
        // Hand-craft an UPDATE with NLRI but zero attribute length.
        let mut w = Writer::new();
        w.bytes(&[0xFF; 16]);
        w.u16(0);
        w.u8(TYPE_UPDATE);
        w.u16(0); // withdrawn len
        w.u16(0); // attrs len
        w.nlri_prefix(pfx("10.0.0.0/8"));
        let len = w.len();
        w.patch_u16(16, len as u16);
        let bytes = w.into_bytes();
        assert!(BgpMessage::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = BgpMessage::Keepalive.encode();
        for cut in 0..bytes.len() {
            assert!(
                BgpMessage::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn display_is_compact() {
        let m = BgpMessage::Update(UpdateMsg::withdraw(vec![pfx("10.0.0.0/8")]));
        assert_eq!(m.to_string(), "UPDATE(+0 -1)");
    }
}
