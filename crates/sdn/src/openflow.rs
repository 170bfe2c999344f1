//! OpenFlow-1.0-subset control channel messages and their wire codec.
//!
//! The controller↔switch channel carries these messages as encoded bytes
//! (mirroring how BGP traffic is carried), so control-plane latency reflects
//! real message sizes and the codec is exercised by every experiment.
//! The subset covers what the IDR use-case needs: the switch's greeting,
//! flow programming, packet-in, port status, and the table dump a resync
//! reads.

use bgpsdn_bgp::wire::{CodecError, Reader, Writer};
use bgpsdn_bgp::Prefix;
use bgpsdn_netsim::{Cause, DataPacket, PacketKind};

use crate::flowtable::{FlowAction, FlowRule};

/// Protocol version byte (OpenFlow 1.0).
pub const OF_VERSION: u8 = 0x01;

const T_HELLO: u8 = 0;
const T_PACKET_IN: u8 = 10;
const T_PORT_STATUS: u8 = 12;
const T_FLOW_MOD: u8 = 14;
// Stats request/reply type bytes, carrying the flow-table dump used by
// the controller's post-outage resync.
const T_TABLE_REQUEST: u8 = 16;
const T_TABLE_REPLY: u8 = 17;

/// FlowMod operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModOp {
    /// Install (or replace same priority+match).
    Add,
    /// Remove the exact priority+match.
    Delete,
}

/// A control-channel message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfMessage {
    /// Version negotiation / switch greeting.
    Hello {
        /// The switch's datapath id.
        datapath_id: u64,
    },
    /// Data packet punted to the controller.
    PacketIn {
        /// Ingress port (raw link id).
        ingress: u32,
        /// The packet.
        packet: DataPacket,
    },
    /// Flow table programming.
    FlowMod {
        /// Add or delete.
        op: FlowModOp,
        /// The rule (for delete, priority+prefix select the victim).
        rule: FlowRule,
    },
    /// Port up/down notification.
    PortStatus {
        /// Affected port (raw link id).
        port: u32,
        /// New state.
        up: bool,
    },
    /// Controller asks for a full flow-table + port-state dump (the
    /// OF stats-request role, used when resyncing after an outage).
    TableRequest {
        /// Transaction id echoed in the reply.
        xid: u32,
    },
    /// Switch dumps its installed rules and current port states.
    TableReply {
        /// Transaction id from the request.
        xid: u32,
        /// Every installed flow rule.
        rules: Vec<FlowRule>,
        /// `(raw link id, operationally up)` for every port.
        ports: Vec<(u32, bool)>,
    },
}

fn encode_packet(w: &mut Writer, p: &DataPacket) {
    w.ipv4(p.src);
    w.ipv4(p.dst);
    w.bytes(&p.id.to_be_bytes());
    w.u8(p.ttl);
    match p.kind {
        PacketKind::EchoRequest => {
            w.u8(0);
            w.u16(0);
        }
        PacketKind::EchoReply => {
            w.u8(1);
            w.u16(0);
        }
        PacketKind::Payload(n) => {
            w.u8(2);
            w.u16(n);
        }
    }
}

fn decode_packet(r: &mut Reader<'_>) -> Result<DataPacket, CodecError> {
    let src = r.ipv4("pkt src")?;
    let dst = r.ipv4("pkt dst")?;
    let id_bytes = r.take(8, "pkt id")?;
    let id = u64::from_be_bytes(id_bytes.try_into().expect("8 bytes"));
    let ttl = r.u8("pkt ttl")?;
    let kind_tag = r.u8("pkt kind")?;
    let size = r.u16("pkt size")?;
    let kind = match kind_tag {
        0 => PacketKind::EchoRequest,
        1 => PacketKind::EchoReply,
        2 => PacketKind::Payload(size),
        _ => {
            return Err(CodecError::BadAttribute {
                code: kind_tag,
                reason: "unknown packet kind",
            })
        }
    };
    Ok(DataPacket {
        src,
        dst,
        id,
        ttl,
        kind,
    })
}

fn encode_action(w: &mut Writer, a: FlowAction) {
    match a {
        FlowAction::Output(port) => {
            w.u8(0);
            w.u32(port);
        }
        FlowAction::ToController => {
            w.u8(1);
            w.u32(0);
        }
        FlowAction::Drop => {
            w.u8(2);
            w.u32(0);
        }
        FlowAction::Local => {
            w.u8(3);
            w.u32(0);
        }
    }
}

fn decode_action(r: &mut Reader<'_>) -> Result<FlowAction, CodecError> {
    let tag = r.u8("action tag")?;
    let port = r.u32("action port")?;
    Ok(match tag {
        0 => FlowAction::Output(port),
        1 => FlowAction::ToController,
        2 => FlowAction::Drop,
        3 => FlowAction::Local,
        _ => {
            return Err(CodecError::BadAttribute {
                code: tag,
                reason: "unknown flow action",
            })
        }
    })
}

impl OfMessage {
    /// Encode with the OpenFlow header (version, type, length, xid).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(OF_VERSION);
        let (ty, xid) = match self {
            OfMessage::Hello { .. } => (T_HELLO, 0),
            OfMessage::PacketIn { .. } => (T_PACKET_IN, 0),
            OfMessage::FlowMod { .. } => (T_FLOW_MOD, 0),
            OfMessage::PortStatus { .. } => (T_PORT_STATUS, 0),
            OfMessage::TableRequest { xid } => (T_TABLE_REQUEST, *xid),
            OfMessage::TableReply { xid, .. } => (T_TABLE_REPLY, *xid),
        };
        w.u8(ty);
        w.u16(0); // length, patched
        w.u32(xid);
        match self {
            OfMessage::Hello { datapath_id } => w.bytes(&datapath_id.to_be_bytes()),
            OfMessage::TableRequest { .. } => {}
            OfMessage::PacketIn { ingress, packet } => {
                w.u32(*ingress);
                encode_packet(&mut w, packet);
            }
            OfMessage::FlowMod { op, rule } => {
                w.u8(match op {
                    FlowModOp::Add => 0,
                    FlowModOp::Delete => 3,
                });
                w.u16(rule.priority);
                w.nlri_prefix(rule.prefix);
                encode_action(&mut w, rule.action);
                w.bytes(&rule.cookie.to_be_bytes());
            }
            OfMessage::PortStatus { port, up } => {
                w.u32(*port);
                w.u8(u8::from(*up));
            }
            OfMessage::TableReply { rules, ports, .. } => {
                w.u16(rules.len() as u16);
                for rule in rules {
                    w.u16(rule.priority);
                    w.nlri_prefix(rule.prefix);
                    encode_action(&mut w, rule.action);
                    w.bytes(&rule.cookie.to_be_bytes());
                }
                w.u16(ports.len() as u16);
                for (port, up) in ports {
                    w.u32(*port);
                    w.u8(u8::from(*up));
                }
            }
        }
        let len = w.len();
        w.patch_u16(2, len as u16);
        w.into_bytes()
    }

    /// Decode a message; the buffer must span exactly one message.
    pub fn decode(bytes: &[u8]) -> Result<OfMessage, CodecError> {
        let mut r = Reader::new(bytes);
        let version = r.u8("of version")?;
        if version != OF_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let ty = r.u8("of type")?;
        let len = r.u16("of length")?;
        if len as usize != bytes.len() {
            return Err(CodecError::BadLength(len));
        }
        let xid = r.u32("of xid")?;
        let msg = match ty {
            T_HELLO => {
                let dp = r.take(8, "datapath id")?;
                OfMessage::Hello {
                    datapath_id: u64::from_be_bytes(dp.try_into().expect("8 bytes")),
                }
            }
            T_PACKET_IN => OfMessage::PacketIn {
                ingress: r.u32("ingress")?,
                packet: decode_packet(&mut r)?,
            },
            T_FLOW_MOD => {
                let op = match r.u8("flowmod op")? {
                    0 => FlowModOp::Add,
                    3 => FlowModOp::Delete,
                    other => {
                        return Err(CodecError::BadAttribute {
                            code: other,
                            reason: "unknown flowmod op",
                        })
                    }
                };
                let priority = r.u16("priority")?;
                let prefix: Prefix = r.nlri_prefix()?;
                let action = decode_action(&mut r)?;
                let cookie_bytes = r.take(8, "cookie")?;
                OfMessage::FlowMod {
                    op,
                    rule: FlowRule {
                        priority,
                        prefix,
                        action,
                        cookie: u64::from_be_bytes(cookie_bytes.try_into().expect("8 bytes")),
                    },
                }
            }
            T_PORT_STATUS => OfMessage::PortStatus {
                port: r.u32("port")?,
                up: r.u8("port state")? != 0,
            },
            T_TABLE_REQUEST => OfMessage::TableRequest { xid },
            T_TABLE_REPLY => {
                let n = r.u16("rule count")? as usize;
                let mut rules = Vec::with_capacity(n);
                for _ in 0..n {
                    let priority = r.u16("priority")?;
                    let prefix: Prefix = r.nlri_prefix()?;
                    let action = decode_action(&mut r)?;
                    let cookie_bytes = r.take(8, "cookie")?;
                    rules.push(FlowRule {
                        priority,
                        prefix,
                        action,
                        cookie: u64::from_be_bytes(cookie_bytes.try_into().expect("8 bytes")),
                    });
                }
                let np = r.u16("port count")? as usize;
                let mut ports = Vec::with_capacity(np);
                for _ in 0..np {
                    let port = r.u32("port")?;
                    let up = r.u8("port state")? != 0;
                    ports.push((port, up));
                }
                OfMessage::TableReply { xid, rules, ports }
            }
            other => return Err(CodecError::BadMessageType(other)),
        };
        if !r.is_empty() {
            return Err(CodecError::TrailingBytes(r.remaining()));
        }
        Ok(msg)
    }
}

/// An encoded OpenFlow message in flight on the control channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfEnvelope {
    /// Encoded bytes.
    pub bytes: Vec<u8>,
    /// Causal lineage riding alongside the wire bytes (never encoded,
    /// never counted in `OfEnvelope::wire_len`); [`Cause::NONE`] when
    /// causal tracing is off.
    pub cause: Cause,
}

impl OfEnvelope {
    /// Encode a message with no causal lineage.
    pub fn new(msg: &OfMessage) -> OfEnvelope {
        OfEnvelope {
            bytes: msg.encode(),
            cause: Cause::NONE,
        }
    }

    /// Encode a message carrying causal lineage.
    pub fn with_cause(msg: &OfMessage, cause: Cause) -> OfEnvelope {
        OfEnvelope {
            bytes: msg.encode(),
            cause,
        }
    }

    /// Decode the carried message.
    pub fn decode(&self) -> Result<OfMessage, CodecError> {
        OfMessage::decode(&self.bytes)
    }

    /// On-wire size (payload plus nominal TCP/IP overhead).
    pub(crate) fn wire_len(&self) -> usize {
        self.bytes.len() + 40
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_bgp::pfx;
    use std::net::Ipv4Addr;

    fn roundtrip(m: OfMessage) {
        let bytes = m.encode();
        assert_eq!(OfMessage::decode(&bytes).expect("decode"), m);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(OfMessage::Hello {
            datapath_id: 0xDEADBEEF,
        });
        let pkt =
            DataPacket::echo_request(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 0, 1), 123);
        roundtrip(OfMessage::PacketIn {
            ingress: 4,
            packet: pkt,
        });
        roundtrip(OfMessage::FlowMod {
            op: FlowModOp::Add,
            rule: FlowRule {
                priority: 100,
                prefix: pfx("10.2.0.0/16"),
                action: FlowAction::Output(5),
                cookie: 42,
            },
        });
        roundtrip(OfMessage::FlowMod {
            op: FlowModOp::Delete,
            rule: FlowRule {
                priority: 1,
                prefix: pfx("0.0.0.0/0"),
                action: FlowAction::Drop,
                cookie: 0,
            },
        });
        roundtrip(OfMessage::PortStatus { port: 9, up: false });
        roundtrip(OfMessage::TableRequest { xid: 11 });
        roundtrip(OfMessage::TableReply {
            xid: 11,
            rules: vec![
                FlowRule {
                    priority: 100,
                    prefix: pfx("10.2.0.0/16"),
                    action: FlowAction::Output(5),
                    cookie: 42,
                },
                FlowRule {
                    priority: 1,
                    prefix: pfx("0.0.0.0/0"),
                    action: FlowAction::ToController,
                    cookie: 0,
                },
            ],
            ports: vec![(0, true), (3, false), (17, true)],
        });
        roundtrip(OfMessage::TableReply {
            xid: 0,
            rules: vec![],
            ports: vec![],
        });
    }

    #[test]
    fn header_carries_version_and_length() {
        let bytes = OfMessage::TableRequest { xid: 1 }.encode();
        assert_eq!(bytes[0], OF_VERSION);
        assert_eq!(
            u16::from_be_bytes([bytes[2], bytes[3]]) as usize,
            bytes.len()
        );
    }

    #[test]
    fn bad_version_and_truncation_rejected() {
        let mut bytes = OfMessage::TableRequest { xid: 1 }.encode();
        bytes[0] = 9;
        assert!(matches!(
            OfMessage::decode(&bytes),
            Err(CodecError::BadVersion(9))
        ));

        let bytes = OfMessage::Hello { datapath_id: 1 }.encode();
        for cut in 0..bytes.len() {
            assert!(OfMessage::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn envelope_wraps() {
        let m = OfMessage::TableRequest { xid: 3 };
        let env = OfEnvelope::new(&m);
        assert_eq!(env.decode().unwrap(), m);
        assert_eq!(env.wire_len(), env.bytes.len() + 40);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = OfMessage::TableRequest { xid: 1 }.encode();
        bytes[1] = 200;
        assert!(matches!(
            OfMessage::decode(&bytes),
            Err(CodecError::BadMessageType(200))
        ));
    }
}
