//! Glue between BGP and the simulator's message type.
//!
//! BGP messages travel as [`BgpEnvelope`]s: real RFC 4271 wire bytes plus
//! logical source/destination node ids. Logical addressing matters because
//! the SDN cluster relays control-plane traffic: an external router's
//! physical neighbor may be a switch while the logical session endpoint is
//! the cluster BGP speaker answering *as* a member AS.
//!
//! The application's simulator message type implements [`BgpApp`] so that the
//! router, speaker and collector nodes (which are generic over it) can wrap
//! and unwrap their traffic.

use bgpsdn_netsim::{Cause, DataApp, DataPacket, Message, NodeId};

use crate::inline::InlineVec;
use crate::msg::BgpMessage;
use crate::types::Prefix;
use crate::wire::{CodecError, Writer};

/// The encoded bytes of one message. Up to 64 ride inside the envelope —
/// and so inside the queued event — which covers a one-prefix UPDATE with
/// a path of up to 5 hops (42 bytes + 4 per hop: the 54–62 byte mode of
/// the hierarchy workloads), every KEEPALIVE and the standard OPEN; longer
/// messages spill to one exact-size heap vector.
pub type WireBytes = InlineVec<u8, 64>;

/// A BGP message in flight: wire bytes plus logical endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpEnvelope {
    /// Logical sender (the session endpoint identity, not necessarily the
    /// physical neighbor).
    pub src: NodeId,
    /// Logical receiver.
    pub dst: NodeId,
    /// Encoded BGP message (header included).
    pub bytes: WireBytes,
    /// Causal lineage riding alongside the wire bytes (never encoded, never
    /// counted in [`BgpEnvelope::wire_len`]); [`Cause::NONE`] when causal
    /// tracing is off.
    pub cause: Cause,
}

impl BgpEnvelope {
    /// Encode `msg` into an envelope with no causal lineage.
    // detlint: allow test-oracle encodes the messages the session tests inject
    pub fn new(src: NodeId, dst: NodeId, msg: &BgpMessage) -> Self {
        BgpEnvelope {
            src,
            dst,
            bytes: msg.encode().into(),
            cause: Cause::NONE,
        }
    }

    /// Encode `msg` into an envelope carrying causal lineage, through a
    /// caller-owned scratch writer. The session driver keeps one
    /// [`Writer`] per node, so a message that fits
    /// [`WireBytes`] inline is sent without allocating and a longer one
    /// with a single exact-size allocation.
    // detlint: allow test-oracle encoder proptest_codec checks against BgpEnvelope::new
    pub fn with_cause_scratch(
        src: NodeId,
        dst: NodeId,
        msg: &BgpMessage,
        cause: Cause,
        scratch: &mut Writer,
    ) -> Self {
        msg.encode_into(scratch);
        BgpEnvelope {
            src,
            dst,
            bytes: WireBytes::from_slice(scratch.as_bytes()),
            cause,
        }
    }

    /// Decode the carried message.
    pub(crate) fn decode(&self) -> Result<BgpMessage, CodecError> {
        BgpMessage::decode(&self.bytes)
    }

    /// Bytes on the wire: payload plus a nominal addressing overhead
    /// (IP + TCP headers).
    pub fn wire_len(&self) -> usize {
        self.bytes.len() + 40
    }
}

/// Experiment-driver commands injected into a router (the framework's
/// equivalents of the paper's "Mininet-BGP commands").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterCommand {
    /// Originate a prefix (like `network <prefix>` appearing at runtime).
    Announce(Prefix),
    /// Stop originating a prefix.
    Withdraw(Prefix),
    /// Administratively reset the session with the given logical peer.
    ResetSession(NodeId),
    /// Send a ROUTE-REFRESH request to the given peer (RFC 2918), asking it
    /// to re-advertise its full table.
    RequestRefresh(NodeId),
}

/// Implemented by the application's simulator message enum so BGP nodes can
/// speak over it.
pub trait BgpApp: Message + DataApp {
    /// Wrap an envelope.
    fn from_bgp(env: BgpEnvelope) -> Self;
    /// Unwrap an envelope.
    fn as_bgp(&self) -> Option<&BgpEnvelope>;
    /// Take the envelope out of the message, or give the message back —
    /// lets dispatch paths consume their payload without a defensive clone.
    fn into_bgp(self) -> Result<BgpEnvelope, Self>
    where
        Self: Sized;
    /// Wrap a driver command.
    fn from_command(cmd: RouterCommand) -> Self;
    /// Unwrap a driver command.
    fn as_command(&self) -> Option<&RouterCommand>;
    /// Take the driver command out of the message, or give the message back.
    fn into_command(self) -> Result<RouterCommand, Self>
    where
        Self: Sized;
}

/// A minimal message type for tests and single-protocol simulations that
/// carry only BGP traffic.
#[derive(Debug, Clone)]
pub enum BgpOnlyMsg {
    /// BGP traffic.
    Bgp(BgpEnvelope),
    /// Driver command.
    Command(RouterCommand),
    /// Data-plane packet.
    Data(DataPacket),
}

impl Message for BgpOnlyMsg {
    fn wire_len(&self) -> usize {
        match self {
            BgpOnlyMsg::Bgp(env) => env.wire_len(),
            BgpOnlyMsg::Command(_) => 0,
            BgpOnlyMsg::Data(p) => p.wire_len(),
        }
    }
}

impl DataApp for BgpOnlyMsg {
    fn from_data(p: DataPacket) -> Self {
        BgpOnlyMsg::Data(p)
    }
    fn as_data(&self) -> Option<&DataPacket> {
        match self {
            BgpOnlyMsg::Data(p) => Some(p),
            _ => None,
        }
    }
}

impl BgpApp for BgpOnlyMsg {
    fn from_bgp(env: BgpEnvelope) -> Self {
        BgpOnlyMsg::Bgp(env)
    }
    fn as_bgp(&self) -> Option<&BgpEnvelope> {
        match self {
            BgpOnlyMsg::Bgp(env) => Some(env),
            _ => None,
        }
    }
    fn into_bgp(self) -> Result<BgpEnvelope, Self> {
        match self {
            BgpOnlyMsg::Bgp(env) => Ok(env),
            other => Err(other),
        }
    }
    fn from_command(cmd: RouterCommand) -> Self {
        BgpOnlyMsg::Command(cmd)
    }
    fn as_command(&self) -> Option<&RouterCommand> {
        match self {
            BgpOnlyMsg::Command(c) => Some(c),
            _ => None,
        }
    }
    fn into_command(self) -> Result<RouterCommand, Self> {
        match self {
            BgpOnlyMsg::Command(c) => Ok(c),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip() {
        let env = BgpEnvelope::new(NodeId(1), NodeId(2), &BgpMessage::Keepalive);
        assert_eq!(env.decode().unwrap(), BgpMessage::Keepalive);
        assert_eq!(env.wire_len(), 19 + 40);
    }

    #[test]
    fn bgp_only_msg_wraps() {
        let env = BgpEnvelope::new(NodeId(1), NodeId(2), &BgpMessage::Keepalive);
        let m = BgpOnlyMsg::from_bgp(env.clone());
        assert_eq!(m.as_bgp(), Some(&env));
        assert!(m.as_command().is_none());
        assert_eq!(m.wire_len(), env.wire_len());

        let c = BgpOnlyMsg::from_command(RouterCommand::Withdraw(crate::types::pfx("10.0.0.0/8")));
        assert!(c.as_bgp().is_none());
        assert!(matches!(c.as_command(), Some(RouterCommand::Withdraw(_))));
    }
}
