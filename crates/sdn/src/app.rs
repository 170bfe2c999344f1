//! Glue between the SDN components and the simulator's message type,
//! plus the structured speaker↔controller API.
//!
//! The cluster BGP speaker exposes the controller-facing API that ExaBGP
//! provides in the paper's framework: session lifecycle events and decoded
//! route updates flow up ([`SpeakerEvent`]); announce/withdraw instructions
//! flow down ([`SpeakerCmd`]). Both travel only inside the reliable
//! [`CtrlMsg`] channel, never as bare messages.

use bgpsdn_bgp::{Asn, Prefix, SharedPath, UpdateMsg};
use bgpsdn_netsim::{Cause, Message};

use crate::openflow::OfEnvelope;

/// Upward API: what the speaker tells the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpeakerEvent {
    /// An alias session reached Established.
    SessionUp {
        /// Speaker-local session index.
        session: usize,
        /// The external peer's ASN (from its OPEN).
        peer_asn: Asn,
    },
    /// An alias session closed.
    SessionDown {
        /// Speaker-local session index.
        session: usize,
    },
    /// A decoded UPDATE arrived on a session.
    Update {
        /// Speaker-local session index.
        session: usize,
        /// The decoded message, boxed: its inline prefix lists would
        /// otherwise make this the variant that sizes every queued event.
        update: Box<UpdateMsg>,
        /// Causal lineage of the update (survives channel retransmission;
        /// [`Cause::NONE`] when causal tracing is off). Not counted in
        /// wire sizes.
        cause: Cause,
    },
}

/// Downward API: what the controller tells the speaker to say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpeakerCmd {
    /// Announce `prefix` on `session` with the given AS path (the egress
    /// member's ASN must already be prepended — cluster members keep their
    /// AS identity toward the legacy world).
    Announce {
        /// Speaker-local session index.
        session: usize,
        /// Prefix to advertise.
        prefix: Prefix,
        /// Full AS path to send (interned: cloning a command is a refcount
        /// bump, not a path copy).
        as_path: SharedPath,
        /// Optional MED.
        med: Option<u32>,
        /// Causal lineage ([`Cause::NONE`] when causal tracing is off).
        cause: Cause,
    },
    /// Withdraw `prefix` on `session`.
    Withdraw {
        /// Speaker-local session index.
        session: usize,
        /// Prefix to withdraw.
        prefix: Prefix,
        /// Causal lineage ([`Cause::NONE`] when causal tracing is off).
        cause: Cause,
    },
}

/// Snapshot of one alias session, replayed to the controller during a
/// full-state resync.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionSync {
    /// Whether the session is currently Established.
    pub established: bool,
    /// The external peer's ASN (known once Established).
    pub peer_asn: Option<Asn>,
    /// Routes learned from the peer and still valid (Adj-RIB-In).
    pub adj_in: Vec<(Prefix, SharedPath, Option<u32>)>,
    /// Routes the speaker has advertised to the peer (Adj-RIB-Out), so the
    /// controller can diff its desired advertisements against reality
    /// instead of blindly re-announcing.
    pub adj_out: Vec<(Prefix, SharedPath, Option<u32>)>,
}

/// Full speaker state replayed to the controller on resync, indexed by
/// speaker-local session index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpeakerSyncState {
    /// One entry per alias session, in session-index order.
    pub sessions: Vec<SessionSync>,
}

/// Reliable speaker↔controller control-channel message.
///
/// Payload-bearing messages ([`CtrlMsg::Event`], [`CtrlMsg::Sync`],
/// [`CtrlMsg::Cmd`]) carry `(epoch, seq)` and are retransmitted until
/// cumulatively acknowledged; acks and heartbeats are fire-and-forget.
/// Epochs are owned by the speaker: each resync starts a new epoch whose
/// first message is the [`CtrlMsg::Sync`] snapshot itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Speaker → controller: a session event, reliably delivered.
    Event {
        /// Resync epoch this event belongs to.
        epoch: u64,
        /// Per-epoch sequence number, from 1.
        seq: u64,
        /// The event.
        event: SpeakerEvent,
    },
    /// Speaker → controller: full-state snapshot opening a new epoch.
    Sync {
        /// The new epoch (greater than any prior epoch of this speaker).
        epoch: u64,
        /// Per-epoch sequence number (always 1: the Sync opens the epoch).
        seq: u64,
        /// The snapshot.
        state: SpeakerSyncState,
    },
    /// Controller → speaker: a command, reliably delivered.
    Cmd {
        /// Epoch the controller believes is current; the speaker drops
        /// commands from stale epochs.
        epoch: u64,
        /// Per-epoch sequence number, from 1.
        seq: u64,
        /// The command.
        cmd: SpeakerCmd,
    },
    /// Controller → speaker: cumulative ack of events/syncs up to `seq`.
    EventAck {
        /// Epoch being acknowledged.
        epoch: u64,
        /// Highest in-order sequence received.
        seq: u64,
    },
    /// Speaker → controller: cumulative ack of commands up to `seq`.
    CmdAck {
        /// Epoch being acknowledged.
        epoch: u64,
        /// Highest in-order sequence received.
        seq: u64,
    },
    /// Periodic liveness probe; carries the sender's current epoch so an
    /// epoch mismatch is detected even across idle periods.
    Heartbeat {
        /// True when the controller sent it, false for the speaker.
        from_controller: bool,
        /// The sender's current epoch (0 = controller unsynced).
        epoch: u64,
    },
}

impl CtrlMsg {
    /// The epoch carried by this message.
    pub(crate) fn epoch(&self) -> u64 {
        match self {
            CtrlMsg::Event { epoch, .. }
            | CtrlMsg::Sync { epoch, .. }
            | CtrlMsg::Cmd { epoch, .. }
            | CtrlMsg::EventAck { epoch, .. }
            | CtrlMsg::CmdAck { epoch, .. }
            | CtrlMsg::Heartbeat { epoch, .. } => *epoch,
        }
    }

    /// The sequence number, when the message is sequenced (payload or ack).
    pub(crate) fn seq(&self) -> Option<u64> {
        match self {
            CtrlMsg::Event { seq, .. }
            | CtrlMsg::Sync { seq, .. }
            | CtrlMsg::Cmd { seq, .. }
            | CtrlMsg::EventAck { seq, .. }
            | CtrlMsg::CmdAck { seq, .. } => Some(*seq),
            CtrlMsg::Heartbeat { .. } => None,
        }
    }

    /// Modeled wire size: the ExaBGP-style JSON line plus the reliability
    /// header for payloads, a small fixed frame for acks and heartbeats,
    /// and a per-route cost for snapshots.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            CtrlMsg::Event { .. } | CtrlMsg::Cmd { .. } => 144,
            CtrlMsg::EventAck { .. } | CtrlMsg::CmdAck { .. } | CtrlMsg::Heartbeat { .. } => 32,
            CtrlMsg::Sync { state, .. } => {
                let routes: usize = state
                    .sessions
                    .iter()
                    .map(|s| s.adj_in.len() + s.adj_out.len())
                    .sum();
                64 + state.sessions.len() * 16 + routes * 32
            }
        }
    }
}

/// Implemented by the application's simulator message enum so SDN nodes
/// (switches, speaker, controller) can speak over it.
pub trait SdnApp: Message {
    /// Wrap an encoded OpenFlow message.
    fn from_of(env: OfEnvelope) -> Self;
    /// Unwrap an encoded OpenFlow message.
    fn as_of(&self) -> Option<&OfEnvelope>;
    /// Wrap a reliable control-channel message.
    fn from_ctrl(m: CtrlMsg) -> Self;
    /// Unwrap a reliable control-channel message.
    fn as_ctrl(&self) -> Option<&CtrlMsg>;
    /// Consume the message if it is an OpenFlow envelope; hand it back
    /// otherwise. Lets dispatch take ownership instead of cloning.
    fn into_of(self) -> Result<OfEnvelope, Self>
    where
        Self: Sized;
    /// Consume the message if it is a reliable control-channel message;
    /// hand it back otherwise.
    fn into_ctrl(self) -> Result<CtrlMsg, Self>
    where
        Self: Sized;
}

/// The complete hybrid-experiment message type: everything that can cross a
/// link in a BGP+SDN emulation. This is the message type the framework crate
/// instantiates the simulator with.
#[derive(Debug, Clone)]
pub enum ClusterMsg {
    /// BGP wire traffic.
    Bgp(bgpsdn_bgp::BgpEnvelope),
    /// Experiment-driver command to a router.
    Command(bgpsdn_bgp::RouterCommand),
    /// Data-plane packet.
    Data(bgpsdn_netsim::DataPacket),
    /// OpenFlow control-channel traffic.
    Of(OfEnvelope),
    /// Reliable speaker↔controller control-channel traffic.
    Ctrl(CtrlMsg),
}

impl Message for ClusterMsg {
    fn wire_len(&self) -> usize {
        match self {
            ClusterMsg::Bgp(env) => env.wire_len(),
            ClusterMsg::Command(_) => 0,
            ClusterMsg::Data(p) => p.wire_len(),
            ClusterMsg::Of(env) => env.wire_len(),
            ClusterMsg::Ctrl(m) => m.wire_len(),
        }
    }
}

impl bgpsdn_netsim::DataApp for ClusterMsg {
    fn from_data(p: bgpsdn_netsim::DataPacket) -> Self {
        ClusterMsg::Data(p)
    }
    fn as_data(&self) -> Option<&bgpsdn_netsim::DataPacket> {
        match self {
            ClusterMsg::Data(p) => Some(p),
            _ => None,
        }
    }
}

impl bgpsdn_bgp::BgpApp for ClusterMsg {
    fn from_bgp(env: bgpsdn_bgp::BgpEnvelope) -> Self {
        ClusterMsg::Bgp(env)
    }
    fn as_bgp(&self) -> Option<&bgpsdn_bgp::BgpEnvelope> {
        match self {
            ClusterMsg::Bgp(env) => Some(env),
            _ => None,
        }
    }
    fn from_command(cmd: bgpsdn_bgp::RouterCommand) -> Self {
        ClusterMsg::Command(cmd)
    }
    fn as_command(&self) -> Option<&bgpsdn_bgp::RouterCommand> {
        match self {
            ClusterMsg::Command(c) => Some(c),
            _ => None,
        }
    }
    fn into_bgp(self) -> Result<bgpsdn_bgp::BgpEnvelope, Self> {
        match self {
            ClusterMsg::Bgp(env) => Ok(env),
            other => Err(other),
        }
    }
    fn into_command(self) -> Result<bgpsdn_bgp::RouterCommand, Self> {
        match self {
            ClusterMsg::Command(c) => Ok(c),
            other => Err(other),
        }
    }
}

impl SdnApp for ClusterMsg {
    fn from_of(env: OfEnvelope) -> Self {
        ClusterMsg::Of(env)
    }
    fn as_of(&self) -> Option<&OfEnvelope> {
        match self {
            ClusterMsg::Of(env) => Some(env),
            _ => None,
        }
    }
    fn from_ctrl(m: CtrlMsg) -> Self {
        ClusterMsg::Ctrl(m)
    }
    fn as_ctrl(&self) -> Option<&CtrlMsg> {
        match self {
            ClusterMsg::Ctrl(m) => Some(m),
            _ => None,
        }
    }
    fn into_of(self) -> Result<OfEnvelope, Self> {
        match self {
            ClusterMsg::Of(env) => Ok(env),
            other => Err(other),
        }
    }
    fn into_ctrl(self) -> Result<CtrlMsg, Self> {
        match self {
            ClusterMsg::Ctrl(m) => Ok(m),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// Every queued simulator event is one `EventBody<ClusterMsg>`, so its
    /// size (64-bit) is what the event queue pays per entry: two cache
    /// lines, most of them the BGP envelope with its wire bytes inline. A
    /// variant that outgrows the envelope shows up here before it shows up
    /// in a profile (bounds, not equalities: where the enum tags go is the
    /// compiler's choice).
    #[test]
    fn a_queued_event_keeps_its_size() {
        use std::mem::size_of;
        assert!(size_of::<CtrlMsg>() <= 96);
        assert!(size_of::<ClusterMsg>() <= 112);
        assert!(size_of::<bgpsdn_netsim::EventBody<ClusterMsg>>() <= 128);
    }

    #[test]
    fn ctrl_msg_accessors() {
        let hb = CtrlMsg::Heartbeat {
            from_controller: true,
            epoch: 3,
        };
        assert_eq!(hb.epoch(), 3);
        assert_eq!(hb.seq(), None);
        assert_eq!(hb.wire_len(), 32);

        let ev = CtrlMsg::Event {
            epoch: 2,
            seq: 9,
            event: SpeakerEvent::SessionDown { session: 0 },
        };
        assert_eq!(ev.epoch(), 2);
        assert_eq!(ev.seq(), Some(9));
        assert_eq!(ev.wire_len(), 144);
    }

    #[test]
    fn sync_wire_len_scales_with_contents() {
        use bgpsdn_bgp::pfx;
        let empty = CtrlMsg::Sync {
            epoch: 2,
            seq: 1,
            state: SpeakerSyncState::default(),
        };
        let one_route = CtrlMsg::Sync {
            epoch: 2,
            seq: 1,
            state: SpeakerSyncState {
                sessions: vec![SessionSync {
                    established: true,
                    peer_asn: Some(Asn(65001)),
                    adj_in: vec![(pfx("10.0.0.0/8"), SharedPath::from(vec![Asn(65001)]), None)],
                    adj_out: vec![],
                }],
            },
        };
        assert!(one_route.wire_len() > empty.wire_len());
    }

    #[test]
    fn cluster_msg_ctrl_roundtrips() {
        let m = ClusterMsg::from_ctrl(CtrlMsg::EventAck { epoch: 1, seq: 5 });
        assert_eq!(m.wire_len(), 32);
        assert!(m.as_ctrl().is_some());
        let back = m.into_ctrl().expect("ctrl");
        assert_eq!(back, CtrlMsg::EventAck { epoch: 1, seq: 5 });
        assert!(ClusterMsg::Data(bgpsdn_netsim::DataPacket::echo_request(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
        ))
        .into_ctrl()
        .is_err());
    }
}
