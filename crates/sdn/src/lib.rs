//! # bgpsdn-sdn — OpenFlow-subset switches and the cluster BGP speaker
//!
//! The SDN substrate of the hybrid framework: what Open vSwitch + ExaBGP
//! provide in the paper's stack.
//!
//! * [`flowtable`]: priority + longest-prefix flow tables;
//! * [`openflow`]: an OpenFlow-1.0-subset control protocol with a real wire
//!   codec (Hello, FlowMod, PacketIn, PortStatus, and the table dump a
//!   resync reads);
//! * [`switch`]: the switch node — data-plane forwarding, controller
//!   channel, and the control-plane relay that carries BGP envelopes
//!   between external routers and the speaker over the switches;
//! * [`speaker`]: the cluster BGP speaker terminating eBGP *as* each
//!   cluster member (alias sessions), exposing an ExaBGP-style structured
//!   API to the controller;
//! * [`channel`]: [`ChannelEnd`], what each side of the speaker↔controller
//!   channel holds: go-back-N (sequencing, cumulative acks, retransmit
//!   backoff), heartbeats and the hold timer;
//! * [`app`]: the [`ClusterMsg`] hybrid message type and the
//!   speaker↔controller API types.

#![warn(missing_docs)]

pub mod app;
pub mod channel;
pub mod flowtable;
pub mod openflow;
pub mod speaker;
pub mod switch;

pub use app::{
    ClusterMsg, CtrlMsg, SdnApp, SessionSync, SpeakerCmd, SpeakerEvent, SpeakerSyncState,
};
pub use channel::ChannelEnd;
pub use flowtable::{FlowAction, FlowRule, FlowTable};
pub use openflow::{FlowModOp, OfEnvelope, OfMessage};
pub use speaker::{AliasSessionConfig, ClusterSpeaker};
pub use switch::{SdnSwitch, SwitchStats};
