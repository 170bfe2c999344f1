//! # bgpsdn-bgp — a from-scratch BGP-4 implementation for the emulation framework
//!
//! This crate is the framework's Quagga replacement: a complete, deterministic
//! BGP-4 speaker that runs inside the [`bgpsdn_netsim`] discrete-event
//! simulator. It provides:
//!
//! * the RFC 4271 **wire codec** ([`msg`], [`attrs`], [`wire`]) — every
//!   message that crosses a simulated link is encoded to and decoded from
//!   real BGP bytes;
//! * the **session FSM** ([`fsm`]) and the one **session driver**
//!   ([`session`]) every router, cluster speaker and route collector
//!   session runs on;
//! * the three **RIBs** ([`rib`]) and the RFC 4271 §9.1 **decision process**
//!   ([`decision`]); a route's attributes are decoded once and handed from
//!   stage to stage by [`SharedAttrs`] handle;
//! * **policy** ([`policy`]): Gao–Rexford relationship templates (the
//!   paper's customer-to-provider / peer-to-peer configuration) and
//!   Quagga-style route maps;
//! * the event-driven **router node** ([`router`]) with jittered MRAI
//!   pacing, per-UPDATE processing delay, loop detection, route-flap
//!   damping and graceful-restart retention.

#![warn(missing_docs)]

pub mod attrs;
pub mod config;
pub mod damping;
pub mod decision;
pub mod envelope;
pub mod fsm;
pub mod inline;
pub mod msg;
pub mod policy;
pub mod rib;
pub mod router;
pub mod session;
pub mod types;
pub mod wire;

pub use attrs::{AsPath, Community, Origin, PathAttributes, RareAttrs, Segment, SharedAttrs};
pub use config::{NeighborConfig, RouterConfig, TimingConfig};
pub use damping::{DampingConfig, DampingState};
pub use decision::{Candidate, DecisionConfig};
pub use envelope::{BgpApp, BgpEnvelope, BgpOnlyMsg, RouterCommand, WireBytes};
pub use fsm::{CloseReason, SessionState};
pub use inline::InlineVec;
pub use msg::{BgpMessage, Capability, NotifCode, NotificationMsg, OpenMsg, PrefixList, UpdateMsg};
pub use policy::{
    export_allowed, import_allowed, import_local_pref, MatchCond, PolicyMode, Relationship,
    RouteMap, Rule, SetAction,
};
pub use rib::{AdjRibIn, AdjRibOut, LocRib, LocRibEntry, PeerIdx, RibInEntry, RouteSource};
pub use router::{BgpRouter, RouterStats};
pub use session::{SessionConfig, SessionOwner, Sessions};
pub use types::{pfx, Asn, Prefix, PrefixError, RouterId, SharedPath};
pub use wire::CodecError;
