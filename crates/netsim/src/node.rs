//! Node and message abstractions.
//!
//! A [`Node`] is anything attached to the simulated network: a BGP router, an
//! OpenFlow switch, the IDR controller, a route collector, a traffic host.
//! Nodes are event-driven: the simulator invokes the `on_*` callbacks and the
//! node reacts through the [`Ctx`] handed to it — sending
//! messages on links, arming timers, recording activity. Nodes never touch
//! the simulator directly, which keeps every run deterministic.

use std::any::Any;
use std::fmt;

use crate::link::LinkId;
use crate::sim::Ctx;
use crate::stats::Counters;

/// Identifier of a node, dense from zero in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into simulator-internal vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Application-chosen identifier for a timer, handed back to
/// [`Node::on_timer`]. There are two kinds of timer. A *named* timer
/// ([`Ctx::set_timer`]) is one logical timer per node and token, e.g. "MRAI
/// toward peer 7": setting it while armed re-arms it (the earlier instance is
/// cancelled), and its token is a small dense integer, below
/// [`NAMED_TIMER_TOKENS`](crate::NAMED_TIMER_TOKENS). A *one-shot* firing
/// ([`Ctx::schedule_timer`]) runs once and cannot be re-armed or cancelled;
/// its token is any value the node finds useful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Scheduling class of a timer, used for quiescence detection.
///
/// `Progress` timers represent pending protocol work (MRAI expiry, delayed
/// route recomputation, scenario steps): while any is armed the network has
/// not converged. `Maintenance` timers (keepalives, periodic probes) fire
/// forever and are ignored when deciding whether the simulation is quiescent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerClass {
    /// Pending protocol work; blocks quiescence.
    Progress,
    /// Periodic background work; ignored by quiescence detection.
    Maintenance,
}

/// A message that can travel over simulated links.
///
/// `wire_len` is the encoded size in bytes and feeds the simulator's
/// `bytes_delivered` counter; implementations that carry real wire bytes
/// (the BGP envelope does) return the encoded length.
pub trait Message: Clone + fmt::Debug + 'static {
    /// Encoded size in bytes.
    fn wire_len(&self) -> usize {
        64
    }
}

/// An event-driven network element.
///
/// Implementations must supply `as_any_mut`/`as_any` (returning `self`) so
/// that experiment code can inspect node state after or between runs via
/// [`Simulator::with_node`](crate::sim::Simulator::with_node).
pub trait Node<M: Message>: 'static {
    /// Called once when the simulation starts (or when the node is added to
    /// an already-running simulation). Typical use: open sessions, arm
    /// initial timers, originate prefixes.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// A message has been delivered to this node.
    ///
    /// `from` is the physical sender (the far end of `link`), which for
    /// relayed control-plane traffic can differ from the logical source
    /// carried inside `msg`. `link` is [`LinkId::CONTROL`] for messages
    /// injected by the experiment driver.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, link: LinkId, msg: M);

    /// A timer armed by this node has fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _token: TimerToken) {}

    /// The node was administratively restored after a crash
    /// ([`Simulator::set_node_admin`](crate::sim::Simulator::set_node_admin)).
    /// The crash dropped all pending timers and in-flight deliveries;
    /// implementations that keep no stable storage should wipe learned state
    /// here. Defaults to re-running [`Node::on_start`].
    fn on_restart(&mut self, ctx: &mut Ctx<'_, M>) {
        self.on_start(ctx);
    }

    /// An adjacent link changed administrative/operational state.
    fn on_link_change(&mut self, _ctx: &mut Ctx<'_, M>, _link: LinkId, _up: bool) {}

    /// The node's own counter row, if it keeps one: what [`Ctx::count`]
    /// adds to and [`Simulator::counter`](crate::sim::Simulator::counter)
    /// reads.
    fn counters(&self) -> Option<&Counters> {
        None
    }

    /// Downcast support; implement as `self`.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Downcast support; implement as `self`.
    fn as_any(&self) -> &dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn timer_classes_are_distinct() {
        assert_ne!(TimerClass::Progress, TimerClass::Maintenance);
    }
}
