//! Point-to-point links.
//!
//! A link connects exactly two nodes and is the only way messages move
//! between them. Links model propagation latency (optionally jittered),
//! administrative up/down state, and random loss.
//! Delivery on a link is FIFO per direction — the simulator clamps each
//! arrival to be strictly after the previous arrival in the same direction,
//! which gives the in-order guarantee BGP gets from TCP without simulating a
//! byte stream.

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a link, dense from zero in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Sentinel used for messages injected by the experiment driver rather
    /// than arriving over a real link (e.g. "announce this prefix" commands).
    pub const CONTROL: LinkId = LinkId(u32::MAX);

    /// Index into simulator-internal vectors.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// True for the driver-injection sentinel.
    pub fn is_control(self) -> bool {
        self == Self::CONTROL
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_control() {
            write!(f, "l<ctl>")
        } else {
            write!(f, "l{}", self.0)
        }
    }
}

/// How a link turns a message into a delivery delay.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Constant propagation delay.
    Fixed(SimDuration),
    /// Uniform delay in `[base, base + jitter)`.
    Jittered {
        /// Minimum (propagation) delay.
        base: SimDuration,
        /// Width of the uniform jitter window.
        jitter: SimDuration,
    },
}

impl LatencyModel {
    /// Sample the delay for one message.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Jittered { base, jitter } => {
                if jitter.is_zero() {
                    base
                } else {
                    base + rng.duration_between(SimDuration::ZERO, jitter)
                }
            }
        }
    }
}

/// A bidirectional point-to-point link between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    /// This link's identifier.
    pub id: LinkId,
    /// One endpoint (the first passed to `add_link`).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Delay model applied to every message.
    pub latency: LatencyModel,
    /// Operational state; messages sent or in flight while down are dropped.
    pub up: bool,
    /// Independent per-message drop probability (0 disables).
    pub loss: f64,
    /// Last scheduled arrival per direction (index 0: a→b, 1: b→a), used to
    /// enforce FIFO delivery.
    pub(crate) last_arrival: [SimTime; 2],
}

impl Link {
    pub(crate) fn new(id: LinkId, a: NodeId, b: NodeId, latency: LatencyModel) -> Self {
        assert_ne!(a, b, "self-links are not supported");
        Link {
            id,
            a,
            b,
            latency,
            up: true,
            loss: 0.0,
            last_arrival: [SimTime::ZERO; 2],
        }
    }

    /// The endpoint opposite `n`. Panics when `n` is not an endpoint.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("{n} is not an endpoint of {}", self.id)
        }
    }

    /// True when `n` is one of this link's endpoints.
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.a || n == self.b
    }

    /// Direction index for a transmission originating at `from`.
    pub(crate) fn dir(&self, from: NodeId) -> usize {
        if from == self.a {
            0
        } else {
            debug_assert_eq!(from, self.b);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Link {
        Link::new(
            LinkId(0),
            NodeId(1),
            NodeId(2),
            LatencyModel::Fixed(SimDuration::from_millis(5)),
        )
    }

    #[test]
    fn other_endpoint() {
        let l = mk();
        assert_eq!(l.other(NodeId(1)), NodeId(2));
        assert_eq!(l.other(NodeId(2)), NodeId(1));
        assert!(l.touches(NodeId(1)) && l.touches(NodeId(2)));
        assert!(!l.touches(NodeId(3)));
    }

    #[test]
    #[should_panic]
    fn other_rejects_non_endpoint() {
        mk().other(NodeId(9));
    }

    #[test]
    #[should_panic]
    fn self_link_rejected() {
        let _ = Link::new(
            LinkId(0),
            NodeId(1),
            NodeId(1),
            LatencyModel::Fixed(SimDuration::ZERO),
        );
    }

    #[test]
    fn latency_models_sample_in_bounds() {
        let mut rng = SimRng::seed_from_u64(1);
        let fixed = LatencyModel::Fixed(SimDuration::from_millis(3));
        assert_eq!(fixed.sample(&mut rng), SimDuration::from_millis(3));

        let jit = LatencyModel::Jittered {
            base: SimDuration::from_millis(2),
            jitter: SimDuration::from_millis(4),
        };
        for _ in 0..500 {
            let d = jit.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(2) && d < SimDuration::from_millis(6));
        }
    }

    #[test]
    fn control_sentinel() {
        assert!(LinkId::CONTROL.is_control());
        assert!(!LinkId(0).is_control());
        assert_eq!(LinkId::CONTROL.to_string(), "l<ctl>");
    }
}
