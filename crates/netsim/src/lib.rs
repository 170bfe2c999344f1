//! # bgpsdn-netsim — deterministic discrete-event network simulator
//!
//! This crate is the substrate that replaces Mininet in the paper's
//! framework: it provides nodes, point-to-point links with configurable
//! latency/loss/failure, timers, a seeded random stream and an event loop,
//! all fully deterministic — identical `(topology, scenario, seed)` inputs
//! produce bit-for-bit identical runs on every platform.
//!
//! Design notes:
//! * **Event-driven, no threads.** Everything runs in a single event loop
//!   ordered by `(time, insertion sequence)`. The paper makes the same
//!   trade ("due to simplifications such as cooperative multitasking, we can
//!   focus more on research questions than on state consistency and
//!   concurrency issues").
//! * **Integer time.** The clock is `u64` nanoseconds ([`SimTime`]); no
//!   floats in scheduling.
//! * **FIFO links.** Per-direction FIFO delivery gives protocols the
//!   in-order guarantee they would get from TCP, without a byte-stream
//!   simulation.
//! * **Quiescence.** Timers are classed [`TimerClass::Progress`] or
//!   [`TimerClass::Maintenance`]; [`Simulator::run_until_quiescent`]
//!   stops when only maintenance work (keepalives) remains — the engine-level
//!   half of "wait until BGP has converged".
//! * **Measurement surface.** Nodes report semantic activity
//!   ([`Activity`]) to an [`ActivityBoard`]; convergence detectors read the
//!   board rather than scraping logs. Richer telemetry — typed
//!   [`TraceEvent`] records, the [`MetricsRegistry`] of counters/gauges/
//!   histograms, wall-clock profiling spans — comes from `bgpsdn_obs` and
//!   is re-exported here.

#![warn(missing_docs)]

pub mod event;
pub mod link;
pub mod node;
pub mod packet;
pub(crate) mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::{Event, EventBody, EventQueue, PoolStats};
pub use link::{LatencyModel, Link, LinkId};
pub use node::{Message, Node, NodeId, TimerClass, TimerToken};
pub use packet::{DataApp, DataPacket, PacketKind};
pub use rng::SimRng;
pub use sim::{Ctx, Quiescence, Simulator, NAMED_TIMER_TOKENS};
pub use stats::{Activity, ActivityBoard, Counters, SimStats};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceCategory, TraceRecord};

pub use bgpsdn_obs::{
    CausalPhase, Cause, Counter, FlowActionRepr, Histogram, MetricsRegistry, MetricsSnapshot,
    ObsPrefix, RecomputeTrigger, TraceEvent, WallSpan,
};
