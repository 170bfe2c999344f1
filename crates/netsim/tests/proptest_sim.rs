//! Property-based tests of engine invariants: FIFO delivery under arbitrary
//! jitter, cross-run determinism, and summary-statistics ordering.

use std::any::Any;

use proptest::prelude::*;

use bgpsdn_netsim::{
    Ctx, LatencyModel, LinkId, Message, Node, NodeId, SimDuration, SimRng, SimTime, Simulator,
};
use bgpsdn_obs::Summary;

#[derive(Debug, Clone)]
struct Seq(u64);
impl Message for Seq {}

/// Sends `count` sequence-numbered messages at start.
struct Sender {
    count: u64,
}
impl Node<Seq> for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
        let link = ctx.neighbors()[0].0;
        for i in 0..self.count {
            ctx.send(link, Seq(i));
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Seq>, _: NodeId, _: LinkId, _: Seq) {}
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Records arrival order.
struct Receiver {
    got: Vec<u64>,
}
impl Node<Seq> for Receiver {
    fn on_message(&mut self, _: &mut Ctx<'_, Seq>, _: NodeId, _: LinkId, m: Seq) {
        self.got.push(m.0);
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

proptest! {
    /// FIFO per direction holds for any jitter magnitude and seed.
    #[test]
    fn fifo_delivery_under_arbitrary_jitter(
        seed in any::<u64>(),
        base_us in 0u64..100_000,
        jitter_us in 0u64..1_000_000,
        count in 1u64..60,
    ) {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node("s", |_| Sender { count });
        let b = sim.add_node("r", |_| Receiver { got: vec![] });
        sim.add_link(
            a,
            b,
            LatencyModel::Jittered {
                base: SimDuration::from_micros(base_us),
                jitter: SimDuration::from_micros(jitter_us),
            },
        );
        let q = sim.run_until_quiescent(SimTime::from_secs(3600));
        prop_assert!(q.quiescent);
        let got = &sim.node_ref::<Receiver>(b).got;
        prop_assert_eq!(got.clone(), (0..count).collect::<Vec<_>>());
    }

    /// Identical configuration and seed produce identical runs.
    #[test]
    fn runs_are_deterministic(seed in any::<u64>(), count in 1u64..40) {
        let run = || {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node("s", |_| Sender { count });
            let b = sim.add_node("r", |_| Receiver { got: vec![] });
            sim.add_link(
                a,
                b,
                LatencyModel::Jittered {
                    base: SimDuration::from_millis(1),
                    jitter: SimDuration::from_millis(50),
                },
            );
            let q = sim.run_until_quiescent(SimTime::from_secs(3600));
            (q.time, sim.stats().events_processed, sim.stats().bytes_delivered)
        };
        prop_assert_eq!(run(), run());
    }

    /// Boxplot summaries are always ordered and bounded.
    #[test]
    fn summary_orderings(values in prop::collection::vec(0.0f64..1e9, 1..200)) {
        let s = Summary::of(values.iter().copied()).unwrap();
        prop_assert!(s.min <= s.q1);
        prop_assert!(s.q1 <= s.median);
        prop_assert!(s.median <= s.q3);
        prop_assert!(s.q3 <= s.max);
        prop_assert!(s.mean >= s.min && s.mean <= s.max);
        prop_assert_eq!(s.n, values.len());
    }

    /// RNG range helpers always respect their bounds.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
        let lo = bound / 2;
        for _ in 0..100 {
            let v = rng.range_u64(lo, bound.max(lo + 1));
            prop_assert!(v >= lo && v < bound.max(lo + 1));
        }
    }

    /// Jittered durations stay within the configured window.
    #[test]
    fn rng_jitter_window(seed in any::<u64>(), base_ms in 1u64..100_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        let base = SimDuration::from_millis(base_ms);
        for _ in 0..50 {
            let d = rng.jittered(base, 0.75, 1.0);
            prop_assert!(d.as_nanos() >= base.as_nanos() * 3 / 4);
            prop_assert!(d < base);
        }
    }
}
