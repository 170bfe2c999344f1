//! **Perf**: criterion micro-benchmarks of the framework's hot paths — the
//! performance side of the reproduction (the paper's framework targets
//! "rapid prototyping"; these numbers show the simulator comfortably
//! outruns real-time emulation).

use std::net::Ipv4Addr;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bgpsdn_bgp::{
    pfx, AsPath, Asn, BgpMessage, Candidate, DecisionConfig, PathAttributes, PolicyMode,
    RouteSource, RouterCommand, RouterId, TimingConfig, UpdateMsg,
};
use bgpsdn_core::{
    compute, compute_into, run_clique, CliqueScenario, ComputeScratch, Controller, EventKind,
    Experiment, ExternalRoute, NetworkBuilder, PrefixComputation, SwitchGraph,
};
use bgpsdn_netsim::{
    Ctx, EventBody, EventQueue, LinkId, Node, NodeId, SimDuration, SimRng, SimTime, Simulator,
    TimerClass, TimerToken,
};
use bgpsdn_sdn::{ClusterMsg, FlowAction, FlowRule, FlowTable};
use bgpsdn_topology::{gen, plan, AsGraph};

fn bench_codec(c: &mut Criterion) {
    let mut attrs = PathAttributes::originate(Ipv4Addr::new(10, 0, 0, 1));
    attrs.as_path = AsPath::from_seq(65000..65008);
    let msg = BgpMessage::Update(UpdateMsg::announce(
        vec![pfx("10.1.0.0/16"), pfx("10.2.0.0/16"), pfx("10.3.0.0/16")],
        attrs,
    ));
    let bytes = msg.encode();
    c.bench_function("bgp_update_encode", |b| b.iter(|| black_box(&msg).encode()));
    c.bench_function("bgp_update_decode", |b| {
        b.iter(|| BgpMessage::decode(black_box(&bytes)).unwrap())
    });
}

fn bench_decision(c: &mut Criterion) {
    let cfg = DecisionConfig::default();
    let attrs: Vec<PathAttributes> = (0..100)
        .map(|i| {
            let mut a = PathAttributes::originate(Ipv4Addr::new(10, 0, 0, 1));
            a.as_path = AsPath::from_seq(1..(2 + i % 7));
            a
        })
        .collect();
    c.bench_function("decision_select_100_candidates", |b| {
        b.iter(|| {
            let cands = attrs.iter().enumerate().map(|(i, a)| Candidate {
                attrs: a,
                source: RouteSource::Peer(i),
                peer_router_id: RouterId(i as u32),
            });
            bgpsdn_bgp::decision::select(black_box(cands), &cfg)
        })
    });
}

fn bench_flowtable(c: &mut Criterion) {
    let mut table = FlowTable::new();
    for i in 0..1000u32 {
        table.install(FlowRule {
            priority: 100,
            prefix: pfx(&format!("10.{}.{}.0/24", i / 256, i % 256)),
            action: FlowAction::Output(i),
            cookie: 0,
        });
    }
    let dst = Ipv4Addr::new(10, 1, 200, 7);
    c.bench_function("flowtable_lookup_1k_rules", |b| {
        b.iter(|| table.lookup(black_box(dst)))
    });
}

fn bench_controller_compute(c: &mut Criterion) {
    // 16-member full-mesh switch graph, 32 external routes.
    let links: Vec<(usize, usize, bgpsdn_netsim::LinkId)> = {
        let mut v = Vec::new();
        let mut lid = 0u32;
        for i in 0..16 {
            for j in (i + 1)..16 {
                v.push((i, j, bgpsdn_netsim::LinkId(lid)));
                lid += 1;
            }
        }
        v
    };
    let sg = SwitchGraph::new(16, links);
    let ext: Vec<ExternalRoute> = (0..32)
        .map(|s| ExternalRoute {
            session: s,
            member: s % 16,
            as_path: vec![Asn(100 + s as u32), Asn(200)].into(),
            med: None,
        })
        .collect();
    c.bench_function("controller_prefix_compute_16_members", |b| {
        b.iter(|| compute(black_box(&sg), None, black_box(&ext)))
    });
    // The same computation through the reusable-scratch entry point the
    // incremental controller uses: no per-call allocation once warm.
    let mut scratch = ComputeScratch::default();
    let mut out = PrefixComputation::default();
    c.bench_function("controller_prefix_compute_16_members_scratch", |b| {
        b.iter(|| {
            compute_into(
                black_box(&sg),
                None,
                black_box(&ext),
                &mut scratch,
                &mut out,
            );
            black_box(&out);
        })
    });
}

fn bench_controller_recompute(c: &mut Criterion) {
    // The Fig. 2 midpoint: a 16-AS clique with 8 members, so 64 speaker
    // sessions and 16 prefixes. On a full-recompute controller, an operator
    // re-announcing a prefix the cluster already originates makes it sweep
    // every prefix and find nothing to send — the per-session diff, which
    // is most of a bring-up's recompute cost.
    let ag = AsGraph::all_peer(&gen::clique(16), 65000);
    let tp = plan(
        ag,
        PolicyMode::AllPermit,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .expect("address plan");
    let net = NetworkBuilder::new(tp, 7)
        .with_sdn_members(8..16)
        .with_full_recompute()
        .build();
    let mut exp = Experiment::new(net);
    assert!(exp.start(SimDuration::from_secs(3600)).converged);
    let ctl = exp.net.controller.expect("cluster implies controller");
    let recomputes = |exp: &Experiment| exp.net.sim.node_ref::<Controller>(ctl).stats().recomputes;
    assert_eq!(exp.net.sim.node_ref::<Controller>(ctl).session_count(), 64);
    let owned = exp.net.ases[8].prefix;
    c.bench_function("controller/full_recompute_k8", |b| {
        b.iter(|| {
            let before = recomputes(&exp);
            exp.net
                .sim
                .inject(ctl, ClusterMsg::Command(RouterCommand::Announce(owned)));
            while recomputes(&exp) == before {
                assert!(exp.net.sim.step(), "the injected event is pending");
            }
        })
    });
}

#[derive(Debug, Clone)]
struct NoMsg;
impl bgpsdn_netsim::Message for NoMsg {}

fn bench_queue_sparse(c: &mut Criterion) {
    // A small network's timer schedule: one event every ~10 ms (76 empty
    // calendar buckets apart) and a 30 s MRAI-scale tail in the overflow.
    let mut q: EventQueue<NoMsg> = EventQueue::new();
    let mut now = 0u64;
    let start = EventBody::Start { node: NodeId(0) };
    c.bench_function("queue/sparse_timers", |b| {
        b.iter(|| {
            for i in 1..=1_000u64 {
                let at = now + i * 10_000_000 + (i * 7_919) % 1_000_000;
                q.push(SimTime::from_nanos(at), start.clone());
                if i % 100 == 0 {
                    q.push(SimTime::from_nanos(at + 30_000_000_000), start.clone());
                }
            }
            while let Some(e) = q.pop() {
                now = e.at.as_nanos();
            }
            black_box(now)
        })
    });
}

/// The two kinds of timer through the whole simulator (action buffer, queue,
/// dispatch), next to the bare queue above. `timers/one_shot`: 100 000
/// one-shot firings at a standing depth of 1 000, each scheduling its
/// successor. `timers/rearm`: 100 000 arms of named timers — a 1 ms tick that
/// re-arms itself and a 90 ms hold timer 50 000 times, so half the pops are
/// superseded firings.
fn bench_timers(c: &mut Criterion) {
    const TICK: TimerToken = TimerToken(0);
    const HOLD: TimerToken = TimerToken(1);
    const MS: SimDuration = SimDuration::from_millis(1);
    struct TimerLoad {
        one_shot: bool,
        left: u32,
    }
    impl Node<NoMsg> for TimerLoad {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NoMsg>) {
            if self.one_shot {
                for i in 0..1_000 {
                    let at = ctx.now() + SimDuration::from_micros(i);
                    ctx.schedule_timer(at, TICK, TimerClass::Progress);
                }
            } else {
                ctx.set_timer(MS, TICK, TimerClass::Progress);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, NoMsg>, _: NodeId, _: LinkId, _: NoMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, NoMsg>, token: TimerToken) {
            if self.left == 0 || token == HOLD {
                return;
            }
            self.left -= 1;
            if self.one_shot {
                ctx.schedule_timer(ctx.now() + MS, TICK, TimerClass::Progress);
            } else {
                ctx.set_timer(MS, TICK, TimerClass::Progress);
                ctx.set_timer(MS * 90, HOLD, TimerClass::Progress);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    for (name, one_shot, left, fired) in [
        ("timers/one_shot", true, 99_000, 100_000),
        ("timers/rearm", false, 50_000, 50_002),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut sim: Simulator<NoMsg> = Simulator::new(1);
                sim.add_node("t", |_| TimerLoad { one_shot, left });
                while sim.step() {}
                assert_eq!(sim.stats().timers_fired, fired);
                black_box(sim.stats().timers_stale)
            })
        });
    }
}

fn bench_topology_gen(c: &mut Criterion) {
    c.bench_function("barabasi_albert_500", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from_u64(1);
            gen::barabasi_albert(500, 2, &mut rng)
        })
    });
}

fn bench_trace_disabled(c: &mut Criterion) {
    use bgpsdn_netsim::{NodeId, SimTime, Trace, TraceCategory, TraceEvent};
    // No categories enabled: record() is a single mask test and the event
    // closure never runs.
    let mut trace = Trace::new(1024);
    c.bench_function("trace_record_disabled", |b| {
        b.iter(|| {
            trace.record(SimTime::ZERO, Some(NodeId(1)), TraceCategory::Msg, || {
                TraceEvent::SessionUp { peer: 1 }
            })
        })
    });
    // Hard budget: disabled tracing must stay under 5 ns per record() call,
    // or instrumenting the hot paths was not actually free.
    let best = (0..10)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for i in 0..1_000_000u32 {
                trace.record(
                    SimTime::ZERO,
                    Some(NodeId(black_box(i) % 16)),
                    TraceCategory::Msg,
                    || TraceEvent::SessionUp { peer: 1 },
                );
            }
            t0.elapsed().as_nanos() as f64 / 1e6
        })
        .fold(f64::INFINITY, f64::min);
    println!("trace_record_disabled hard check: best {best:.2} ns/call (budget 5 ns)");
    assert!(
        best < 5.0,
        "disabled tracing must cost < 5 ns per record() call, measured {best:.2} ns"
    );
    assert!(trace.is_empty(), "nothing may be recorded while disabled");
}

fn bench_trace_codec(c: &mut Criterion) {
    use bgpsdn_obs::{event_line, CausalPhase, ObsPrefix, RunArtifact, TraceEvent};
    // The three shapes that make up ~90 % of a traced run's bytes.
    let prefix = ObsPrefix::new(0x0a01_0000, 16);
    let shapes = [
        TraceEvent::UpdateSent {
            peer: 7,
            announced: vec![prefix],
            withdrawn: vec![],
        },
        TraceEvent::Causal {
            id: 4_711,
            parents: vec![4_702],
            trigger: 4_001,
            hop: 5,
            phase: CausalPhase::LinkProp,
            prefix: Some(prefix),
        },
        TraceEvent::RibChange {
            prefix,
            old_path: None,
            new_path: Some((65_001..65_007).collect()),
        },
    ];
    c.bench_function("obs/event_line", |b| {
        b.iter(|| {
            for e in black_box(&shapes) {
                black_box(event_line(106_418_814_359, Some(12), e));
            }
        })
    });
    let mut artifact = String::new();
    for i in 0..1_000 {
        artifact.push_str(&event_line(
            i * 1_000_003,
            Some(12),
            &shapes[i as usize % 3],
        ));
        artifact.push('\n');
    }
    c.bench_function("obs/artifact_parse", |b| {
        b.iter(|| {
            RunArtifact::parse(black_box(&artifact))
                .unwrap()
                .events
                .len()
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    // A full framework run: build + bring-up + withdrawal + convergence on
    // a 8-AS clique with half the ASes centralized (MRAI 0 keeps it tight).
    let scenario = CliqueScenario {
        n: 8,
        sdn_count: 4,
        mrai: SimDuration::ZERO,
        recompute_delay: SimDuration::from_millis(10),
        seed: 7,
        control_loss: 0.0,
    };
    c.bench_function("framework_8clique_withdrawal_e2e", |b| {
        b.iter(|| run_clique(black_box(&scenario), EventKind::Withdrawal))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_codec,
        bench_decision,
        bench_flowtable,
        bench_controller_compute,
        bench_controller_recompute,
        bench_queue_sparse,
        bench_timers,
        bench_topology_gen,
        bench_trace_disabled,
        bench_trace_codec,
        bench_end_to_end
);
criterion_main!(benches);
