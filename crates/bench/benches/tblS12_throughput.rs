//! **Table S12** (hot-path throughput): internet-scale event throughput of
//! the simulator after the hot-loop overhaul, plus a same-bench replica of
//! the pre-overhaul dispatch path.
//!
//! Two arms:
//!
//! 1. **Scale arm** — a ≥1000-AS CAIDA-style hierarchy (8 tier-1, 192 mid
//!    and 800 stubs, one /16 per AS ⇒ 1000 prefixes network-wide) brought to
//!    steady state, then a multihomed stub withdraws its prefix. The
//!    withdrawal phase is timed wall-clock against the engine's
//!    `events_processed` counter, yielding events/sec and ns/event at SDN
//!    fractions 0/50/100% of the tier-1 mesh. Slab recycling counters
//!    (`core.sim.events_pooled` / `core.sim.allocs_hot`) are recorded from
//!    the same runs.
//! 2. **Hot-loop replica arm** — the pre-change baseline measured *in this
//!    bench*: the old dispatch cycle (binary heap carrying fat event
//!    payloads through every sift, a fresh action vector per event, a
//!    fresh grow-from-empty `Writer` per encoded UPDATE) against the new
//!    cycle (calendar queue over slab slots, reused action vector, reused
//!    encode scratch) on an identical schedule. The acceptance bar is a
//!    ≥2x median ns/event improvement, asserted loudly.
//!
//! Emits `BENCH_throughput.json` for the CI bench-regression gate
//! (`ns_per_event_p50` lower-is-better, `hot_loop.improvement`
//! higher-is-better) and `tblS12_throughput.json` with the full rows.

use std::time::Instant;

use bgpsdn_bench::{runs_per_point, write_json};
use bgpsdn_bgp::wire::Writer;
use bgpsdn_bgp::{
    pfx, AsPath, BgpMessage, Origin, PathAttributes, PolicyMode, TimingConfig, UpdateMsg,
};
use bgpsdn_core::{Experiment, NetworkBuilder};
use bgpsdn_netsim::{EventBody, EventQueue, LinkId, NodeId, SimDuration, SimRng, SimTime};
use bgpsdn_obs::{impl_to_json, Json, ToJson};
use bgpsdn_topology::{caida, plan};

// ----------------------------------------------------------------------
// Scale arm: 1000-AS withdrawal throughput at three SDN fractions
// ----------------------------------------------------------------------

/// Tier sizes: 8 + 192 + 800 = 1000 ASes, each originating its /16.
const TIER1: usize = 8;
const MID: usize = 192;
const STUBS: usize = 800;

const DEADLINE: SimDuration = SimDuration::from_secs(3600);

#[derive(Debug)]
struct ScaleRow {
    sdn_fraction: u64,
    cluster: u64,
    ases: u64,
    prefixes: u64,
    runs: u64,
    withdraw_events_p50: u64,
    withdraw_wall_ns_p50: u64,
    ns_per_event_p50: u64,
    events_per_sec_p50: u64,
    total_events_p50: u64,
    events_pooled_p50: u64,
    allocs_hot_p50: u64,
}

impl_to_json!(ScaleRow {
    sdn_fraction,
    cluster,
    ases,
    prefixes,
    runs,
    withdraw_events_p50,
    withdraw_wall_ns_p50,
    ns_per_event_p50,
    events_per_sec_p50,
    total_events_p50,
    events_pooled_p50,
    allocs_hot_p50,
});

struct ScaleSample {
    withdraw_events: u64,
    withdraw_wall_ns: u64,
    total_events: u64,
    events_pooled: u64,
    allocs_hot: u64,
}

/// One bring-up + timed withdrawal on the 1000-AS hierarchy.
fn run_scale_withdrawal(cluster: usize, seed: u64) -> ScaleSample {
    let mut rng = SimRng::seed_from_u64(seed);
    let params = caida::SynthesisParams {
        tier1: TIER1,
        mid: MID,
        stubs: STUBS,
        ..caida::SynthesisParams::default()
    };
    let ag = caida::synthesize(&params, &mut rng);
    let n = ag.len();
    assert!(n >= 1000, "internet-scale arm needs >= 1000 ASes, got {n}");
    let tp = plan(
        ag,
        PolicyMode::GaoRexford,
        TimingConfig::with_mrai(SimDuration::ZERO),
    )
    .expect("address plan");
    let net = NetworkBuilder::new(tp, seed)
        .with_sdn_members((0..cluster).collect::<Vec<_>>())
        .with_recompute_delay(SimDuration::from_millis(100))
        .build();
    let mut exp = Experiment::new(net);

    let up = exp.start(DEADLINE);
    assert!(up.converged, "1000-AS bring-up must converge");

    // The probe: the last stub (multihomed by construction) withdraws its
    // /16; every AS must flush it. Wall-clock spans exactly this phase.
    let victim = n - 1;
    let vpfx = exp.net.ases[victim].prefix;
    exp.mark_named("withdrawal");
    let ev0 = exp.net.sim.stats().events_processed;
    let t0 = Instant::now();
    exp.withdraw(victim, None);
    let rep = exp.wait_converged(DEADLINE);
    let wall = t0.elapsed();
    let ev1 = exp.net.sim.stats().events_processed;
    assert!(rep.converged, "withdrawal must converge");
    assert!(exp.prefix_fully_gone(vpfx), "withdrawn prefix must be gone");

    let pool = exp.net.sim.pool_stats();
    let sample = ScaleSample {
        withdraw_events: ev1 - ev0,
        withdraw_wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        total_events: ev1,
        events_pooled: pool.events_pooled,
        allocs_hot: pool.allocs_hot,
    };
    exp.finish();
    sample
}

fn median(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    values[values.len() / 2]
}

fn scale_arm(runs: u64) -> Vec<ScaleRow> {
    let mut rows = Vec::with_capacity(3);
    for &fraction in &[0u64, 50, 100] {
        let cluster = TIER1 * usize::try_from(fraction).unwrap() / 100;
        let mut events = Vec::new();
        let mut walls = Vec::new();
        let mut ns_per = Vec::new();
        let mut per_sec = Vec::new();
        let mut totals = Vec::new();
        let mut pooled = Vec::new();
        let mut hot = Vec::new();
        for r in 0..runs {
            let s = run_scale_withdrawal(cluster, 12_000 + 31 * r);
            assert!(s.withdraw_events > 0, "withdrawal phase processed events");
            events.push(s.withdraw_events);
            walls.push(s.withdraw_wall_ns);
            ns_per.push(s.withdraw_wall_ns / s.withdraw_events);
            per_sec
                .push(s.withdraw_events.saturating_mul(1_000_000_000) / s.withdraw_wall_ns.max(1));
            totals.push(s.total_events);
            pooled.push(s.events_pooled);
            hot.push(s.allocs_hot);
        }
        let row = ScaleRow {
            sdn_fraction: fraction,
            cluster: cluster as u64,
            ases: (TIER1 + MID + STUBS) as u64,
            prefixes: (TIER1 + MID + STUBS) as u64,
            runs,
            withdraw_events_p50: median(&mut events),
            withdraw_wall_ns_p50: median(&mut walls),
            ns_per_event_p50: median(&mut ns_per),
            events_per_sec_p50: median(&mut per_sec),
            total_events_p50: median(&mut totals),
            events_pooled_p50: median(&mut pooled),
            allocs_hot_p50: median(&mut hot),
        };
        println!(
            "  sdn {:>3}% (cluster {}): {:>8} ev in {:>6.1} ms -> {:>9} ev/s, {:>5} ns/ev  (pooled {}, hot allocs {})",
            fraction,
            cluster,
            row.withdraw_events_p50,
            row.withdraw_wall_ns_p50 as f64 / 1e6,
            row.events_per_sec_p50,
            row.ns_per_event_p50,
            row.events_pooled_p50,
            row.allocs_hot_p50,
        );
        rows.push(row);
    }
    rows
}

// ----------------------------------------------------------------------
// Hot-loop replica arm: pre-change dispatch cycle vs the new one
// ----------------------------------------------------------------------

/// Events per replica round, and a steady in-flight population in the
/// ballpark a 1000-AS bring-up burst actually reaches (the scale arm's
/// pool counters show >10^6 slots live at peak).
const REPLICA_EVENTS: u64 = 200_000;
const REPLICA_INFLIGHT: u64 = 65_536;

/// Delivery payload shaped like the production `ClusterMsg`: the encoded
/// BGP message rides inside the event.
#[derive(Debug, Clone)]
struct ReplicaMsg {
    bytes: Vec<u8>,
}
impl bgpsdn_netsim::Message for ReplicaMsg {
    fn wire_len(&self) -> usize {
        self.bytes.len()
    }
}

/// A representative UPDATE: a 3-hop path announcing two /24s — the message
/// shape the delivery path encodes millions of times in a scale run.
fn replica_update(tick: u32) -> UpdateMsg {
    let mut attrs = PathAttributes::originate(std::net::Ipv4Addr::new(10, 0, 0, 1));
    attrs.origin = Origin::Igp;
    attrs.as_path = AsPath::from_seq([65_000 + (tick % 7), 65_100, 65_200]);
    UpdateMsg {
        withdrawn: vec![pfx("10.1.0.0/24")],
        attrs: Some(attrs.into()),
        nlri: vec![pfx("10.2.0.0/24"), pfx("10.3.0.0/24")],
    }
}

/// The old event record: ordering key and fat payload travel together
/// through every heap sift (what `BinaryHeap<Event>` did before the slab).
struct OldEvent {
    at: u64,
    seq: u64,
    body: EventBody<ReplicaMsg>,
}

impl PartialEq for OldEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for OldEvent {}
impl PartialOrd for OldEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OldEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via reversed comparison, exactly like the old queue.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

fn replica_body(tick: u32, bytes: Vec<u8>) -> EventBody<ReplicaMsg> {
    EventBody::Deliver {
        link: LinkId(tick % 97),
        from: NodeId(tick % 1000),
        to: NodeId((tick + 1) % 1000),
        msg: ReplicaMsg { bytes },
    }
}

/// The pre-change UPDATE encoder, reconstructed: withdrawn routes, path
/// attributes and (inside `attrs.encode` then) the AS_PATH were each
/// staged in a grow-from-zero sub-writer and copied into the outer
/// grow-from-zero writer. Byte output is identical to the new encoder —
/// asserted in `hot_loop_arm` — only the allocation pattern differs.
fn old_encode_update(u: &UpdateMsg) -> Vec<u8> {
    let mut wd = Writer::new();
    for p in &u.withdrawn {
        wd.nlri_prefix(*p);
    }
    let wd = wd.into_bytes();
    let mut at = Writer::new();
    if let Some(attrs) = &u.attrs {
        // The old attrs encoder staged AS_PATH in its own sub-writer too
        // (one SEQUENCE segment: 2-byte header + 4 bytes per ASN);
        // reproduce that allocation before the (now back-patching) encode.
        let mut pw = Writer::new();
        for _ in 0..(2 + 4 * attrs.as_path.path_len()) {
            pw.u8(0);
        }
        std::hint::black_box(pw.into_bytes());
        attrs.encode(&mut at);
    }
    let at = at.into_bytes();
    let mut w = Writer::new();
    w.bytes(&[0xFF; 16]);
    w.u16(0); // length, patched below
    w.u8(2); // TYPE_UPDATE
    w.u16(wd.len() as u16);
    w.bytes(&wd);
    w.u16(at.len() as u16);
    w.bytes(&at);
    for p in &u.nlri {
        w.nlri_prefix(*p);
    }
    let len = w.len() as u16;
    w.patch_u16(16, len);
    w.into_bytes()
}

/// Pre-change cycle: heap of fat events (payload rides through every
/// sift); per event a fresh action vector and the sub-writer encoder.
fn old_replica_round(update: &UpdateMsg) -> u64 {
    let mut heap: std::collections::BinaryHeap<OldEvent> = std::collections::BinaryHeap::new();
    let mut seq = 0u64;
    for i in 0..REPLICA_INFLIGHT {
        heap.push(OldEvent {
            at: i,
            seq,
            body: replica_body(i as u32, old_encode_update(update)),
        });
        seq += 1;
    }
    let mut sink = 0u64;
    let t0 = Instant::now();
    for _ in 0..REPLICA_EVENTS {
        let ev = heap.pop().expect("replica heap never empties");
        // Old dispatch: a fresh Vec of pending actions every event ...
        let mut actions: Vec<(u32, u32)> = Vec::new();
        let (link, tick) = match &ev.body {
            EventBody::Deliver {
                link,
                from,
                to,
                msg,
            } => {
                actions.push((from.0, to.0));
                sink = sink.wrapping_add(msg.bytes.len() as u64);
                (*link, from.0)
            }
            _ => unreachable!(),
        };
        sink = sink.wrapping_add(actions.len() as u64);
        // ... and the next hop's envelope encoded through fresh writers.
        heap.push(OldEvent {
            at: ev.at + REPLICA_INFLIGHT,
            seq,
            body: replica_body(link.0.wrapping_add(tick), old_encode_update(update)),
        });
        seq += 1;
    }
    let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert!(sink > 0);
    wall / REPLICA_EVENTS
}

/// Post-change cycle: calendar queue over recycled slab slots, a reused
/// action vector, and a reused encode scratch (one exact-size copy out,
/// matching the production envelope path).
fn new_replica_round(update: &UpdateMsg) -> u64 {
    let msg = BgpMessage::Update(update.clone());
    let mut scratch = Writer::with_capacity(64);
    let mut q: EventQueue<ReplicaMsg> = EventQueue::with_capacity(REPLICA_INFLIGHT as usize + 1);
    for i in 0..REPLICA_INFLIGHT {
        msg.encode_into(&mut scratch);
        q.push(
            SimTime::from_nanos(i),
            replica_body(i as u32, scratch.as_bytes().to_vec()),
        );
    }
    let mut actions: Vec<(u32, u32)> = Vec::new();
    let mut sink = 0u64;
    let t0 = Instant::now();
    for _ in 0..REPLICA_EVENTS {
        let ev = q.pop().expect("replica queue never empties");
        actions.clear();
        let (link, tick) = match &ev.body {
            EventBody::Deliver {
                link,
                from,
                to,
                msg,
            } => {
                actions.push((from.0, to.0));
                sink = sink.wrapping_add(msg.bytes.len() as u64);
                (*link, from.0)
            }
            _ => unreachable!(),
        };
        sink = sink.wrapping_add(actions.len() as u64);
        msg.encode_into(&mut scratch);
        q.push(
            SimTime::from_nanos(ev.at.as_nanos() + REPLICA_INFLIGHT),
            replica_body(link.0.wrapping_add(tick), scratch.as_bytes().to_vec()),
        );
    }
    let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert!(sink > 0);
    let stats = q.pool_stats();
    assert_eq!(
        stats.allocs_hot, 0,
        "steady-state replica must not allocate slots"
    );
    assert!(
        stats.events_pooled >= REPLICA_EVENTS,
        "slots recycle through the freelist"
    );
    wall / REPLICA_EVENTS
}

#[derive(Debug)]
struct HotLoopRow {
    events: u64,
    rounds: u64,
    old_ns_per_event_p50: u64,
    new_ns_per_event_p50: u64,
    improvement: f64,
}

impl_to_json!(HotLoopRow {
    events,
    rounds,
    old_ns_per_event_p50,
    new_ns_per_event_p50,
    improvement,
});

fn hot_loop_arm(rounds: u64) -> HotLoopRow {
    let update = replica_update(3);
    let msg = BgpMessage::Update(update.clone());
    // Sanity: all three encode paths produce the same bytes — the replica
    // differs from production only in its allocation pattern.
    let fresh = msg.encode();
    let mut scratch = Writer::with_capacity(16);
    msg.encode_into(&mut scratch);
    assert_eq!(
        fresh,
        scratch.as_bytes(),
        "scratch encode must be byte-identical"
    );
    assert_eq!(
        fresh,
        old_encode_update(&update),
        "pre-change replica encoder must be byte-identical to the new one"
    );

    // Warm-up round for each arm, unmeasured.
    old_replica_round(&update);
    new_replica_round(&update);
    let mut old = Vec::new();
    let mut new = Vec::new();
    for _ in 0..rounds {
        old.push(old_replica_round(&update));
        new.push(new_replica_round(&update));
    }
    let old_p50 = median(&mut old);
    let new_p50 = median(&mut new);
    let improvement = old_p50 as f64 / new_p50.max(1) as f64;
    println!("  old cycle {old_p50} ns/ev, new cycle {new_p50} ns/ev -> {improvement:.2}x");
    HotLoopRow {
        events: REPLICA_EVENTS,
        rounds,
        old_ns_per_event_p50: old_p50,
        new_ns_per_event_p50: new_p50,
        improvement,
    }
}

fn main() {
    // A 1000-AS bring-up is the heaviest workload in the suite; cap the
    // repetitions so the full bench stays runnable, and say so.
    let runs = runs_per_point().clamp(1, 3) as u64;
    println!("== Table S12: simulator hot-path throughput ==");
    println!(
        "{} ASes ({TIER1} tier-1 + {MID} mid + {STUBS} stubs), {} prefixes,",
        TIER1 + MID + STUBS,
        TIER1 + MID + STUBS
    );
    println!("withdrawal at a multihomed stub, {runs} runs/point (capped at 3)\n");

    println!("scale arm (withdrawal convergence):");
    let rows = scale_arm(runs);

    println!("\nhot-loop replica arm ({REPLICA_EVENTS} events/round):");
    let hot = hot_loop_arm(5);
    assert!(
        hot.improvement >= 2.0,
        "hot-loop overhaul must hold a >= 2x ns/event improvement over the \
         pre-change replica (measured {:.2}x)",
        hot.improvement
    );
    println!(
        "\nshape check: PASS (>= 2x hot-loop improvement, {} ev/s at full BGP)",
        rows[0].events_per_sec_p50
    );

    write_json(
        "tblS12_throughput",
        &Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
    );
    let headline = &rows[0];
    write_json(
        "BENCH_throughput",
        &Json::Obj(vec![
            (
                "throughput".into(),
                Json::Obj(vec![
                    ("ases".into(), Json::U64(headline.ases)),
                    ("prefixes".into(), Json::U64(headline.prefixes)),
                    (
                        "ns_per_event_p50".into(),
                        Json::U64(headline.ns_per_event_p50),
                    ),
                    (
                        "events_per_sec_p50".into(),
                        Json::U64(headline.events_per_sec_p50),
                    ),
                ]),
            ),
            ("hot_loop".into(), hot.to_json()),
        ]),
    );
}
