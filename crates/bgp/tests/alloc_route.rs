//! What a route costs in heap blocks and in bytes, pinned.
//!
//! The router is memory-bound, so the number of allocations a route makes
//! on its way through (build, encode, decode, export) and the size of the
//! per-route and per-message structs are performance properties of their
//! own. A counting allocator checks the first, `size_of` the second: a field
//! added to a per-route struct, or a `Vec` that creeps back into `AsPath`,
//! fails here and becomes a decision instead of a drift.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgpsdn_bgp::{
    attrs::AttrTable, pfx, wire::Writer, AsPath, Asn, BgpEnvelope, BgpMessage, BgpOnlyMsg,
    BgpRouter, Community, LocRibEntry, NeighborConfig, PathAttributes, PeerIdx, PolicyMode,
    RareAttrs, Relationship, RibInEntry, RouterCommand, RouterConfig, SharedAttrs, TimingConfig,
    UpdateMsg,
};
use bgpsdn_netsim::{Cause, LatencyModel, NodeId, SimDuration, SimTime, Simulator};

thread_local! {
    // Per thread, so the tests of this file can run side by side.
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static RESIZES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the counters are
// plain thread-local cells without destructors, so touching them allocates
// nothing and never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        RESIZES.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`; its result, the blocks it allocated and the blocks it resized.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = (BLOCKS.get(), RESIZES.get());
    let out = f();
    (out, BLOCKS.get() - before.0, RESIZES.get() - before.1)
}

fn announcement(hops: u32) -> BgpMessage {
    let mut attrs = PathAttributes::originate("10.0.0.1".parse().unwrap());
    attrs.as_path = AsPath::from_seq(65001..65001 + hops);
    BgpMessage::Update(UpdateMsg::announce([pfx("10.1.0.0/16")], attrs))
}

/// A received route is its shared attribute block; the AS_PATH rides inside
/// the block and the NLRI inside the message.
#[test]
fn decoding_a_route_allocates_only_its_attribute_block() {
    for hops in [1, 6, 7] {
        let bytes = announcement(hops).encode();
        let (msg, blocks, resizes) = counted(|| BgpMessage::decode(&bytes));
        assert!(msg.is_ok());
        assert_eq!((blocks, resizes), (1, 0), "{hops}-hop path");
    }
    // Past the inline capacity the leading sequence is one more block.
    let bytes = announcement(8).encode();
    let (msg, blocks, _) = counted(|| BgpMessage::decode(&bytes));
    assert!(msg.is_ok());
    assert_eq!(blocks, 2);
}

/// The rare attributes sit in a cold block that a decoded route opens only
/// when it carries one: without any, the attribute block is the route's
/// one block; ATOMIC_AGGREGATE adds the cold block, a community list the
/// cold block and the list.
#[test]
fn only_a_rare_attribute_opens_the_cold_block() {
    type Edit = fn(&mut RareAttrs);
    let cases: [(Edit, usize); 3] = [
        (|_| {}, 1),
        (|r| r.atomic_aggregate = true, 2),
        (|r| r.communities = vec![Community::NO_EXPORT], 3),
    ];
    for (i, (edit, expected)) in cases.into_iter().enumerate() {
        let mut attrs = PathAttributes::originate("10.0.0.1".parse().unwrap());
        attrs.as_path = AsPath::from_seq(65001..65004);
        attrs.edit_rare(edit);
        let msg = BgpMessage::Update(UpdateMsg::announce([pfx("10.1.0.0/16")], attrs));
        let bytes = msg.encode();
        let (back, blocks, resizes) = counted(|| BgpMessage::decode(&bytes));
        assert_eq!(back.as_ref(), Ok(&msg), "case {i}");
        assert_eq!((blocks, resizes), (expected, 0), "case {i}");
    }
}

/// An UPDATE of up to three prefixes is built without touching the heap,
/// and sending it allocates only when its bytes outgrow the envelope.
#[test]
fn building_and_enveloping_a_short_update_allocates_nothing() {
    let attrs = SharedAttrs::from(PathAttributes::originate("10.0.0.1".parse().unwrap()));
    let three = [pfx("10.1.0.0/16"), pfx("10.2.0.0/16"), pfx("10.3.0.0/16")];
    let (_, blocks, _) = counted(|| UpdateMsg::announce(three, attrs.clone()));
    assert_eq!(blocks, 0, "announce");
    let (_, blocks, _) = counted(|| UpdateMsg::withdraw(three));
    assert_eq!(blocks, 0, "withdraw");

    let mut scratch = Writer::with_capacity(64);
    let mut envelope = |msg: &BgpMessage| {
        counted(|| {
            BgpEnvelope::with_cause_scratch(NodeId(1), NodeId(2), msg, Cause::NONE, &mut scratch)
        })
    };
    // Warm the scratch with the longest message first.
    envelope(&announcement(8));
    // 42 bytes of framing, origin, next hop and a /16, four per hop.
    let (env, blocks, resizes) = envelope(&announcement(5));
    assert_eq!((env.bytes.len(), env.bytes.spilled()), (62, false));
    assert_eq!((blocks, resizes), (0, 0), "inline");
    let (env, blocks, resizes) = envelope(&announcement(6));
    assert_eq!((env.bytes.len(), env.bytes.spilled()), (66, true));
    assert_eq!((blocks, resizes), (1, 0), "spilled");
}

/// One best-path change at a hub with 8 established peers: every peer is
/// advertised the same export view, and building that view — the Loc-RIB
/// attributes copied, own AS prepended, wrapped for sharing — is one heap
/// block. The router's `export_view` is private, so the view is rebuilt here
/// from the hub's own Loc-RIB entry and checked equal to what the hub sent.
#[test]
fn a_fan_out_builds_its_export_view_in_one_block() {
    type Router = BgpRouter<BgpOnlyMsg>;
    const LEAVES: usize = 8;
    let mut sim: Simulator<BgpOnlyMsg> = Simulator::new(16);
    let timing = TimingConfig {
        mrai: SimDuration::ZERO,
        ..Default::default()
    };
    let asn = |i: usize| Asn(65000 + i as u32);
    // Node 0 is the hub, nodes 1..=8 its leaves; leaf 1 will originate.
    let nodes: Vec<_> = (0..=LEAVES)
        .map(|i| {
            let cfg = RouterConfig {
                mode: PolicyMode::AllPermit,
                timing: timing.clone(),
                ..RouterConfig::new(asn(i))
            };
            sim.add_node(format!("r{i}"), |id| Router::new(id, cfg))
        })
        .collect();
    for leaf in 1..=LEAVES {
        let link = sim.add_link(
            nodes[0],
            nodes[leaf],
            LatencyModel::Fixed(SimDuration::from_millis(5)),
        );
        sim.with_node::<Router, _>(nodes[0], |r| {
            r.add_neighbor(NeighborConfig::new(
                nodes[leaf],
                link,
                asn(leaf),
                Relationship::Peer,
            ));
        });
        sim.with_node::<Router, _>(nodes[leaf], |r| {
            r.add_neighbor(NeighborConfig::new(
                nodes[0],
                link,
                asn(0),
                Relationship::Peer,
            ));
        });
    }
    assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
    let p = pfx("203.0.113.0/24");
    sim.inject(nodes[1], BgpOnlyMsg::Command(RouterCommand::Announce(p)));
    assert!(sim.run_until_quiescent(SimTime::from_secs(120)).quiescent);

    let hub = sim.node_ref::<Router>(nodes[0]);
    assert_eq!(hub.stats().best_path_changes, 1);
    let sent = |leaf: usize| hub.advertised_to(nodes[leaf], p).expect("advertised");
    for leaf in 2..=LEAVES {
        assert!(
            SharedAttrs::ptr_eq(sent(1), sent(leaf)),
            "leaf {leaf} got a view of its own"
        );
    }
    let best = hub.best(p).expect("selected");
    let (view, blocks, resizes) = counted(|| {
        let mut attrs = PathAttributes::clone(&best.attrs);
        attrs.local_pref = None;
        attrs.as_path.prepend(hub.config().asn);
        attrs.next_hop = hub.config().next_hop;
        SharedAttrs::from(attrs)
    });
    assert_eq!(&view, sent(1), "this is the view the hub built");
    assert_eq!((blocks, resizes), (1, 0));
}

/// A 3-router fan-out from one hub, whose advertisement of its prefix every
/// leaf decodes into a block of its own. Two leaves are the hub's
/// customers and import it alike (LOCAL_PREF 90); the third is its peer
/// (LOCAL_PREF 110). With one table for the four routers, what the leaves
/// keep is one block per distinct post-import content: two blocks for
/// three routes. Routers with a table each keep a block per route.
#[test]
fn a_fan_out_keeps_one_block_per_distinct_imported_content() {
    type Router = BgpRouter<BgpOnlyMsg>;
    let p = pfx("203.0.113.0/24");
    let run = |shared: Option<AttrTable>| {
        let mut sim: Simulator<BgpOnlyMsg> = Simulator::new(3);
        let timing = TimingConfig {
            mrai: SimDuration::ZERO,
            ..Default::default()
        };
        let asn = |i: usize| Asn(65000 + i as u32);
        let nodes: Vec<_> = (0..4)
            .map(|i| {
                let cfg = RouterConfig {
                    mode: PolicyMode::GaoRexford,
                    timing: timing.clone(),
                    ..RouterConfig::new(asn(i))
                };
                let table = shared.clone().unwrap_or_default();
                sim.add_node(format!("r{i}"), |id| {
                    Router::new(id, cfg).with_attr_table(table)
                })
            })
            .collect();
        // How the hub sees each leaf.
        let leaves = [
            Relationship::Customer,
            Relationship::Customer,
            Relationship::Peer,
        ];
        for (leaf, rel) in (1..).zip(leaves) {
            let link = sim.add_link(
                nodes[0],
                nodes[leaf],
                LatencyModel::Fixed(SimDuration::from_millis(5)),
            );
            sim.with_node::<Router, _>(nodes[0], |r| {
                r.add_neighbor(NeighborConfig::new(nodes[leaf], link, asn(leaf), rel));
            });
            sim.with_node::<Router, _>(nodes[leaf], |r| {
                r.add_neighbor(NeighborConfig::new(nodes[0], link, asn(0), rel.inverse()));
            });
        }
        assert!(sim.run_until_quiescent(SimTime::from_secs(60)).quiescent);
        sim.inject(nodes[0], BgpOnlyMsg::Command(RouterCommand::Announce(p)));
        assert!(sim.run_until_quiescent(SimTime::from_secs(120)).quiescent);
        let routes: Vec<SharedAttrs> = (1..=3)
            .map(|leaf| {
                let r = sim.node_ref::<Router>(nodes[leaf]);
                let rib = r.adj_in();
                let routes: usize = rib.prefixes().map(|q| rib.candidates(q).count()).sum();
                assert_eq!(routes, 1, "leaf {leaf}");
                r.adj_in().get(p, 0).expect("learned").attrs.clone()
            })
            .collect();
        if let Some(table) = &shared {
            assert_eq!(table.purge(), 2, "the table holds what the leaves hold");
        }
        routes
    };

    let routes = run(Some(AttrTable::default()));
    assert_eq!(routes[0].local_pref, Some(90));
    assert_eq!(routes[2].local_pref, Some(110));
    assert!(SharedAttrs::ptr_eq(&routes[0], &routes[1]));
    assert!(!SharedAttrs::ptr_eq(&routes[0], &routes[2]));

    let routes = run(None);
    assert_eq!(routes[0], routes[1]);
    assert!(!SharedAttrs::ptr_eq(&routes[0], &routes[1]));
}

/// The per-route structs, in bytes (64-bit). `PathAttributes` is what every
/// route allocates once (plus 16 bytes of reference counts); an Adj-RIB-In
/// row holds one `(PeerIdx, RibInEntry)` per candidate, a Loc-RIB one
/// `Option<LocRibEntry>` per prefix slot and a peer's Adj-RIB-Out one
/// `Option<SharedAttrs>` per Loc-RIB slot. The per-message structs are upper
/// bounds: the compiler may find a niche for a tag.
#[test]
fn per_route_structs_keep_their_size() {
    use std::mem::size_of;
    assert_eq!(size_of::<AsPath>(), 40);
    // 72 + 16 = 88 bytes per attribute block: glibc's 96-byte chunk. Eight
    // bytes more and every route takes the 112-byte one.
    assert_eq!(size_of::<PathAttributes>(), 72);
    assert_eq!(size_of::<SharedAttrs>(), 8);
    assert_eq!(size_of::<RibInEntry>(), 24);
    assert_eq!(size_of::<(PeerIdx, RibInEntry)>(), 32);
    assert_eq!(size_of::<Vec<(PeerIdx, RibInEntry)>>(), 24);
    assert_eq!(size_of::<LocRibEntry>(), 32);
    assert_eq!(size_of::<Option<LocRibEntry>>(), 32);
    assert_eq!(size_of::<Option<SharedAttrs>>(), 8);
    assert!(size_of::<UpdateMsg>() <= 72);
    assert!(size_of::<BgpEnvelope>() <= 104);
}
