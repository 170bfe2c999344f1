//! The attribute table at hierarchy scale: on a Gao–Rexford hierarchy of
//! 3 + 12 + 30 ASes, every router's Adj-RIB-In holds one block per
//! distinct content, the table keeps nothing the RIBs let go of once it is
//! purged, and each network has a table of its own.

use std::collections::HashSet;

use bgpsdn_bgp::attrs::AttrTable;
use bgpsdn_bgp::{PathAttributes, PolicyMode, SharedAttrs, TimingConfig};
use bgpsdn_core::{Experiment, JobSpec, Router, ScriptAction, Topology};
use bgpsdn_netsim::SimDuration;
use bgpsdn_topology::caida::SynthesisParams;

const HOUR: SimDuration = SimDuration::from_secs(3600);

fn spec() -> JobSpec {
    let params = SynthesisParams {
        tier1: 3,
        mid: 12,
        stubs: 30,
        ..SynthesisParams::default()
    };
    JobSpec {
        policy: PolicyMode::GaoRexford,
        timing: TimingConfig::with_mrai(SimDuration::ZERO),
        seed: 7,
        ..JobSpec::new(Topology::Hierarchy { params, seed: 7 })
    }
}

/// Attributes no route of the network carries.
fn probe() -> SharedAttrs {
    PathAttributes::originate([192, 0, 2, 1].into()).into()
}

/// The network's one table, checked to be every router's: each returns
/// the block the first one entered.
fn table(exp: &Experiment) -> AttrTable {
    let mut tables = exp
        .net
        .legacy()
        .map(|a| exp.net.sim.node_ref::<Router>(a.node).attr_table());
    let table = tables.next().expect("a router").clone();
    let block = table.intern(probe());
    for t in tables {
        assert!(SharedAttrs::ptr_eq(&block, &t.intern(probe())));
    }
    table
}

/// Every Adj-RIB-In route of every router, checked to be the table's
/// block: `(routes, distinct blocks, distinct contents)`.
fn census(exp: &Experiment, table: &AttrTable) -> (usize, usize, usize) {
    let mut routes = 0;
    let mut blocks: HashSet<*const PathAttributes> = HashSet::new();
    let mut contents: HashSet<SharedAttrs> = HashSet::new();
    for a in exp.net.legacy() {
        let rib = exp.net.sim.node_ref::<Router>(a.node).adj_in();
        for prefix in rib.prefixes() {
            for (_, entry) in rib.candidates(prefix) {
                let block = &entry.attrs;
                let copy = SharedAttrs::from(PathAttributes::clone(block));
                assert!(SharedAttrs::ptr_eq(block, &table.intern(copy)));
                routes += 1;
                blocks.insert(std::ptr::from_ref::<PathAttributes>(block));
                contents.insert(block.clone());
            }
        }
    }
    (routes, blocks.len(), contents.len())
}

#[test]
fn a_hierarchy_keeps_one_block_per_distinct_content() {
    let mut exp = Experiment::new(spec().builder().build());
    assert!(exp.start(HOUR).converged);
    let table = table(&exp);
    let (routes, blocks, contents) = census(&exp, &table);
    assert!(
        routes > 2 * contents,
        "{routes} routes, {contents} contents"
    );
    assert_eq!(blocks, contents);
    assert_eq!(table.purge(), contents, "the table holds what a RIB holds");

    // A stub's prefix goes and comes back: the blocks of the routes that
    // went are the table's alone until a purge drops them.
    let stub = exp.net.ases.len() - 1;
    exp.mark();
    exp.apply(&ScriptAction::Withdraw {
        as_index: stub,
        prefix: None,
    });
    assert!(exp.wait_converged(HOUR).converged);
    exp.mark();
    exp.apply(&ScriptAction::Announce {
        as_index: stub,
        prefix: None,
    });
    assert!(exp.wait_converged(HOUR).converged);
    let (_, blocks, contents) = census(&exp, &table);
    assert_eq!(blocks, contents);
    assert_eq!(table.purge(), contents, "the table holds what a RIB holds");
}

#[test]
fn each_network_has_a_table_of_its_own() {
    let first = Experiment::new(spec().builder().build());
    let second = Experiment::new(spec().builder().build());
    let block = table(&first).intern(probe());
    assert!(!SharedAttrs::ptr_eq(
        &block,
        &table(&second).intern(probe())
    ));
}
