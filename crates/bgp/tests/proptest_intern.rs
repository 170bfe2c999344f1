//! Property-based tests for the attribute table: over random programs of
//! interning, dropping and purging, a handle reads what was interned, every
//! held handle with the same contents is the same block (so nothing held
//! ever leaves the table), and a purge leaves exactly the contents held.

use std::collections::BTreeSet;

use proptest::prelude::*;

use bgpsdn_bgp::attrs::AttrTable;
use bgpsdn_bgp::{AsPath, Community, PathAttributes, SharedAttrs};

/// Contents `i` of a small universe, distinct for distinct `i`: next hops,
/// path lengths and MEDs vary, the longest paths leave the inline part of
/// an `AsPath`, and odd contents carry a community (the cold block).
fn contents(i: u8) -> PathAttributes {
    let mut attrs = PathAttributes::originate([10, 0, 0, i % 3].into());
    attrs.as_path = AsPath::from_seq(65001..65002 + u32::from(i % 9));
    attrs.med = Some(u32::from(i / 9));
    attrs.local_pref = Some(100);
    if i % 2 == 1 {
        attrs.edit_rare(|r| r.communities = vec![Community::new(65001, u16::from(i))]);
    }
    attrs
}

#[derive(Debug, Clone)]
enum Op {
    /// Intern a fresh copy of contents `i` and hold the result.
    Intern(u8),
    /// Let go of the `k`-th held handle (modulo the count held).
    Drop(usize),
    Purge,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..24).prop_map(Op::Intern),
        (0usize..64).prop_map(Op::Drop),
        Just(Op::Purge),
    ]
}

proptest! {
    #[test]
    fn held_contents_are_one_block_each(ops in prop::collection::vec(arb_op(), 0..120)) {
        let table = AttrTable::default();
        let mut held: Vec<(u8, SharedAttrs)> = Vec::new();
        for op in ops {
            match op {
                Op::Intern(i) => {
                    let handle = table.intern(contents(i).into());
                    prop_assert_eq!(&*handle, &contents(i));
                    held.push((i, handle));
                }
                Op::Drop(k) => {
                    if !held.is_empty() {
                        held.remove(k % held.len());
                    }
                }
                Op::Purge => {
                    let live: BTreeSet<u8> = held.iter().map(|(i, _)| *i).collect();
                    prop_assert_eq!(table.purge(), live.len());
                }
            }
            for (a, (i, x)) in held.iter().enumerate() {
                for (j, y) in &held[a + 1..] {
                    prop_assert_eq!(i == j, SharedAttrs::ptr_eq(x, y));
                }
            }
        }
    }
}
