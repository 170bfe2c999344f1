//! Property-based tests of the OpenFlow-subset codec: arbitrary messages
//! round-trip, arbitrary bytes never panic the decoder, and flow-table
//! lookups are consistent with rule semantics.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use bgpsdn_bgp::Prefix;
use bgpsdn_netsim::{DataPacket, PacketKind};
use bgpsdn_sdn::{FlowAction, FlowModOp, FlowRule, FlowTable, OfMessage};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32)
        .prop_map(|(addr, len)| Prefix::new_masked(Ipv4Addr::from(addr), len).unwrap())
}

fn arb_action() -> impl Strategy<Value = FlowAction> {
    prop_oneof![
        any::<u32>().prop_map(FlowAction::Output),
        Just(FlowAction::ToController),
        Just(FlowAction::Drop),
        Just(FlowAction::Local),
    ]
}

fn arb_rule() -> impl Strategy<Value = FlowRule> {
    (any::<u16>(), arb_prefix(), arb_action(), any::<u64>()).prop_map(
        |(priority, prefix, action, cookie)| FlowRule {
            priority,
            prefix,
            action,
            cookie,
        },
    )
}

fn arb_packet() -> impl Strategy<Value = DataPacket> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u8>(),
        prop_oneof![
            Just(PacketKind::EchoRequest),
            Just(PacketKind::EchoReply),
            any::<u16>().prop_map(PacketKind::Payload),
        ],
    )
        .prop_map(|(src, dst, id, ttl, kind)| DataPacket {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            id,
            ttl,
            kind,
        })
}

fn arb_message() -> impl Strategy<Value = OfMessage> {
    prop_oneof![
        any::<u64>().prop_map(|datapath_id| OfMessage::Hello { datapath_id }),
        (any::<u32>(), arb_packet())
            .prop_map(|(ingress, packet)| OfMessage::PacketIn { ingress, packet }),
        (
            prop_oneof![Just(FlowModOp::Add), Just(FlowModOp::Delete)],
            arb_rule()
        )
            .prop_map(|(op, rule)| OfMessage::FlowMod { op, rule }),
        (any::<u32>(), any::<bool>()).prop_map(|(port, up)| OfMessage::PortStatus { port, up }),
    ]
}

proptest! {
    #[test]
    fn of_messages_roundtrip(msg in arb_message()) {
        let bytes = msg.encode();
        prop_assert_eq!(OfMessage::decode(&bytes).expect("own encoding decodes"), msg);
    }

    #[test]
    fn of_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = OfMessage::decode(&bytes);
    }

    #[test]
    fn of_decoder_never_panics_on_corruption(
        msg in arb_message(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..255), 1..6),
    ) {
        let mut bytes = msg.encode();
        for (idx, val) in flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= val;
        }
        let _ = OfMessage::decode(&bytes);
    }

    /// A lookup hit always comes from an installed rule whose prefix
    /// actually contains the address, and no higher-priority containing
    /// rule exists.
    #[test]
    fn flowtable_lookup_soundness(
        rules in prop::collection::vec(arb_rule(), 0..40),
        addr in any::<u32>(),
    ) {
        let mut table = FlowTable::new();
        for r in &rules {
            table.install(r.clone());
        }
        let dst = Ipv4Addr::from(addr);
        match table.lookup(dst) {
            Some(hit) => {
                prop_assert!(hit.prefix.contains(dst));
                for r in table.iter() {
                    if r.prefix.contains(dst) {
                        prop_assert!(
                            r.priority < hit.priority
                                || (r.priority == hit.priority
                                    && r.prefix.len() <= hit.prefix.len()),
                            "rule {r:?} should have beaten {hit:?}"
                        );
                    }
                }
            }
            None => {
                for r in table.iter() {
                    prop_assert!(!r.prefix.contains(dst), "missed {r:?}");
                }
            }
        }
    }

    /// Install-then-delete is the identity on the table.
    #[test]
    fn flowtable_delete_undoes_install(rules in prop::collection::vec(arb_rule(), 1..20)) {
        let mut table = FlowTable::new();
        // Deduplicate by (priority, prefix) — install replaces those.
        let mut seen = std::collections::HashSet::new();
        let rules: Vec<FlowRule> = rules
            .into_iter()
            .filter(|r| seen.insert((r.priority, r.prefix)))
            .collect();
        for r in &rules {
            table.install(r.clone());
        }
        prop_assert_eq!(table.len(), rules.len());
        for r in &rules {
            prop_assert!(table.remove(r.priority, r.prefix));
        }
        prop_assert!(table.is_empty());
    }
}
