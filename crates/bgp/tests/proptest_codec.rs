//! Property-based tests for the BGP wire codec: arbitrary messages must
//! round-trip exactly, and arbitrary byte soup must never panic the decoder.
//! Also the shared attribute handle every decoded route travels in: it must
//! behave exactly like the attributes it holds, and never alias a write; and
//! the AS_PATH layout (leading AS_SEQUENCE in place, the rest behind it) must
//! behave exactly like the plain list of wire segments it stands for, and
//! the rare-attribute block must vanish when it empties.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use bgpsdn_bgp::{
    AsPath, Asn, BgpEnvelope, BgpMessage, Capability, Community, NotifCode, NotificationMsg,
    OpenMsg, Origin, PathAttributes, Prefix, RouteMap, RouterId, Rule, Segment, SetAction,
    SharedAttrs, UpdateMsg, WireBytes,
};
use bgpsdn_netsim::NodeId;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32)
        .prop_map(|(addr, len)| Prefix::new_masked(Ipv4Addr::from(addr), len).expect("len <= 32"))
}

fn arb_asn() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..65536, 65536u32..4_294_967_295]
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        prop::collection::vec(arb_asn().prop_map(Asn), 1..8).prop_map(Segment::Sequence),
        prop::collection::vec(arb_asn().prop_map(Asn), 1..5).prop_map(Segment::Set),
    ]
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(arb_segment(), 0..4).prop_map(AsPath::from_segments)
}

/// One step of the AS_PATH model property.
#[derive(Debug, Clone)]
enum PathOp {
    Prepend(u32),
    PrependN(u32, usize),
    /// `decode(encode(path))`.
    Reparse,
}

fn arb_path_op() -> impl Strategy<Value = PathOp> {
    // ASNs from a small pool so `contains` hits as often as it misses;
    // counts that step over the inline capacity and over the 255-ASN
    // segment limit.
    prop_oneof![
        (1u32..12).prop_map(PathOp::Prepend),
        (1u32..12, prop_oneof![0usize..10, 250usize..260])
            .prop_map(|(asn, n)| PathOp::PrependN(asn, n)),
        Just(PathOp::Reparse),
    ]
}

/// Starting segments: mostly a leading AS_SEQUENCE around the inline
/// capacity, but also a leading AS_SET and two AS_SEQUENCEs in a row.
fn arb_model_start() -> impl Strategy<Value = Vec<Segment>> {
    let seq = |len| prop::collection::vec((1u32..12).prop_map(Asn), len);
    prop_oneof![
        seq(0..12).prop_map(|v| if v.is_empty() {
            vec![]
        } else {
            vec![Segment::Sequence(v)]
        }),
        (seq(1..4), seq(1..9)).prop_map(|(set, s)| vec![Segment::Set(set), Segment::Sequence(s)]),
        (seq(1..9), seq(1..9)).prop_map(|(a, b)| vec![Segment::Sequence(a), Segment::Sequence(b)]),
        (seq(1..9), seq(1..4), seq(1..4)).prop_map(|(a, set, b)| vec![
            Segment::Sequence(a),
            Segment::Set(set),
            Segment::Sequence(b)
        ]),
    ]
}

/// The reference `prepend`: grow a leading AS_SEQUENCE that has room, else
/// start a new one (RFC 4271 §5.1.2).
fn model_prepend(model: &mut Vec<Segment>, asn: Asn) {
    match model.first_mut() {
        Some(Segment::Sequence(seq)) if seq.len() < 255 => seq.insert(0, asn),
        _ => model.insert(0, Segment::Sequence(vec![asn])),
    }
}

fn model_members(seg: &Segment) -> &[Asn] {
    match seg {
        Segment::Sequence(v) | Segment::Set(v) => v,
    }
}

fn model_display(model: &[Segment]) -> String {
    if model.is_empty() {
        return "<local>".to_string();
    }
    let parts: Vec<String> = model
        .iter()
        .map(|seg| {
            let asns: Vec<String> = model_members(seg).iter().map(|a| a.0.to_string()).collect();
            match seg {
                Segment::Sequence(_) => asns.join(" "),
                Segment::Set(_) => format!("{{{}}}", asns.join(",")),
            }
        })
        .collect();
    parts.join(" ")
}

/// The attribute block of `PathAttributes::originate(0.0.0.0)` carrying the
/// model path, written out by hand.
fn model_attr_bytes(model: &[Segment]) -> Vec<u8> {
    let mut body = Vec::new();
    for seg in model {
        body.push(match seg {
            Segment::Set(_) => 1,
            Segment::Sequence(_) => 2,
        });
        let asns = model_members(seg);
        body.push(u8::try_from(asns.len()).expect("model segments hold at most 255"));
        for a in asns {
            body.extend_from_slice(&a.0.to_be_bytes());
        }
    }
    let mut out = vec![0x40, 1, 1, 0]; // ORIGIN igp
    match u8::try_from(body.len()) {
        Ok(len) => out.extend_from_slice(&[0x40, 2, len]),
        Err(_) => {
            out.extend_from_slice(&[0x50, 2]);
            out.extend_from_slice(&(body.len() as u16).to_be_bytes());
        }
    }
    out.extend_from_slice(&body);
    out.extend_from_slice(&[0x40, 3, 4, 0, 0, 0, 0]); // NEXT_HOP
    out
}

fn path_attrs(path: &AsPath) -> PathAttributes {
    let mut attrs = PathAttributes::originate(Ipv4Addr::UNSPECIFIED);
    attrs.as_path = path.clone();
    attrs
}

fn arb_origin() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::Igp),
        Just(Origin::Egp),
        Just(Origin::Incomplete)
    ]
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        arb_origin(),
        arb_as_path(),
        any::<u32>(),
        prop::option::of(any::<u32>()),
        prop::option::of(any::<u32>()),
        any::<bool>(),
        prop::option::of((arb_asn(), any::<u32>())),
        prop::collection::vec(any::<u32>(), 0..6),
    )
        .prop_map(
            |(origin, as_path, nh, med, local_pref, atomic, aggregator, comms)| {
                let mut a = PathAttributes::originate(Ipv4Addr::from(nh));
                a.origin = origin;
                a.as_path = as_path;
                a.med = med;
                a.local_pref = local_pref;
                a.edit_rare(|r| {
                    r.atomic_aggregate = atomic;
                    r.aggregator = aggregator.map(|(asn, ip)| (Asn(asn), Ipv4Addr::from(ip)));
                    r.communities = comms.into_iter().map(Community).collect();
                });
                a
            },
        )
}

fn hash_of(value: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn attr_bytes(attrs: &PathAttributes) -> Vec<u8> {
    let mut w = bgpsdn_bgp::wire::Writer::new();
    attrs.encode(&mut w);
    w.into_bytes()
}

fn arb_update() -> impl Strategy<Value = UpdateMsg> {
    (
        prop::collection::vec(arb_prefix(), 0..12),
        prop::option::of(arb_attrs()),
        prop::collection::vec(arb_prefix(), 0..12),
    )
        .prop_map(|(withdrawn, attrs, mut nlri)| {
            // NLRI requires attributes; drop NLRI when none were generated.
            if attrs.is_none() {
                nlri.clear();
            }
            UpdateMsg {
                withdrawn: withdrawn.into(),
                attrs: attrs.map(Into::into),
                nlri: nlri.into(),
            }
        })
}

fn arb_message() -> impl Strategy<Value = BgpMessage> {
    prop_oneof![
        (
            arb_asn(),
            any::<u32>(),
            any::<u16>(),
            // Graceful restart advertises a 12-bit restart time.
            prop::option::of(0u16..=0x0FFF)
        )
            .prop_map(|(asn, rid, hold, gr)| {
                let mut open = OpenMsg {
                    version: 4,
                    asn: Asn(asn),
                    hold_time_secs: hold,
                    router_id: RouterId(rid),
                    capabilities: vec![
                        Capability::MultiProtocol { afi: 1, safi: 1 },
                        Capability::RouteRefresh,
                        Capability::FourOctetAs(Asn(asn)),
                    ],
                };
                if let Some(restart_time_secs) = gr {
                    open.capabilities
                        .push(Capability::GracefulRestart { restart_time_secs });
                }
                BgpMessage::Open(open)
            }),
        arb_update().prop_map(BgpMessage::Update),
        (
            any::<u8>(),
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..32)
        )
            .prop_map(|(code, subcode, data)| {
                BgpMessage::Notification(NotificationMsg {
                    code: NotifCode::Other(code).into_canonical(),
                    subcode,
                    data,
                })
            }),
        Just(BgpMessage::Keepalive),
        (any::<u16>(), any::<u8>()).prop_map(|(afi, safi)| BgpMessage::RouteRefresh { afi, safi }),
    ]
}

/// Helper so generated notification codes survive the roundtrip (code 1..6
/// decode to named variants, everything else to `Other`).
trait Canonical {
    fn into_canonical(self) -> NotifCode;
}
impl Canonical for NotifCode {
    fn into_canonical(self) -> NotifCode {
        match self {
            NotifCode::Other(1) => NotifCode::MessageHeader,
            NotifCode::Other(2) => NotifCode::OpenMessage,
            NotifCode::Other(3) => NotifCode::UpdateMessage,
            NotifCode::Other(4) => NotifCode::HoldTimerExpired,
            NotifCode::Other(5) => NotifCode::FsmError,
            NotifCode::Other(6) => NotifCode::Cease,
            other => other,
        }
    }
}

/// A NOTIFICATION of exactly `len` wire bytes (21 of them are framing).
fn notification_of(len: usize, fill: u8) -> BgpMessage {
    BgpMessage::Notification(NotificationMsg {
        code: NotifCode::Cease,
        subcode: 0,
        data: vec![fill; len - 21],
    })
}

/// An envelope is its bytes, not where they live: the one the constructors
/// build and one forced onto the heap compare equal, hash equal and decode
/// equal.
fn check_envelope_inline_or_spilled(msg: &BgpMessage) {
    use std::hash::{BuildHasher, RandomState};
    let env = BgpEnvelope::new(NodeId(1), NodeId(2), msg);
    assert_eq!(env.bytes.as_slice(), msg.encode().as_slice());
    assert_eq!(env.bytes.spilled(), env.bytes.len() > 64);
    let mut on_heap = WireBytes::with_capacity(env.bytes.len().max(65));
    on_heap.extend(env.bytes.iter().copied());
    assert!(on_heap.spilled());
    let hasher = RandomState::new();
    assert_eq!(hasher.hash_one(&env.bytes), hasher.hash_one(&on_heap));
    let spilled = BgpEnvelope {
        bytes: on_heap,
        ..env.clone()
    };
    assert_eq!(spilled, env);
    assert_eq!(spilled.wire_len(), env.wire_len());
    assert_eq!(
        BgpMessage::decode(spilled.bytes.as_slice()).as_ref(),
        Ok(msg)
    );
    assert_eq!(BgpMessage::decode(env.bytes.as_slice()).as_ref(), Ok(msg));
}

#[test]
fn envelope_at_the_inline_boundary() {
    for len in [21, 63, 64, 65, 66, 128, 255, 256, 4096] {
        check_envelope_inline_or_spilled(&notification_of(len, len as u8));
    }
}

proptest! {
    #[test]
    fn envelope_is_the_same_inline_or_spilled(msg in arb_message()) {
        check_envelope_inline_or_spilled(&msg);
    }

    #[test]
    fn message_roundtrips(msg in arb_message()) {
        let bytes = msg.encode();
        let back = BgpMessage::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(back, msg);
    }

    /// Encoding into a reused (dirty) scratch writer must produce the exact
    /// bytes of a fresh-allocation encode, for every message type — the
    /// property the zero-alloc send path (`BgpEnvelope::with_cause_scratch`)
    /// relies on.
    #[test]
    fn scratch_reuse_encodes_identically(
        residue in arb_message(),
        msgs in prop::collection::vec(arb_message(), 1..6),
    ) {
        let mut scratch = bgpsdn_bgp::wire::Writer::with_capacity(8);
        // Dirty the scratch with an unrelated message first.
        residue.encode_into(&mut scratch);
        for msg in &msgs {
            msg.encode_into(&mut scratch);
            let fresh = msg.encode();
            prop_assert_eq!(
                scratch.as_bytes(),
                fresh.as_slice(),
                "reused-scratch encode diverged from fresh encode"
            );
        }
    }

    #[test]
    fn attrs_roundtrip(attrs in arb_attrs()) {
        let msg = BgpMessage::Update(UpdateMsg::announce(
            vec!["10.0.0.0/8".parse().unwrap()],
            attrs,
        ));
        let back = BgpMessage::decode(&msg.encode()).expect("decode");
        prop_assert_eq!(back, msg);
    }

    /// Copy-on-write: a clone shares the allocation until one side writes,
    /// and the write is visible through the writing handle only. A handle
    /// that is the only one edits in place.
    #[test]
    fn shared_attrs_writes_never_reach_a_clone(
        attrs in arb_attrs(),
        lp in any::<u32>(),
        asn in arb_asn(),
    ) {
        let original = SharedAttrs::from(attrs.clone());
        let mut edited = original.clone();
        prop_assert!(SharedAttrs::ptr_eq(&original, &edited));
        edited.local_pref = Some(lp);
        edited.as_path.prepend(Asn(asn));
        prop_assert!(!SharedAttrs::ptr_eq(&original, &edited));
        prop_assert_eq!(&*original, &attrs);
        prop_assert_ne!(&edited, &original);
        let mut expected = attrs.clone();
        expected.local_pref = Some(lp);
        expected.as_path.prepend(Asn(asn));
        prop_assert_eq!(&*edited, &expected);

        let before: *const PathAttributes = &*edited;
        edited.med = Some(lp);
        prop_assert!(std::ptr::eq(before, &*edited), "a sole handle must not copy");
    }

    /// `Eq`, `Hash` and the wire encoding of a handle are those of the
    /// attributes it holds, whether or not two handles share an allocation.
    #[test]
    fn shared_attrs_agree_with_the_attributes_they_hold(a in arb_attrs(), b in arb_attrs()) {
        let (sa, sb) = (SharedAttrs::from(a.clone()), SharedAttrs::from(b.clone()));
        prop_assert_eq!(sa == sb, a == b);
        prop_assert_eq!(&sa, &sa.clone());
        let twin = SharedAttrs::from(a.clone());
        prop_assert!(!SharedAttrs::ptr_eq(&sa, &twin));
        prop_assert_eq!(&sa, &twin);
        prop_assert_eq!(hash_of(&sa), hash_of(&a));
        prop_assert_eq!(hash_of(&sa), hash_of(&twin));
        prop_assert_eq!(attr_bytes(&sa), attr_bytes(&a));
    }

    /// The rare-attribute block is canonical: a community a route map adds
    /// and then strips leaves attributes equal to, hashing like and encoding
    /// to the same bytes as ones that never had it. An ATOMIC_AGGREGATE
    /// keeps the block alive through the strip; without one, the block goes.
    #[test]
    fn a_stripped_community_leaves_no_trace(
        base in arb_attrs(),
        atomic in any::<bool>(),
        community in any::<u32>(),
    ) {
        let mut never = PathAttributes::originate(base.next_hop);
        never.origin = base.origin;
        never.as_path = base.as_path.clone();
        never.med = base.med;
        never.local_pref = base.local_pref;
        if atomic {
            never.edit_rare(|r| r.atomic_aggregate = true);
        }
        let map = |action| RouteMap {
            rules: vec![Rule { conds: vec![], actions: vec![action], permit: true }],
            default_permit: true,
        };
        let prefix: Prefix = "10.0.0.0/8".parse().unwrap();
        let tagged = map(SetAction::AddCommunity(Community(community)))
            .apply(prefix, &never, Asn(1))
            .expect("permitted");
        prop_assert_eq!(&tagged.rare().communities, &vec![Community(community)]);
        prop_assert_ne!(&tagged, &never);
        let stripped = map(SetAction::StripCommunities)
            .apply(prefix, &tagged, Asn(1))
            .expect("permitted");
        prop_assert_eq!(&stripped, &never);
        prop_assert_eq!(hash_of(&stripped), hash_of(&never));
        prop_assert_eq!(attr_bytes(&stripped), attr_bytes(&never));
        prop_assert_eq!(stripped.rare().atomic_aggregate, atomic);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = BgpMessage::decode(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_corrupted_valid(
        msg in arb_message(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = msg.encode();
        for (idx, val) in flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= val;
        }
        let _ = BgpMessage::decode(&bytes);
    }

    /// Whatever the decoder accepts — even from corrupted byte soup — must
    /// re-encode to bytes that decode back to the identical message, and
    /// that second encoding must be byte-stable: decode∘encode is a fixed
    /// point on the decoder's image.
    #[test]
    fn decode_encode_decode_reaches_a_fixed_point(
        msg in arb_message(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..8),
    ) {
        let mut bytes = msg.encode();
        for (idx, val) in flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= val;
        }
        if let Ok(decoded) = BgpMessage::decode(&bytes) {
            let reencoded = decoded.encode();
            let again = BgpMessage::decode(&reencoded).expect("re-encoded message must decode");
            prop_assert_eq!(&again, &decoded);
            prop_assert_eq!(again.encode(), reencoded, "second encode must be byte-stable");
        }
    }

    /// RFC 7606 salvage over a *well-formed* UPDATE recovers every prefix
    /// the message mentioned, as a pure withdrawal.
    #[test]
    fn salvage_withdraw_recovers_every_mentioned_prefix(u in arb_update()) {
        let bytes = BgpMessage::Update(u.clone()).encode();
        let salvaged = UpdateMsg::salvage_withdraw(&bytes)
            .expect("well-formed update must salvage");
        prop_assert!(salvaged.nlri.is_empty());
        prop_assert!(salvaged.attrs.is_none());
        for p in u.withdrawn.iter().chain(u.nlri.iter()) {
            prop_assert!(salvaged.withdrawn.contains(p), "lost {}", p);
        }
    }

    /// Salvage walks only the TLV framing, so corrupted attribute *content*
    /// must never panic it — it either recovers prefixes or returns None.
    #[test]
    fn salvage_withdraw_never_panics_on_corrupted_bytes(
        msg in arb_message(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = msg.encode();
        for (idx, val) in flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= val;
        }
        let _ = UpdateMsg::salvage_withdraw(&bytes);
    }

    #[test]
    fn truncated_valid_messages_error_cleanly(msg in arb_message(), cut in any::<prop::sample::Index>()) {
        let bytes = msg.encode();
        let n = cut.index(bytes.len());
        if n < bytes.len() {
            prop_assert!(BgpMessage::decode(&bytes[..n]).is_err());
        }
    }

    #[test]
    fn prefix_parse_display_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Prefix = s.parse().expect("display must parse");
        prop_assert_eq!(back, p);
    }

    /// The AS_PATH layout against the plain list of segments it replaced:
    /// through any sequence of prepends and re-parses — across the inline
    /// capacity, across the 255-ASN segment limit, from a leading AS_SET or
    /// two AS_SEQUENCEs in a row — every reader and the wire agree with
    /// the list, and a path equals (and hashes like) the same path rebuilt
    /// from the list.
    #[test]
    fn as_path_matches_a_plain_segment_list(
        start in arb_model_start(),
        ops in prop::collection::vec(arb_path_op(), 0..8),
    ) {
        let mut model = start.clone();
        let mut path = AsPath::from_segments(start);
        for op in ops {
            let before = path.clone();
            match op {
                PathOp::Prepend(asn) => {
                    path.prepend(Asn(asn));
                    model_prepend(&mut model, Asn(asn));
                    prop_assert_ne!(&path, &before);
                }
                PathOp::PrependN(asn, n) => {
                    path.prepend_n(Asn(asn), n);
                    for _ in 0..n {
                        model_prepend(&mut model, Asn(asn));
                    }
                    prop_assert_eq!(path == before, n == 0);
                }
                PathOp::Reparse => {
                    let bytes = attr_bytes(&path_attrs(&path));
                    path = PathAttributes::decode(&mut bgpsdn_bgp::wire::Reader::new(&bytes))
                        .expect("own encoding must decode")
                        .as_path;
                    prop_assert_eq!(&path, &before);
                    prop_assert_eq!(hash_of(&path), hash_of(&before));
                }
            }
            let flat: Vec<Asn> = model.iter().flat_map(|s| model_members(s).to_vec()).collect();
            let len: usize = model
                .iter()
                .map(|s| match s {
                    Segment::Sequence(v) => v.len(),
                    Segment::Set(_) => 1,
                })
                .sum();
            prop_assert_eq!(path.path_len(), len);
            prop_assert_eq!(path.is_empty(), model.is_empty());
            for asn in (0..13).map(Asn) {
                prop_assert_eq!(path.contains(asn), flat.contains(&asn), "{}", asn);
            }
            prop_assert_eq!(path.first_asn(), flat.first().copied());
            prop_assert_eq!(path.origin_asn(), flat.last().copied());
            prop_assert_eq!(path.to_string(), model_display(&model));
            prop_assert_eq!(attr_bytes(&path_attrs(&path)), model_attr_bytes(&model));
            prop_assert_eq!(&path.flatten(), &flat);
            let rebuilt = AsPath::from_segments(model.clone());
            prop_assert_eq!(&path, &rebuilt);
            prop_assert_eq!(hash_of(&path), hash_of(&rebuilt));
        }
    }

    /// The same short path stored in place and stored on the heap: a long
    /// pure sequence splits into full segments behind a short leading one,
    /// which `from_seq` leaves in the vector it collected into while
    /// `from_segments` builds it in place.
    #[test]
    fn a_path_built_inline_equals_the_same_path_built_spilled(
        lead in 1usize..12,
        full in 1usize..3,
        asns in prop::collection::vec(arb_asn(), 12 + 2 * 255),
    ) {
        let asns = &asns[..lead + full * 255];
        let spilled = AsPath::from_seq(asns.iter().copied());
        let mut segments = vec![Segment::Sequence(asns[..lead].iter().copied().map(Asn).collect())];
        segments.extend(
            asns[lead..].chunks(255).map(|c| Segment::Sequence(c.iter().copied().map(Asn).collect())),
        );
        let inline = AsPath::from_segments(segments);
        prop_assert_eq!(&spilled, &inline);
        prop_assert_eq!(hash_of(&spilled), hash_of(&inline));
        prop_assert_eq!(attr_bytes(&path_attrs(&spilled)), attr_bytes(&path_attrs(&inline)));
        let mut built = AsPath::default();
        for asn in asns.iter().rev() {
            built.prepend(Asn(*asn));
        }
        prop_assert_eq!(&built, &spilled);
        prop_assert_eq!(hash_of(&built), hash_of(&spilled));
    }

    #[test]
    fn as_path_prepend_preserves_suffix(path in arb_as_path(), asn in arb_asn()) {
        let mut p2 = path.clone();
        p2.prepend(Asn(asn));
        prop_assert_eq!(p2.first_asn(), Some(Asn(asn)));
        prop_assert_eq!(p2.path_len(), path.path_len() + 1);
        let flat_old = path.flatten();
        let flat_new = p2.flatten();
        prop_assert_eq!(&flat_new[1..], &flat_old[..]);
        prop_assert!(p2.contains(Asn(asn)));
    }
}
