//! BGP path attributes (RFC 4271 §4.3, plus communities, RFC 1997).
//!
//! AS numbers inside AS_PATH are encoded as 4 octets: both ends of every
//! session in this framework advertise the four-octet-AS capability
//! (RFC 6793), so the AS4_PATH compatibility dance is unnecessary.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;
use std::sync::Arc;

use crate::inline::InlineVec;
use crate::types::Asn;
use crate::wire::{CodecError, Reader, Writer};

/// ORIGIN attribute values, ordered by decision-process preference
/// (IGP < EGP < Incomplete; lower wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Interior to the originating AS.
    Igp = 0,
    /// Learned via EGP.
    Egp = 1,
    /// Learned by other means.
    Incomplete = 2,
}

impl Origin {
    fn from_u8(v: u8) -> Result<Origin, CodecError> {
        match v {
            0 => Ok(Origin::Igp),
            1 => Ok(Origin::Egp),
            2 => Ok(Origin::Incomplete),
            _ => Err(CodecError::BadAttribute {
                code: attr_code::ORIGIN,
                reason: "origin value out of range",
            }),
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Origin::Igp => "i",
            Origin::Egp => "e",
            Origin::Incomplete => "?",
        })
    }
}

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Ordered sequence of traversed ASes.
    Sequence(Vec<Asn>),
    /// Unordered set (result of aggregation).
    Set(Vec<Asn>),
}

impl Segment {
    /// Wire segment type and members.
    fn parts(&self) -> (u8, &[Asn]) {
        match self {
            Segment::Set(v) => (SEG_SET, v),
            Segment::Sequence(v) => (SEG_SEQUENCE, v),
        }
    }
}

const SEG_SET: u8 = 1;
const SEG_SEQUENCE: u8 = 2;

/// ASNs of the leading AS_SEQUENCE an [`AsPath`] holds in place.
const INLINE_ASNS: usize = 7;

/// A segment's ASN count is one octet on the wire (RFC 4271 §4.3).
const MAX_SEGMENT_ASNS: usize = 255;

/// The AS_PATH attribute: the ASes a route has traversed, most recent first.
///
/// Nearly every path is one short AS_SEQUENCE, and the layout is built for
/// that: the leading AS_SEQUENCE is `lead` — stored inside the struct up to
/// `INLINE_ASNS` (7) ASNs, one heap vector beyond — and `rest`, whatever
/// follows it on the wire (AS_SETs from aggregation, further AS_SEQUENCEs),
/// sits behind one nullable pointer that stays null. Such a path owns no
/// heap block, cloning it is a copy, and it is 40 bytes.
///
/// The form is canonical: the first wire segment is in `lead` exactly when
/// it is an AS_SEQUENCE (so an empty `lead` means an empty path or one that
/// starts with an AS_SET), `rest` is `None` exactly when nothing follows,
/// no segment of `rest` is empty, and segment boundaries are kept. Every
/// wire path therefore re-encodes to the bytes it was decoded from, and
/// `Eq`/`Hash` compare what the path says, not where it is stored.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    lead: InlineVec<Asn, INLINE_ASNS>,
    rest: Option<Box<Tail>>,
}

/// The wire segments after the leading AS_SEQUENCE. Rare (AS_SETs from
/// aggregation, sequences past 255 ASNs), so a path reaches them through
/// one thin pointer instead of carrying a `Vec` header of its own.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
struct Tail(Vec<Segment>);

impl AsPath {
    /// A pure sequence path. More than 255 ASNs make several AS_SEQUENCEs,
    /// split where [`prepend`](AsPath::prepend)ing them one by one from the
    /// origin would: the full segments at the origin end.
    pub fn from_seq(asns: impl IntoIterator<Item = u32>) -> AsPath {
        let asns = asns.into_iter();
        let mut lead = InlineVec::with_capacity(asns.size_hint().0);
        lead.extend(asns.map(Asn));
        let mut rest = None;
        if lead.len() > MAX_SEGMENT_ASNS {
            let short = match lead.len() % MAX_SEGMENT_ASNS {
                0 => MAX_SEGMENT_ASNS,
                n => n,
            };
            rest = Some(Box::new(Tail(
                lead.as_slice()[short..]
                    .chunks(MAX_SEGMENT_ASNS)
                    .map(|c| Segment::Sequence(c.to_vec()))
                    .collect(),
            )));
            lead.truncate(short);
        }
        AsPath { lead, rest }
    }

    /// A path of the given wire segments, nearest first — how a path with an
    /// AS_SET is stated. Empty segments are dropped and a segment of more
    /// than 255 ASNs is split: the wire carries neither.
    // detlint: allow test-oracle builds the AS_SET paths proptest_codec draws
    pub fn from_segments(segments: impl IntoIterator<Item = Segment>) -> AsPath {
        let mut path = AsPath::default();
        for seg in segments {
            let (ty, asns) = seg.parts();
            for chunk in asns.chunks(MAX_SEGMENT_ASNS) {
                if ty == SEG_SET {
                    path.rest_mut().push(Segment::Set(chunk.to_vec()));
                } else if path.is_empty() {
                    path.lead.extend(chunk.iter().copied());
                } else {
                    path.rest_mut().push(Segment::Sequence(chunk.to_vec()));
                }
            }
        }
        path
    }

    /// The wire segments after the leading AS_SEQUENCE.
    fn rest(&self) -> &[Segment] {
        self.rest.as_deref().map_or(&[], |tail| &tail.0)
    }

    /// The segments after the leading AS_SEQUENCE, for a caller about to
    /// add one (so the allocation is never left empty).
    fn rest_mut(&mut self) -> &mut Vec<Segment> {
        &mut self.rest.get_or_insert_with(Box::default).0
    }

    /// The wire segments in order, as `(segment type, members)`.
    fn wire_segments(&self) -> impl Iterator<Item = (u8, &[Asn])> {
        let lead = (!self.lead.is_empty()).then_some((SEG_SEQUENCE, self.lead.as_slice()));
        lead.into_iter()
            .chain(self.rest().iter().map(Segment::parts))
    }

    /// Prepend one AS (what a router does on eBGP export). A leading
    /// AS_SEQUENCE that already holds 255 ASNs stays as it is and a new one
    /// starts in front of it (RFC 4271 §5.1.2).
    // detlint: allow test-oracle step proptest_codec drives against its model
    pub fn prepend(&mut self, asn: Asn) {
        if self.lead.len() == MAX_SEGMENT_ASNS {
            let full = std::mem::take(&mut self.lead);
            self.rest_mut()
                .insert(0, Segment::Sequence(full.as_slice().to_vec()));
        }
        self.lead.insert(0, asn);
    }

    /// Prepend the same AS `n` times (path prepending policy action).
    // detlint: allow test-oracle step proptest_codec drives against its model
    pub fn prepend_n(&mut self, asn: Asn, n: usize) {
        for _ in 0..n {
            self.prepend(asn);
        }
    }

    /// Decision-process length: each sequence member counts 1, each set
    /// counts 1 in total (RFC 4271 §9.1.2.2 a).
    // detlint: allow test-oracle read-only view proptest_codec checks against its model
    pub fn path_len(&self) -> usize {
        let rest: usize = self
            .rest()
            .iter()
            .map(|s| match s {
                Segment::Sequence(seq) => seq.len(),
                Segment::Set(_) => 1,
            })
            .sum();
        self.lead.len() + rest
    }

    /// True when `asn` appears anywhere (loop detection).
    // detlint: allow test-oracle read-only view proptest_codec checks against its model
    pub fn contains(&self, asn: Asn) -> bool {
        self.wire_segments().any(|(_, v)| v.contains(&asn))
    }

    /// The neighboring AS: first AS of the first segment.
    // detlint: allow test-oracle read-only view proptest_codec checks against its model
    pub fn first_asn(&self) -> Option<Asn> {
        let (_, first) = self.wire_segments().next()?;
        first.first().copied()
    }

    /// The originating AS: last AS of the last segment.
    // detlint: allow test-oracle read-only view proptest_codec checks against its model
    pub fn origin_asn(&self) -> Option<Asn> {
        let (_, last) = self.wire_segments().last()?;
        last.last().copied()
    }

    /// All ASes in order of appearance (sets flattened in stored order).
    pub fn flatten(&self) -> Vec<Asn> {
        let mut out = Vec::with_capacity(self.lead.len());
        for (_, v) in self.wire_segments() {
            out.extend_from_slice(v);
        }
        out
    }

    /// True for a locally-originated (empty) path.
    // detlint: allow test-oracle read-only view proptest_codec checks against its model
    pub fn is_empty(&self) -> bool {
        self.lead.is_empty() && self.rest.is_none()
    }

    pub(crate) fn encode(&self, w: &mut Writer) {
        for (ty, asns) in self.wire_segments() {
            debug_assert!(asns.len() <= MAX_SEGMENT_ASNS, "segment count is one octet");
            w.u8(ty);
            w.u8(asns.len() as u8);
            for a in asns {
                w.u32(a.0);
            }
        }
    }

    /// Encoded size in bytes, known without encoding — lets the attribute
    /// framing write its length header up front instead of detouring
    /// through a scratch buffer.
    pub(crate) fn wire_len(&self) -> usize {
        self.wire_segments()
            .map(|(_, asns)| 2 + 4 * asns.len())
            .sum()
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<AsPath, CodecError> {
        let mut path = AsPath::default();
        while !r.is_empty() {
            let ty = r.u8("as_path segment type")?;
            let n = r.u8("as_path segment count")? as usize;
            if n == 0 {
                return Err(CodecError::BadAttribute {
                    code: attr_code::AS_PATH,
                    reason: "empty segment",
                });
            }
            if ty == SEG_SEQUENCE && path.is_empty() {
                // The leading AS_SEQUENCE goes straight into its slots.
                path.lead = InlineVec::with_capacity(n);
                for _ in 0..n {
                    path.lead.push(Asn(r.u32("as_path asn")?));
                }
                continue;
            }
            let mut asns = Vec::with_capacity(n);
            for _ in 0..n {
                asns.push(Asn(r.u32("as_path asn")?));
            }
            path.rest_mut().push(match ty {
                SEG_SET => Segment::Set(asns),
                SEG_SEQUENCE => Segment::Sequence(asns),
                _ => {
                    return Err(CodecError::BadAttribute {
                        code: attr_code::AS_PATH,
                        reason: "unknown segment type",
                    })
                }
            });
        }
        Ok(path)
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "<local>");
        }
        for (i, (ty, asns)) in self.wire_segments().enumerate() {
            let (open, sep, close) = if ty == SEG_SET {
                ("{", ",", "}")
            } else {
                ("", " ", "")
            };
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{open}")?;
            for (j, a) in asns.iter().enumerate() {
                if j > 0 {
                    write!(f, "{sep}")?;
                }
                write!(f, "{}", a.0)?;
            }
            write!(f, "{close}")?;
        }
        Ok(())
    }
}

/// A standard community value (RFC 1997), displayed `asn:value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Community(pub u32);

impl Community {
    /// Build from the conventional `asn:value` halves.
    // detlint: allow test-oracle builds the community values the policy tests match on
    pub fn new(asn: u16, value: u16) -> Community {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The high (AS) half.
    pub(crate) fn asn(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low (value) half.
    pub(crate) fn value(self) -> u16 {
        self.0 as u16
    }

    /// NO_EXPORT well-known community.
    pub const NO_EXPORT: Community = Community(0xFFFF_FF01);
    /// NO_ADVERTISE well-known community.
    pub const NO_ADVERTISE: Community = Community(0xFFFF_FF02);
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn(), self.value())
    }
}

/// Attribute type codes.
pub mod attr_code {
    /// ORIGIN.
    pub const ORIGIN: u8 = 1;
    /// AS_PATH.
    pub const AS_PATH: u8 = 2;
    /// NEXT_HOP.
    pub const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC.
    pub const MED: u8 = 4;
    /// LOCAL_PREF.
    pub const LOCAL_PREF: u8 = 5;
    /// ATOMIC_AGGREGATE.
    pub const ATOMIC_AGGREGATE: u8 = 6;
    /// AGGREGATOR.
    pub const AGGREGATOR: u8 = 7;
    /// COMMUNITY (RFC 1997).
    pub const COMMUNITY: u8 = 8;
}

mod flags {
    pub const OPTIONAL: u8 = 0x80;
    pub const TRANSITIVE: u8 = 0x40;
    pub const _PARTIAL: u8 = 0x20;
    pub const EXT_LEN: u8 = 0x10;
}

/// An unrecognized optional attribute carried through unmodified.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RawAttribute {
    /// Original flag octet.
    pub flags: u8,
    /// Attribute type code.
    pub code: u8,
    /// Raw value bytes.
    pub value: Vec<u8>,
}

/// The attributes a route rarely carries: ATOMIC_AGGREGATE, AGGREGATOR,
/// communities and unknown optional attributes. A [`PathAttributes`] holds
/// them behind one pointer that stays null while all four are empty.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RareAttrs {
    /// ATOMIC_AGGREGATE marker.
    pub atomic_aggregate: bool,
    /// AGGREGATOR (AS, router) pair.
    pub aggregator: Option<(Asn, Ipv4Addr)>,
    /// Standard communities.
    pub communities: Vec<Community>,
    /// Unknown optional-transitive attributes passed through.
    pub unknown: Vec<RawAttribute>,
}

/// What [`PathAttributes::rare`] reads when the block is null.
static NO_RARE: RareAttrs = RareAttrs {
    atomic_aggregate: false,
    aggregator: None,
    communities: Vec::new(),
    unknown: Vec::new(),
};

impl RareAttrs {
    fn is_empty(&self) -> bool {
        *self == NO_RARE
    }
}

/// The full set of path attributes carried by an UPDATE.
///
/// The five attributes every route carries are inline; the rest sit in one
/// [`RareAttrs`] block. The form is canonical — the block is `None` exactly
/// when it would be empty — so the derived `Eq`/`Hash` compare content, and
/// the struct is 72 bytes: with its two reference counts, glibc's 96-byte
/// chunk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathAttributes {
    /// Mandatory ORIGIN.
    pub origin: Origin,
    /// Mandatory AS_PATH.
    pub as_path: AsPath,
    /// Mandatory NEXT_HOP.
    pub next_hop: Ipv4Addr,
    /// Optional MULTI_EXIT_DISC.
    pub med: Option<u32>,
    /// LOCAL_PREF (mandatory on iBGP; we also use it internally to carry
    /// policy preference, but never send it on eBGP sessions).
    pub local_pref: Option<u32>,
    /// Null unless a peer or a route map set a rare attribute.
    rare: Option<Box<RareAttrs>>,
}

impl PathAttributes {
    /// Attributes for a locally originated route.
    pub fn originate(next_hop: Ipv4Addr) -> PathAttributes {
        PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::default(),
            next_hop,
            med: None,
            local_pref: None,
            rare: None,
        }
    }

    /// The rare attributes (all empty for nearly every route).
    // detlint: allow test-oracle read-only view the codec and router tests check
    pub fn rare(&self) -> &RareAttrs {
        self.rare.as_deref().unwrap_or(&NO_RARE)
    }

    /// Edit the rare attributes; an edit that leaves them all empty frees
    /// their block, so the form stays canonical.
    // detlint: allow test-oracle step proptest_codec and proptest_intern drive
    pub fn edit_rare(&mut self, edit: impl FnOnce(&mut RareAttrs)) {
        let rare = self.rare.get_or_insert_with(Box::default);
        edit(rare);
        if rare.is_empty() {
            self.rare = None;
        }
    }

    /// Write the `(flags, code, length)` attribute header for a body of
    /// `len` bytes that the caller writes directly afterwards.
    fn encode_header(w: &mut Writer, flag: u8, code: u8, len: usize) {
        if len > 255 {
            w.u8(flag | flags::EXT_LEN);
            w.u8(code);
            w.u16(len as u16);
        } else {
            w.u8(flag);
            w.u8(code);
            w.u8(len as u8);
        }
    }

    fn encode_one(w: &mut Writer, flag: u8, code: u8, body: &[u8]) {
        Self::encode_header(w, flag, code, body.len());
        w.bytes(body);
    }

    /// Encode the attribute block (without the two-byte total length that
    /// precedes it in an UPDATE; the message codec writes that).
    // detlint: allow test-oracle step proptest_codec drives against its model
    pub fn encode(&self, w: &mut Writer) {
        // ORIGIN: well-known mandatory.
        Self::encode_one(
            w,
            flags::TRANSITIVE,
            attr_code::ORIGIN,
            &[self.origin as u8],
        );
        // AS_PATH: body length is known up front, so it encodes straight
        // into `w` — no per-message scratch buffer.
        Self::encode_header(
            w,
            flags::TRANSITIVE,
            attr_code::AS_PATH,
            self.as_path.wire_len(),
        );
        self.as_path.encode(w);
        // NEXT_HOP.
        Self::encode_one(
            w,
            flags::TRANSITIVE,
            attr_code::NEXT_HOP,
            &self.next_hop.octets(),
        );
        if let Some(med) = self.med {
            Self::encode_one(w, flags::OPTIONAL, attr_code::MED, &med.to_be_bytes());
        }
        if let Some(lp) = self.local_pref {
            Self::encode_one(
                w,
                flags::TRANSITIVE,
                attr_code::LOCAL_PREF,
                &lp.to_be_bytes(),
            );
        }
        let Some(rare) = self.rare.as_deref() else {
            return;
        };
        if rare.atomic_aggregate {
            Self::encode_one(w, flags::TRANSITIVE, attr_code::ATOMIC_AGGREGATE, &[]);
        }
        if let Some((asn, ip)) = rare.aggregator {
            Self::encode_header(
                w,
                flags::OPTIONAL | flags::TRANSITIVE,
                attr_code::AGGREGATOR,
                8,
            );
            w.u32(asn.0);
            w.ipv4(ip);
        }
        if !rare.communities.is_empty() {
            Self::encode_header(
                w,
                flags::OPTIONAL | flags::TRANSITIVE,
                attr_code::COMMUNITY,
                rare.communities.len() * 4,
            );
            for c in &rare.communities {
                w.u32(c.0);
            }
        }
        for raw in &rare.unknown {
            Self::encode_one(w, raw.flags & !flags::EXT_LEN, raw.code, &raw.value);
        }
    }

    /// Decode an attribute block. `r` must span exactly the block.
    // detlint: allow test-oracle step proptest_codec drives against its model
    pub fn decode(r: &mut Reader<'_>) -> Result<PathAttributes, CodecError> {
        let mut origin = None;
        let mut as_path = None;
        let mut next_hop = None;
        let mut med = None;
        let mut local_pref = None;
        // Builds no heap block unless a rare attribute arrives.
        let mut rare = RareAttrs::default();

        while !r.is_empty() {
            let flag = r.u8("attr flags")?;
            let code = r.u8("attr code")?;
            let len = if flag & flags::EXT_LEN != 0 {
                r.u16("attr ext length")? as usize
            } else {
                r.u8("attr length")? as usize
            };
            let mut body = r.sub(len, "attr body")?;
            match code {
                attr_code::ORIGIN => {
                    origin = Some(Origin::from_u8(body.u8("origin")?)?);
                }
                attr_code::AS_PATH => {
                    as_path = Some(AsPath::decode(&mut body)?);
                }
                attr_code::NEXT_HOP => {
                    next_hop = Some(body.ipv4("next_hop")?);
                }
                attr_code::MED => {
                    med = Some(body.u32("med")?);
                }
                attr_code::LOCAL_PREF => {
                    local_pref = Some(body.u32("local_pref")?);
                }
                attr_code::ATOMIC_AGGREGATE => {
                    rare.atomic_aggregate = true;
                }
                attr_code::AGGREGATOR => {
                    let asn = Asn(body.u32("aggregator asn")?);
                    let ip = body.ipv4("aggregator id")?;
                    rare.aggregator = Some((asn, ip));
                }
                attr_code::COMMUNITY => {
                    if len % 4 != 0 {
                        return Err(CodecError::BadAttribute {
                            code,
                            reason: "community length not multiple of 4",
                        });
                    }
                    while !body.is_empty() {
                        rare.communities.push(Community(body.u32("community")?));
                    }
                }
                _ => {
                    if flag & flags::OPTIONAL == 0 {
                        return Err(CodecError::BadAttribute {
                            code,
                            reason: "unknown well-known attribute",
                        });
                    }
                    rare.unknown.push(RawAttribute {
                        flags: flag,
                        code,
                        value: body.take(body.remaining(), "raw attr")?.to_vec(),
                    });
                    continue;
                }
            }
            if !body.is_empty() {
                return Err(CodecError::BadAttribute {
                    code,
                    reason: "trailing bytes in attribute body",
                });
            }
        }

        Ok(PathAttributes {
            origin: origin.ok_or(CodecError::BadAttribute {
                code: attr_code::ORIGIN,
                reason: "missing mandatory ORIGIN",
            })?,
            as_path: as_path.ok_or(CodecError::BadAttribute {
                code: attr_code::AS_PATH,
                reason: "missing mandatory AS_PATH",
            })?,
            next_hop: next_hop.ok_or(CodecError::BadAttribute {
                code: attr_code::NEXT_HOP,
                reason: "missing mandatory NEXT_HOP",
            })?,
            med,
            local_pref,
            rare: (!rare.is_empty()).then(|| Box::new(rare)),
        })
    }
}

/// A shared, copy-on-write handle to one route's [`PathAttributes`].
///
/// Every per-route slot of the router (Adj-RIB-In, Loc-RIB, the pending
/// export queue, Adj-RIB-Out, [`UpdateMsg`](crate::msg::UpdateMsg)) holds
/// one of these, so handing a route from one stage to the next is a
/// reference-count bump instead of a deep copy of two heap vectors. Reads
/// go through `Deref`; a write through `DerefMut` edits in place while the
/// handle is the only one and takes a private copy first otherwise, so a
/// write is never visible through another handle.
#[derive(Debug, Clone)]
pub struct SharedAttrs(Arc<PathAttributes>);

impl SharedAttrs {
    /// True when both handles point at the same allocation (equal without
    /// comparing contents).
    // detlint: allow test-oracle read-only view the intern and allocation tests check
    pub fn ptr_eq(a: &SharedAttrs, b: &SharedAttrs) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl From<PathAttributes> for SharedAttrs {
    fn from(attrs: PathAttributes) -> SharedAttrs {
        SharedAttrs(Arc::new(attrs))
    }
}

impl Deref for SharedAttrs {
    type Target = PathAttributes;

    fn deref(&self) -> &PathAttributes {
        &self.0
    }
}

impl DerefMut for SharedAttrs {
    fn deref_mut(&mut self) -> &mut PathAttributes {
        Arc::make_mut(&mut self.0)
    }
}

impl PartialEq for SharedAttrs {
    fn eq(&self, other: &SharedAttrs) -> bool {
        SharedAttrs::ptr_eq(self, other) || *self.0 == *other.0
    }
}

impl Eq for SharedAttrs {}

impl Hash for SharedAttrs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// One network's table of Adj-RIB-In attribute blocks (Quagga's
/// `bgp_attr_intern` across one process's routers, which share clones of
/// it): the set, and the size at which `intern` next purges it. detlint:
/// the set is only looked up, inserted into and `retain`ed, in any order.
#[derive(Clone, Default)]
pub struct AttrTable(Rc<RefCell<(AttrSet, usize)>>);
type AttrSet = HashSet<SharedAttrs, BuildHasherDefault<MulHasher>>;

impl AttrTable {
    /// The table's block equal to `attrs`, `attrs` itself if it is new.
    // detlint: allow test-oracle step proptest_intern drives against its reference
    pub fn intern(&self, attrs: SharedAttrs) -> SharedAttrs {
        let (set, purge_at) = &mut *self.0.borrow_mut();
        if let Some(block) = set.get(&attrs) {
            return block.clone();
        }
        // Purge once grown by a quarter and 64: O(1) an insert, little held garbage.
        if set.len() >= *purge_at {
            set.retain(|a| Arc::strong_count(&a.0) > 1);
            *purge_at = 64 + set.len() * 5 / 4;
        }
        set.insert(attrs.clone());
        attrs
    }

    /// Drop every entry that only the table holds; the number left.
    // detlint: allow test-oracle counts the live blocks attr_table_sim and proptest_intern check
    pub fn purge(&self) -> usize {
        let set = &mut self.0.borrow_mut().0;
        set.retain(|a| Arc::strong_count(&a.0) > 1);
        set.len()
    }
}

/// rustc's "Fx" hash: cheaper than SipHash, and no key here is chosen to collide.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26) // the low bits pick the bucket
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(attrs: &PathAttributes) -> PathAttributes {
        let mut w = Writer::new();
        attrs.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let out = PathAttributes::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        out
    }

    #[test]
    fn minimal_attrs_roundtrip() {
        let a = PathAttributes::originate(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(roundtrip(&a), a);
    }

    #[test]
    fn full_attrs_roundtrip() {
        let mut a = PathAttributes::originate(Ipv4Addr::new(10, 9, 8, 7));
        a.origin = Origin::Incomplete;
        a.as_path = AsPath::from_segments([
            Segment::Sequence(vec![Asn(65001), Asn(65002), Asn(65003)]),
            Segment::Set(vec![Asn(1), Asn(2)]),
        ]);
        a.med = Some(77);
        a.local_pref = Some(130);
        a.edit_rare(|r| {
            r.atomic_aggregate = true;
            r.aggregator = Some((Asn(65001), Ipv4Addr::new(1, 1, 1, 1)));
            r.communities = vec![Community::new(65001, 42), Community::NO_EXPORT];
            r.unknown = vec![RawAttribute {
                flags: 0xC0,
                code: 99,
                value: vec![1, 2, 3],
            }];
        });
        assert_eq!(roundtrip(&a), a);
    }

    #[test]
    fn as_path_prepend_and_len() {
        let mut p = AsPath::default();
        assert!(p.is_empty());
        assert_eq!(p.path_len(), 0);
        p.prepend(Asn(3));
        p.prepend(Asn(2));
        p.prepend(Asn(1));
        assert_eq!(p.path_len(), 3);
        assert_eq!(p.first_asn(), Some(Asn(1)));
        assert_eq!(p.origin_asn(), Some(Asn(3)));
        assert_eq!(p.flatten(), vec![Asn(1), Asn(2), Asn(3)]);
        assert_eq!(p.to_string(), "1 2 3");
    }

    #[test]
    fn as_path_set_counts_one() {
        let p = AsPath::from_segments([
            Segment::Sequence(vec![Asn(1), Asn(2)]),
            Segment::Set(vec![Asn(3), Asn(4), Asn(5)]),
        ]);
        assert_eq!(p.path_len(), 3);
        assert_eq!(p.origin_asn(), Some(Asn(5)));
        assert_eq!(p.to_string(), "1 2 {3,4,5}");
        assert!(p.contains(Asn(4)));
        assert!(!p.contains(Asn(9)));
    }

    #[test]
    fn prepend_n_repeats() {
        let mut p = AsPath::from_seq([7]);
        p.prepend_n(Asn(5), 3);
        assert_eq!(p.flatten(), vec![Asn(5), Asn(5), Asn(5), Asn(7)]);
        assert_eq!(p.path_len(), 4);
    }

    fn path_roundtrip(p: &AsPath) -> AsPath {
        let mut w = Writer::new();
        p.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), p.wire_len());
        AsPath::decode(&mut Reader::new(&bytes)).expect("own encoding must decode")
    }

    /// RFC 4271 §5.1.2: a full leading AS_SEQUENCE is not grown, a new one
    /// starts in front of it — two policies prepending 200 each must not
    /// wrap the one-octet segment count.
    #[test]
    fn prepend_past_255_starts_a_new_segment() {
        let mut p = AsPath::default();
        p.prepend_n(Asn(65002), 200);
        p.prepend_n(Asn(65001), 200);
        assert_eq!(p.path_len(), 400);
        assert_eq!(p.wire_len(), 2 * 2 + 4 * 400);
        assert_eq!(path_roundtrip(&p), p);
        assert_eq!(p.first_asn(), Some(Asn(65001)));
        assert_eq!(p.origin_asn(), Some(Asn(65002)));
        let mut expected = vec![Asn(65001); 200];
        expected.extend([Asn(65002); 200]);
        assert_eq!(p.flatten(), expected);
        assert_eq!(p, AsPath::from_seq(expected.iter().map(|a| a.0)));
        // 262 = 7 + 255: `from_seq` leaves the short leading segment in the
        // vector it collected into, prepending builds it in place.
        let spilled = AsPath::from_seq(0..262);
        let mut inline = AsPath::default();
        for asn in (0..262).rev() {
            inline.prepend(Asn(asn));
        }
        assert!(spilled.lead.spilled() && !inline.lead.spilled());
        assert_eq!(spilled, inline);
        // An exact multiple leaves no short segment in front.
        let full = AsPath::from_seq(0..510);
        assert_eq!(full.wire_len(), 2 * 2 + 4 * 510);
        assert_eq!(path_roundtrip(&full), full);
    }

    /// Segment boundaries survive the canonical form: a leading AS_SET and
    /// consecutive AS_SEQUENCEs re-encode to the bytes they came from.
    #[test]
    fn leading_set_and_consecutive_sequences_roundtrip() {
        #[rustfmt::skip]
        let wire = [
            SEG_SET, 2, 0, 0, 0, 9, 0, 0, 0, 8,
            SEG_SEQUENCE, 1, 0, 0, 0, 7,
            SEG_SEQUENCE, 2, 0, 0, 0, 6, 0, 0, 0, 5,
        ];
        let p = AsPath::decode(&mut Reader::new(&wire)).unwrap();
        assert_eq!(p.to_string(), "{9,8} 7 6 5");
        assert_eq!(p.path_len(), 4);
        assert_eq!(p.first_asn(), Some(Asn(9)));
        let mut w = Writer::new();
        p.encode(&mut w);
        assert_eq!(w.as_bytes(), &wire);
        let mut q = p.clone();
        q.prepend(Asn(1));
        assert_eq!(q.to_string(), "1 {9,8} 7 6 5");
        let two = AsPath::decode(&mut Reader::new(&wire[10..])).unwrap();
        assert_ne!(two, AsPath::from_seq([7, 6, 5]), "boundaries are content");
        assert_eq!(path_roundtrip(&two), two);
    }

    #[test]
    fn community_halves() {
        let c = Community::new(65010, 300);
        assert_eq!(c.asn(), 65010);
        assert_eq!(c.value(), 300);
        assert_eq!(c.to_string(), "65010:300");
        assert_eq!(Community::NO_EXPORT.to_string(), "65535:65281");
    }

    #[test]
    fn decode_rejects_missing_mandatory() {
        // Only an ORIGIN attribute: AS_PATH and NEXT_HOP missing.
        let mut w = Writer::new();
        PathAttributes::encode_one(&mut w, flags::TRANSITIVE, attr_code::ORIGIN, &[0]);
        let bytes = w.into_bytes();
        let err = PathAttributes::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CodecError::BadAttribute { code: 2, .. }));
    }

    #[test]
    fn decode_rejects_bad_origin_value() {
        let mut w = Writer::new();
        PathAttributes::encode_one(&mut w, flags::TRANSITIVE, attr_code::ORIGIN, &[9]);
        let bytes = w.into_bytes();
        assert!(PathAttributes::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn decode_rejects_unknown_wellknown() {
        let mut w = Writer::new();
        // flags without OPTIONAL bit, unknown code 50
        PathAttributes::encode_one(&mut w, flags::TRANSITIVE, 50, &[1]);
        let bytes = w.into_bytes();
        let err = PathAttributes::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CodecError::BadAttribute { code: 50, .. }));
    }

    #[test]
    fn extended_length_attribute_roundtrip() {
        // An AS_PATH long enough to need the extended-length flag (>255 B).
        let mut a = PathAttributes::originate(Ipv4Addr::new(1, 1, 1, 1));
        a.as_path = AsPath::from_seq(0..80u32); // 80*4 + 2 = 322 bytes
        let out = roundtrip(&a);
        assert_eq!(out.as_path.path_len(), 80);
    }

    #[test]
    fn empty_as_path_segment_rejected() {
        let bytes = [SEG_SEQUENCE, 0u8];
        assert!(AsPath::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn origin_ordering_for_decision() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    /// A table whose blocks are let go purges itself once it has grown by a
    /// quarter and 64, so that bounds what it holds; what is held stays.
    #[test]
    fn the_table_purges_what_only_it_holds() {
        let table = AttrTable::default();
        let attrs = |i: u32| {
            let mut a = PathAttributes::originate(Ipv4Addr::new(10, 0, 0, 1));
            a.med = Some(i);
            SharedAttrs::from(a)
        };
        let kept: Vec<SharedAttrs> = (0..600).map(|i| table.intern(attrs(i))).collect();
        for i in 600..5000 {
            table.intern(attrs(i));
            assert!(
                table.0.borrow().0.len() <= 64 + kept.len() * 5 / 4 + 1,
                "at {i}"
            );
        }
        for (i, held) in kept.iter().enumerate() {
            assert!(SharedAttrs::ptr_eq(held, &table.intern(attrs(i as u32))));
        }
        assert_eq!(table.purge(), kept.len());
    }
}
