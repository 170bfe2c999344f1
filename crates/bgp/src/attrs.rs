//! BGP path attributes (RFC 4271 §4.3, plus communities, RFC 1997).
//!
//! AS numbers inside AS_PATH are encoded as 4 octets: both ends of every
//! session in this framework advertise the four-octet-AS capability
//! (RFC 6793), so the AS4_PATH compatibility dance is unnecessary.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

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

const SEG_SET: u8 = 1;
const SEG_SEQUENCE: u8 = 2;

/// The AS_PATH attribute: the ASes a route has traversed, most recent first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    /// Segments, first segment is nearest.
    pub segments: Vec<Segment>,
}

impl AsPath {
    /// The empty path (a locally originated route).
    pub fn empty() -> AsPath {
        AsPath { segments: vec![] }
    }

    /// A pure sequence path.
    pub fn from_seq(asns: impl IntoIterator<Item = u32>) -> AsPath {
        AsPath {
            segments: vec![Segment::Sequence(asns.into_iter().map(Asn).collect())],
        }
    }

    /// Prepend one AS (what a router does on eBGP export).
    pub fn prepend(&mut self, asn: Asn) {
        match self.segments.first_mut() {
            Some(Segment::Sequence(seq)) => seq.insert(0, asn),
            _ => self.segments.insert(0, Segment::Sequence(vec![asn])),
        }
    }

    /// Prepend the same AS `n` times (path prepending policy action).
    pub fn prepend_n(&mut self, asn: Asn, n: usize) {
        for _ in 0..n {
            self.prepend(asn);
        }
    }

    /// Decision-process length: each sequence member counts 1, each set
    /// counts 1 in total (RFC 4271 §9.1.2.2 a).
    pub fn path_len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Sequence(seq) => seq.len(),
                Segment::Set(_) => 1,
            })
            .sum()
    }

    /// True when `asn` appears anywhere (loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| match s {
            Segment::Sequence(v) | Segment::Set(v) => v.contains(&asn),
        })
    }

    /// The neighboring AS: first AS of the first sequence segment.
    pub fn first_asn(&self) -> Option<Asn> {
        match self.segments.first() {
            Some(Segment::Sequence(v)) => v.first().copied(),
            Some(Segment::Set(v)) => v.first().copied(),
            None => None,
        }
    }

    /// The originating AS: last AS of the last segment.
    pub fn origin_asn(&self) -> Option<Asn> {
        match self.segments.last() {
            Some(Segment::Sequence(v)) => v.last().copied(),
            Some(Segment::Set(v)) => v.last().copied(),
            None => None,
        }
    }

    /// All ASes in order of appearance (sets flattened in stored order).
    pub fn flatten(&self) -> Vec<Asn> {
        let mut out = Vec::new();
        for s in &self.segments {
            match s {
                Segment::Sequence(v) | Segment::Set(v) => out.extend_from_slice(v),
            }
        }
        out
    }

    /// True for a locally-originated (empty) path.
    pub fn is_empty(&self) -> bool {
        self.path_len() == 0
    }

    pub(crate) fn encode(&self, w: &mut Writer) {
        for seg in &self.segments {
            let (ty, asns) = match seg {
                Segment::Set(v) => (SEG_SET, v),
                Segment::Sequence(v) => (SEG_SEQUENCE, v),
            };
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
        self.segments
            .iter()
            .map(|seg| {
                let asns = match seg {
                    Segment::Set(v) | Segment::Sequence(v) => v,
                };
                2 + 4 * asns.len()
            })
            .sum()
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<AsPath, CodecError> {
        let mut segments = Vec::new();
        while !r.is_empty() {
            let ty = r.u8("as_path segment type")?;
            let n = r.u8("as_path segment count")? as usize;
            if n == 0 {
                return Err(CodecError::BadAttribute {
                    code: attr_code::AS_PATH,
                    reason: "empty segment",
                });
            }
            let mut asns = Vec::with_capacity(n);
            for _ in 0..n {
                asns.push(Asn(r.u32("as_path asn")?));
            }
            segments.push(match ty {
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
        Ok(AsPath { segments })
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                Segment::Sequence(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                Segment::Set(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        if self.segments.is_empty() {
            write!(f, "<local>")?;
        }
        Ok(())
    }
}

/// A standard community value (RFC 1997), displayed `asn:value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Community(pub u32);

impl Community {
    /// Build from the conventional `asn:value` halves.
    pub fn new(asn: u16, value: u16) -> Community {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The high (AS) half.
    pub fn asn(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low (value) half.
    pub fn value(self) -> u16 {
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

/// The full set of path attributes carried by an UPDATE.
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
    /// ATOMIC_AGGREGATE marker.
    pub atomic_aggregate: bool,
    /// AGGREGATOR (AS, router) pair.
    pub aggregator: Option<(Asn, Ipv4Addr)>,
    /// Standard communities.
    pub communities: Vec<Community>,
    /// Unknown optional-transitive attributes passed through.
    pub unknown: Vec<RawAttribute>,
}

impl PathAttributes {
    /// Attributes for a locally originated route.
    pub fn originate(next_hop: Ipv4Addr) -> PathAttributes {
        PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::empty(),
            next_hop,
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities: Vec::new(),
            unknown: Vec::new(),
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
        if self.atomic_aggregate {
            Self::encode_one(w, flags::TRANSITIVE, attr_code::ATOMIC_AGGREGATE, &[]);
        }
        if let Some((asn, ip)) = self.aggregator {
            Self::encode_header(
                w,
                flags::OPTIONAL | flags::TRANSITIVE,
                attr_code::AGGREGATOR,
                8,
            );
            w.u32(asn.0);
            w.ipv4(ip);
        }
        if !self.communities.is_empty() {
            Self::encode_header(
                w,
                flags::OPTIONAL | flags::TRANSITIVE,
                attr_code::COMMUNITY,
                self.communities.len() * 4,
            );
            for c in &self.communities {
                w.u32(c.0);
            }
        }
        for raw in &self.unknown {
            Self::encode_one(w, raw.flags & !flags::EXT_LEN, raw.code, &raw.value);
        }
    }

    /// Decode an attribute block. `r` must span exactly the block.
    pub fn decode(r: &mut Reader<'_>) -> Result<PathAttributes, CodecError> {
        let mut origin = None;
        let mut as_path = None;
        let mut next_hop = None;
        let mut med = None;
        let mut local_pref = None;
        let mut atomic_aggregate = false;
        let mut aggregator = None;
        let mut communities = Vec::new();
        let mut unknown = Vec::new();

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
                    atomic_aggregate = true;
                }
                attr_code::AGGREGATOR => {
                    let asn = Asn(body.u32("aggregator asn")?);
                    let ip = body.ipv4("aggregator id")?;
                    aggregator = Some((asn, ip));
                }
                attr_code::COMMUNITY => {
                    if len % 4 != 0 {
                        return Err(CodecError::BadAttribute {
                            code,
                            reason: "community length not multiple of 4",
                        });
                    }
                    while !body.is_empty() {
                        communities.push(Community(body.u32("community")?));
                    }
                }
                _ => {
                    if flag & flags::OPTIONAL == 0 {
                        return Err(CodecError::BadAttribute {
                            code,
                            reason: "unknown well-known attribute",
                        });
                    }
                    unknown.push(RawAttribute {
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
            atomic_aggregate,
            aggregator,
            communities,
            unknown,
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
        a.as_path = AsPath::from_seq([65001, 65002, 65003]);
        a.as_path.segments.push(Segment::Set(vec![Asn(1), Asn(2)]));
        a.med = Some(77);
        a.local_pref = Some(130);
        a.atomic_aggregate = true;
        a.aggregator = Some((Asn(65001), Ipv4Addr::new(1, 1, 1, 1)));
        a.communities = vec![Community::new(65001, 42), Community::NO_EXPORT];
        a.unknown.push(RawAttribute {
            flags: 0xC0,
            code: 99,
            value: vec![1, 2, 3],
        });
        assert_eq!(roundtrip(&a), a);
    }

    #[test]
    fn as_path_prepend_and_len() {
        let mut p = AsPath::empty();
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
        let p = AsPath {
            segments: vec![
                Segment::Sequence(vec![Asn(1), Asn(2)]),
                Segment::Set(vec![Asn(3), Asn(4), Asn(5)]),
            ],
        };
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
}
