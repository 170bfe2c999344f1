//! Fundamental BGP types: AS numbers, router identifiers, IPv4 prefixes.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An Autonomous System number (4-octet capable, RFC 6793). The default,
/// reserved AS 0, is what unused [`InlineVec`](crate::inline::InlineVec)
/// slots hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl Asn {
    /// AS_TRANS (RFC 6793): placed in the 2-octet OPEN "My AS" field when
    /// the real ASN does not fit in 16 bits.
    pub const TRANS: Asn = Asn(23456);

    /// True when this ASN fits the classic 2-octet field.
    pub(crate) fn is_16bit(self) -> bool {
        self.0 <= u16::MAX as u32
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

/// The BGP Identifier: a 32-bit value conventionally written as an IPv4
/// address, unique per router. Used as the final decision-process tie-break.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u32);

impl RouterId {
    /// Build from an IPv4 address.
    pub fn from_ip(ip: Ipv4Addr) -> Self {
        RouterId(u32::from(ip))
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Ipv4Addr::from(self.0))
    }
}

/// Errors from [`Prefix`] construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// Prefix length above 32.
    BadLength(u8),
    /// Host bits set beyond the mask.
    HostBitsSet,
    /// Unparseable textual form.
    BadSyntax(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::BadLength(l) => write!(f, "prefix length {l} > 32"),
            PrefixError::HostBitsSet => write!(f, "host bits set below prefix length"),
            PrefixError::BadSyntax(s) => write!(f, "cannot parse prefix: {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

/// An IPv4 prefix in canonical (masked) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Default for Prefix {
    /// The default route, `0.0.0.0/0` — the placeholder value
    /// [`InlineVec`](crate::inline::InlineVec) fills unused slots with.
    fn default() -> Self {
        Prefix::DEFAULT
    }
}

impl Prefix {
    /// The default route, `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { addr: 0, len: 0 };

    /// Construct, rejecting host bits below the mask.
    pub fn new(ip: Ipv4Addr, len: u8) -> Result<Prefix, PrefixError> {
        if len > 32 {
            return Err(PrefixError::BadLength(len));
        }
        let addr = u32::from(ip);
        let masked = addr & Self::mask_for(len);
        if masked != addr {
            return Err(PrefixError::HostBitsSet);
        }
        Ok(Prefix { addr, len })
    }

    /// Construct, silently masking any host bits.
    // detlint: allow test-oracle builds the random prefixes the property tests draw
    pub fn new_masked(ip: Ipv4Addr, len: u8) -> Result<Prefix, PrefixError> {
        if len > 32 {
            return Err(PrefixError::BadLength(len));
        }
        let addr = u32::from(ip) & Self::mask_for(len);
        Ok(Prefix { addr, len })
    }

    fn mask_for(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address.
    pub fn network(self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// The network address as raw bits.
    pub fn network_u32(self) -> u32 {
        self.addr
    }

    /// Prefix length in bits (not a container size — a /0 is not "empty").
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// True when `ip` falls inside this prefix.
    pub fn contains(self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & Self::mask_for(self.len)) == self.addr
    }

    /// True when `other` is equal to or more specific than `self`.
    pub fn covers(self, other: Prefix) -> bool {
        other.len >= self.len && (other.addr & Self::mask_for(self.len)) == self.addr
    }

    /// The `i`-th address inside the prefix (panics when out of range);
    /// used by the IP allocator to hand out host addresses.
    pub fn nth(self, i: u64) -> Ipv4Addr {
        assert!(i < 1u64 << (32 - self.len), "host index {i} out of {self}");
        Ipv4Addr::from(self.addr + i as u32)
    }

    /// Split into two prefixes one bit longer. Panics on a /32.
    pub fn split(self) -> (Prefix, Prefix) {
        assert!(self.len < 32, "cannot split a /32");
        let len = self.len + 1;
        let hi_bit = 1u32 << (32 - len);
        (
            Prefix {
                addr: self.addr,
                len,
            },
            Prefix {
                addr: self.addr | hi_bit,
                len,
            },
        )
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

/// The telemetry-plane form of a prefix, as trace events carry it.
impl From<Prefix> for bgpsdn_netsim::ObsPrefix {
    fn from(p: Prefix) -> Self {
        bgpsdn_netsim::ObsPrefix::new(p.network_u32(), p.len())
    }
}

impl FromStr for Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::BadSyntax(s.into()))?;
        let ip: Ipv4Addr = ip.parse().map_err(|_| PrefixError::BadSyntax(s.into()))?;
        let len: u8 = len.parse().map_err(|_| PrefixError::BadSyntax(s.into()))?;
        Prefix::new(ip, len)
    }
}

/// Convenience constructor used pervasively in tests and examples:
/// `pfx("10.0.1.0/24")`. Panics on bad input.
// detlint: allow test-oracle names the prefixes the unit and simulation tests use
pub fn pfx(s: &str) -> Prefix {
    s.parse().unwrap_or_else(|e| panic!("pfx({s:?}): {e}"))
}

/// An immutable, interned AS-path sequence shared by reference count.
///
/// A flattened AS path flows controller → speaker → BGP encoder and is
/// stored per prefix on both ends; behind an `Arc<[Asn]>`, every hand-off
/// and per-prefix copy is a pointer bump instead of a heap clone. Derefs
/// to `[Asn]`, so slice-based helpers (`accept_route`, `from_seq`) take it
/// unchanged.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SharedPath(std::sync::Arc<[Asn]>);

impl SharedPath {
    /// The ASNs of the path.
    pub fn as_slice(&self) -> &[Asn] {
        &self.0
    }
}

impl std::ops::Deref for SharedPath {
    type Target = [Asn];
    fn deref(&self) -> &[Asn] {
        &self.0
    }
}

impl From<Vec<Asn>> for SharedPath {
    fn from(v: Vec<Asn>) -> Self {
        SharedPath(v.into())
    }
}

impl From<&[Asn]> for SharedPath {
    fn from(v: &[Asn]) -> Self {
        SharedPath(v.into())
    }
}

impl FromIterator<Asn> for SharedPath {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> Self {
        SharedPath(iter.into_iter().collect())
    }
}

impl fmt::Display for SharedPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", a.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_display_and_16bit() {
        assert_eq!(Asn(65001).to_string(), "AS65001");
        assert!(Asn(65535).is_16bit());
        assert!(!Asn(65536).is_16bit());
        assert_eq!(Asn::TRANS, Asn(23456));
    }

    #[test]
    fn router_id_roundtrip() {
        let id = RouterId::from_ip(Ipv4Addr::new(10, 0, 0, 7));
        assert_eq!(Ipv4Addr::from(id.0), Ipv4Addr::new(10, 0, 0, 7));
        assert_eq!(id.to_string(), "10.0.0.7");
    }

    #[test]
    fn prefix_parse_and_display() {
        let p = pfx("192.168.4.0/22");
        assert_eq!(p.to_string(), "192.168.4.0/22");
        assert_eq!(p.len(), 22);
        assert_eq!(
            Ipv4Addr::from(Prefix::mask_for(p.len())),
            Ipv4Addr::new(255, 255, 252, 0)
        );
    }

    #[test]
    fn prefix_rejects_host_bits() {
        assert_eq!(
            Prefix::new(Ipv4Addr::new(10, 0, 0, 1), 24),
            Err(PrefixError::HostBitsSet)
        );
        let p = Prefix::new_masked(Ipv4Addr::new(10, 0, 0, 1), 24).unwrap();
        assert_eq!(p, pfx("10.0.0.0/24"));
    }

    #[test]
    fn prefix_rejects_bad_length_and_syntax() {
        assert_eq!(
            Prefix::new(Ipv4Addr::UNSPECIFIED, 33),
            Err(PrefixError::BadLength(33))
        );
        assert!(matches!(
            "x/24".parse::<Prefix>(),
            Err(PrefixError::BadSyntax(_))
        ));
        assert!(matches!(
            "10.0.0.0".parse::<Prefix>(),
            Err(PrefixError::BadSyntax(_))
        ));
        assert!(matches!(
            "10.0.0.0/xx".parse::<Prefix>(),
            Err(PrefixError::BadSyntax(_))
        ));
    }

    #[test]
    fn contains_and_covers() {
        let p = pfx("10.1.0.0/16");
        assert!(p.contains(Ipv4Addr::new(10, 1, 2, 3)));
        assert!(!p.contains(Ipv4Addr::new(10, 2, 0, 0)));
        assert!(p.covers(pfx("10.1.4.0/24")));
        assert!(p.covers(p));
        assert!(!p.covers(pfx("10.0.0.0/8")));
        assert!(Prefix::DEFAULT.covers(p));
    }

    #[test]
    fn nth_and_size() {
        let p = pfx("10.0.0.0/30");
        assert_eq!(p.nth(1), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(p.nth(3), Ipv4Addr::new(10, 0, 0, 3));
        // A /0 holds 2^32 hosts: the bound itself must not overflow.
        assert_eq!(
            pfx("0.0.0.0/0").nth(u64::from(u32::MAX)),
            Ipv4Addr::BROADCAST
        );
    }

    #[test]
    #[should_panic]
    fn nth_out_of_range_panics() {
        pfx("10.0.0.0/30").nth(4);
    }

    #[test]
    fn split_halves() {
        let (a, b) = pfx("10.0.0.0/8").split();
        assert_eq!(a, pfx("10.0.0.0/9"));
        assert_eq!(b, pfx("10.128.0.0/9"));
    }

    #[test]
    fn default_route() {
        assert_eq!(Prefix::DEFAULT.to_string(), "0.0.0.0/0");
        assert!(Prefix::DEFAULT.contains(Ipv4Addr::new(1, 2, 3, 4)));
        assert_eq!(pfx("0.0.0.0/0"), Prefix::DEFAULT);
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut v = vec![pfx("10.0.0.0/8"), pfx("9.0.0.0/8"), pfx("10.0.0.0/16")];
        v.sort();
        assert_eq!(
            v,
            vec![pfx("9.0.0.0/8"), pfx("10.0.0.0/8"), pfx("10.0.0.0/16")]
        );
    }

    #[test]
    fn shared_path_clones_are_interned() {
        let p: SharedPath = vec![Asn(65000), Asn(65001)].into();
        let q = p.clone();
        assert!(
            std::ptr::eq(p.as_slice(), q.as_slice()),
            "clone must share the allocation"
        );
        assert_eq!(p, q);
        assert_eq!(p.as_slice(), &[Asn(65000), Asn(65001)]);
        // Deref gives slice methods for free.
        assert_eq!(p.len(), 2);
        assert!(p.contains(&Asn(65001)));
        assert_eq!(p.to_string(), "65000 65001");
        // Structurally equal but separately built: equal, not interned.
        let r: SharedPath = [Asn(65000), Asn(65001)].as_slice().into();
        assert_eq!(p, r);
        assert!(!std::ptr::eq(p.as_slice(), r.as_slice()));
        // Ordering follows the ASN sequence.
        let s: SharedPath = vec![Asn(65000)].into();
        assert!(s < p);
    }
}
