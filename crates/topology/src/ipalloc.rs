//! Automatic IP address assignment.
//!
//! The paper's framework "automatically assigns IP addresses and configures
//! network devices". This module implements the same bookkeeping: every AS
//! gets a /16 it originates, every router a stable loopback-style identity
//! address inside it, every inter-AS link a /30 transfer net, and hosts get
//! addresses inside their AS's prefix.
//!
//! Scheme (documented so configs are human-readable):
//! * AS with index `i` owns `10+⌊i/256⌋ . i mod 256 . 0.0/16` (so AS 0 →
//!   `10.0.0.0/16`, AS 256 → `11.0.0.0/16`, up to 1536 ASes in 10–15/8);
//! * the router identity/next-hop address is `.0.1` inside the AS prefix;
//! * host `h` of AS `i` is `.1.(h+1)` inside the AS prefix;
//! * link `k` gets `172.16.0.0/12` sliced into /30s: endpoints `.1`/`.2`.

use std::fmt;
use std::net::Ipv4Addr;

use bgpsdn_bgp::Prefix;

/// Errors from address exhaustion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// More ASes than the 10–15/8 scheme supports.
    TooManyAses(usize),
    /// More point-to-point links than 172.16/12 holds.
    TooManyLinks(usize),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::TooManyAses(n) => write!(f, "{n} ASes exceed the address plan (max 1536)"),
            AllocError::TooManyLinks(n) => write!(f, "{n} links exceed 172.16/12 capacity"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Maximum ASes the default plan supports.
pub const MAX_ASES: usize = 6 * 256;
/// Maximum /30 link subnets inside 172.16.0.0/12.
pub const MAX_LINKS: usize = 1 << 18;

/// The prefix an AS originates.
pub(crate) fn as_prefix(index: usize) -> Result<Prefix, AllocError> {
    if index >= MAX_ASES {
        return Err(AllocError::TooManyAses(index + 1));
    }
    let first = 10 + (index / 256) as u8;
    let second = (index % 256) as u8;
    Ok(Prefix::new(Ipv4Addr::new(first, second, 0, 0), 16).expect("aligned"))
}

/// The router identity / next-hop address of an AS.
pub(crate) fn router_ip(index: usize) -> Result<Ipv4Addr, AllocError> {
    Ok(as_prefix(index)?.nth(1))
}

/// The /30 transfer network of link `k`, with both endpoint addresses
/// `(subnet, addr_a, addr_b)`.
fn link_subnet(k: usize) -> Result<(Prefix, Ipv4Addr, Ipv4Addr), AllocError> {
    if k >= MAX_LINKS {
        return Err(AllocError::TooManyLinks(k + 1));
    }
    let base = u32::from(Ipv4Addr::new(172, 16, 0, 0)) + (k as u32) * 4;
    let net = Prefix::new(Ipv4Addr::from(base), 30).expect("aligned");
    Ok((net, net.nth(1), net.nth(2)))
}

/// A complete address plan for a topology of `n` ASes and `links` inter-AS
/// links.
#[derive(Debug, Clone)]
pub struct AddressPlan {
    /// Prefix originated by each AS.
    pub as_prefixes: Vec<Prefix>,
    /// Identity/next-hop address of each AS's router.
    pub router_ips: Vec<Ipv4Addr>,
    /// Transfer net and endpoint addresses per link, aligned with link order.
    pub link_nets: Vec<(Prefix, Ipv4Addr, Ipv4Addr)>,
}

impl AddressPlan {
    /// Build the full plan.
    pub fn build(ases: usize, links: usize) -> Result<AddressPlan, AllocError> {
        let mut as_prefixes = Vec::with_capacity(ases);
        let mut router_ips = Vec::with_capacity(ases);
        for i in 0..ases {
            as_prefixes.push(as_prefix(i)?);
            router_ips.push(router_ip(i)?);
        }
        let mut link_nets = Vec::with_capacity(links);
        for k in 0..links {
            link_nets.push(link_subnet(k)?);
        }
        Ok(AddressPlan {
            as_prefixes,
            router_ips,
            link_nets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_prefixes_disjoint_and_ordered() {
        let p0 = as_prefix(0).unwrap();
        let p1 = as_prefix(1).unwrap();
        let p256 = as_prefix(256).unwrap();
        assert_eq!(p0.to_string(), "10.0.0.0/16");
        assert_eq!(p1.to_string(), "10.1.0.0/16");
        assert_eq!(p256.to_string(), "11.0.0.0/16");
        assert!(!p0.covers(p1) && !p1.covers(p0));
    }

    #[test]
    fn exhaustion_is_an_error() {
        assert!(as_prefix(MAX_ASES - 1).is_ok());
        assert_eq!(
            as_prefix(MAX_ASES),
            Err(AllocError::TooManyAses(MAX_ASES + 1))
        );
        assert!(link_subnet(MAX_LINKS).is_err());
    }

    #[test]
    fn router_ip_inside_as_prefix() {
        let p = as_prefix(7).unwrap();
        let r = router_ip(7).unwrap();
        assert!(p.contains(r));
        assert_eq!(r, Ipv4Addr::new(10, 7, 0, 1));
    }

    #[test]
    fn link_subnets_are_disjoint_30s() {
        let (n0, a0, b0) = link_subnet(0).unwrap();
        let (n1, a1, b1) = link_subnet(1).unwrap();
        assert_eq!(n0.to_string(), "172.16.0.0/30");
        assert_eq!(n1.to_string(), "172.16.0.4/30");
        assert_eq!(a0, Ipv4Addr::new(172, 16, 0, 1));
        assert_eq!(b0, Ipv4Addr::new(172, 16, 0, 2));
        assert!(n0.contains(a0) && n0.contains(b0));
        assert!(!n0.contains(a1) && !n0.contains(b1));
    }

    #[test]
    fn plan_builds_and_resolves_owners() {
        let plan = AddressPlan::build(20, 40).unwrap();
        assert_eq!(plan.as_prefixes.len(), 20);
        assert_eq!(plan.link_nets.len(), 40);
        let owner = |ip| plan.as_prefixes.iter().position(|p| p.contains(ip));
        assert_eq!(owner(Ipv4Addr::new(10, 3, 9, 9)), Some(3));
        assert_eq!(owner(Ipv4Addr::new(172, 16, 0, 1)), None, "transfer net");
        assert_eq!(owner(Ipv4Addr::new(8, 8, 8, 8)), None);
    }

    #[test]
    fn plan_rejects_oversize() {
        assert!(AddressPlan::build(MAX_ASES + 1, 0).is_err());
    }
}
