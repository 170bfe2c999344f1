//! OpenFlow-style flow tables with priority + longest-prefix matching.
//!
//! The cluster data plane only needs destination-prefix matching: the IDR
//! controller compiles AS-level routes into `dst-prefix → output port`
//! rules. Matching order is (priority desc, prefix length desc, insertion
//! order), which keeps lookups deterministic.

use std::net::Ipv4Addr;

use bgpsdn_bgp::Prefix;

/// What to do with a matching packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowAction {
    /// Forward out of the port (the raw `LinkId` value).
    Output(u32),
    /// Punt to the controller as a PacketIn.
    ToController,
    /// Discard.
    Drop,
    /// Deliver locally: the destination lives inside this switch's AS
    /// (the one-device-per-AS abstraction makes the switch the host).
    Local,
}

impl FlowAction {
    /// Telemetry-plane representation ([`bgpsdn_netsim::FlowActionRepr`]).
    pub fn repr(self) -> bgpsdn_netsim::FlowActionRepr {
        match self {
            FlowAction::Output(p) => bgpsdn_netsim::FlowActionRepr::Output(p),
            FlowAction::ToController => bgpsdn_netsim::FlowActionRepr::ToController,
            FlowAction::Drop => bgpsdn_netsim::FlowActionRepr::Drop,
            FlowAction::Local => bgpsdn_netsim::FlowActionRepr::Local,
        }
    }
}

/// One flow rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRule {
    /// Higher wins.
    pub priority: u16,
    /// Destination prefix match.
    pub prefix: Prefix,
    /// Action on match.
    pub action: FlowAction,
    /// Controller-chosen identifier for bulk removal.
    pub cookie: u64,
}

/// A single-table flow table.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    rules: Vec<FlowRule>,
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Install a rule; a rule with the same `(priority, prefix)` is
    /// replaced. Returns true when the table changed.
    pub fn install(&mut self, rule: FlowRule) -> bool {
        if let Some(existing) = self
            .rules
            .iter_mut()
            .find(|r| r.priority == rule.priority && r.prefix == rule.prefix)
        {
            if *existing == rule {
                return false;
            }
            *existing = rule;
            return true;
        }
        self.rules.push(rule);
        true
    }

    /// Remove the rule with this exact `(priority, prefix)`. Returns true
    /// when a rule was removed.
    pub fn remove(&mut self, priority: u16, prefix: Prefix) -> bool {
        let before = self.rules.len();
        self.rules
            .retain(|r| !(r.priority == priority && r.prefix == prefix));
        self.rules.len() != before
    }

    /// Best match for a destination address.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<&FlowRule> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.prefix.contains(dst))
            .max_by(|(ia, a), (ib, b)| {
                a.priority
                    .cmp(&b.priority)
                    .then(a.prefix.len().cmp(&b.prefix.len()))
                    .then(ib.cmp(ia)) // earlier installed wins last tie
            })
            .map(|(_, r)| r)
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// All rules in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowRule> {
        self.rules.iter()
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.rules.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsdn_bgp::pfx;

    fn rule(priority: u16, prefix: &str, port: u32) -> FlowRule {
        FlowRule {
            priority,
            prefix: pfx(prefix),
            action: FlowAction::Output(port),
            cookie: 0,
        }
    }

    #[test]
    fn lookup_prefers_priority_then_length() {
        let mut t = FlowTable::new();
        t.install(rule(10, "10.0.0.0/8", 1));
        t.install(rule(10, "10.1.0.0/16", 2));
        t.install(rule(20, "10.0.0.0/8", 3));
        // Priority 20 beats the more specific /16 at priority 10.
        let hit = t.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(hit.action, FlowAction::Output(3));
        t.remove(20, pfx("10.0.0.0/8"));
        let hit = t.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(hit.action, FlowAction::Output(2), "LPM at equal priority");
        assert!(t.lookup(Ipv4Addr::new(192, 168, 0, 1)).is_none());
    }

    #[test]
    fn install_replaces_same_key() {
        let mut t = FlowTable::new();
        assert!(t.install(rule(5, "10.0.0.0/8", 1)));
        assert!(!t.install(rule(5, "10.0.0.0/8", 1)), "identical: no change");
        assert!(t.install(rule(5, "10.0.0.0/8", 9)), "action changed");
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(Ipv4Addr::new(10, 0, 0, 1)).unwrap().action,
            FlowAction::Output(9)
        );
    }

    #[test]
    fn remove_and_cookie_removal() {
        let mut t = FlowTable::new();
        t.install(FlowRule {
            cookie: 7,
            ..rule(1, "10.0.0.0/8", 1)
        });
        t.install(FlowRule {
            cookie: 7,
            ..rule(1, "20.0.0.0/8", 1)
        });
        t.install(FlowRule {
            cookie: 8,
            ..rule(1, "30.0.0.0/8", 1)
        });
        assert!(
            !t.remove(9, pfx("10.0.0.0/8")),
            "wrong priority: no removal"
        );
        assert!(t.remove(1, pfx("10.0.0.0/8")));
        assert_eq!(t.len(), 2);
        // Removal is by (priority, prefix): the other cookie-7 rule stays.
        let kept = t.lookup(Ipv4Addr::new(20, 0, 0, 1)).expect("20/8 kept");
        assert_eq!(kept.cookie, 7);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn first_installed_wins_full_tie() {
        let mut t = FlowTable::new();
        t.install(FlowRule {
            cookie: 1,
            ..rule(5, "0.0.0.0/0", 1)
        });
        // Same priority and same prefix is a replace, so craft two distinct
        // prefixes of equal length covering the address.
        t.install(FlowRule {
            cookie: 2,
            ..rule(5, "10.0.0.0/8", 2)
        });
        t.install(FlowRule {
            cookie: 3,
            priority: 5,
            prefix: pfx("10.0.0.0/8"),
            action: FlowAction::Drop,
        });
        // replace happened: only one 10/8 rule remains with Drop
        let hit = t.lookup(Ipv4Addr::new(10, 0, 0, 1)).unwrap();
        assert_eq!(hit.action, FlowAction::Drop);
    }

    #[test]
    fn to_controller_and_drop_actions_returned() {
        let mut t = FlowTable::new();
        t.install(FlowRule {
            priority: 0,
            prefix: pfx("0.0.0.0/0"),
            action: FlowAction::ToController,
            cookie: 0,
        });
        assert_eq!(
            t.lookup(Ipv4Addr::new(1, 1, 1, 1)).unwrap().action,
            FlowAction::ToController
        );
    }
}
