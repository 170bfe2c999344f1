//! The frozen network snapshot the verifier analyzes.
//!
//! A [`Snapshot`] is a pure-data capture of one instant of the emulation:
//! every switch's compiled flow table and port map, every legacy router's
//! Loc-RIB view, the annotated AS graph, and the controller's intended
//! per-prefix state (compiled flow rules and adj-out announcements). It
//! carries no references into the simulator, so it can be serialized into
//! a JSONL run artifact and re-analyzed offline with `bgpsdn verify`.
//! Relationships, the policy regime and flow actions are the workspace's
//! own types (`AsEdge`, `PolicyMode`, `FlowActionRepr`), not copies.

use bgpsdn_bgp::{Asn, PolicyMode, Prefix};
use bgpsdn_obs::{FlowActionRepr, Json};
use bgpsdn_topology::{AsEdge, EdgeKind};

/// One installed flow rule of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRule {
    /// Match priority; higher wins.
    pub priority: u16,
    /// Destination prefix match.
    pub prefix: Prefix,
    /// Action on match.
    pub action: FlowActionRepr,
}

/// One data-plane port of a switch, resolved to its remote endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortState {
    /// The raw link id flow rules reference.
    pub port: u32,
    /// The AS vertex on the other end.
    pub peer: usize,
    /// Whether the link is currently up.
    pub up: bool,
}

/// The forwarding decision of one legacy Loc-RIB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// The route is local: traffic terminates here.
    Deliver,
    /// Forward to the adjacent AS vertex.
    Via {
        /// The neighboring AS vertex.
        peer: usize,
        /// Whether the link toward it is currently up.
        up: bool,
    },
}

/// One best route of a legacy router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegacyRoute {
    /// The destination prefix.
    pub prefix: Prefix,
    /// Where matching traffic goes.
    pub next: NextHop,
    /// The selected AS path (empty for local routes).
    pub as_path: Vec<Asn>,
    /// The route is retained from a dead peer under an RFC 4724
    /// graceful-restart window. Stale routes pointing at a down peer are
    /// consistent-but-stale, not blackholes: forwarding through them is
    /// the deliberate GR trade-off until the window closes.
    pub stale: bool,
}

/// The device state of one AS in the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Device {
    /// A legacy BGP router: its Loc-RIB resolved to forwarding decisions.
    Legacy {
        /// Best routes, one per prefix.
        routes: Vec<LegacyRoute>,
    },
    /// An SDN cluster member: its compiled flow table and port map.
    Member {
        /// The member index in the controller configuration.
        member: usize,
        /// The installed flow rules.
        rules: Vec<SwitchRule>,
        /// Data-plane ports, resolved to peer vertices.
        ports: Vec<PortState>,
    },
}

/// One AS of the snapshot (vertex order matches the topology plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeState {
    /// Human-readable device name (`as65001`, `sw65003`).
    pub name: String,
    /// The AS number.
    pub asn: Asn,
    /// Prefixes this AS legitimately originates (delivery targets).
    pub originated: Vec<Prefix>,
    /// Router or switch state.
    pub device: Device,
}

/// Health of the speaker↔controller control plane at snapshot time,
/// deciding whether intent mismatches are errors or expected staleness.
/// Ordered from healthy to worst, so several clusters' health is the max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ControlHealth {
    /// The network has no SDN cluster; intent checks are skipped.
    NoCluster,
    /// Channel synced: installed state must byte-match controller intent.
    Synced,
    /// The channel is back but the full-state resync has not completed.
    Resyncing,
    /// The speaker lost the controller (crash or partition); devices run
    /// fail-static on frozen state. Drift is *stale-but-consistent*.
    Headless,
}

impl ControlHealth {
    const ALL: [ControlHealth; 4] = [
        ControlHealth::NoCluster,
        ControlHealth::Synced,
        ControlHealth::Resyncing,
        ControlHealth::Headless,
    ];

    /// Stable lowercase name used in the JSON form.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ControlHealth::NoCluster => "none",
            ControlHealth::Synced => "synced",
            ControlHealth::Headless => "headless",
            ControlHealth::Resyncing => "resyncing",
        }
    }
}

/// One alias BGP session: the speaker's actual adj-out versus the
/// controller's intended announcements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnap {
    /// The member AS vertex whose identity the session speaks with.
    pub member: usize,
    /// The external (legacy) peer vertex.
    pub ext_peer: usize,
    /// Whether the speaker reports the session Established.
    pub established: bool,
    /// Whether the controller believes the session is up.
    pub ctrl_up: bool,
    /// The controller's intended adj-out: `(prefix, AS path)`.
    pub intent: Vec<(Prefix, Vec<Asn>)>,
    /// The speaker's actual adj-out: `(prefix, AS path)`.
    pub actual: Vec<(Prefix, Vec<Asn>)>,
}

/// A frozen network snapshot — everything the static checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-AS state, indexed by plan vertex.
    pub nodes: Vec<NodeState>,
    /// The annotated AS graph (plan vertex indices).
    pub edges: Vec<AsEdge>,
    /// The export-policy regime; valley-freeness is checked only under
    /// Gao–Rexford.
    pub policy: PolicyMode,
    /// Control-plane health (gates intent-consistency severity).
    pub control: ControlHealth,
    /// The priority the controller installs flow rules at.
    pub flow_priority: u16,
    /// Controller-intended flow rules per member: `(prefix, action)`.
    pub intent_flows: Vec<Vec<(Prefix, FlowActionRepr)>>,
    /// Alias sessions: intent and actual announcements.
    pub sessions: Vec<SessionSnap>,
}

// ----------------------------------------------------------------------
// JSON form
// ----------------------------------------------------------------------

fn prefix_json(p: Prefix) -> Json {
    Json::Str(p.to_string())
}

fn prefix_from_json(v: &Json) -> Result<Prefix, String> {
    let s = v.as_str().ok_or("prefix must be a string")?;
    s.parse().map_err(|e| format!("bad prefix {s:?}: {e}"))
}

fn path_json(path: &[Asn]) -> Json {
    Json::Arr(path.iter().map(|a| Json::U64(u64::from(a.0))).collect())
}

fn path_from_json(v: &Json) -> Result<Vec<Asn>, String> {
    v.as_arr()
        .ok_or("path must be an array")?
        .iter()
        .map(|item| {
            item.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .map(Asn)
                .ok_or_else(|| "bad AS number in path".to_string())
        })
        .collect()
}

/// `v[key]` as a number of type `T`.
fn get_num<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("bad {key:?}"))
}

/// A vertex index: `what`'s `key`, which must name one of the `n` nodes.
fn get_vertex(v: &Json, what: &str, key: &str, n: usize) -> Result<usize, String> {
    let x: usize = get_num(v, key).map_err(|e| format!("{what} {e}"))?;
    if x < n {
        Ok(x)
    } else {
        Err(format!(
            "{what} {key:?} {x} is out of range: the snapshot has {n} nodes"
        ))
    }
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("bad {key:?}"))
}

fn get_prefix(v: &Json, key: &str) -> Result<Prefix, String> {
    prefix_from_json(v.get(key).ok_or_else(|| format!("missing {key:?}"))?)
}

/// `v[key]` as an array, each item parsed by `item`.
fn get_list<T>(
    v: &Json,
    key: &str,
    item: impl FnMut(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("bad {key:?}"))?
        .iter()
        .map(item)
        .collect()
}

/// The two items of a two-element array.
fn pair<'a>(v: &'a Json, what: &str) -> Result<(&'a Json, &'a Json), String> {
    match v.as_arr() {
        Some([a, b]) => Ok((a, b)),
        _ => Err(format!("{what} must be a pair")),
    }
}

fn action_json(a: FlowActionRepr) -> Json {
    Json::Str(a.to_string())
}

fn action_from_json(v: &Json) -> Result<FlowActionRepr, String> {
    v.as_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "bad rule action".to_string())
}

fn announce_list_json(list: &[(Prefix, Vec<Asn>)]) -> Json {
    Json::Arr(
        list.iter()
            .map(|(p, path)| Json::Arr(vec![prefix_json(*p), path_json(path)]))
            .collect(),
    )
}

fn announce_list_from_json(v: &Json, key: &str) -> Result<Vec<(Prefix, Vec<Asn>)>, String> {
    get_list(v, key, |item| {
        let (p, path) = pair(item, "announce entry")?;
        Ok((prefix_from_json(p)?, path_from_json(path)?))
    })
}

impl NodeState {
    fn to_json(&self) -> Json {
        let mut m: Vec<(String, Json)> = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("asn".into(), Json::U64(u64::from(self.asn.0))),
            (
                "originated".into(),
                Json::Arr(self.originated.iter().map(|&p| prefix_json(p)).collect()),
            ),
        ];
        match &self.device {
            Device::Legacy { routes } => {
                m.push(("kind".into(), Json::Str("legacy".into())));
                let routes = routes
                    .iter()
                    .map(|r| {
                        let mut rm: Vec<(String, Json)> = vec![
                            ("prefix".into(), prefix_json(r.prefix)),
                            ("path".into(), path_json(&r.as_path)),
                        ];
                        match r.next {
                            NextHop::Deliver => rm.push(("next".into(), Json::Null)),
                            NextHop::Via { peer, up } => {
                                rm.push(("next".into(), Json::U64(peer as u64)));
                                rm.push(("up".into(), Json::Bool(up)));
                            }
                        }
                        if r.stale {
                            rm.push(("stale".into(), Json::Bool(true)));
                        }
                        Json::Obj(rm)
                    })
                    .collect();
                m.push(("routes".into(), Json::Arr(routes)));
            }
            Device::Member {
                member,
                rules,
                ports,
            } => {
                m.push(("kind".into(), Json::Str("member".into())));
                m.push(("member".into(), Json::U64(*member as u64)));
                let rules = rules
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("prefix".into(), prefix_json(r.prefix)),
                            ("priority".into(), Json::U64(u64::from(r.priority))),
                            ("action".into(), action_json(r.action)),
                        ])
                    })
                    .collect();
                m.push(("rules".into(), Json::Arr(rules)));
                let ports = ports
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("port".into(), Json::U64(u64::from(p.port))),
                            ("peer".into(), Json::U64(p.peer as u64)),
                            ("up".into(), Json::Bool(p.up)),
                        ])
                    })
                    .collect();
                m.push(("ports".into(), Json::Arr(ports)));
            }
        }
        Json::Obj(m)
    }

    /// Parse one node of a snapshot with `n` nodes.
    fn from_json(v: &Json, n: usize) -> Result<NodeState, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("bad \"name\"")?
            .to_string();
        let device = match v.get("kind").and_then(Json::as_str) {
            Some("legacy") => Device::Legacy {
                routes: get_list(v, "routes", |r| {
                    let next = match r.get("next") {
                        Some(Json::Null) | None => NextHop::Deliver,
                        Some(_) => NextHop::Via {
                            peer: get_vertex(r, "route", "next", n)?,
                            up: get_bool(r, "up")?,
                        },
                    };
                    Ok(LegacyRoute {
                        prefix: get_prefix(r, "prefix")?,
                        next,
                        as_path: path_from_json(r.get("path").ok_or("missing \"path\"")?)?,
                        stale: r.get("stale").and_then(Json::as_bool).unwrap_or(false),
                    })
                })?,
            },
            Some("member") => Device::Member {
                member: get_num(v, "member")?,
                rules: get_list(v, "rules", |r| {
                    Ok(SwitchRule {
                        priority: get_num(r, "priority")?,
                        prefix: get_prefix(r, "prefix")?,
                        action: action_from_json(r.get("action").ok_or("missing \"action\"")?)?,
                    })
                })?,
                ports: get_list(v, "ports", |p| {
                    Ok(PortState {
                        port: get_num(p, "port")?,
                        peer: get_vertex(p, "port", "peer", n)?,
                        up: get_bool(p, "up")?,
                    })
                })?,
            },
            _ => return Err("bad node \"kind\"".into()),
        };
        Ok(NodeState {
            name,
            asn: Asn(get_num(v, "asn")?),
            originated: get_list(v, "originated", prefix_from_json)?,
            device,
        })
    }
}

impl Snapshot {
    /// JSON object form, suitable for embedding as a
    /// `{"type":"snapshot",...}` line of a run artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let edges = self
            .edges
            .iter()
            .map(|e| {
                let rel = match e.kind {
                    EdgeKind::ProviderCustomer => "p2c",
                    EdgeKind::PeerPeer => "peer",
                };
                Json::Obj(vec![
                    ("a".into(), Json::U64(e.a as u64)),
                    ("b".into(), Json::U64(e.b as u64)),
                    ("rel".into(), Json::Str(rel.into())),
                ])
            })
            .collect();
        let intent_flows = self
            .intent_flows
            .iter()
            .map(|flows| {
                Json::Arr(
                    flows
                        .iter()
                        .map(|(p, a)| Json::Arr(vec![prefix_json(*p), action_json(*a)]))
                        .collect(),
                )
            })
            .collect();
        let sessions = self
            .sessions
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("member".into(), Json::U64(s.member as u64)),
                    ("peer".into(), Json::U64(s.ext_peer as u64)),
                    ("established".into(), Json::Bool(s.established)),
                    ("ctrl_up".into(), Json::Bool(s.ctrl_up)),
                    ("intent".into(), announce_list_json(&s.intent)),
                    ("actual".into(), announce_list_json(&s.actual)),
                ])
            })
            .collect();
        let policy = match self.policy {
            PolicyMode::AllPermit => "all_permit",
            PolicyMode::GaoRexford => "gao_rexford",
        };
        Json::Obj(vec![
            ("policy".into(), Json::Str(policy.into())),
            ("control".into(), Json::Str(self.control.name().into())),
            (
                "flow_priority".into(),
                Json::U64(u64::from(self.flow_priority)),
            ),
            (
                "nodes".into(),
                Json::Arr(self.nodes.iter().map(NodeState::to_json).collect()),
            ),
            ("edges".into(), Json::Arr(edges)),
            ("intent_flows".into(), Json::Arr(intent_flows)),
            ("sessions".into(), Json::Arr(sessions)),
        ])
    }

    /// Parse the JSON object form back into a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed member encountered,
    /// including any vertex index that names no node and, while a cluster
    /// exists, any member index with no `intent_flows` row: the checks
    /// index by them.
    pub fn from_json(v: &Json) -> Result<Snapshot, String> {
        let policy = match v.get("policy").and_then(Json::as_str) {
            Some("all_permit") => PolicyMode::AllPermit,
            Some("gao_rexford") => PolicyMode::GaoRexford,
            _ => return Err("bad \"policy\"".into()),
        };
        let control = v.get("control").and_then(Json::as_str);
        let control = ControlHealth::ALL
            .into_iter()
            .find(|c| Some(c.name()) == control)
            .ok_or("bad \"control\"")?;
        let n = v
            .get("nodes")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        let nodes = get_list(v, "nodes", |node| NodeState::from_json(node, n))?;
        let edges = get_list(v, "edges", |e| {
            let kind = match e.get("rel").and_then(Json::as_str) {
                Some("p2c") => EdgeKind::ProviderCustomer,
                Some("peer") => EdgeKind::PeerPeer,
                _ => return Err("bad edge \"rel\"".to_string()),
            };
            Ok(AsEdge {
                a: get_vertex(e, "edge", "a", n)?,
                b: get_vertex(e, "edge", "b", n)?,
                kind,
            })
        })?;
        let intent_flows: Vec<Vec<_>> = get_list(v, "intent_flows", |flows| {
            flows
                .as_arr()
                .ok_or("bad intent flow list")?
                .iter()
                .map(|entry| {
                    let (p, action) = pair(entry, "intent flow entry")?;
                    Ok((prefix_from_json(p)?, action_from_json(action)?))
                })
                .collect()
        })?;
        if control != ControlHealth::NoCluster {
            for node in &nodes {
                if let Device::Member { member, .. } = node.device {
                    if member >= intent_flows.len() {
                        return Err(format!(
                            "{}: \"member\" {member} has no \"intent_flows\" row (the snapshot \
                             has {})",
                            node.name,
                            intent_flows.len()
                        ));
                    }
                }
            }
        }
        let sessions = get_list(v, "sessions", |s| {
            Ok(SessionSnap {
                member: get_vertex(s, "session", "member", n)?,
                ext_peer: get_vertex(s, "session", "peer", n)?,
                established: get_bool(s, "established")?,
                ctrl_up: get_bool(s, "ctrl_up")?,
                intent: announce_list_from_json(s, "intent")?,
                actual: announce_list_from_json(s, "actual")?,
            })
        })?;
        Ok(Snapshot {
            nodes,
            edges,
            policy,
            control,
            flow_priority: get_num(v, "flow_priority")?,
            intent_flows,
            sessions,
        })
    }
}
