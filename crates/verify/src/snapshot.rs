//! The frozen network snapshot the verifier analyzes.
//!
//! A [`Snapshot`] is a pure-data capture of one instant of the emulation:
//! every switch's compiled flow table and port map, every legacy router's
//! Loc-RIB view, the annotated AS graph, and the controller's intended
//! per-prefix state (compiled flow rules and adj-out announcements). It
//! carries no references into the simulator, so it can be serialized into
//! a JSONL run artifact and re-analyzed offline with `bgpsdn verify`.

use bgpsdn_bgp::{Asn, Prefix};
use bgpsdn_obs::Json;

/// What a matching flow rule does with a packet (a dependency-free mirror
/// of the SDN crate's `FlowAction`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleAction {
    /// Forward out of the port (the raw link id).
    Output(u32),
    /// Punt to the controller.
    ToController,
    /// Discard explicitly.
    Drop,
    /// Deliver locally (the destination lives in this switch's AS).
    Local,
}

impl std::fmt::Display for RuleAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleAction::Output(p) => write!(f, "output:{p}"),
            RuleAction::ToController => f.write_str("controller"),
            RuleAction::Drop => f.write_str("drop"),
            RuleAction::Local => f.write_str("local"),
        }
    }
}

impl RuleAction {
    /// Parse the stable string form (`output:N`, `controller`, `drop`,
    /// `local`).
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleAction> {
        match s {
            "controller" => Some(RuleAction::ToController),
            "drop" => Some(RuleAction::Drop),
            "local" => Some(RuleAction::Local),
            _ => {
                let port = s.strip_prefix("output:")?.parse().ok()?;
                Some(RuleAction::Output(port))
            }
        }
    }
}

/// One installed flow rule of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRule {
    /// Match priority; higher wins.
    pub priority: u16,
    /// Destination prefix match.
    pub prefix: Prefix,
    /// Action on match.
    pub action: RuleAction,
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

/// Relationship annotation of one inter-AS edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelKind {
    /// `a` is the provider of `b`.
    ProviderCustomer,
    /// Settlement-free peering.
    PeerPeer,
}

/// One annotated inter-AS edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRel {
    /// First endpoint (the provider for [`RelKind::ProviderCustomer`]).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// The business relationship.
    pub kind: RelKind,
}

/// The export-policy regime the network was configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Everything is exported everywhere; valley-freeness is not expected.
    #[default]
    AllPermit,
    /// Gao–Rexford customer/provider/peer export rules.
    GaoRexford,
}

/// Health of the speaker↔controller control plane at snapshot time,
/// deciding whether intent mismatches are violations or expected staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlHealth {
    /// The network has no SDN cluster; intent checks are skipped.
    #[default]
    NoCluster,
    /// Channel synced: installed state must byte-match controller intent.
    Synced,
    /// The speaker lost the controller (crash or partition); devices run
    /// fail-static on frozen state. Drift is *stale-but-consistent*.
    Headless,
    /// The channel is back but the full-state resync has not completed.
    Resyncing,
}

impl ControlHealth {
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Per-AS state, indexed by plan vertex.
    pub nodes: Vec<NodeState>,
    /// The annotated AS graph.
    pub edges: Vec<EdgeRel>,
    /// The export-policy regime.
    pub policy: PolicyKind,
    /// Control-plane health (gates intent-consistency severity).
    pub control: ControlHealth,
    /// The priority the controller installs flow rules at.
    pub flow_priority: u16,
    /// Controller-intended flow rules per member: `(prefix, action)`.
    pub intent_flows: Vec<Vec<(Prefix, RuleAction)>>,
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

fn get_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("bad {key:?}"))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("bad {key:?}"))
}

fn get_prefix(v: &Json, key: &str) -> Result<Prefix, String> {
    prefix_from_json(v.get(key).ok_or_else(|| format!("missing {key:?}"))?)
}

fn action_json(a: RuleAction) -> Json {
    Json::Str(a.to_string())
}

fn action_from_json(v: &Json) -> Result<RuleAction, String> {
    v.as_str()
        .and_then(RuleAction::parse)
        .ok_or_else(|| "bad rule action".to_string())
}

fn announce_list_json(list: &[(Prefix, Vec<Asn>)]) -> Json {
    Json::Arr(
        list.iter()
            .map(|(p, path)| Json::Arr(vec![prefix_json(*p), path_json(path)]))
            .collect(),
    )
}

fn announce_list_from_json(v: &Json) -> Result<Vec<(Prefix, Vec<Asn>)>, String> {
    v.as_arr()
        .ok_or("announce list must be an array")?
        .iter()
        .map(|item| {
            let pair = item.as_arr().ok_or("announce entry must be a pair")?;
            if pair.len() != 2 {
                return Err("announce entry must be a pair".to_string());
            }
            Ok((prefix_from_json(&pair[0])?, path_from_json(&pair[1])?))
        })
        .collect()
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

    fn from_json(v: &Json) -> Result<NodeState, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("bad \"name\"")?
            .to_string();
        let asn = Asn(v
            .get("asn")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or("bad \"asn\"")?);
        let originated = v
            .get("originated")
            .and_then(Json::as_arr)
            .ok_or("bad \"originated\"")?
            .iter()
            .map(prefix_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let device = match v.get("kind").and_then(Json::as_str) {
            Some("legacy") => {
                let routes = v
                    .get("routes")
                    .and_then(Json::as_arr)
                    .ok_or("bad \"routes\"")?
                    .iter()
                    .map(|r| {
                        let prefix = get_prefix(r, "prefix")?;
                        let as_path = path_from_json(r.get("path").ok_or("missing \"path\"")?)?;
                        let next = match r.get("next") {
                            Some(Json::Null) | None => NextHop::Deliver,
                            Some(n) => NextHop::Via {
                                peer: n
                                    .as_u64()
                                    .and_then(|x| usize::try_from(x).ok())
                                    .ok_or("bad \"next\"")?,
                                up: get_bool(r, "up")?,
                            },
                        };
                        Ok(LegacyRoute {
                            prefix,
                            next,
                            as_path,
                            stale: r.get("stale").and_then(Json::as_bool).unwrap_or(false),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Device::Legacy { routes }
            }
            Some("member") => {
                let member = get_usize(v, "member")?;
                let rules = v
                    .get("rules")
                    .and_then(Json::as_arr)
                    .ok_or("bad \"rules\"")?
                    .iter()
                    .map(|r| {
                        Ok(SwitchRule {
                            priority: u16::try_from(get_usize(r, "priority")?)
                                .map_err(|_| "priority out of range".to_string())?,
                            prefix: get_prefix(r, "prefix")?,
                            action: action_from_json(r.get("action").ok_or("missing \"action\"")?)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let ports = v
                    .get("ports")
                    .and_then(Json::as_arr)
                    .ok_or("bad \"ports\"")?
                    .iter()
                    .map(|p| {
                        Ok(PortState {
                            port: u32::try_from(get_usize(p, "port")?)
                                .map_err(|_| "port out of range".to_string())?,
                            peer: get_usize(p, "peer")?,
                            up: get_bool(p, "up")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Device::Member {
                    member,
                    rules,
                    ports,
                }
            }
            _ => return Err("bad node \"kind\"".into()),
        };
        Ok(NodeState {
            name,
            asn,
            originated,
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
                Json::Obj(vec![
                    ("a".into(), Json::U64(e.a as u64)),
                    ("b".into(), Json::U64(e.b as u64)),
                    (
                        "rel".into(),
                        Json::Str(
                            match e.kind {
                                RelKind::ProviderCustomer => "p2c",
                                RelKind::PeerPeer => "peer",
                            }
                            .into(),
                        ),
                    ),
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
        Json::Obj(vec![
            (
                "policy".into(),
                Json::Str(
                    match self.policy {
                        PolicyKind::AllPermit => "all_permit",
                        PolicyKind::GaoRexford => "gao_rexford",
                    }
                    .into(),
                ),
            ),
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
    /// Returns a description of the first malformed member encountered.
    pub fn from_json(v: &Json) -> Result<Snapshot, String> {
        let policy = match v.get("policy").and_then(Json::as_str) {
            Some("all_permit") => PolicyKind::AllPermit,
            Some("gao_rexford") => PolicyKind::GaoRexford,
            _ => return Err("bad \"policy\"".into()),
        };
        let control = match v.get("control").and_then(Json::as_str) {
            Some("none") => ControlHealth::NoCluster,
            Some("synced") => ControlHealth::Synced,
            Some("headless") => ControlHealth::Headless,
            Some("resyncing") => ControlHealth::Resyncing,
            _ => return Err("bad \"control\"".into()),
        };
        let flow_priority = u16::try_from(get_usize(v, "flow_priority")?)
            .map_err(|_| "flow_priority out of range".to_string())?;
        let nodes = v
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or("bad \"nodes\"")?
            .iter()
            .map(NodeState::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let edges = v
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or("bad \"edges\"")?
            .iter()
            .map(|e| {
                let kind = match e.get("rel").and_then(Json::as_str) {
                    Some("p2c") => RelKind::ProviderCustomer,
                    Some("peer") => RelKind::PeerPeer,
                    _ => return Err("bad edge \"rel\"".to_string()),
                };
                Ok(EdgeRel {
                    a: get_usize(e, "a")?,
                    b: get_usize(e, "b")?,
                    kind,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let intent_flows = v
            .get("intent_flows")
            .and_then(Json::as_arr)
            .ok_or("bad \"intent_flows\"")?
            .iter()
            .map(|flows| {
                flows
                    .as_arr()
                    .ok_or("bad intent flow list")?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().ok_or("bad intent flow entry")?;
                        if pair.len() != 2 {
                            return Err("bad intent flow entry".to_string());
                        }
                        Ok((prefix_from_json(&pair[0])?, action_from_json(&pair[1])?))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()?;
        let sessions = v
            .get("sessions")
            .and_then(Json::as_arr)
            .ok_or("bad \"sessions\"")?
            .iter()
            .map(|s| {
                Ok(SessionSnap {
                    member: get_usize(s, "member")?,
                    ext_peer: get_usize(s, "peer")?,
                    established: get_bool(s, "established")?,
                    ctrl_up: get_bool(s, "ctrl_up")?,
                    intent: announce_list_from_json(s.get("intent").ok_or("missing \"intent\"")?)?,
                    actual: announce_list_from_json(s.get("actual").ok_or("missing \"actual\"")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Snapshot {
            nodes,
            edges,
            policy,
            control,
            flow_priority,
            intent_flows,
            sessions,
        })
    }
}
