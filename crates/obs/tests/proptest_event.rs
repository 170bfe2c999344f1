//! Property-based tests for the trace event codec.
//!
//! The library streams event lines straight to and from bytes; the `Json`
//! tree codec it used before lives on here, in [`reference`], as the
//! oracle: the writer must print the reference's bytes, and the reader must
//! accept, refuse and decode every line — canonical or mangled — exactly as
//! the reference does.

use proptest::prelude::*;

use bgpsdn_obs::{
    event_line, write_event_line, Artifact, CausalPhase, EventRecord, FlowActionRepr, Json,
    ObsPrefix, RecomputeTrigger, TraceCategory, TraceEvent,
};

/// The tree codec: event → `Json` → text and back, as the library did it
/// before the streaming codec (with the one fix that `priority` is
/// range-checked instead of truncated).
mod reference {
    use super::*;

    fn kind(event: &TraceEvent) -> &'static str {
        match event {
            TraceEvent::UpdateSent { .. } => "update_sent",
            TraceEvent::UpdateDelivered { .. } => "update_delivered",
            TraceEvent::RibChange { .. } => "rib_change",
            TraceEvent::FlowInstalled { .. } => "flow_installed",
            TraceEvent::FlowRemoved { .. } => "flow_removed",
            TraceEvent::SessionUp { .. } => "session_up",
            TraceEvent::SessionDown { .. } => "session_down",
            TraceEvent::ControllerRecompute { .. } => "recompute",
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::LinkAdmin { .. } => "link_admin",
            TraceEvent::NodeAdmin { .. } => "node_admin",
            TraceEvent::SpeakerHeadless { .. } => "speaker_headless",
            TraceEvent::ControlResync { .. } => "control_resync",
            TraceEvent::ControlRetransmit { .. } => "control_retransmit",
            TraceEvent::SpeakerEventDropped { .. } => "speaker_event_dropped",
            TraceEvent::VerifyViolation { .. } => "verify_violation",
            TraceEvent::Causal { .. } => "causal",
            TraceEvent::Note { .. } => "note",
        }
    }

    fn prefix_json(p: &ObsPrefix) -> Json {
        Json::Str(p.to_string())
    }

    fn prefixes_json(ps: &[ObsPrefix]) -> Json {
        Json::Arr(ps.iter().map(prefix_json).collect())
    }

    fn path_json(path: &Option<Vec<u32>>) -> Json {
        match path {
            None => Json::Null,
            Some(hops) => Json::Arr(hops.iter().map(|&a| Json::U64(a as u64)).collect()),
        }
    }

    /// JSON object form: `{"kind": ..., ...fields}`.
    pub fn to_json(event: &TraceEvent) -> Json {
        let mut m: Vec<(String, Json)> = vec![("kind".into(), Json::Str(kind(event).into()))];
        match event {
            TraceEvent::UpdateSent {
                peer,
                announced,
                withdrawn,
            }
            | TraceEvent::UpdateDelivered {
                peer,
                announced,
                withdrawn,
            } => {
                m.push(("peer".into(), Json::U64(*peer as u64)));
                m.push(("announced".into(), prefixes_json(announced)));
                m.push(("withdrawn".into(), prefixes_json(withdrawn)));
            }
            TraceEvent::RibChange {
                prefix,
                old_path,
                new_path,
            } => {
                m.push(("prefix".into(), prefix_json(prefix)));
                m.push(("old".into(), path_json(old_path)));
                m.push(("new".into(), path_json(new_path)));
            }
            TraceEvent::FlowInstalled {
                prefix,
                priority,
                action,
            }
            | TraceEvent::FlowRemoved {
                prefix,
                priority,
                action,
            } => {
                m.push(("prefix".into(), prefix_json(prefix)));
                m.push(("priority".into(), Json::U64(*priority as u64)));
                m.push(("action".into(), Json::Str(action.to_string())));
            }
            TraceEvent::SessionUp { peer } => {
                m.push(("peer".into(), Json::U64(*peer as u64)));
            }
            TraceEvent::SessionDown { peer, reason } => {
                m.push(("peer".into(), Json::U64(*peer as u64)));
                m.push(("reason".into(), Json::Str(reason.clone())));
            }
            TraceEvent::ControllerRecompute {
                trigger,
                prefixes,
                prefixes_recomputed,
                prefixes_cached,
                members,
                links_up,
                flow_mods,
                announcements,
                withdrawals,
                wall_ns,
            } => {
                m.push(("trigger".into(), Json::Str(trigger.name().into())));
                m.push(("prefixes".into(), Json::U64(*prefixes as u64)));
                m.push(("recomputed".into(), Json::U64(*prefixes_recomputed as u64)));
                m.push(("cached".into(), Json::U64(*prefixes_cached as u64)));
                m.push(("members".into(), Json::U64(*members as u64)));
                m.push(("links_up".into(), Json::U64(*links_up as u64)));
                m.push(("flow_mods".into(), Json::U64(*flow_mods as u64)));
                m.push(("announcements".into(), Json::U64(*announcements as u64)));
                m.push(("withdrawals".into(), Json::U64(*withdrawals as u64)));
                m.push(("wall_ns".into(), Json::U64(*wall_ns)));
            }
            TraceEvent::Phase { name, started } => {
                m.push(("name".into(), Json::Str(name.clone())));
                m.push(("started".into(), Json::Bool(*started)));
            }
            TraceEvent::LinkAdmin { link, up } => {
                m.push(("link".into(), Json::U64(*link as u64)));
                m.push(("up".into(), Json::Bool(*up)));
            }
            TraceEvent::NodeAdmin { node, up } => {
                m.push(("target".into(), Json::U64(*node as u64)));
                m.push(("up".into(), Json::Bool(*up)));
            }
            TraceEvent::SpeakerHeadless { entered } => {
                m.push(("entered".into(), Json::Bool(*entered)));
            }
            TraceEvent::ControlResync {
                epoch,
                sessions,
                routes,
            } => {
                m.push(("epoch".into(), Json::U64(*epoch)));
                m.push(("sessions".into(), Json::U64(*sessions as u64)));
                m.push(("routes".into(), Json::U64(*routes as u64)));
            }
            TraceEvent::ControlRetransmit {
                from_controller,
                oldest_seq,
                outstanding,
            } => {
                m.push(("from_controller".into(), Json::Bool(*from_controller)));
                m.push(("oldest_seq".into(), Json::U64(*oldest_seq)));
                m.push(("outstanding".into(), Json::U64(*outstanding as u64)));
            }
            TraceEvent::SpeakerEventDropped { session } => {
                m.push(("session".into(), Json::U64(*session as u64)));
            }
            TraceEvent::VerifyViolation {
                check,
                prefix,
                offender,
                witness,
            } => {
                m.push(("check".into(), Json::Str(check.clone())));
                if let Some(p) = prefix {
                    m.push(("prefix".into(), prefix_json(p)));
                }
                m.push(("offender".into(), Json::Str(offender.clone())));
                m.push(("witness".into(), Json::Str(witness.clone())));
            }
            TraceEvent::Causal {
                id,
                parents,
                trigger,
                hop,
                phase,
                prefix,
            } => {
                m.push(("id".into(), Json::U64(*id)));
                m.push((
                    "parents".into(),
                    Json::Arr(parents.iter().map(|&p| Json::U64(p)).collect()),
                ));
                m.push(("trigger".into(), Json::U64(*trigger)));
                m.push(("hop".into(), Json::U64(*hop as u64)));
                m.push(("phase".into(), Json::Str(phase.name().into())));
                if let Some(p) = prefix {
                    m.push(("prefix".into(), prefix_json(p)));
                }
            }
            TraceEvent::Note { category, text } => {
                m.push(("cat".into(), Json::Str(category.name().into())));
                m.push(("text".into(), Json::Str(text.clone())));
            }
        }
        Json::Obj(m)
    }

    /// The members of one event line, in the order the library writes them.
    pub fn line_members(t: u64, node: Option<u32>, event: &TraceEvent) -> Vec<(String, Json)> {
        let mut members: Vec<(String, Json)> = vec![
            ("type".into(), Json::Str("event".into())),
            ("t".into(), Json::U64(t)),
            (
                "node".into(),
                match node {
                    Some(n) => Json::U64(n as u64),
                    None => Json::Null,
                },
            ),
        ];
        if let Json::Obj(event_members) = to_json(event) {
            members.extend(event_members);
        }
        members
    }

    /// One event line, through the tree.
    pub fn event_line(t: u64, node: Option<u32>, event: &TraceEvent) -> String {
        Json::Obj(line_members(t, node, event)).to_compact()
    }

    fn get_uint<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| format!("bad {key:?}"))
    }

    fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
        v.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("bad {key:?}"))
    }

    fn get_str(v: &Json, key: &str) -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("bad {key:?}"))
    }

    fn get_prefix(v: &Json, key: &str) -> Result<ObsPrefix, String> {
        v.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("bad {key:?}"))?
            .parse()
    }

    fn get_opt_prefix(v: &Json, key: &str) -> Result<Option<ObsPrefix>, String> {
        match v.get(key) {
            Some(p) => Ok(Some(p.as_str().ok_or("bad prefix")?.parse()?)),
            None => Ok(None),
        }
    }

    fn prefix_list(v: &Json, key: &str) -> Result<Vec<ObsPrefix>, String> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("bad {key:?}"))?
            .iter()
            .map(|item| {
                item.as_str()
                    .ok_or_else(|| format!("non-string prefix in {key:?}"))?
                    .parse()
            })
            .collect()
    }

    fn get_path(v: &Json, key: &str) -> Result<Option<Vec<u32>>, String> {
        match v.get(key).ok_or_else(|| format!("missing {key:?}"))? {
            Json::Null => Ok(None),
            Json::Arr(items) => items
                .iter()
                .map(|i| {
                    i.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| "bad AS number in path".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()
                .map(Some),
            _ => Err("path must be null or an array".into()),
        }
    }

    fn action_from_json(v: &Json) -> Option<FlowActionRepr> {
        match v.as_str()? {
            "controller" => Some(FlowActionRepr::ToController),
            "drop" => Some(FlowActionRepr::Drop),
            "local" => Some(FlowActionRepr::Local),
            s => Some(FlowActionRepr::Output(
                s.strip_prefix("output:")?.parse().ok()?,
            )),
        }
    }

    fn trigger_from_name(name: &str) -> Option<RecomputeTrigger> {
        [
            RecomputeTrigger::UpdateBatch,
            RecomputeTrigger::LinkChange,
            RecomputeTrigger::SessionUp,
            RecomputeTrigger::SessionDown,
            RecomputeTrigger::Command,
            RecomputeTrigger::Startup,
            RecomputeTrigger::Resync,
        ]
        .into_iter()
        .find(|t| t.name() == name)
    }

    /// Parse an event from its JSON object form; extra keys are ignored.
    pub fn from_json(v: &Json) -> Result<TraceEvent, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\"")?;
        Ok(match kind {
            "update_sent" => TraceEvent::UpdateSent {
                peer: get_uint(v, "peer")?,
                announced: prefix_list(v, "announced")?,
                withdrawn: prefix_list(v, "withdrawn")?,
            },
            "update_delivered" => TraceEvent::UpdateDelivered {
                peer: get_uint(v, "peer")?,
                announced: prefix_list(v, "announced")?,
                withdrawn: prefix_list(v, "withdrawn")?,
            },
            "rib_change" => TraceEvent::RibChange {
                prefix: get_prefix(v, "prefix")?,
                old_path: get_path(v, "old")?,
                new_path: get_path(v, "new")?,
            },
            "flow_installed" => TraceEvent::FlowInstalled {
                prefix: get_prefix(v, "prefix")?,
                priority: get_uint(v, "priority")?,
                action: v
                    .get("action")
                    .and_then(action_from_json)
                    .ok_or("bad \"action\"")?,
            },
            "flow_removed" => TraceEvent::FlowRemoved {
                prefix: get_prefix(v, "prefix")?,
                priority: get_uint(v, "priority")?,
                action: v
                    .get("action")
                    .and_then(action_from_json)
                    .ok_or("bad \"action\"")?,
            },
            "session_up" => TraceEvent::SessionUp {
                peer: get_uint(v, "peer")?,
            },
            "session_down" => TraceEvent::SessionDown {
                peer: get_uint(v, "peer")?,
                reason: get_str(v, "reason")?,
            },
            "recompute" => TraceEvent::ControllerRecompute {
                trigger: v
                    .get("trigger")
                    .and_then(Json::as_str)
                    .and_then(trigger_from_name)
                    .ok_or("bad \"trigger\"")?,
                prefixes: get_uint(v, "prefixes")?,
                // Absent in artifacts written before incremental
                // recomputation existed; default to 0 so old runs parse.
                prefixes_recomputed: get_uint(v, "recomputed").unwrap_or(0),
                prefixes_cached: get_uint(v, "cached").unwrap_or(0),
                members: get_uint(v, "members")?,
                links_up: get_uint(v, "links_up")?,
                flow_mods: get_uint(v, "flow_mods")?,
                announcements: get_uint(v, "announcements")?,
                withdrawals: get_uint(v, "withdrawals")?,
                wall_ns: get_uint(v, "wall_ns")?,
            },
            "phase" => TraceEvent::Phase {
                name: get_str(v, "name")?,
                started: get_bool(v, "started")?,
            },
            "link_admin" => TraceEvent::LinkAdmin {
                link: get_uint(v, "link")?,
                up: get_bool(v, "up")?,
            },
            "node_admin" => TraceEvent::NodeAdmin {
                node: get_uint(v, "target")?,
                up: get_bool(v, "up")?,
            },
            "speaker_headless" => TraceEvent::SpeakerHeadless {
                entered: get_bool(v, "entered")?,
            },
            "control_resync" => TraceEvent::ControlResync {
                epoch: get_uint(v, "epoch")?,
                sessions: get_uint(v, "sessions")?,
                routes: get_uint(v, "routes")?,
            },
            "control_retransmit" => TraceEvent::ControlRetransmit {
                from_controller: get_bool(v, "from_controller")?,
                oldest_seq: get_uint(v, "oldest_seq")?,
                outstanding: get_uint(v, "outstanding")?,
            },
            "speaker_event_dropped" => TraceEvent::SpeakerEventDropped {
                session: get_uint(v, "session")?,
            },
            "verify_violation" => TraceEvent::VerifyViolation {
                check: get_str(v, "check")?,
                prefix: get_opt_prefix(v, "prefix")?,
                offender: get_str(v, "offender")?,
                witness: get_str(v, "witness")?,
            },
            "causal" => TraceEvent::Causal {
                id: get_uint(v, "id")?,
                parents: v
                    .get("parents")
                    .and_then(Json::as_arr)
                    .ok_or("bad \"parents\"")?
                    .iter()
                    .map(|p| p.as_u64().ok_or_else(|| "bad parent id".to_string()))
                    .collect::<Result<Vec<u64>, String>>()?,
                trigger: get_uint(v, "trigger")?,
                hop: get_uint(v, "hop")?,
                phase: v
                    .get("phase")
                    .and_then(Json::as_str)
                    .and_then(CausalPhase::from_name)
                    .ok_or("bad \"phase\"")?,
                prefix: get_opt_prefix(v, "prefix")?,
            },
            "note" => TraceEvent::Note {
                category: v
                    .get("cat")
                    .and_then(Json::as_str)
                    .and_then(TraceCategory::from_name)
                    .ok_or("bad \"cat\"")?,
                text: get_str(v, "text")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }

    /// The event lines of a JSONL document, each through `Json::parse`
    /// and the tree; any malformed line fails the document.
    pub fn parse_events(text: &str) -> Result<Vec<EventRecord>, String> {
        let mut events = Vec::new();
        for raw in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let v = Json::parse(raw).map_err(|e| e.to_string())?;
            match v.get("type").and_then(Json::as_str) {
                Some("event") => {
                    let t = v.get("t").and_then(Json::as_u64).ok_or("bad \"t\"")?;
                    let node = match v.get("node") {
                        None | Some(Json::Null) => None,
                        Some(_) => Some(get_uint(&v, "node")?),
                    };
                    let event = from_json(&v)?;
                    events.push(EventRecord { t, node, event });
                }
                Some(_) => {}
                None => return Err("missing \"type\"".into()),
            }
        }
        Ok(events)
    }
}

/// Boundary values first, then anything.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0),
        Just(u64::MAX),
        Just((1 << 53) + 1),
        any::<u64>(),
        any::<u64>(),
    ]
}

fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(u32::MAX), any::<u32>(), any::<u32>()]
}

fn arb_u16() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0), Just(u16::MAX), any::<u16>()]
}

fn arb_prefix() -> impl Strategy<Value = ObsPrefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| ObsPrefix::new(addr, len))
}

fn arb_prefixes() -> impl Strategy<Value = Vec<ObsPrefix>> {
    prop::collection::vec(arb_prefix(), 0..6)
}

/// Strings exercising every JSON escape class: quotes, backslashes,
/// control characters, multi-byte UTF-8 incl. astral-plane codepoints.
fn arb_text() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '/',
        '{',
        '\u{08}',
        '\u{0c}',
        '\u{1}',
        '\u{7f}',
        'é',
        '\u{2192}',
        '\u{1F600}',
        '\u{10FFFF}',
    ];
    prop::collection::vec(any::<u16>(), 0..16).prop_map(|cs| {
        cs.into_iter()
            .map(|c| ALPHABET[c as usize % ALPHABET.len()])
            .collect()
    })
}

fn arb_path() -> impl Strategy<Value = Option<Vec<u32>>> {
    prop::option::of(prop::collection::vec(arb_u32(), 0..8))
}

fn arb_action() -> impl Strategy<Value = FlowActionRepr> {
    prop_oneof![
        arb_u32().prop_map(FlowActionRepr::Output),
        Just(FlowActionRepr::ToController),
        Just(FlowActionRepr::Drop),
        Just(FlowActionRepr::Local),
    ]
}

fn arb_trigger() -> impl Strategy<Value = RecomputeTrigger> {
    prop_oneof![
        Just(RecomputeTrigger::UpdateBatch),
        Just(RecomputeTrigger::LinkChange),
        Just(RecomputeTrigger::SessionUp),
        Just(RecomputeTrigger::SessionDown),
        Just(RecomputeTrigger::Command),
        Just(RecomputeTrigger::Startup),
        Just(RecomputeTrigger::Resync),
    ]
}

fn arb_phase() -> impl Strategy<Value = CausalPhase> {
    (0usize..CausalPhase::ALL.len()).prop_map(|i| CausalPhase::ALL[i])
}

fn arb_category() -> impl Strategy<Value = TraceCategory> {
    (0usize..TraceCategory::all().len()).prop_map(|i| TraceCategory::all()[i])
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (arb_u32(), arb_prefixes(), arb_prefixes()).prop_map(|(peer, announced, withdrawn)| {
            TraceEvent::UpdateSent {
                peer,
                announced,
                withdrawn,
            }
        }),
        (arb_u32(), arb_prefixes(), arb_prefixes()).prop_map(|(peer, announced, withdrawn)| {
            TraceEvent::UpdateDelivered {
                peer,
                announced,
                withdrawn,
            }
        }),
        (arb_prefix(), arb_path(), arb_path()).prop_map(|(prefix, old_path, new_path)| {
            TraceEvent::RibChange {
                prefix,
                old_path,
                new_path,
            }
        }),
        (arb_prefix(), arb_u16(), arb_action()).prop_map(|(prefix, priority, action)| {
            TraceEvent::FlowInstalled {
                prefix,
                priority,
                action,
            }
        }),
        (arb_prefix(), arb_u16(), arb_action()).prop_map(|(prefix, priority, action)| {
            TraceEvent::FlowRemoved {
                prefix,
                priority,
                action,
            }
        }),
        arb_u32().prop_map(|peer| TraceEvent::SessionUp { peer }),
        (arb_u32(), arb_text()).prop_map(|(peer, reason)| TraceEvent::SessionDown { peer, reason }),
        (
            arb_trigger(),
            (arb_u32(), arb_u32(), arb_u32()),
            arb_u32(),
            arb_u32(),
            arb_u32(),
            arb_u32(),
            arb_u32(),
            arb_u64(),
        )
            .prop_map(
                |(
                    trigger,
                    counts,
                    members,
                    links_up,
                    flow_mods,
                    announcements,
                    withdrawals,
                    wall_ns,
                )| {
                    let (prefixes, prefixes_recomputed, prefixes_cached) = counts;
                    TraceEvent::ControllerRecompute {
                        trigger,
                        prefixes,
                        prefixes_recomputed,
                        prefixes_cached,
                        members,
                        links_up,
                        flow_mods,
                        announcements,
                        withdrawals,
                        wall_ns,
                    }
                },
            ),
        (arb_text(), any::<bool>()).prop_map(|(name, started)| TraceEvent::Phase { name, started }),
        (arb_u32(), any::<bool>()).prop_map(|(link, up)| TraceEvent::LinkAdmin { link, up }),
        (arb_u32(), any::<bool>()).prop_map(|(node, up)| TraceEvent::NodeAdmin { node, up }),
        any::<bool>().prop_map(|entered| TraceEvent::SpeakerHeadless { entered }),
        (arb_u64(), arb_u32(), arb_u32()).prop_map(|(epoch, sessions, routes)| {
            TraceEvent::ControlResync {
                epoch,
                sessions,
                routes,
            }
        }),
        (any::<bool>(), arb_u64(), arb_u32()).prop_map(
            |(from_controller, oldest_seq, outstanding)| TraceEvent::ControlRetransmit {
                from_controller,
                oldest_seq,
                outstanding,
            },
        ),
        arb_u32().prop_map(|session| TraceEvent::SpeakerEventDropped { session }),
        (
            arb_text(),
            prop::option::of(arb_prefix()),
            arb_text(),
            arb_text()
        )
            .prop_map(
                |(check, prefix, offender, witness)| TraceEvent::VerifyViolation {
                    check,
                    prefix,
                    offender,
                    witness,
                }
            ),
        (arb_category(), arb_text())
            .prop_map(|(category, text)| TraceEvent::Note { category, text }),
        (
            arb_u64(),
            prop::collection::vec(arb_u64(), 0..5),
            arb_u64(),
            arb_u32(),
            arb_phase(),
            prop::option::of(arb_prefix()),
        )
            .prop_map(|(id, parents, trigger, hop, phase, prefix)| {
                TraceEvent::Causal {
                    id,
                    parents,
                    trigger,
                    hop,
                    phase,
                    prefix,
                }
            }),
    ]
}

fn arb_node() -> impl Strategy<Value = Option<u32>> {
    prop::option::of(arb_u32())
}

/// A small deterministic dice for the mangling below (splitmix64).
struct Dice(u64);

impl Dice {
    fn roll(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.roll() % bound as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// Whitespace a JSON document may carry between tokens without leaving
/// its line.
fn ws(dice: &mut Dice, out: &mut String) {
    for _ in 0..dice.below(3) {
        out.push([' ', '\t', '\r'][dice.below(3)]);
    }
}

/// A string with some characters spelled `\uXXXX` (surrogate pairs for
/// the astral plane) and the rest escaped as the library does.
fn spell_string(s: &str, dice: &mut Dice, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if dice.one_in(4) {
            for unit in c.encode_utf16(&mut [0; 2]) {
                let hex = format!("{unit:04x}");
                out.push_str("\\u");
                out.push_str(&if dice.one_in(2) {
                    hex.to_uppercase()
                } else {
                    hex
                });
            }
        } else if c == '/' && dice.one_in(2) {
            out.push_str("\\/");
        } else {
            let escaped = Json::Str(c.to_string()).to_compact();
            out.push_str(&escaped[1..escaped.len() - 1]);
        }
    }
    out.push('"');
}

/// A value in one of the spellings the tree path reads alike: integers as
/// integral floats, strings with `\u` escapes, whitespace between tokens.
fn spell_value(v: &Json, dice: &mut Dice, out: &mut String) {
    match v {
        Json::U64(n) => match dice.below(6) {
            0 => out.push_str(&format!("{n}.0")),
            1 => out.push_str(&format!("{n}e0")),
            2 => out.push_str(&format!("{n}.0E+0")),
            _ => out.push_str(&n.to_string()),
        },
        Json::Str(s) => spell_string(s, dice, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(dice, out);
                spell_value(item, dice, out);
                ws(dice, out);
            }
            ws(dice, out);
            out.push(']');
        }
        Json::Obj(members) => spell_object(members, dice, out),
        other => out.push_str(&other.to_compact()),
    }
}

fn spell_object(members: &[(String, Json)], dice: &mut Dice, out: &mut String) {
    out.push('{');
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        ws(dice, out);
        spell_string(key, dice, out);
        ws(dice, out);
        out.push(':');
        ws(dice, out);
        spell_value(value, dice, out);
        ws(dice, out);
    }
    ws(dice, out);
    out.push('}');
}

/// Values no event field wants, some nested: as unknown members they must
/// be skipped, as stand-ins for a real member they must be refused.
fn junk_value(dice: &mut Dice) -> Json {
    match dice.below(7) {
        0 => Json::Null,
        1 => Json::Bool(dice.one_in(2)),
        2 => Json::U64(dice.roll() >> dice.below(64)),
        3 => Json::F64(-1.5),
        4 => Json::Str("10.0.0.0/8".into()),
        5 => Json::Arr((0..dice.below(3)).map(|_| junk_value(dice)).collect()),
        _ => Json::Obj(
            (0..dice.below(3))
                .map(|i| (format!("k{i}"), junk_value(dice)))
                .collect(),
        ),
    }
}

/// One valid line, mangled: members reordered, duplicated, joined by
/// unknown ones, respelled — and sometimes cut short or hit by a stray
/// byte afterwards.
fn mangle(mut members: Vec<(String, Json)>, dice: &mut Dice) -> String {
    if dice.one_in(2) {
        for i in (1..members.len()).rev() {
            members.swap(i, dice.below(i + 1));
        }
    }
    for _ in 0..dice.below(3) {
        let (key, value) = members[dice.below(members.len())].clone();
        let value = if dice.one_in(2) {
            junk_value(dice)
        } else {
            value
        };
        members.insert(dice.below(members.len() + 1), (key, value));
    }
    for i in 0..dice.below(3) {
        let unknown = (format!("x-{i}"), junk_value(dice));
        members.insert(dice.below(members.len() + 1), unknown);
    }
    if dice.one_in(8) {
        members.remove(dice.below(members.len()));
    }
    let mut line = String::new();
    ws(dice, &mut line);
    spell_object(&members, dice, &mut line);
    ws(dice, &mut line);
    match dice.below(4) {
        0 => {
            let mut cut = dice.below(line.len() + 1);
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line.truncate(cut);
        }
        1 => {
            let at = dice.below(line.len());
            if line.as_bytes()[at].is_ascii() {
                let stray = (dice.below(128) as u8 as char).to_string();
                line.replace_range(at..at + 1, &stray);
            }
        }
        _ => {}
    }
    line
}

proptest! {
    #[test]
    fn event_roundtrips_through_json(event in arb_event()) {
        // The reference is its own inverse — or it is no oracle.
        let line = reference::to_json(&event).to_compact();
        let back = reference::from_json(&Json::parse(&line).unwrap())
            .expect("own serialization must parse");
        prop_assert_eq!(back, event);
    }

    #[test]
    fn writer_prints_the_reference_bytes(
        event in arb_event(),
        t in arb_u64(),
        node in arb_node(),
    ) {
        let want = reference::event_line(t, node, &event);
        prop_assert_eq!(&event_line(t, node, &event), &want);
        let mut out = String::from("earlier line\n");
        write_event_line(&mut out, t, node, &event);
        prop_assert_eq!(out, format!("earlier line\n{want}"));
    }

    #[test]
    fn event_line_roundtrips_through_artifact(
        event in arb_event(),
        t in arb_u64(),
        node in arb_node(),
    ) {
        let doc = event_line(t, node, &event);
        let artifact = Artifact::parse(&doc).expect("artifact line must parse");
        prop_assert_eq!(artifact.events, vec![EventRecord { t, node, event }]);
    }

    #[test]
    fn category_is_stable_across_roundtrip(event in arb_event()) {
        let artifact = Artifact::parse(&event_line(0, None, &event)).unwrap();
        let back = &artifact.events[0].event;
        prop_assert_eq!(back.category(), event.category());
        prop_assert_eq!(back.kind(), event.kind());
    }

    #[test]
    fn reader_agrees_with_the_reference_on_mangled_lines(
        event in arb_event(),
        t in arb_u64(),
        node in arb_node(),
        seed in any::<u64>(),
    ) {
        let mut dice = Dice(seed);
        for _ in 0..8 {
            let line = mangle(reference::line_members(t, node, &event), &mut dice);
            let want = reference::parse_events(&line);
            let got = Artifact::parse(&line).map(|a| a.events);
            let agree = match (&got, &want) {
                (Ok(got), Ok(want)) => got == want,
                (got, want) => got.is_err() && want.is_err(),
            };
            prop_assert!(agree, "{line:?}: reader {got:?}, reference {want:?}");
            // Lenient differs from strict only in forgiving the last line.
            let lenient = Artifact::parse_lenient(&line);
            if let Ok(events) = &got {
                if !events.is_empty() {
                    let (artifact, warnings) = lenient.expect("strict passed");
                    prop_assert_eq!(&artifact.events, events);
                    prop_assert!(warnings.is_empty(), "{warnings:?}");
                }
            }
        }
    }

    #[test]
    fn only_a_cut_final_line_is_forgiven(
        events in prop::collection::vec((arb_event(), arb_u64(), arb_node()), 2..4),
    ) {
        let lines: Vec<String> = events
            .iter()
            .map(|(event, t, node)| event_line(*t, *node, event))
            .collect();
        let records: Vec<EventRecord> = events
            .iter()
            .map(|(event, t, node)| EventRecord { t: *t, node: *node, event: event.clone() })
            .collect();
        let last = lines.len() - 1;
        for (i, line) in lines.iter().enumerate() {
            let before = lines[..i].iter().map(|l| format!("{l}\n")).collect::<String>();
            let after = lines[i + 1..].iter().map(|l| format!("{l}\n")).collect::<String>();
            for cut in (1..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
                let text = format!("{before}{}\n{after}", &line[..cut]);
                let at = format!("line {}:", i + 1);
                let strict = Artifact::parse(&text).expect_err("a cut line is malformed");
                prop_assert!(strict.starts_with(&at), "{strict}");
                let lenient = Artifact::parse_lenient(&text);
                if i == last {
                    let (artifact, warnings) = lenient.expect("the tail is forgiven");
                    prop_assert_eq!(&artifact.events[..], &records[..last]);
                    prop_assert_eq!(warnings.len(), 1, "{:?}", warnings);
                    prop_assert!(warnings[0].starts_with(&at), "{}", warnings[0]);
                } else {
                    let err = lenient.expect_err("only the tail is forgiven");
                    prop_assert!(err.starts_with(&at), "{err}");
                }
            }
        }
    }
}
