//! Validation pass — scripts and timing.
//!
//! The framework's builders accept anything and fail late: an out-of-range
//! AS index panics deep inside the simulator, a fault on a link that does
//! not exist panics mid-run, and an `expect_reachable` against a
//! never-announced prefix burns a full convergence run before failing. This
//! pass walks the declarative experiment inputs — an action sequence and
//! the timer configuration — and reports everything that is statically
//! wrong or statically pointless. A campaign grid's own rules live on the
//! grid, in the core crate's pre-flight.
//!
//! [`ScriptAction`] lives here, below the core crate in the dependency
//! order, so the analyzer validates the very values the framework executes:
//! core re-exports the type and its `Script` is a plain `Vec<ScriptAction>`.

use std::fmt;

use bgpsdn_bgp::Prefix;
use bgpsdn_netsim::SimDuration;
use bgpsdn_topology::TopologyPlan;

use crate::finding::AnalysisReport;

/// One step of an experiment script: an intervention, a wait, or an
/// executable expectation. AS arguments are topology indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScriptAction {
    /// AS announces a prefix (its own when `None`).
    Announce {
        /// AS index in the plan.
        as_index: usize,
        /// Specific prefix, or the AS's own.
        prefix: Option<Prefix>,
    },
    /// AS withdraws a prefix (its own when `None`).
    Withdraw {
        /// AS index in the plan.
        as_index: usize,
        /// Specific prefix, or the AS's own.
        prefix: Option<Prefix>,
    },
    /// Fail the link between two adjacent ASes.
    FailEdge(usize, usize),
    /// Restore the link between two adjacent ASes.
    RestoreEdge(usize, usize),
    /// Crash the IDR controller (speakers go headless; fail-static
    /// forwarding keeps the data plane up).
    CrashController,
    /// Restart a crashed controller (triggers a full-state resync).
    RestoreController,
    /// Partition the speaker↔controller channel.
    PartitionControlChannel,
    /// Heal a control-channel partition.
    HealControlChannel,
    /// Set random per-message loss on the speaker↔controller channel.
    SetControlLoss(f64),
    /// Set random per-message loss on the link between two adjacent ASes.
    SetEdgeLoss(usize, usize, f64),
    /// Crash the router device of an AS (peers detect it via hold-timer
    /// expiry; the device cold-starts on restore).
    CrashRouter(usize),
    /// Restore a crashed router.
    RestoreRouter(usize),
    /// Silently drop all traffic on the link between two adjacent ASes
    /// (100% loss with the link administratively up).
    DropEdgeTraffic(usize, usize),
    /// End a traffic-drop window.
    RestoreEdgeTraffic(usize, usize),
    /// Start a fresh measurement phase (reset activity and collector log).
    Mark,
    /// Run until the network converges (or the deadline passes); records a
    /// convergence report for the current phase.
    WaitConverged {
        /// Give up after this much simulated time.
        max: SimDuration,
    },
    /// Advance simulated time unconditionally.
    RunFor(SimDuration),
    /// Expect every other AS to hold a route for `prefix`.
    ExpectReachable {
        /// The prefix to check.
        prefix: Prefix,
        /// Its origin (excluded from the check).
        origin: usize,
    },
    /// Expect no AS to hold any state for `prefix`.
    ExpectGone {
        /// The prefix to check.
        prefix: Prefix,
    },
    /// Expect the all-pairs forwarding audit to pass.
    ExpectFullConnectivity,
}

impl ScriptAction {
    /// True for the paired down/up faults a chaos schedule draws from:
    /// controller crash/restore, control-channel partition/heal, router
    /// crash/restore, link fail/restore and traffic drop/restore.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            ScriptAction::CrashController
                | ScriptAction::RestoreController
                | ScriptAction::PartitionControlChannel
                | ScriptAction::HealControlChannel
                | ScriptAction::CrashRouter(_)
                | ScriptAction::RestoreRouter(_)
                | ScriptAction::FailEdge(..)
                | ScriptAction::RestoreEdge(..)
                | ScriptAction::DropEdgeTraffic(..)
                | ScriptAction::RestoreEdgeTraffic(..)
        )
    }

    /// True for a data-plane fault that BGP hold timers are there to
    /// detect: a crashed router, or a failed, dropping or lossy link. A
    /// schedule holding one must run with a non-zero hold time.
    pub fn needs_hold_timers(&self) -> bool {
        matches!(
            self,
            ScriptAction::CrashRouter(_)
                | ScriptAction::FailEdge(..)
                | ScriptAction::DropEdgeTraffic(..)
                | ScriptAction::SetEdgeLoss(..)
        )
    }
}

impl fmt::Display for ScriptAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptAction::Announce { as_index, prefix } => match prefix {
                Some(p) => write!(f, "announce {p} from AS#{as_index}"),
                None => write!(f, "announce own prefix of AS#{as_index}"),
            },
            ScriptAction::Withdraw { as_index, prefix } => match prefix {
                Some(p) => write!(f, "withdraw {p} from AS#{as_index}"),
                None => write!(f, "withdraw own prefix of AS#{as_index}"),
            },
            ScriptAction::FailEdge(a, b) => write!(f, "fail link {a}-{b}"),
            ScriptAction::RestoreEdge(a, b) => write!(f, "restore link {a}-{b}"),
            ScriptAction::CrashController => write!(f, "crash controller"),
            ScriptAction::RestoreController => write!(f, "restore controller"),
            ScriptAction::PartitionControlChannel => write!(f, "partition control channel"),
            ScriptAction::HealControlChannel => write!(f, "heal control channel"),
            ScriptAction::SetControlLoss(p) => write!(f, "set control-channel loss to {p}"),
            ScriptAction::SetEdgeLoss(a, b, p) => write!(f, "set link {a}-{b} loss to {p}"),
            ScriptAction::CrashRouter(i) => write!(f, "crash router AS#{i}"),
            ScriptAction::RestoreRouter(i) => write!(f, "restore router AS#{i}"),
            ScriptAction::DropEdgeTraffic(a, b) => write!(f, "drop all traffic on link {a}-{b}"),
            ScriptAction::RestoreEdgeTraffic(a, b) => {
                write!(f, "restore traffic on link {a}-{b}")
            }
            ScriptAction::Mark => write!(f, "mark"),
            ScriptAction::WaitConverged { max } => write!(f, "wait converged (max {max})"),
            ScriptAction::RunFor(d) => write!(f, "run for {d}"),
            ScriptAction::ExpectReachable { prefix, .. } => {
                write!(f, "expect {prefix} reachable everywhere")
            }
            ScriptAction::ExpectGone { prefix } => write!(f, "expect {prefix} fully gone"),
            ScriptAction::ExpectFullConnectivity => write!(f, "expect full connectivity"),
        }
    }
}

/// Static facts about the network a sequence of actions runs against.
#[derive(Debug, Clone)]
pub struct ActionContext {
    /// AS count.
    pub n: usize,
    /// Undirected inter-AS links, as index pairs.
    pub edges: Vec<(usize, usize)>,
    /// True when an SDN cluster (controller + speaker) exists.
    pub has_cluster: bool,
    /// Default announced prefix per AS index, when known (used to resolve
    /// `prefix: None` and to match expectations; empty = unknown).
    pub origin_prefixes: Vec<Prefix>,
    /// True when the sequence runs against an already-started network whose
    /// origin prefixes are announced at bring-up (the framework's
    /// `run_script` semantics); false when it starts from a silent network.
    pub origins_announced: bool,
}

impl ActionContext {
    /// The facts of a planned network with the given cluster members,
    /// started (its origin prefixes announced).
    pub fn from_plan(plan: &TopologyPlan, members: &[usize]) -> ActionContext {
        ActionContext {
            n: plan.as_graph.len(),
            edges: plan.as_graph.edges.iter().map(|e| (e.a, e.b)).collect(),
            has_cluster: !members.is_empty(),
            origin_prefixes: plan.addresses.as_prefixes.clone(),
            origins_announced: true,
        }
    }

    fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edges
            .iter()
            .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
    }

    fn default_prefix(&self, as_index: usize) -> Option<Prefix> {
        self.origin_prefixes.get(as_index).copied()
    }
}

/// Tracks network degradation across a validated sequence.
#[derive(Default)]
struct WalkState {
    announced: Vec<(Prefix, usize)>, // (prefix, origin) currently announced
    failed_edges: Vec<(usize, usize)>,
    dropped_edges: Vec<(usize, usize)>,
    crashed_routers: Vec<usize>,
    controller_down: bool,
    channel_partitioned: bool,
    degraded: bool, // any data-plane fault happened at some point
}

fn key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// Validate an ordered action sequence — a script or a lowered chaos
/// schedule — against the network facts.
pub fn check_actions(actions: &[ScriptAction], ctx: &ActionContext) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    let mut st = WalkState::default();
    if ctx.origins_announced {
        st.announced
            .extend(ctx.origin_prefixes.iter().enumerate().map(|(i, &p)| (p, i)));
    }
    for (i, action) in actions.iter().enumerate() {
        report.checked();
        check_one(i, action, ctx, &mut st, &mut report);
    }
    report
}

#[allow(clippy::too_many_lines)]
fn check_one(
    i: usize,
    action: &ScriptAction,
    ctx: &ActionContext,
    st: &mut WalkState,
    report: &mut AnalysisReport,
) {
    let step = format!("step {i}");
    let mut as_in_range = |idx: usize, what: &str| -> bool {
        if idx >= ctx.n {
            report.error(
                "script.index_range",
                format!("{step}: {what} index {idx} out of range for {} ASes", ctx.n),
            );
            false
        } else {
            true
        }
    };
    match *action {
        ScriptAction::Announce { as_index, prefix } => {
            if as_in_range(as_index, "announce AS") {
                let p = prefix.or_else(|| ctx.default_prefix(as_index));
                if let Some(p) = p {
                    if !st.announced.iter().any(|&(q, _)| q == p) {
                        st.announced.push((p, as_index));
                    }
                }
            }
        }
        ScriptAction::Withdraw { as_index, prefix } => {
            if as_in_range(as_index, "withdraw AS") {
                let p = prefix.or_else(|| ctx.default_prefix(as_index));
                if let Some(p) = p {
                    match st.announced.iter().position(|&(q, _)| q == p) {
                        Some(pos) => {
                            st.announced.remove(pos);
                        }
                        None => report.warning(
                            "script.withdraw_unannounced",
                            format!("{step}: withdraws {p}, which is not announced at this point"),
                        ),
                    }
                }
            }
        }
        ScriptAction::FailEdge(a, b) | ScriptAction::DropEdgeTraffic(a, b) => {
            let drop = matches!(action, ScriptAction::DropEdgeTraffic(..));
            if as_in_range(a, "edge endpoint") && as_in_range(b, "edge endpoint") {
                if ctx.has_edge(a, b) {
                    let set = if drop {
                        &mut st.dropped_edges
                    } else {
                        &mut st.failed_edges
                    };
                    if set.contains(&key(a, b)) {
                        report.warning(
                            "script.double_fail",
                            format!("{step}: link AS{a}-AS{b} is already down"),
                        );
                    } else {
                        set.push(key(a, b));
                    }
                    st.degraded = true;
                } else {
                    report.error(
                        "script.unknown_edge",
                        format!("{step}: no link between AS{a} and AS{b} in the topology"),
                    );
                }
            }
        }
        ScriptAction::RestoreEdge(a, b) | ScriptAction::RestoreEdgeTraffic(a, b) => {
            let drop = matches!(action, ScriptAction::RestoreEdgeTraffic(..));
            if as_in_range(a, "edge endpoint") && as_in_range(b, "edge endpoint") {
                if ctx.has_edge(a, b) {
                    let set = if drop {
                        &mut st.dropped_edges
                    } else {
                        &mut st.failed_edges
                    };
                    match set.iter().position(|&e| e == key(a, b)) {
                        Some(pos) => {
                            set.remove(pos);
                        }
                        None => report.warning(
                            "script.restore_unfailed",
                            format!("{step}: link AS{a}-AS{b} is not down at this point"),
                        ),
                    }
                } else {
                    report.error(
                        "script.unknown_edge",
                        format!("{step}: no link between AS{a} and AS{b} in the topology"),
                    );
                }
            }
        }
        ScriptAction::CrashRouter(idx) => {
            if as_in_range(idx, "router") {
                if st.crashed_routers.contains(&idx) {
                    report.warning(
                        "script.double_fail",
                        format!("{step}: router AS{idx} is already crashed"),
                    );
                } else {
                    st.crashed_routers.push(idx);
                }
                st.degraded = true;
            }
        }
        ScriptAction::RestoreRouter(idx) => {
            if as_in_range(idx, "router") {
                match st.crashed_routers.iter().position(|&r| r == idx) {
                    Some(pos) => {
                        st.crashed_routers.remove(pos);
                    }
                    None => report.warning(
                        "script.restore_unfailed",
                        format!("{step}: router AS{idx} is not crashed at this point"),
                    ),
                }
            }
        }
        ScriptAction::CrashController
        | ScriptAction::RestoreController
        | ScriptAction::PartitionControlChannel
        | ScriptAction::HealControlChannel
        | ScriptAction::SetControlLoss(_) => {
            if ctx.has_cluster {
                match *action {
                    ScriptAction::CrashController => st.controller_down = true,
                    ScriptAction::RestoreController => {
                        if !st.controller_down {
                            report.warning(
                                "script.restore_unfailed",
                                format!("{step}: controller is not down at this point"),
                            );
                        }
                        st.controller_down = false;
                    }
                    ScriptAction::PartitionControlChannel => st.channel_partitioned = true,
                    ScriptAction::HealControlChannel => {
                        if !st.channel_partitioned {
                            report.warning(
                                "script.restore_unfailed",
                                format!("{step}: control channel is not partitioned at this point"),
                            );
                        }
                        st.channel_partitioned = false;
                    }
                    ScriptAction::SetControlLoss(loss) => check_loss(&step, loss, report),
                    _ => unreachable!(),
                }
            } else {
                report.error(
                    "script.no_cluster",
                    format!("{step}: controller action but the network has no SDN cluster"),
                );
            }
        }
        ScriptAction::SetEdgeLoss(a, b, loss) => {
            if as_in_range(a, "edge endpoint") && as_in_range(b, "edge endpoint") {
                if !ctx.has_edge(a, b) {
                    report.error(
                        "script.unknown_edge",
                        format!("{step}: no link between AS{a} and AS{b} in the topology"),
                    );
                }
                check_loss(&step, loss, report);
                if loss > 0.0 {
                    st.degraded = true;
                }
            }
        }
        ScriptAction::Mark => {}
        ScriptAction::WaitConverged { max } => {
            if max == SimDuration::ZERO {
                report.warning(
                    "script.zero_wait",
                    format!(
                        "{step}: wait_converged with a zero deadline can never observe convergence"
                    ),
                );
            }
        }
        ScriptAction::RunFor(d) => {
            if d == SimDuration::ZERO {
                report.warning(
                    "script.zero_wait",
                    format!("{step}: run_for(0) does nothing"),
                );
            }
        }
        ScriptAction::ExpectReachable { prefix, origin } => {
            if as_in_range(origin, "expected origin") {
                match st.announced.iter().find(|&&(q, _)| q == prefix) {
                    None => report.error(
                        "script.expect_unreachable",
                        format!(
                            "{step}: expect_reachable({prefix}) but no earlier step announces it"
                        ),
                    ),
                    Some(&(_, actual)) if actual != origin => report.error(
                        "script.expect_origin_mismatch",
                        format!(
                            "{step}: expect_reachable({prefix}) names origin AS{origin} but \
                             AS{actual} announced it"
                        ),
                    ),
                    Some(_) => {
                        if st.crashed_routers.contains(&origin) {
                            report.error(
                                "script.expect_unreachable",
                                format!(
                                    "{step}: expect_reachable({prefix}) while its origin \
                                     AS{origin} is crashed"
                                ),
                            );
                        }
                    }
                }
            }
        }
        ScriptAction::ExpectGone { prefix } => {
            if let Some(&(_, origin)) = st.announced.iter().find(|&&(q, _)| q == prefix) {
                if !st.degraded {
                    report.error(
                        "script.expect_gone_announced",
                        format!(
                            "{step}: expect_gone({prefix}) but AS{origin} still announces it \
                             and no fault has been injected"
                        ),
                    );
                }
            }
        }
        ScriptAction::ExpectFullConnectivity => {
            if let Some(&r) = st.crashed_routers.first() {
                report.error(
                    "script.expect_unreachable",
                    format!("{step}: expect_full_connectivity while router AS{r} is crashed"),
                );
            }
        }
    }
}

fn check_loss(step: &str, loss: f64, report: &mut AnalysisReport) {
    if !(0.0..=1.0).contains(&loss) || loss.is_nan() {
        report.error(
            "script.loss_range",
            format!("{step}: loss {loss} outside [0, 1]"),
        );
    }
}

/// Validate the timer configuration itself.
pub fn check_timing(hold_secs: u64, graceful_restart_secs: u64) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    report.checked_n(2);
    if graceful_restart_secs > 0 && hold_secs == 0 {
        report.error(
            "timing.gr_without_hold",
            format!(
                "graceful restart ({graceful_restart_secs}s) is configured but hold timers \
                 are disabled; stale paths would be retained forever"
            ),
        );
    } else if graceful_restart_secs > 0 && graceful_restart_secs < hold_secs {
        report.warning(
            "timing.gr_shorter_than_hold",
            format!(
                "graceful-restart window ({graceful_restart_secs}s) is shorter than the hold \
                 time ({hold_secs}s); peers drop the session before the restart window ends"
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::tests::first_error;
    use bgpsdn_bgp::pfx;

    fn ctx(edges: &[(usize, usize)], prefixes: &[Prefix]) -> ActionContext {
        ActionContext {
            n: 4,
            edges: edges.to_vec(),
            has_cluster: false,
            origin_prefixes: prefixes.to_vec(),
            origins_announced: false,
        }
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let edges = [(0, 1)];
        let c = ctx(&edges, &[]);
        let r = check_actions(
            &[ScriptAction::Announce {
                as_index: 7,
                prefix: None,
            }],
            &c,
        );
        assert_eq!(first_error(&r).unwrap().code, "script.index_range");
    }

    #[test]
    fn unknown_edge_is_an_error() {
        let edges = [(0, 1)];
        let c = ctx(&edges, &[]);
        let r = check_actions(&[ScriptAction::FailEdge(2, 3)], &c);
        assert_eq!(first_error(&r).unwrap().code, "script.unknown_edge");
    }

    #[test]
    fn loss_range_is_checked() {
        let edges = [(0, 1)];
        let c = ctx(&edges, &[]);
        let r = check_actions(&[ScriptAction::SetEdgeLoss(0, 1, 1.5)], &c);
        assert_eq!(first_error(&r).unwrap().code, "script.loss_range");
        let r = check_actions(&[ScriptAction::SetEdgeLoss(0, 1, f64::NAN)], &c);
        assert_eq!(first_error(&r).unwrap().code, "script.loss_range");
    }

    #[test]
    fn controller_actions_need_a_cluster() {
        let edges = [(0, 1)];
        let c = ctx(&edges, &[]);
        let r = check_actions(&[ScriptAction::CrashController], &c);
        assert_eq!(first_error(&r).unwrap().code, "script.no_cluster");
    }

    #[test]
    fn expectation_lifecycle_is_tracked() {
        let p = pfx("10.0.0.0/24");
        let q = pfx("10.0.1.0/24");
        let edges = [(0, 1)];
        let prefixes = [p, q];
        let c = ctx(&edges, &prefixes);
        // Reachable-before-announce is an error.
        let r = check_actions(
            &[ScriptAction::ExpectReachable {
                prefix: p,
                origin: 0,
            }],
            &c,
        );
        assert_eq!(first_error(&r).unwrap().code, "script.expect_unreachable");
        // Wrong origin is an error.
        let r = check_actions(
            &[
                ScriptAction::Announce {
                    as_index: 0,
                    prefix: Some(p),
                },
                ScriptAction::ExpectReachable {
                    prefix: p,
                    origin: 1,
                },
            ],
            &c,
        );
        assert_eq!(
            first_error(&r).unwrap().code,
            "script.expect_origin_mismatch"
        );
        // Gone-while-announced with no fault is an error; after a fault it
        // is accepted.
        let r = check_actions(
            &[
                ScriptAction::Announce {
                    as_index: 0,
                    prefix: Some(p),
                },
                ScriptAction::ExpectGone { prefix: p },
            ],
            &c,
        );
        assert_eq!(
            first_error(&r).unwrap().code,
            "script.expect_gone_announced"
        );
        let r = check_actions(
            &[
                ScriptAction::Announce {
                    as_index: 0,
                    prefix: Some(p),
                },
                ScriptAction::FailEdge(0, 1),
                ScriptAction::ExpectGone { prefix: p },
            ],
            &c,
        );
        assert!(r.ok(), "{}", r.render());
        // The happy path (announce, expect, withdraw, expect gone) is clean.
        let r = check_actions(
            &[
                ScriptAction::Announce {
                    as_index: 0,
                    prefix: None,
                },
                ScriptAction::ExpectReachable {
                    prefix: p,
                    origin: 0,
                },
                ScriptAction::Withdraw {
                    as_index: 0,
                    prefix: None,
                },
                ScriptAction::ExpectGone { prefix: p },
            ],
            &c,
        );
        assert!(r.clean(), "{}", r.render());
    }

    #[test]
    fn started_network_seeds_origin_announcements() {
        let p = pfx("10.0.0.0/24");
        let q = pfx("10.0.1.0/24");
        let edges = [(0, 1)];
        let prefixes = [p, q];
        let mut c = ctx(&edges, &prefixes);
        c.origins_announced = true;
        // On a started network the origin prefixes are reachable without a
        // script-level announce...
        let r = check_actions(
            &[ScriptAction::ExpectReachable {
                prefix: q,
                origin: 1,
            }],
            &c,
        );
        assert!(r.clean(), "{}", r.render());
        // ...and expecting one gone without a withdraw or fault is impossible.
        let r = check_actions(&[ScriptAction::ExpectGone { prefix: p }], &c);
        assert_eq!(
            first_error(&r).unwrap().code,
            "script.expect_gone_announced"
        );
        // Withdrawing a seeded prefix is not "unannounced".
        let r = check_actions(
            &[
                ScriptAction::Withdraw {
                    as_index: 0,
                    prefix: None,
                },
                ScriptAction::ExpectGone { prefix: p },
            ],
            &c,
        );
        assert!(r.clean(), "{}", r.render());
    }

    #[test]
    fn restore_and_double_fail_warnings() {
        let edges = [(0, 1)];
        let c = ctx(&edges, &[]);
        let r = check_actions(
            &[
                ScriptAction::FailEdge(0, 1),
                ScriptAction::FailEdge(0, 1),
                ScriptAction::RestoreEdge(0, 1),
                ScriptAction::RestoreEdge(0, 1),
                ScriptAction::RestoreRouter(2),
            ],
            &c,
        );
        assert!(r.ok());
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert_eq!(
            codes,
            vec![
                "script.double_fail",
                "script.restore_unfailed",
                "script.restore_unfailed"
            ]
        );
    }

    #[test]
    fn hold_timers_are_needed_by_data_plane_downs_only() {
        let needs: Vec<ScriptAction> = [
            ScriptAction::CrashController,
            ScriptAction::RestoreController,
            ScriptAction::PartitionControlChannel,
            ScriptAction::HealControlChannel,
            ScriptAction::CrashRouter(1),
            ScriptAction::RestoreRouter(1),
            ScriptAction::FailEdge(0, 1),
            ScriptAction::RestoreEdge(0, 1),
            ScriptAction::DropEdgeTraffic(0, 1),
            ScriptAction::RestoreEdgeTraffic(0, 1),
            ScriptAction::SetEdgeLoss(0, 1, 0.5),
            ScriptAction::SetControlLoss(0.5),
            ScriptAction::Mark,
        ]
        .into_iter()
        .filter(ScriptAction::needs_hold_timers)
        .collect();
        assert_eq!(
            needs,
            vec![
                ScriptAction::CrashRouter(1),
                ScriptAction::FailEdge(0, 1),
                ScriptAction::DropEdgeTraffic(0, 1),
                ScriptAction::SetEdgeLoss(0, 1, 0.5),
            ]
        );
        // Every data-plane outage a chaos schedule can draw opens with one.
        assert!(needs[..3].iter().all(ScriptAction::is_fault));
        assert!(!ScriptAction::SetEdgeLoss(0, 1, 0.5).is_fault());
    }

    #[test]
    fn timing_consistency() {
        assert!(check_timing(9, 0).clean());
        assert!(check_timing(0, 0).clean());
        let r = check_timing(0, 120);
        assert_eq!(first_error(&r).unwrap().code, "timing.gr_without_hold");
        let r = check_timing(9, 5);
        assert!(r.ok());
        assert_eq!(r.findings[0].code, "timing.gr_shorter_than_hold");
    }
}
