//! Seeded chaos schedules for the control plane and the data plane.
//!
//! A chaos schedule is a [`Script`]: paired down/up faults — controller
//! crashes, control-channel partitions, router crashes, link flaps and
//! keepalive-loss windows — drawn from a seed by [`FaultSpec::schedule`]
//! and lowered to `RunFor(gap)` + action steps, so
//! [`Experiment::run_script`](super::experiment::Experiment::run_script)
//! replays it like any other script.

use bgpsdn_netsim::{SimDuration, SimRng};

use super::script::{Script, ScriptAction};

/// Which fault classes a chaos schedule may draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultClasses {
    /// Controller crashes and control-channel partitions.
    pub control: bool,
    /// Router (AS device) crashes.
    pub router: bool,
    /// Data-link flaps and keepalive-loss windows.
    pub link: bool,
}

impl FaultClasses {
    /// Everything enabled.
    pub const ALL: FaultClasses = FaultClasses {
        control: true,
        router: true,
        link: true,
    };
    /// Control-plane faults only.
    pub const CONTROL_ONLY: FaultClasses = FaultClasses {
        control: true,
        router: false,
        link: false,
    };
    /// Router and link faults only — what a pure-BGP cell (no SDN cluster)
    /// can meaningfully run.
    pub const DATA_PLANE: FaultClasses = FaultClasses {
        control: false,
        router: true,
        link: true,
    };
}

impl std::str::FromStr for FaultClasses {
    type Err = String;

    /// `all`, `control` or `data`, as `bgpsdn --chaos-classes` spells them.
    fn from_str(name: &str) -> Result<FaultClasses, String> {
        match name {
            "all" => Ok(FaultClasses::ALL),
            "control" => Ok(FaultClasses::CONTROL_ONLY),
            "data" => Ok(FaultClasses::DATA_PLANE),
            other => Err(format!("must be all|control|data, got {other}")),
        }
    }
}

/// A seeded chaos-schedule spec: each campaign job draws its own
/// [`FaultSpec::schedule`] from its job seed, so different seeds explore
/// different outage patterns of the same intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Paired down/up outages per job.
    pub outages: usize,
    /// Window the outages start in, measured from event injection.
    pub horizon: SimDuration,
    /// Which fault classes jobs draw from. Classes a network cannot run
    /// are dropped per job and named in a trace note instead of silently
    /// dropping the whole schedule.
    pub classes: FaultClasses,
}

/// Router crashes and keepalive-loss windows last 12–20 s: long enough
/// that a 9 s hold timer expires inside the window (the only way a silent
/// fault is detectable), short enough that the reconnect backoff outlives
/// it.
const SILENT_MIN: SimDuration = SimDuration::from_secs(12);
const SILENT_MAX: SimDuration = SimDuration::from_secs(20);

/// The [`SimRng::fork`] stream a chaos schedule draws from, so it shares no
/// draws with a random deployment seeded from the same job seed.
const CHAOS_STREAM: u64 = 0xc4a0_5eed;

impl FaultSpec {
    /// Draw the seeded schedule for one network. `cluster` says whether it
    /// has an SDN cluster, `legacy` lists its classic-BGP ASes and `links`
    /// the links between two of them. Router and link faults never touch
    /// the origin AS 0, so the routing event under test keeps its origin.
    ///
    /// A class applies when it has a target — control needs the cluster,
    /// router a legacy AS other than the origin, link a link between two
    /// such ASes — and each outage picks its start within the horizon, an
    /// applicable class and a target uniformly. Control outages and link
    /// flaps last 5–25 % of the horizon, router crashes and traffic-drop
    /// windows 12–20 s; schedules holding router or link faults need hold
    /// timers ([`ScriptAction::needs_hold_timers`]). Returns the schedule
    /// and a note naming every requested class that had nothing to fault.
    pub fn schedule(
        &self,
        seed: u64,
        cluster: bool,
        legacy: &[usize],
        links: &[(usize, usize)],
    ) -> (Script, Option<String>) {
        let routers: Vec<usize> = legacy.iter().copied().filter(|&r| r != 0).collect();
        let links: Vec<(usize, usize)> = links
            .iter()
            .copied()
            .filter(|&(a, b)| a != 0 && b != 0)
            .collect();
        let mut classes = Vec::new();
        let mut dropped = Vec::new();
        for (wanted, class, has_target, why) in [
            (
                self.classes.control,
                0u8,
                cluster,
                "control (no SDN cluster)",
            ),
            (
                self.classes.router,
                1,
                !routers.is_empty(),
                "router (no legacy AS besides the origin)",
            ),
            (
                self.classes.link,
                2,
                !links.is_empty(),
                "link (no link between two legacy ASes besides the origin)",
            ),
        ] {
            match (wanted, has_target) {
                (true, true) => classes.push(class),
                (true, false) => dropped.push(why),
                (false, _) => {}
            }
        }
        let note = (!dropped.is_empty()).then(|| {
            format!(
                "inapplicable fault classes dropped for this cell: {}",
                dropped.join(", ")
            )
        });
        let mut rng = SimRng::seed_from_u64(seed).fork(CHAOS_STREAM);
        let span = self.horizon.max(SimDuration::from_nanos(1));
        let mut events = Vec::with_capacity(self.outages * 2);
        for _ in 0..self.outages {
            let Some(&class) = rng.choose(&classes) else {
                break;
            };
            let start = rng.duration_between(SimDuration::ZERO, span);
            let flap = rng.duration_between(span / 20, span / 4);
            let silent = rng.duration_between(SILENT_MIN, SILENT_MAX);
            let heads = rng.chance(0.5);
            let (down, up, dur) = match class {
                0 if heads => (
                    ScriptAction::PartitionControlChannel,
                    ScriptAction::HealControlChannel,
                    flap,
                ),
                0 => (
                    ScriptAction::CrashController,
                    ScriptAction::RestoreController,
                    flap,
                ),
                1 => {
                    let r = routers[rng.below_usize(routers.len())];
                    (
                        ScriptAction::CrashRouter(r),
                        ScriptAction::RestoreRouter(r),
                        silent,
                    )
                }
                _ => {
                    let (a, b) = links[rng.below_usize(links.len())];
                    if heads {
                        (
                            ScriptAction::FailEdge(a, b),
                            ScriptAction::RestoreEdge(a, b),
                            flap,
                        )
                    } else {
                        (
                            ScriptAction::DropEdgeTraffic(a, b),
                            ScriptAction::RestoreEdgeTraffic(a, b),
                            silent,
                        )
                    }
                }
            };
            events.push((start, down));
            events.push((start + dur, up));
        }
        (Script::from_offsets(events), note)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::campaign::job_seed;

    fn spec(classes: FaultClasses) -> FaultSpec {
        FaultSpec {
            outages: 3,
            horizon: SimDuration::from_secs(60),
            classes,
        }
    }

    /// A 6-clique's ASes 0..4 legacy, all links among them.
    fn legacy_clique() -> (Vec<usize>, Vec<(usize, usize)>) {
        let legacy: Vec<usize> = (0..4).collect();
        let links = legacy
            .iter()
            .flat_map(|&a| legacy.iter().filter(move |&&b| b > a).map(move |&b| (a, b)))
            .collect();
        (legacy, links)
    }

    #[test]
    fn chaos_is_deterministic_and_paired() {
        let (legacy, links) = legacy_clique();
        let draw = |seed| {
            spec(FaultClasses::ALL)
                .schedule(seed, true, &legacy, &links)
                .0
        };
        let a = draw(42);
        assert_eq!(a.steps, draw(42).steps, "same seed, same schedule");
        assert_ne!(
            a.steps,
            draw(43).steps,
            "different seed, different schedule"
        );
        let faults = a.steps.iter().filter(|s| s.is_fault()).count();
        assert_eq!(faults, 6, "each outage is a down/up pair");
        let gaps_positive = a.steps.iter().all(|s| match s {
            ScriptAction::RunFor(d) => *d > SimDuration::ZERO,
            other => other.is_fault(),
        });
        assert!(
            gaps_positive,
            "only faults and non-zero gaps: {:?}",
            a.steps
        );
    }

    #[test]
    fn chaos_mixed_is_deterministic_and_respects_classes() {
        // Campaign job seeds are always odd; the schedule must still reach
        // every kind its classes allow, and no other.
        let (legacy, links) = legacy_clique();
        let kinds = |classes| {
            let mut seen = std::collections::BTreeSet::new();
            for i in 0..256 {
                let seed = job_seed(1000, 8, 0, 1_000_000, i);
                assert_eq!(seed & 1, 1);
                let (script, _) = spec(classes).schedule(seed, true, &legacy, &links);
                seen.extend(script.steps.iter().filter_map(|s| match s {
                    ScriptAction::CrashController => Some("crash"),
                    ScriptAction::PartitionControlChannel => Some("partition"),
                    ScriptAction::CrashRouter(_) => Some("router"),
                    ScriptAction::FailEdge(..) => Some("flap"),
                    ScriptAction::DropEdgeTraffic(..) => Some("drop"),
                    _ => None,
                }));
            }
            seen.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(
            kinds(FaultClasses::ALL),
            ["crash", "drop", "flap", "partition", "router"]
        );
        assert_eq!(kinds(FaultClasses::DATA_PLANE), ["drop", "flap", "router"]);
        assert_eq!(kinds(FaultClasses::CONTROL_ONLY), ["crash", "partition"]);
    }

    #[test]
    fn chaos_mixed_targets_stay_in_legacy_range_and_avoid_origin() {
        // Legacy ASes scattered as a random placement leaves them, and only
        // some links among them.
        let legacy = [0, 2, 5, 7];
        let links = [(0, 2), (2, 5), (5, 7), (0, 7)];
        for seed in 0..32u64 {
            let (script, _) = spec(FaultClasses::DATA_PLANE).schedule(seed, false, &legacy, &links);
            for step in &script.steps {
                match *step {
                    ScriptAction::CrashRouter(r) | ScriptAction::RestoreRouter(r) => {
                        assert!([2, 5, 7].contains(&r), "crash target AS{r}");
                    }
                    ScriptAction::FailEdge(a, b)
                    | ScriptAction::RestoreEdge(a, b)
                    | ScriptAction::DropEdgeTraffic(a, b)
                    | ScriptAction::RestoreEdgeTraffic(a, b) => {
                        assert!([(2, 5), (5, 7)].contains(&(a, b)), "edge AS{a}-AS{b}");
                    }
                    ScriptAction::RunFor(_) => {}
                    other => panic!("`{other}` in a data-plane schedule"),
                }
            }
        }
    }

    #[test]
    fn chaos_mixed_with_no_applicable_class_is_empty() {
        // Full-SDN cell: only the origin is legacy, so router and link
        // faults have nothing to touch and the schedule is control-only.
        let (script, note) = spec(FaultClasses::ALL).schedule(9, true, &[0], &[]);
        let note = note.expect("dropped classes are noted");
        assert!(note.contains("router") && note.contains("link"), "{note}");
        assert!(!script.steps.iter().any(ScriptAction::needs_hold_timers));
        // Two legacy ASes: routers apply, but their one link touches the
        // origin, so links do not.
        let (script, note) = spec(FaultClasses::DATA_PLANE).schedule(9, false, &[0, 1], &[(0, 1)]);
        assert!(note.is_some_and(|n| n.contains("link") && !n.contains("router")));
        assert!(script.steps.iter().all(|s| matches!(
            s,
            ScriptAction::RunFor(_) | ScriptAction::CrashRouter(1) | ScriptAction::RestoreRouter(1)
        )));
        // Nothing applicable at all: an empty schedule, not a panic.
        let (script, note) = spec(FaultClasses::DATA_PLANE).schedule(9, true, &[0], &[]);
        assert!(script.steps.is_empty() && note.is_some());
    }

    #[test]
    fn builder_orders_by_offset_at_apply_time() {
        let secs = SimDuration::from_secs;
        let script = Script::from_offsets(vec![
            (secs(9), ScriptAction::RestoreController),
            (secs(0), ScriptAction::PartitionControlChannel),
            (secs(3), ScriptAction::CrashController),
            (secs(3), ScriptAction::HealControlChannel),
        ]);
        // Sorted by offset, ties in insertion order, no zero gap.
        assert_eq!(
            script.steps,
            [
                ScriptAction::PartitionControlChannel,
                ScriptAction::RunFor(secs(3)),
                ScriptAction::CrashController,
                ScriptAction::HealControlChannel,
                ScriptAction::RunFor(secs(6)),
                ScriptAction::RestoreController,
            ]
        );
    }
}
