//! `hybrid_churn` — steady-state routing churn on a hybrid hierarchy.
//!
//! The 400-AS hierarchy of `internet_bringup` with tier-1 ASes 0..4 under
//! one controller (half the tier-1 mesh, recompute delay 100 ms). Bring-up
//! and one warm-up round are **set-up**; the measured phase is rounds of
//! {withdraw a stub's /16, re-announce it, fail a tier-1–mid edge, restore
//! it}, each followed by `wait_converged` and an audit. One op is one
//! trigger. This is steady-state cost a warm start cannot touch: `bgp`
//! works by withdraw, implicit replace and path hunting instead of the
//! initial flood, and it is the only workload where speaker relay,
//! controller recompute and flow install are on the blocking path.
//!
//! `sim_digest` covers the bring-up, the warm-up round and the first block
//! of rounds — the part both modes run identically.

use std::time::Instant;

use bgpsdn_core::{Collector, Experiment};
use bgpsdn_netsim::SimRng;

use super::{
    add_exact_counts, add_program_spans, digest_state, finish_ratios, hierarchy_builder, timed_rep,
    traced_bring_up, Config, Layers, Outcome, Sizes, HIERARCHY_NOT_APPLICABLE, PHASE_DEADLINE,
};
use crate::kernels;
use crate::spans::SpanLog;
use crate::stats::{median, ratio, Digest};
use crate::stepper::{NodeKind, StepProfile};

/// Keeps the harness's victim choices on their own random stream.
const VICTIM_STREAM: u64 = 0x6368_7572_6e21;

/// The four triggers of a round.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    Withdraw(usize),
    Announce(usize),
    Fail(usize, usize),
    Restore(usize, usize),
}

/// The victims of every round, drawn from the seed alone.
struct Victims {
    rng: SimRng,
    stubs: std::ops::Range<usize>,
    /// Provider edges from a tier-1 AS down to a mid-tier AS.
    edges: Vec<(usize, usize)>,
}

impl Victims {
    fn new(exp: &Experiment, sizes: &Sizes, seed: u64) -> Victims {
        let edges = exp
            .net
            .plan
            .as_graph
            .edges
            .iter()
            .filter(|e| e.a < sizes.tier1 && (sizes.tier1..sizes.tier1 + sizes.mid).contains(&e.b))
            .map(|e| (e.a, e.b))
            .collect();
        Victims {
            rng: SimRng::seed_from_u64(seed ^ VICTIM_STREAM),
            stubs: sizes.tier1 + sizes.mid..sizes.ases(),
            edges,
        }
    }

    fn round(&mut self) -> [Trigger; 4] {
        let stub = self.stubs.start + self.rng.below_usize(self.stubs.len());
        let (a, b) = self.edges[self.rng.below_usize(self.edges.len())];
        [
            Trigger::Withdraw(stub),
            Trigger::Announce(stub),
            Trigger::Fail(a, b),
            Trigger::Restore(a, b),
        ]
    }
}

/// What one trigger did, in simulated terms.
struct Fired {
    ok: bool,
    events: u64,
    convergence_s: f64,
    /// Updates the collector logged during the trigger's phase.
    logged: usize,
}

/// Fire one trigger, wait for convergence, audit. With `stepped`, the
/// harness drives the budgeted number of `step()` calls first.
fn fire(
    exp: &mut Experiment,
    trigger: Trigger,
    stepped: Option<(u64, &mut StepProfile, &[NodeKind])>,
    digest: &mut Digest,
    spans: &mut SpanLog,
) -> Fired {
    let before = exp.net.sim.stats().events_processed;
    let s = spans.enter("core.framework.trigger");
    exp.mark();
    match trigger {
        Trigger::Withdraw(i) => exp.withdraw(i, None),
        Trigger::Announce(i) => exp.announce(i, None),
        Trigger::Fail(a, b) => exp.fail_edge(a, b),
        Trigger::Restore(a, b) => exp.restore_edge(a, b),
    }
    if let Some((budget, steps, kinds)) = stepped {
        steps.drive(&mut exp.net.sim, budget, kinds, spans);
    }
    let report = exp.wait_converged(PHASE_DEADLINE);
    spans.exit(s);
    let audit = spans.time("core.framework.audit", || match trigger {
        Trigger::Withdraw(i) => exp.prefix_fully_gone(exp.net.ases[i].prefix),
        Trigger::Announce(i) => exp.prefix_reachable_from_all(exp.net.ases[i].prefix, i),
        Trigger::Fail(_, b) | Trigger::Restore(_, b) => {
            exp.prefix_reachable_from_all(exp.net.ases[b].prefix, b)
        }
    });
    digest.u64(report.duration.as_nanos());
    digest.u64(exp.updates_sent());
    digest.u64(exp.flows_installed());
    Fired {
        ok: report.converged && audit,
        events: exp.net.sim.stats().events_processed - before,
        convergence_s: report.duration.as_nanos() as f64 / 1e9,
        logged: exp
            .net
            .collector
            .map_or(0, |c| exp.net.sim.node_ref::<Collector>(c).log().len()),
    }
}

/// Build the hybrid network and bring it up (untraced).
fn bring_up(cfg: &Config, out: &mut Outcome) -> Experiment {
    let net = hierarchy_builder(cfg, cfg.sizes.central, &mut SpanLog::new(false)).build();
    let mut exp = Experiment::new(net);
    let up = exp.start(PHASE_DEADLINE);
    let reachable = exp
        .net
        .ases
        .iter()
        .all(|a| exp.prefix_reachable_from_all(a.prefix, a.index));
    out.op(up.converged && reachable, || {
        "hybrid bring-up did not converge or left a prefix unreachable".into()
    });
    out.digest.u64(up.duration.as_nanos());
    digest_state(&exp, &mut out.digest);
    exp
}

/// One block of rounds, untraced: what every trigger did, and how long it
/// took on the host.
fn block(
    exp: &mut Experiment,
    victims: &mut Victims,
    rounds: usize,
    digest: &mut Digest,
    out: &mut Outcome,
) -> (Vec<Fired>, Vec<f64>) {
    let mut quiet = SpanLog::new(false);
    let mut fired = Vec::with_capacity(rounds * 4);
    let mut op_ms = Vec::with_capacity(rounds * 4);
    for _ in 0..rounds {
        for trigger in victims.round() {
            let t0 = Instant::now();
            let f = fire(exp, trigger, None, digest, &mut quiet);
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.op(f.ok, || {
                format!("{trigger:?} did not converge or failed its audit")
            });
            fired.push(f);
        }
    }
    (fired, op_ms)
}

/// Run the workload.
pub fn run(cfg: &Config, spans: &mut SpanLog) -> Outcome {
    let mut out = Outcome::default();
    let sizes = &cfg.sizes;

    // Set-up: bring-up plus the warm-up round (the first trigger after
    // bring-up costs several steady-state ones: first touch of every path).
    let t0 = Instant::now();
    let mut exp = bring_up(cfg, &mut out);
    let mut victims = Victims::new(&exp, sizes, cfg.seed);
    let mut triggers = Digest::default();
    let (warm_up, _) = block(&mut exp, &mut victims, 1, &mut triggers, &mut out);
    out.setup_s.push(t0.elapsed().as_secs_f64());

    if !cfg.trace {
        for b in 0..sizes.churn_blocks {
            // Only the first block feeds the digest (see the module docs).
            let mut later = Digest::default();
            let into = if b == 0 { &mut triggers } else { &mut later };
            let (rep, ()) = timed_rep(|| {
                let (fired, op_ms) =
                    block(&mut exp, &mut victims, sizes.churn_block, into, &mut out);
                (fired.iter().map(|f| f.events).sum(), op_ms, ())
            });
            out.reps.push(rep);
        }
        out.digest.fold(triggers);
        return out;
    }

    // Untraced base pass over the first block: exact counts of the measured
    // phase, per-trigger event budgets, the wall the traced pass compares to.
    let mut before = Layers::default();
    add_exact_counts(&exp, &mut before);
    let t0 = Instant::now();
    let (measured, _) = block(
        &mut exp,
        &mut victims,
        sizes.churn_block,
        &mut triggers,
        &mut out,
    );
    let untraced_s = t0.elapsed().as_secs_f64();
    out.digest.fold(triggers);
    let mut after = Layers::default();
    add_exact_counts(&exp, &mut after);
    out.layers = after.since(&before);
    out.layers.set(
        "collector.updates_logged",
        measured.iter().map(|f| f.logged).sum::<usize>() as f64,
    );
    let mut convergence_s: Vec<f64> = measured.iter().map(|f| f.convergence_s).collect();
    out.layers.set(
        "collector.convergence_sim_s_p50",
        median(&mut convergence_s),
    );
    let warm_up_events: u64 = warm_up.iter().map(|f| f.events).sum();
    let bringup_events = before.get("netsim.events") as u64 - warm_up_events;
    drop(exp);

    // Traced pass: the same bring-up, warm-up round and block, profiled,
    // fully traced, stepped. Op 1 is the bring-up; then one op per trigger.
    let op = spans.enter_op();
    let (mut exp, kinds, _) = traced_bring_up(
        cfg,
        sizes.central,
        bringup_events,
        &mut StepProfile::default(),
        spans,
    );
    spans.exit(op);

    let mut victims = Victims::new(&exp, sizes, cfg.seed);
    let mut traced_digest = Digest::default();
    let mut steps = StepProfile::default();
    let mut spans_before = Layers::default();
    let mut traced_s = 0.0;
    let mut budgets = warm_up.iter().chain(&measured).map(|f| f.events);
    for round in 0..=sizes.churn_block {
        if round == 1 {
            // The measured phase starts after the warm-up round.
            add_program_spans(&exp, &mut spans_before);
        }
        for trigger in victims.round() {
            let budget = budgets.next().expect("one budget per trigger");
            let op = spans.enter_op();
            let t0 = Instant::now();
            let fired = fire(
                &mut exp,
                trigger,
                Some((budget, &mut steps, &kinds)),
                &mut traced_digest,
                spans,
            );
            if round > 0 {
                traced_s += t0.elapsed().as_secs_f64();
            }
            out.op(fired.ok && fired.events == budget, || {
                format!("traced {trigger:?} diverged from the untraced pass")
            });
            spans.exit(op);
        }
    }
    if traced_digest != triggers {
        out.problem("traced and untraced triggers of one seed differ in sim_digest");
    }
    let op = spans.enter_op();
    spans.time("core.framework.finish", || {
        exp.finish();
    });
    let h = spans.enter("harness.report");
    let mut spans_after = Layers::default();
    add_program_spans(&exp, &mut spans_after);
    out.layers.merge(&spans_after.since(&spans_before));
    out.layers
        .set("obs.trace_records", exp.net.sim.trace().len() as f64);
    out.layers
        .set("obs.trace_dropped", exp.net.sim.trace().dropped() as f64);
    steps.report(&mut out.layers);
    spans.exit(h);
    let h = spans.enter("harness.kernels");
    kernels::replay(&exp, sizes, &mut out.layers);
    spans.exit(h);
    spans.time("core.framework.teardown", || drop(exp));
    spans.exit(op);

    out.layers
        .set("obs.trace_overhead_ratio", ratio(traced_s, untraced_s));
    out.layers.set("aux.measured_wall_s", untraced_s);
    out.layers.not_applicable(&HIERARCHY_NOT_APPLICABLE);
    finish_ratios(&mut out.layers);
    out
}
