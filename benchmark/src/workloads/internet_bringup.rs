//! `internet_bringup` — a CAIDA-style hierarchy of pure BGP brought up from
//! nothing to quiescence.
//!
//! 8 tier-1 + 92 mid + 300 stub ASes, Gao-Rexford policy, MRAI 0, one /16
//! per AS, no cluster. Set-up is synthesis, plan and
//! `NetworkBuilder::build`; one op is `Experiment::start` to quiescence and
//! the drop of the experiment. The deep event queue and the per-event `bgp`
//! work (decode, RIB-in, policy, decision, encode) do almost everything;
//! `sdn`, `core.controller` and `obs` do nothing — this is the bypass
//! workload for those layers.

use std::time::Instant;

use bgpsdn_collector::ConvergenceReport;
use bgpsdn_core::Experiment;

use super::{
    add_exact_counts, add_program_spans, digest_state, finish_ratios, hierarchy_builder, timed_rep,
    traced_bring_up, Config, Outcome, HIERARCHY_NOT_APPLICABLE, PHASE_DEADLINE,
};
use crate::kernels;
use crate::spans::SpanLog;
use crate::stats::{ratio, Digest};
use crate::stepper::StepProfile;

/// Set-ups timed per run (synthesis, plan and build take a millisecond, so
/// many; the first ones feed the timed bring-ups, the rest are only timed).
const SETUPS: usize = 21;

/// The bring-up converged and every AS holds a route to every other AS's
/// prefix.
fn healthy(exp: &Experiment, up: &ConvergenceReport) -> bool {
    up.converged
        && exp
            .net
            .ases
            .iter()
            .all(|a| exp.prefix_reachable_from_all(a.prefix, a.index))
}

fn digest_of(exp: &Experiment, up: &ConvergenceReport) -> Digest {
    let mut d = Digest::default();
    d.u64(up.duration.as_nanos());
    digest_state(exp, &mut d);
    d
}

/// Run the workload.
pub fn run(cfg: &Config, spans: &mut SpanLog) -> Outcome {
    let mut out = Outcome::default();
    let mut quiet = SpanLog::new(false);

    let passes = if cfg.trace { 1 } else { cfg.sizes.bringups };
    let mut built = Vec::new();
    for i in 0..SETUPS.max(passes) {
        let t0 = Instant::now();
        let net = hierarchy_builder(cfg, 0, &mut quiet).build();
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if i < passes {
            built.push(net);
        }
    }

    if !cfg.trace {
        // The op as a user runs it: bring the built network up, drop it.
        for net in built {
            let (rep, (ok, digest)) = timed_rep(|| {
                let t0 = Instant::now();
                let mut exp = Experiment::new(net);
                let up = exp.start(PHASE_DEADLINE);
                let run = t0.elapsed();
                let events = exp.net.sim.stats().events_processed;
                let checks = (healthy(&exp, &up), digest_of(&exp, &up));
                let t1 = Instant::now();
                drop(exp);
                let op_ms = (run + t1.elapsed()).as_secs_f64() * 1e3;
                (events, vec![op_ms], checks)
            });
            out.op(ok, || {
                "bring-up did not converge or left a prefix unreachable".into()
            });
            out.repeat_digest(digest, "bring-ups");
            out.reps.push(rep);
        }
        return out;
    }

    // Untraced base pass: exact counts, the stepper's event budget, and the
    // wall the traced pass is compared against.
    let t0 = Instant::now();
    let mut exp = Experiment::new(built.pop().expect("one network per pass"));
    let up = exp.start(PHASE_DEADLINE);
    let untraced_s = t0.elapsed().as_secs_f64();
    let events = exp.net.sim.stats().events_processed;
    out.op(healthy(&exp, &up), || {
        "untraced bring-up did not converge or left a prefix unreachable".into()
    });
    out.digest = digest_of(&exp, &up);
    exp.finish();
    add_exact_counts(&exp, &mut out.layers);
    out.layers.set(
        "collector.convergence_sim_s_p50",
        up.duration.as_nanos() as f64 / 1e9,
    );
    drop(exp);

    // Traced pass: profiling and every trace category on, the harness
    // driving step().
    let op = spans.enter_op();
    let mut steps = StepProfile::default();
    let t0 = Instant::now();
    let (mut exp, _, settled) = traced_bring_up(cfg, 0, events, &mut steps, spans);
    let traced_s = t0.elapsed().as_secs_f64();
    out.op(healthy(&exp, &settled), || {
        "traced bring-up did not converge or left a prefix unreachable".into()
    });
    if digest_of(&exp, &settled) != out.digest {
        out.problem("traced and untraced bring-ups of one seed differ in sim_digest");
    }
    spans.time("core.framework.finish", || {
        exp.finish();
    });
    let h = spans.enter("harness.report");
    add_program_spans(&exp, &mut out.layers);
    steps.report(&mut out.layers);
    spans.exit(h);
    let h = spans.enter("harness.kernels");
    kernels::replay(&exp, &cfg.sizes, &mut out.layers);
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
