//! The simulator's timers against the table they replaced.
//!
//! Named timers live in a per-node row indexed by token and one-shot firings
//! carry a crash epoch instead of being looked up anywhere. Before, both were
//! entries of one `(node, token)` hash table with a generation, an armed flag
//! and a count of queued firings, removed when the last firing popped, and a
//! one-shot was simply a token nobody used twice. That logic is kept here as
//! [`reference`]: for any program of arm / re-arm earlier and later / cancel /
//! one-shot / crash / restore / redundant admin over three nodes, the
//! simulator must call `on_timer` with the same `(time, node, token)` in the
//! same order and count the same fired and stale firings.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use bgpsdn_netsim::{
    Ctx, LinkId, Message, Node, NodeId, SimDuration, SimTime, Simulator, TimerClass, TimerToken,
};

const NODES: u32 = 3;
/// The named timer every node re-arms from its own firing, keepalive-style.
const PERIODIC: u64 = 3;
const PERIOD_MS: u64 = 3;
/// How often a node re-arms [`PERIODIC`] before letting it lapse.
const REARMS: u32 = 6;
/// What a restored node arms from `on_restart`, and how far ahead.
const RESTART_TOKEN: u64 = 0;
const RESTART_MS: u64 = 5;

/// One thing a node does with its timers when told to.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `set_timer(delay, token)`: arm, or re-arm earlier or later.
    Set { token: u64, delay_ms: u64 },
    /// `cancel_timer(token)`.
    Cancel { token: u64 },
    /// `schedule_timer(at, token)`; `at` may already have passed.
    Once { token: u64, at_ms: u64 },
}

/// One step of a program, at an absolute time.
#[derive(Debug, Clone, Copy)]
enum Step {
    Tell {
        at_ms: u64,
        node: u32,
        op: Op,
    },
    /// Crash or restore; redundant when the node is already there.
    Admin {
        at_ms: u64,
        node: u32,
        up: bool,
    },
}

/// `(time in ns, node, token)` of one `on_timer` call.
type Firing = (u64, u32, u64);

fn ms(n: u64) -> u64 {
    n * 1_000_000
}

// Few tokens, few nodes and whole milliseconds: re-arms, cancels, crashes and
// ties on one timestamp all hit timers that have firings queued.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..5, 0u64..30).prop_map(|(token, delay_ms)| Op::Set { token, delay_ms }),
        (0u64..5, 0u64..30).prop_map(|(token, delay_ms)| Op::Set { token, delay_ms }),
        (0u64..5).prop_map(|token| Op::Cancel { token }),
        (0u64..5, 0u64..70).prop_map(|(token, at_ms)| Op::Once { token, at_ms }),
        (0u64..5, 0u64..70).prop_map(|(token, at_ms)| Op::Once { token, at_ms }),
    ]
}

fn tell_strategy() -> impl Strategy<Value = Step> {
    (0u64..40, 0..NODES, op_strategy()).prop_map(|(at_ms, node, op)| Step::Tell { at_ms, node, op })
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        tell_strategy(),
        tell_strategy(),
        tell_strategy(),
        tell_strategy(),
        tell_strategy(),
        (0u64..40, 0..NODES, any::<bool>()).prop_map(|(at_ms, node, up)| Step::Admin {
            at_ms,
            node,
            up
        }),
    ]
}

// ----------------------------------------------------------------------
// The program on the simulator
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Tell(Op);
impl Message for Tell {}

struct Scripted {
    log: Rc<RefCell<Vec<Firing>>>,
    rearms_left: u32,
}

impl Node<Tell> for Scripted {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Tell>, _: NodeId, _: LinkId, Tell(op): Tell) {
        match op {
            Op::Set { token, delay_ms } => ctx.set_timer(
                SimDuration::from_millis(delay_ms),
                TimerToken(token),
                TimerClass::Progress,
            ),
            Op::Cancel { token } => ctx.cancel_timer(TimerToken(token)),
            Op::Once { token, at_ms } => ctx.schedule_timer(
                SimTime::from_millis(at_ms),
                TimerToken(token),
                TimerClass::Progress,
            ),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Tell>, token: TimerToken) {
        self.log
            .borrow_mut()
            .push((ctx.now().as_nanos(), ctx.me().0, token.0));
        if token.0 == PERIODIC && self.rearms_left > 0 {
            self.rearms_left -= 1;
            ctx.set_timer(
                SimDuration::from_millis(PERIOD_MS),
                token,
                TimerClass::Progress,
            );
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Tell>) {
        ctx.set_timer(
            SimDuration::from_millis(RESTART_MS),
            TimerToken(RESTART_TOKEN),
            TimerClass::Progress,
        );
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Every `on_timer` call in order, then `timers_fired` and `timers_stale`.
fn simulate(steps: &[Step]) -> (Vec<Firing>, u64, u64) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sim: Simulator<Tell> = Simulator::new(1);
    let nodes: Vec<NodeId> = (0..NODES)
        .map(|i| {
            sim.add_node(format!("n{i}"), |_| Scripted {
                log: log.clone(),
                rearms_left: REARMS,
            })
        })
        .collect();
    for step in steps {
        match *step {
            Step::Tell { at_ms, node, op } => {
                sim.inject_at(SimTime::from_millis(at_ms), nodes[node as usize], Tell(op));
            }
            Step::Admin { at_ms, node, up } => {
                sim.schedule_node_admin(SimTime::from_millis(at_ms), nodes[node as usize], up);
            }
        }
    }
    sim.run_until(SimTime::from_secs(10));
    let stats = sim.stats();
    let fired = log.borrow().clone();
    (fired, stats.timers_fired, stats.timers_stale)
}

// ----------------------------------------------------------------------
// The same program on the generation table
// ----------------------------------------------------------------------

mod reference {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    use super::{
        ms, Firing, Op, Step, NODES, PERIODIC, PERIOD_MS, REARMS, RESTART_MS, RESTART_TOKEN,
    };

    /// Table key of a one-shot: a token value no other firing ever has.
    const UNIQUE: u64 = 1 << 63;

    #[derive(Default)]
    struct TimerGen {
        gen: u64,
        armed: bool,
        queued: u32,
    }

    enum Event {
        Tell {
            node: u32,
            op: Op,
        },
        Admin {
            node: u32,
            up: bool,
        },
        /// `key` names the table entry, `token` is what `on_timer` sees.
        Timer {
            node: u32,
            key: u64,
            token: u64,
            gen: u64,
        },
    }

    #[derive(Default)]
    struct Model {
        now: u64,
        events: Vec<Event>,
        /// `(time, sequence = index into events)`: the simulator's order.
        queue: BinaryHeap<Reverse<(u64, usize)>>,
        table: HashMap<(u32, u64), TimerGen>,
        one_shots: u64,
        up: Vec<bool>,
        rearms_left: Vec<u32>,
        log: Vec<Firing>,
        fired: u64,
        stale: u64,
    }

    impl Model {
        fn push(&mut self, at: u64, event: Event) {
            self.queue
                .push(Reverse((at.max(self.now), self.events.len())));
            self.events.push(event);
        }

        fn set_timer_at(&mut self, node: u32, key: u64, token: u64, at: u64) {
            let entry = self.table.entry((node, key)).or_default();
            entry.gen += 1;
            entry.armed = true;
            entry.queued += 1;
            let gen = entry.gen;
            self.push(
                at,
                Event::Timer {
                    node,
                    key,
                    token,
                    gen,
                },
            );
        }

        fn cancel_timer(&mut self, node: u32, key: u64) {
            if let Some(entry) = self.table.get_mut(&(node, key)) {
                entry.gen += 1;
                entry.armed = false;
            }
        }

        fn tell(&mut self, node: u32, op: Op) {
            match op {
                Op::Set { token, delay_ms } => {
                    self.set_timer_at(node, token, token, self.now + ms(delay_ms));
                }
                Op::Cancel { token } => self.cancel_timer(node, token),
                Op::Once { token, at_ms } => {
                    self.one_shots += 1;
                    self.set_timer_at(node, UNIQUE | self.one_shots, token, ms(at_ms));
                }
            }
        }

        fn on_timer(&mut self, node: u32, token: u64) {
            self.log.push((self.now, node, token));
            if token == PERIODIC && self.rearms_left[node as usize] > 0 {
                self.rearms_left[node as usize] -= 1;
                self.set_timer_at(node, token, token, self.now + ms(PERIOD_MS));
            }
        }

        fn step(&mut self, event: usize) {
            match self.events[event] {
                Event::Tell { node, op } => {
                    if self.up[node as usize] {
                        self.tell(node, op);
                    }
                }
                Event::Admin { node, up } => {
                    if self.up[node as usize] == up {
                        return;
                    }
                    self.up[node as usize] = up;
                    if up {
                        let at = self.now + ms(RESTART_MS);
                        self.set_timer_at(node, RESTART_TOKEN, RESTART_TOKEN, at);
                    } else {
                        for ((n, _), entry) in self.table.iter_mut() {
                            if *n == node {
                                entry.gen += 1;
                                entry.armed = false;
                            }
                        }
                    }
                }
                Event::Timer {
                    node,
                    key,
                    token,
                    gen,
                } => {
                    let entry = self
                        .table
                        .get_mut(&(node, key))
                        .expect("a queued firing keeps its timer entry alive");
                    entry.queued -= 1;
                    let current = entry.gen == gen && entry.armed;
                    if current {
                        entry.armed = false;
                    }
                    if entry.queued == 0 {
                        self.table.remove(&(node, key));
                    }
                    if current && self.up[node as usize] {
                        self.fired += 1;
                        self.on_timer(node, token);
                    } else {
                        self.stale += 1;
                    }
                }
            }
        }
    }

    pub fn run(steps: &[Step]) -> (Vec<Firing>, u64, u64) {
        let mut m = Model {
            up: vec![true; NODES as usize],
            rearms_left: vec![REARMS; NODES as usize],
            ..Model::default()
        };
        for step in steps {
            match *step {
                Step::Tell { at_ms, node, op } => m.push(ms(at_ms), Event::Tell { node, op }),
                Step::Admin { at_ms, node, up } => m.push(ms(at_ms), Event::Admin { node, up }),
            }
        }
        while let Some(Reverse((at, event))) = m.queue.pop() {
            m.now = at;
            m.step(event);
        }
        (m.log, m.fired, m.stale)
    }
}

proptest! {
    #[test]
    fn timers_match_the_generation_table(
        steps in prop::collection::vec(step_strategy(), 1..80),
    ) {
        let (fired, n_fired, n_stale) = simulate(&steps);
        prop_assert_eq!(fired.len() as u64, n_fired);
        prop_assert_eq!((fired, n_fired, n_stale), reference::run(&steps));
    }
}

// ----------------------------------------------------------------------
// Long timer loads, as exact counts
// ----------------------------------------------------------------------

/// A node that keeps its own timers busy until `left` runs out: a chain of
/// one-shots, each scheduling its successor, or a 1 ms tick that re-arms
/// itself and pushes a 90 ms hold timer back on every firing.
struct TimerLoad {
    one_shot: bool,
    left: u32,
}

const TICK: TimerToken = TimerToken(0);
const HOLD: TimerToken = TimerToken(1);

impl Node<Tell> for TimerLoad {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Tell>) {
        if self.one_shot {
            for i in 0..1_000 {
                let at = ctx.now() + SimDuration::from_micros(i);
                ctx.schedule_timer(at, TICK, TimerClass::Progress);
            }
        } else {
            ctx.set_timer(SimDuration::from_millis(1), TICK, TimerClass::Progress);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Tell>, _: NodeId, _: LinkId, _: Tell) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Tell>, token: TimerToken) {
        if self.left == 0 || token == HOLD {
            return;
        }
        self.left -= 1;
        let ms = SimDuration::from_millis(1);
        if self.one_shot {
            ctx.schedule_timer(ctx.now() + ms, TICK, TimerClass::Progress);
        } else {
            ctx.set_timer(ms, TICK, TimerClass::Progress);
            ctx.set_timer(ms * 90, HOLD, TimerClass::Progress);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// 100 000 one-shots at a standing depth of 1 000 all fire. The re-arming
/// tick fires 50 001 times and its hold, pushed back 50 000 times, fires
/// once: every superseded hold firing is stale, not fired.
#[test]
fn timer_loads_fire_exact_counts() {
    for (one_shot, left, fired) in [(true, 99_000, 100_000), (false, 50_000, 50_002)] {
        let mut sim: Simulator<Tell> = Simulator::new(1);
        sim.add_node("t", |_| TimerLoad { one_shot, left });
        while sim.step() {}
        assert_eq!(sim.stats().timers_fired, fired, "one_shot: {one_shot}");
    }
}
