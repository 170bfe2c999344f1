//! The speaker↔controller control channel: one [`ChannelEnd`] per side.
//!
//! The control link can lose messages ([`Link.loss`] > 0) or go away
//! entirely (controller crash, partition). Flow-table correctness depends
//! on the controller seeing *every* session event in order and the speaker
//! executing *every* command in order, so both directions run a small
//! go-back-N protocol: payloads carry `(epoch, seq)`, the receiver delivers
//! strictly in order and returns cumulative acks, and the sender
//! retransmits everything unacked when its retransmit timer fires, with
//! exponential backoff. Heartbeats every [`HEARTBEAT_EVERY`] carry the
//! sender's epoch; [`HOLD_TIME`] of silence fires the hold timer.
//!
//! [`ChannelEnd`] does all of this for either side. What a side does when
//! the hold timer fires or an epoch changes is its own policy: the speaker
//! goes headless and resyncs, the controller goes unsynced and adopts the
//! next `Sync`. The go-back-N state machines underneath are pure (no
//! timers, no I/O), so they are unit tested without a simulator.
//!
//! [`Link.loss`]: bgpsdn_netsim::Link

use std::collections::VecDeque;

use bgpsdn_netsim::{
    Counter, Ctx, LinkId, SimDuration, TimerClass, TimerToken, TraceCategory, TraceEvent,
};

use crate::app::{CtrlMsg, SdnApp};

/// Heartbeat interval on the speaker↔controller channel (both directions).
pub const HEARTBEAT_EVERY: SimDuration = SimDuration::from_secs(1);
/// Silence tolerated on the channel before the peer is declared dead.
pub const HOLD_TIME: SimDuration = SimDuration::from_secs(3);

/// Initial retransmit timeout.
pub const RTO_INITIAL: SimDuration = SimDuration::from_millis(50);
/// Retransmit timeout ceiling under backoff.
pub const RTO_MAX: SimDuration = SimDuration::from_millis(1000);

/// One end of the speaker↔controller channel: the link, the go-back-N
/// sender and receiver, and the retransmit, heartbeat and hold timers that
/// drive them. The speaker and the controller each hold one.
pub struct ChannelEnd {
    /// The control link. `None` leaves the end unconnected (a speaker built
    /// without a controller): sends are dropped and no timer is armed.
    pub link: Option<LinkId>,
    /// Which end this is: it picks the ack kind and tags heartbeats and
    /// retransmit records.
    from_controller: bool,
    tx: ReliableSender,
    rx: ReliableReceiver,
    /// Scratch for retransmission bursts, reused across RTO firings.
    retx_scratch: Vec<CtrlMsg>,
    retx: TimerToken,
    heartbeat: TimerToken,
    hold: TimerToken,
}

impl ChannelEnd {
    /// An end in epoch 1 (both ends start there with empty state, so
    /// bring-up needs no resync). `timers` are the node's named timer
    /// tokens for retransmit, heartbeat and hold, in that order.
    pub fn new(link: Option<LinkId>, from_controller: bool, timers: [TimerToken; 3]) -> Self {
        let [retx, heartbeat, hold] = timers;
        ChannelEnd {
            link,
            from_controller,
            tx: ReliableSender::new(1),
            rx: ReliableReceiver::new(1),
            retx_scratch: Vec::new(),
            retx,
            heartbeat,
            hold,
        }
    }

    /// The epoch this end stamps on what it sends.
    pub fn epoch(&self) -> u64 {
        self.tx.epoch()
    }

    fn send<M: SdnApp>(&self, ctx: &mut Ctx<'_, M>, msg: CtrlMsg) {
        if let Some(link) = self.link {
            ctx.send(link, M::from_ctrl(msg));
        }
    }

    fn arm_retransmit<M: SdnApp>(&self, ctx: &mut Ctx<'_, M>) {
        ctx.set_timer(self.tx.rto(), self.retx, TimerClass::Progress);
    }

    /// Sequence one payload per item (`build` stamps `(epoch, seq)` on it)
    /// and send each, arming the retransmit timer when the channel goes
    /// from idle to pending.
    pub fn send_reliable<M: SdnApp, T>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        items: impl IntoIterator<Item = T>,
        mut build: impl FnMut(u64, u64, T) -> CtrlMsg,
    ) {
        let was_pending = self.tx.pending();
        for item in items {
            let msg = self.tx.push(|epoch, seq| build(epoch, seq, item));
            self.send(ctx, msg);
        }
        if !was_pending && self.tx.pending() {
            self.arm_retransmit(ctx);
        }
    }

    /// Arm the heartbeat and hold timers (no-op without a link).
    pub fn start<M: SdnApp>(&self, ctx: &mut Ctx<'_, M>) {
        if self.link.is_some() {
            ctx.set_timer(HEARTBEAT_EVERY, self.heartbeat, TimerClass::Maintenance);
            self.arm_hold(ctx);
        }
    }

    /// Traffic arrived: the peer counts as alive for another [`HOLD_TIME`].
    pub fn arm_hold<M: SdnApp>(&self, ctx: &mut Ctx<'_, M>) {
        if self.link.is_some() {
            ctx.set_timer(HOLD_TIME, self.hold, TimerClass::Maintenance);
        }
    }

    /// Classify the incoming payload `(epoch, seq)`. True when it is next
    /// in order: the caller delivers it and sends [`ChannelEnd::ack`], in
    /// the order it needs. A duplicate, or a payload past a gap, is re-acked
    /// here; one from another epoch is dropped.
    pub fn accept<M: SdnApp>(&mut self, ctx: &mut Ctx<'_, M>, epoch: u64, seq: u64) -> bool {
        match self.rx.accept(epoch, seq) {
            Accept::Deliver => true,
            Accept::Duplicate | Accept::Gap => {
                self.ack(ctx);
                false
            }
            Accept::WrongEpoch => false,
        }
    }

    /// Send the cumulative ack of what this epoch has delivered:
    /// `EventAck` from the controller, `CmdAck` from the speaker.
    pub fn ack<M: SdnApp>(&self, ctx: &mut Ctx<'_, M>) {
        let (epoch, seq) = (self.rx.epoch(), self.rx.ack_seq());
        let ack = if self.from_controller {
            CtrlMsg::EventAck { epoch, seq }
        } else {
            CtrlMsg::CmdAck { epoch, seq }
        };
        self.send(ctx, ack);
    }

    /// Apply the peer's cumulative ack. When it retires anything, the
    /// retransmit timer restarts from the initial RTO while payloads remain
    /// and stops once none do.
    pub fn on_ack<M: SdnApp>(&mut self, ctx: &mut Ctx<'_, M>, epoch: u64, seq: u64) {
        if self.tx.on_ack(epoch, seq) {
            if self.tx.pending() {
                self.arm_retransmit(ctx);
            } else {
                ctx.cancel_timer(self.retx);
            }
        }
    }

    /// The retransmit timer fired: resend every unacked payload, oldest
    /// first, back off the RTO and re-arm. Nothing, when nothing is
    /// outstanding.
    pub fn retransmit<M: SdnApp>(&mut self, ctx: &mut Ctx<'_, M>) {
        if !self.tx.pending() {
            return;
        }
        ctx.count(Counter::CtrlRetransmits, 1);
        let (from_controller, oldest_seq, outstanding) = (
            self.from_controller,
            self.tx.oldest_seq().unwrap_or(0),
            self.tx.outstanding() as u32,
        );
        ctx.trace(TraceCategory::Ctrl, || TraceEvent::ControlRetransmit {
            from_controller,
            oldest_seq,
            outstanding,
        });
        let mut burst = std::mem::take(&mut self.retx_scratch);
        self.tx.retransmit_into(&mut burst);
        for msg in burst.drain(..) {
            self.send(ctx, msg);
        }
        self.retx_scratch = burst;
        self.arm_retransmit(ctx);
    }

    /// The heartbeat timer fired: send a heartbeat carrying this end's
    /// epoch and re-arm.
    pub fn heartbeat<M: SdnApp>(&self, ctx: &mut Ctx<'_, M>) {
        self.probe(ctx);
        ctx.set_timer(HEARTBEAT_EVERY, self.heartbeat, TimerClass::Maintenance);
    }

    fn probe<M: SdnApp>(&self, ctx: &mut Ctx<'_, M>) {
        let epoch = self.tx.epoch();
        let from_controller = self.from_controller;
        self.send(
            ctx,
            CtrlMsg::Heartbeat {
                from_controller,
                epoch,
            },
        );
    }

    /// When this end's link comes back up, probe at once instead of waiting
    /// out the periodic (Maintenance-class) heartbeat: the peer refreshes
    /// its hold timer, and answers, in the same event cascade.
    pub fn on_link_change<M: SdnApp>(&self, ctx: &mut Ctx<'_, M>, link: LinkId, up: bool) {
        if up && Some(link) == self.link {
            self.probe(ctx);
        }
    }

    /// Drop everything outstanding, restart both directions at sequence 1
    /// of `epoch`, and stop the retransmit timer.
    pub fn reset<M: SdnApp>(&mut self, ctx: &mut Ctx<'_, M>, epoch: u64) {
        self.tx.reset(epoch);
        self.rx.reset(epoch);
        ctx.cancel_timer(self.retx);
    }

    /// A `Sync` opening `epoch` arrived. A retransmit of the epoch already
    /// adopted is re-acked and false returned. Otherwise the channel resets
    /// to `epoch` with the `Sync` delivered as its sequence 1 and true is
    /// returned: the caller rebuilds its state and sends the ack.
    pub fn adopt_sync<M: SdnApp>(&mut self, ctx: &mut Ctx<'_, M>, epoch: u64) -> bool {
        if epoch == self.rx.epoch() {
            self.ack(ctx);
            return false;
        }
        self.reset(ctx, epoch);
        let accepted = self.rx.accept(epoch, 1);
        debug_assert_eq!(accepted, Accept::Deliver);
        true
    }
}

/// Sending half of the go-back-N channel: assigns sequence numbers, keeps
/// unacked payloads for retransmission, and tracks the backoff RTO.
#[derive(Debug, Clone)]
struct ReliableSender {
    epoch: u64,
    next_seq: u64,
    unacked: VecDeque<CtrlMsg>,
    rto: SimDuration,
}

impl ReliableSender {
    /// A sender starting in `epoch` with no outstanding payloads.
    fn new(epoch: u64) -> ReliableSender {
        ReliableSender {
            epoch,
            next_seq: 1,
            unacked: VecDeque::new(),
            rto: RTO_INITIAL,
        }
    }

    /// The epoch this sender stamps on payloads.
    fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drop all outstanding payloads and restart sequencing in `epoch`.
    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.next_seq = 1;
        self.unacked.clear();
        self.rto = RTO_INITIAL;
    }

    /// Sequence a new payload: `build` receives `(epoch, seq)` and returns
    /// the stamped message, which is retained for retransmission. Returns a
    /// clone to put on the wire.
    fn push(&mut self, build: impl FnOnce(u64, u64) -> CtrlMsg) -> CtrlMsg {
        let msg = build(self.epoch, self.next_seq);
        debug_assert_eq!(msg.epoch(), self.epoch);
        debug_assert_eq!(msg.seq(), Some(self.next_seq));
        self.next_seq += 1;
        self.unacked.push_back(msg.clone());
        msg
    }

    /// Process a cumulative ack for `(epoch, seq)`: drops every retained
    /// payload with sequence ≤ `seq` and resets the backoff. Acks from other
    /// epochs are ignored. Returns true when the ack retired anything.
    fn on_ack(&mut self, epoch: u64, seq: u64) -> bool {
        if epoch != self.epoch {
            return false;
        }
        let before = self.unacked.len();
        while self
            .unacked
            .front()
            .is_some_and(|m| m.seq().expect("payloads are sequenced") <= seq)
        {
            self.unacked.pop_front();
        }
        let progressed = self.unacked.len() != before;
        if progressed {
            self.rto = RTO_INITIAL;
        }
        progressed
    }

    /// True while payloads await acknowledgment (the retransmit timer
    /// should be armed exactly then).
    fn pending(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// Number of unacked payloads.
    fn outstanding(&self) -> usize {
        self.unacked.len()
    }

    /// Sequence number of the oldest unacked payload.
    fn oldest_seq(&self) -> Option<u64> {
        self.unacked.front().map(|m| m.seq().expect("sequenced"))
    }

    /// Current retransmit timeout.
    fn rto(&self) -> SimDuration {
        self.rto
    }

    /// The retransmit timer fired: double the RTO (capped) and fill `out`
    /// with clones of every unacked payload, oldest first, for resending.
    /// `out` is a caller-owned scratch vector, cleared first, so nodes that
    /// retransmit every RTO on a lossy control link reuse one buffer.
    fn retransmit_into(&mut self, out: &mut Vec<CtrlMsg>) {
        self.rto = SimDuration::from_nanos((self.rto.as_nanos() * 2).min(RTO_MAX.as_nanos()));
        out.clear();
        out.extend(self.unacked.iter().cloned());
    }
}

/// What [`ReliableReceiver::accept`] decided about an incoming payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Accept {
    /// In-order: deliver to the application, then ack.
    Deliver,
    /// Already delivered (retransmit of old data): re-ack, don't deliver.
    Duplicate,
    /// Out of order (a gap precedes it): drop; the sender's go-back-N
    /// retransmission will fill the gap. Re-ack to speed recovery.
    Gap,
    /// Different epoch than expected: drop silently; epoch changes are
    /// negotiated via Sync/heartbeats, not data.
    WrongEpoch,
}

/// Receiving half of the go-back-N channel: delivers strictly in order and
/// produces cumulative acks.
#[derive(Debug, Clone)]
struct ReliableReceiver {
    epoch: u64,
    next_expected: u64,
}

impl ReliableReceiver {
    /// A receiver expecting sequence 1 of `epoch`.
    fn new(epoch: u64) -> ReliableReceiver {
        ReliableReceiver {
            epoch,
            next_expected: 1,
        }
    }

    /// The epoch this receiver accepts.
    fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restart in-order delivery from sequence 1 of `epoch`.
    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.next_expected = 1;
    }

    /// Classify an incoming payload with `(epoch, seq)`. On
    /// [`Accept::Deliver`] the caller must process the payload and should
    /// send the cumulative ack from [`ReliableReceiver::ack_seq`].
    fn accept(&mut self, epoch: u64, seq: u64) -> Accept {
        if epoch != self.epoch {
            return Accept::WrongEpoch;
        }
        match seq.cmp(&self.next_expected) {
            std::cmp::Ordering::Equal => {
                self.next_expected += 1;
                Accept::Deliver
            }
            std::cmp::Ordering::Less => Accept::Duplicate,
            std::cmp::Ordering::Greater => Accept::Gap,
        }
    }

    /// Highest in-order sequence delivered so far (the cumulative ack
    /// value); 0 when nothing has been delivered this epoch.
    fn ack_seq(&self) -> u64 {
        self.next_expected - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SpeakerEvent;

    fn ev(epoch: u64, seq: u64) -> CtrlMsg {
        CtrlMsg::Event {
            epoch,
            seq,
            event: SpeakerEvent::SessionDown { session: 0 },
        }
    }

    #[test]
    fn sender_sequences_and_acks_cumulatively() {
        let mut tx = ReliableSender::new(1);
        assert!(!tx.pending());
        for want in 1..=3u64 {
            let m = tx.push(ev);
            assert_eq!((m.epoch(), m.seq()), (1, Some(want)));
        }
        assert_eq!(tx.outstanding(), 3);
        assert_eq!(tx.oldest_seq(), Some(1));

        assert!(tx.on_ack(1, 2), "cumulative ack retires 1 and 2");
        assert_eq!(tx.outstanding(), 1);
        assert_eq!(tx.oldest_seq(), Some(3));

        assert!(!tx.on_ack(1, 2), "stale ack is a no-op");
        assert!(!tx.on_ack(7, 3), "wrong-epoch ack is a no-op");
        assert!(tx.on_ack(1, 3));
        assert!(!tx.pending());
    }

    #[test]
    fn retransmit_backs_off_and_ack_resets_rto() {
        let mut tx = ReliableSender::new(1);
        tx.push(ev);
        tx.push(ev);
        assert_eq!(tx.rto(), RTO_INITIAL);

        let mut again = Vec::new();
        tx.retransmit_into(&mut again);
        assert_eq!(again.len(), 2);
        assert_eq!(again[0].seq(), Some(1));
        assert_eq!(tx.rto(), SimDuration::from_millis(100));

        for _ in 0..10 {
            tx.retransmit_into(&mut again);
        }
        assert_eq!(tx.rto(), RTO_MAX, "backoff is capped");

        assert!(tx.on_ack(1, 1));
        assert_eq!(tx.rto(), RTO_INITIAL, "progress resets backoff");
        tx.retransmit_into(&mut again);
        assert_eq!(again.len(), 1, "the scratch vector is cleared first");
    }

    #[test]
    fn sender_reset_starts_new_epoch() {
        let mut tx = ReliableSender::new(1);
        tx.push(ev);
        tx.reset(2);
        assert!(!tx.pending());
        let m = tx.push(ev);
        assert_eq!((m.epoch(), m.seq()), (2, Some(1)));
        assert!(!tx.on_ack(1, 1), "old-epoch ack ignored after reset");
    }

    #[test]
    fn receiver_delivers_in_order_only() {
        let mut rx = ReliableReceiver::new(1);
        assert_eq!(rx.ack_seq(), 0);
        assert_eq!(rx.accept(1, 1), Accept::Deliver);
        assert_eq!(rx.accept(1, 3), Accept::Gap, "seq 2 missing");
        assert_eq!(rx.ack_seq(), 1, "gap does not advance the ack");
        assert_eq!(rx.accept(1, 1), Accept::Duplicate);
        assert_eq!(rx.accept(1, 2), Accept::Deliver);
        assert_eq!(rx.accept(1, 3), Accept::Deliver);
        assert_eq!(rx.ack_seq(), 3);
        assert_eq!(rx.accept(9, 4), Accept::WrongEpoch);
        assert_eq!(rx.ack_seq(), 3);
    }

    #[test]
    fn receiver_reset_restarts_sequencing() {
        let mut rx = ReliableReceiver::new(1);
        assert_eq!(rx.accept(1, 1), Accept::Deliver);
        rx.reset(2);
        assert_eq!(rx.epoch(), 2);
        assert_eq!(rx.ack_seq(), 0);
        assert_eq!(rx.accept(1, 2), Accept::WrongEpoch);
        assert_eq!(rx.accept(2, 1), Accept::Deliver);
    }

    #[test]
    fn lossy_channel_converges_via_retransmission() {
        // Simulate a deterministic lossy pipe: every other transmission is
        // dropped. The receiver must still deliver 1..=N exactly once, in
        // order, purely through go-back-N retransmits.
        let mut tx = ReliableSender::new(1);
        let mut rx = ReliableReceiver::new(1);
        let mut delivered = Vec::new();
        let mut wire: Vec<CtrlMsg> = Vec::new();
        // Seeded LCG deciding drops (~50% loss), so the pattern never
        // aligns with the retransmit round structure and starves one seq.
        let mut state = 0x853c49e6748fea9bu64;
        let lossy = |s: &mut u64| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*s >> 63) == 1
        };

        for _ in 0..5 {
            wire.push(tx.push(ev));
        }
        let mut rounds = 0;
        while tx.pending() {
            rounds += 1;
            assert!(rounds < 200, "must converge");
            for m in wire.drain(..) {
                if lossy(&mut state) {
                    continue; // lost on the wire
                }
                if rx.accept(m.epoch(), m.seq().unwrap()) == Accept::Deliver {
                    delivered.push(m.seq().unwrap());
                }
            }
            // Ack path is lossy too.
            if !lossy(&mut state) {
                tx.on_ack(rx.epoch(), rx.ack_seq());
            }
            tx.retransmit_into(&mut wire);
        }
        assert_eq!(delivered, vec![1, 2, 3, 4, 5]);
    }
}
