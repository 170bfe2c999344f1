//! BGP session finite-state machine (RFC 4271 §8, simplified).
//!
//! The simulator's links stand in for TCP, so the Connect/Active states
//! collapse: a session starts by sending OPEN directly. `SessionHandshake`
//! is the message-level machine only. The router, the cluster speaker and
//! the route collector reach it through the one session driver
//! ([`crate::session`]), which settled the five rules the router's and the
//! speaker's copies disagreed on, each the router's: retry `r` waits
//! `jittered(1 s · 2^(r−1))`; a retry supervises itself and resets a
//! half-open handshake; an Established session treats a malformed UPDATE as
//! withdraw, any other decode error resets; only the close of an
//! Established session is reported; five retries at most.

use crate::msg::{BgpMessage, Capability, NotifCode, NotificationMsg, OpenMsg};
use crate::types::{Asn, RouterId};

/// Session states (Connect/Active are folded into Idle because the simulated
/// transport connects instantly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// No session; nothing sent.
    Idle,
    /// We sent OPEN, awaiting the peer's OPEN.
    OpenSent,
    /// OPENs exchanged, awaiting KEEPALIVE.
    OpenConfirm,
    /// Session fully up; UPDATEs may flow.
    Established,
}

/// Events surfaced to the owner of a handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SessionEvent {
    /// The session reached Established; the peer's OPEN is attached.
    Established(OpenMsg),
    /// The session failed or was closed by the peer.
    Closed(CloseReason),
}

/// Why a session closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer sent NOTIFICATION.
    PeerNotification(NotifCode),
    /// We detected an error and sent NOTIFICATION (attached for sending).
    LocalError(NotifCode),
    /// The underlying link went down.
    LinkDown,
    /// Hold timer expired.
    HoldExpired,
    /// Administrative reset.
    AdminReset,
}

/// Shared handshake driver. The owner feeds it messages and transport
/// events; it returns messages to send and state-change events.
#[derive(Debug, Clone)]
pub(crate) struct SessionHandshake {
    state: SessionState,
    my_asn: Asn,
    my_id: RouterId,
    hold_secs: u16,
    /// Expected remote ASN; an OPEN from any other is refused.
    expect_asn: Asn,
    /// RFC 4724 restart time we advertise; 0 = no GR capability.
    gr_secs: u16,
    /// The peer's OPEN once received.
    remote_open: Option<OpenMsg>,
}

impl SessionHandshake {
    /// New handshake in Idle.
    pub(crate) fn new(my_asn: Asn, my_id: RouterId, hold_secs: u16, expect_asn: Asn) -> Self {
        SessionHandshake {
            state: SessionState::Idle,
            my_asn,
            my_id,
            hold_secs,
            expect_asn,
            gr_secs: 0,
            remote_open: None,
        }
    }

    /// Advertise the RFC 4724 graceful-restart capability with this restart
    /// time in subsequent OPENs (0 withdraws the capability).
    pub(crate) fn set_graceful_restart(&mut self, secs: u16) {
        self.gr_secs = secs;
    }

    /// Current state.
    pub(crate) fn state(&self) -> SessionState {
        self.state
    }

    /// True when UPDATEs may flow.
    pub(crate) fn is_established(&self) -> bool {
        self.state == SessionState::Established
    }

    /// Negotiated hold time: the smaller of both proposals (0 = disabled).
    pub(crate) fn negotiated_hold_secs(&self) -> u16 {
        match &self.remote_open {
            Some(o) => self.hold_secs.min(o.hold_time_secs),
            None => self.hold_secs,
        }
    }

    fn my_open(&self) -> BgpMessage {
        let mut open = OpenMsg::standard(self.my_asn, self.my_id, self.hold_secs);
        if self.gr_secs > 0 {
            open.capabilities.push(Capability::GracefulRestart {
                restart_time_secs: self.gr_secs,
            });
        }
        BgpMessage::Open(open)
    }

    /// Actively start the session. Returns messages to send.
    pub(crate) fn start(&mut self) -> Vec<BgpMessage> {
        match self.state {
            SessionState::Idle => {
                self.state = SessionState::OpenSent;
                vec![self.my_open()]
            }
            _ => vec![],
        }
    }

    /// Reset to Idle (link down / admin). The owner handles route cleanup.
    pub(crate) fn reset(&mut self) {
        self.state = SessionState::Idle;
        self.remote_open = None;
    }

    /// Feed an incoming message. Returns `(to_send, event)`.
    pub(crate) fn on_message(
        &mut self,
        msg: &BgpMessage,
    ) -> (Vec<BgpMessage>, Option<SessionEvent>) {
        match msg {
            BgpMessage::Open(open) => self.on_open(open),
            BgpMessage::Keepalive => self.on_keepalive(),
            BgpMessage::Notification(n) => {
                let was_idle = self.state == SessionState::Idle;
                self.reset();
                if was_idle {
                    (vec![], None)
                } else {
                    (
                        vec![],
                        Some(SessionEvent::Closed(CloseReason::PeerNotification(n.code))),
                    )
                }
            }
            BgpMessage::RouteRefresh { .. } if self.state == SessionState::Established => {
                // The owner handles re-advertisement; nothing FSM-level.
                (vec![], None)
            }
            BgpMessage::Update(_) | BgpMessage::RouteRefresh { .. } => {
                if self.state == SessionState::Established {
                    // Updates are the owner's business.
                    (vec![], None)
                } else {
                    // UPDATE before Established is an FSM error.
                    self.fsm_error()
                }
            }
        }
    }

    fn on_open(&mut self, open: &OpenMsg) -> (Vec<BgpMessage>, Option<SessionEvent>) {
        if open.asn != self.expect_asn {
            self.reset();
            return (
                vec![BgpMessage::Notification(NotificationMsg {
                    code: NotifCode::OpenMessage,
                    subcode: 2, // Bad Peer AS
                    data: open.asn.0.to_be_bytes().to_vec(),
                })],
                Some(SessionEvent::Closed(CloseReason::LocalError(
                    NotifCode::OpenMessage,
                ))),
            );
        }
        match self.state {
            SessionState::Idle => {
                // Peer initiated: reply with our OPEN and confirm theirs.
                self.remote_open = Some(open.clone());
                self.state = SessionState::OpenConfirm;
                (vec![self.my_open(), BgpMessage::Keepalive], None)
            }
            SessionState::OpenSent => {
                self.remote_open = Some(open.clone());
                self.state = SessionState::OpenConfirm;
                (vec![BgpMessage::Keepalive], None)
            }
            SessionState::OpenConfirm | SessionState::Established => {
                // Duplicate OPEN: collision resolution simplified to an FSM
                // error (cannot occur with the simulated transport).
                self.fsm_error()
            }
        }
    }

    fn on_keepalive(&mut self) -> (Vec<BgpMessage>, Option<SessionEvent>) {
        match self.state {
            SessionState::OpenConfirm => {
                self.state = SessionState::Established;
                let open = self
                    .remote_open
                    .clone()
                    .expect("OpenConfirm implies remote OPEN seen");
                (vec![], Some(SessionEvent::Established(open)))
            }
            // RFC 4271 §8.2.2: a KEEPALIVE in OpenSent is an FSM error. The
            // peer answered our OPEN from its own OpenSent, so its OPEN to
            // us was lost (sent while we were down). Ignoring the KEEPALIVE
            // would leave the peer in OpenConfirm and this end in OpenSent,
            // both waiting forever with no timer running; resetting both
            // ends lets the owner's retry start over.
            SessionState::OpenSent => self.fsm_error(),
            // In Established keepalives just refresh the hold timer (owner's
            // job); in Idle they are ignored.
            SessionState::Idle | SessionState::Established => (vec![], None),
        }
    }

    /// Reset to Idle on a protocol error: NOTIFICATION (FSM error) to
    /// send, and the close to surface.
    fn fsm_error(&mut self) -> (Vec<BgpMessage>, Option<SessionEvent>) {
        self.reset();
        (
            vec![BgpMessage::Notification(NotificationMsg {
                code: NotifCode::FsmError,
                subcode: 0,
                data: vec![],
            })],
            Some(SessionEvent::Closed(CloseReason::LocalError(
                NotifCode::FsmError,
            ))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SessionHandshake, SessionHandshake) {
        let a = SessionHandshake::new(Asn(1), RouterId(1), 90, Asn(2));
        let b = SessionHandshake::new(Asn(2), RouterId(2), 90, Asn(1));
        (a, b)
    }

    /// Drive both ends to completion, returning the events seen.
    fn run_handshake(
        a: &mut SessionHandshake,
        b: &mut SessionHandshake,
        a_starts: bool,
        b_starts: bool,
    ) -> (Vec<SessionEvent>, Vec<SessionEvent>) {
        let mut a_out: Vec<BgpMessage> = if a_starts { a.start() } else { vec![] };
        let mut b_out: Vec<BgpMessage> = if b_starts { b.start() } else { vec![] };
        let mut a_ev = vec![];
        let mut b_ev = vec![];
        for _ in 0..8 {
            if a_out.is_empty() && b_out.is_empty() {
                break;
            }
            let to_b = std::mem::take(&mut a_out);
            let to_a = std::mem::take(&mut b_out);
            for m in to_b {
                let (send, ev) = b.on_message(&m);
                b_out.extend(send);
                b_ev.extend(ev);
            }
            for m in to_a {
                let (send, ev) = a.on_message(&m);
                a_out.extend(send);
                a_ev.extend(ev);
            }
        }
        (a_ev, b_ev)
    }

    #[test]
    fn simultaneous_open_establishes_both() {
        let (mut a, mut b) = pair();
        let (a_ev, b_ev) = run_handshake(&mut a, &mut b, true, true);
        assert!(a.is_established());
        assert!(b.is_established());
        assert!(matches!(a_ev[0], SessionEvent::Established(_)));
        assert!(matches!(b_ev[0], SessionEvent::Established(_)));
    }

    #[test]
    fn one_sided_start_establishes_both() {
        let (mut a, mut b) = pair();
        let (a_ev, b_ev) = run_handshake(&mut a, &mut b, true, false);
        assert!(a.is_established(), "a: {:?}", a.state());
        assert!(b.is_established(), "b: {:?}", b.state());
        assert_eq!(a_ev.len(), 1);
        assert_eq!(b_ev.len(), 1);
    }

    #[test]
    fn wrong_asn_is_refused() {
        let mut a = SessionHandshake::new(Asn(1), RouterId(1), 90, Asn(2));
        let mut evil = SessionHandshake::new(Asn(666), RouterId(6), 90, Asn(1));
        let msgs = evil.start();
        let (send, ev) = a.on_message(&msgs[0]);
        assert!(matches!(
            ev,
            Some(SessionEvent::Closed(CloseReason::LocalError(
                NotifCode::OpenMessage
            )))
        ));
        assert!(matches!(send[0], BgpMessage::Notification(_)));
        assert_eq!(a.state(), SessionState::Idle);
    }

    #[test]
    fn a_passive_end_with_hold_0_accepts_an_open() {
        // The route collector's end: it never starts, and proposes hold 0.
        let mut passive = SessionHandshake::new(Asn(65535), RouterId(99), 0, Asn(7));
        let mut r = SessionHandshake::new(Asn(7), RouterId(7), 90, Asn(65535));
        let (r_ev, c_ev) = run_handshake(&mut r, &mut passive, true, false);
        assert!(passive.is_established() && r.is_established());
        assert!(matches!(c_ev[..], [SessionEvent::Established(_)]));
        assert!(matches!(r_ev[..], [SessionEvent::Established(_)]));
        assert_eq!(passive.negotiated_hold_secs(), 0);
        assert_eq!(r.negotiated_hold_secs(), 0, "hold 0 disables both ends");
    }

    #[test]
    fn negotiated_hold_is_minimum() {
        let (mut a, mut b) = pair();
        // a proposes 90; make b propose 30.
        b.hold_secs = 30;
        run_handshake(&mut a, &mut b, true, true);
        assert_eq!(a.negotiated_hold_secs(), 30);
        assert_eq!(b.negotiated_hold_secs(), 30);
    }

    #[test]
    fn graceful_restart_capability_is_exchanged() {
        let (mut a, mut b) = pair();
        a.set_graceful_restart(120);
        // b does not advertise GR.
        run_handshake(&mut a, &mut b, true, true);
        assert!(a.is_established() && b.is_established());
        let peer_gr = |h: &SessionHandshake| h.remote_open.as_ref()?.graceful_restart_secs();
        assert_eq!(peer_gr(&b), Some(120));
        assert_eq!(peer_gr(&a), None);
        assert_eq!(a.gr_secs, 120);
    }

    #[test]
    fn update_before_established_is_fsm_error() {
        let (mut a, _) = pair();
        let upd = BgpMessage::Update(crate::msg::UpdateMsg::default());
        let (send, ev) = a.on_message(&upd);
        assert!(matches!(
            ev,
            Some(SessionEvent::Closed(CloseReason::LocalError(
                NotifCode::FsmError
            )))
        ));
        assert!(matches!(send[0], BgpMessage::Notification(_)));
    }

    #[test]
    fn keepalive_in_open_sent_is_fsm_error() {
        // a's OPEN is lost while b is down. b restarts and opens; a answers
        // from OpenSent with a KEEPALIVE only, which reaches b in OpenSent.
        let (mut a, mut b) = pair();
        let _lost = a.start();
        let (reply, _) = a.on_message(&b.start()[0]);
        assert_eq!(a.state(), SessionState::OpenConfirm);
        assert_eq!(reply, vec![BgpMessage::Keepalive]);
        let (send, ev) = b.on_message(&reply[0]);
        assert_eq!(
            ev,
            Some(SessionEvent::Closed(CloseReason::LocalError(
                NotifCode::FsmError
            )))
        );
        assert_eq!(b.state(), SessionState::Idle);
        // The NOTIFICATION resets a as well, so a retry starts clean.
        a.on_message(&send[0]);
        assert_eq!(a.state(), SessionState::Idle);
        run_handshake(&mut a, &mut b, true, false);
        assert!(a.is_established() && b.is_established());
    }

    #[test]
    fn notification_closes_established_session() {
        let (mut a, mut b) = pair();
        run_handshake(&mut a, &mut b, true, true);
        let notif = BgpMessage::Notification(NotificationMsg {
            code: NotifCode::Cease,
            subcode: 0,
            data: vec![],
        });
        let (_, ev) = a.on_message(&notif);
        assert_eq!(
            ev,
            Some(SessionEvent::Closed(CloseReason::PeerNotification(
                NotifCode::Cease
            )))
        );
        assert_eq!(a.state(), SessionState::Idle);
    }

    #[test]
    fn start_is_idempotent() {
        let (mut a, _) = pair();
        assert_eq!(a.start().len(), 1);
        assert!(a.start().is_empty(), "second start sends nothing");
        assert_eq!(a.state(), SessionState::OpenSent);
    }

    #[test]
    fn reset_returns_to_idle() {
        let (mut a, mut b) = pair();
        run_handshake(&mut a, &mut b, true, true);
        a.reset();
        assert_eq!(a.state(), SessionState::Idle);
        assert!(a.remote_open.is_none());
        // Can re-establish after reset.
        b.reset();
        run_handshake(&mut a, &mut b, true, false);
        assert!(a.is_established() && b.is_established());
    }
}
