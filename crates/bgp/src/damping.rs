//! Route-flap damping (RFC 2439), as shipped by Quagga/Cisco.
//!
//! Each `(peer, prefix)` accumulates a penalty on every flap (withdrawal or
//! attribute change). The penalty decays exponentially with a configurable
//! half-life; a route whose penalty exceeds the suppress threshold is
//! excluded from the decision process until it decays below the reuse
//! threshold. Damping is the *distributed* answer to route flaps — the
//! paper's controller answers the same problem centrally with delayed
//! recomputation, which makes this module the natural ablation baseline.

use bgpsdn_netsim::{SimDuration, SimTime};

/// Damping parameters (defaults follow Cisco/RFC 2439 figure values).
#[derive(Debug, Clone)]
pub struct DampingConfig {
    /// Penalty added per withdrawal flap.
    pub withdrawal_penalty: f64,
    /// Penalty added per re-advertisement with changed attributes.
    pub attribute_penalty: f64,
    /// Penalty above which a route is suppressed.
    pub suppress_threshold: f64,
    /// Penalty below which a suppressed route is reusable again.
    pub reuse_threshold: f64,
    /// Exponential decay half-life.
    pub half_life: SimDuration,
    /// Penalty ceiling (caps maximum suppression time).
    pub max_penalty: f64,
}

impl Default for DampingConfig {
    fn default() -> Self {
        DampingConfig {
            withdrawal_penalty: 1000.0,
            attribute_penalty: 500.0,
            suppress_threshold: 2000.0,
            reuse_threshold: 750.0,
            half_life: SimDuration::from_secs(15 * 60),
            max_penalty: 16000.0,
        }
    }
}

/// Damping state of one `(peer, prefix)` route.
#[derive(Debug, Clone)]
pub struct DampingState {
    penalty: f64,
    last_update: SimTime,
    suppressed: bool,
}

impl DampingState {
    /// Fresh, undamped state.
    pub(crate) fn new(now: SimTime) -> DampingState {
        DampingState {
            penalty: 0.0,
            last_update: now,
            suppressed: false,
        }
    }

    fn decay_to(&mut self, cfg: &DampingConfig, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let hl = cfg.half_life.as_secs_f64().max(f64::MIN_POSITIVE);
            self.penalty *= 0.5f64.powf(dt / hl);
            self.last_update = now;
        }
    }

    /// Record a withdrawal flap. Returns the new suppression state.
    pub(crate) fn on_withdrawal(&mut self, cfg: &DampingConfig, now: SimTime) -> bool {
        self.bump(cfg, now, cfg.withdrawal_penalty)
    }

    /// Record a re-advertisement with changed attributes.
    pub(crate) fn on_attribute_change(&mut self, cfg: &DampingConfig, now: SimTime) -> bool {
        self.bump(cfg, now, cfg.attribute_penalty)
    }

    fn bump(&mut self, cfg: &DampingConfig, now: SimTime, add: f64) -> bool {
        self.decay_to(cfg, now);
        self.penalty = (self.penalty + add).min(cfg.max_penalty);
        if self.penalty >= cfg.suppress_threshold {
            self.suppressed = true;
        }
        self.suppressed
    }

    /// Whether the route is currently suppressed, updating decay first.
    pub(crate) fn is_suppressed(&mut self, cfg: &DampingConfig, now: SimTime) -> bool {
        self.decay_to(cfg, now);
        if self.suppressed && self.penalty < cfg.reuse_threshold {
            self.suppressed = false;
        }
        self.suppressed
    }

    /// Time from `now` until a suppressed route decays to the reuse
    /// threshold (`None` when not suppressed).
    pub(crate) fn reuse_eta(&mut self, cfg: &DampingConfig, now: SimTime) -> Option<SimDuration> {
        if !self.is_suppressed(cfg, now) {
            return None;
        }
        // penalty * 0.5^(t/hl) = reuse  =>  t = hl * log2(penalty / reuse)
        let ratio = self.penalty / cfg.reuse_threshold;
        let secs = cfg.half_life.as_secs_f64() * ratio.log2();
        Some(SimDuration::from_secs_f64(secs.max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The penalty of `st` after decaying it to `now`.
    fn penalty(st: &mut DampingState, cfg: &DampingConfig, now: SimTime) -> f64 {
        st.decay_to(cfg, now);
        st.penalty
    }

    #[test]
    fn single_flap_does_not_suppress() {
        let cfg = DampingConfig::default();
        let mut st = DampingState::new(t(0));
        assert!(!st.on_withdrawal(&cfg, t(0)));
        assert!(!st.is_suppressed(&cfg, t(1)));
        assert!((penalty(&mut st, &cfg, t(0)) - 1000.0).abs() < 1.0);
    }

    #[test]
    fn repeated_flaps_suppress() {
        let cfg = DampingConfig::default();
        let mut st = DampingState::new(t(0));
        st.on_withdrawal(&cfg, t(0));
        // Slight decay after 1 s keeps the pair just below 2000 …
        assert!(!st.on_withdrawal(&cfg, t(1)));
        // … but a third flap crosses the threshold.
        let suppressed = st.on_withdrawal(&cfg, t(2));
        assert!(suppressed, "3000 >= suppress threshold");
        assert!(st.is_suppressed(&cfg, t(3)));
    }

    #[test]
    fn penalty_decays_with_half_life() {
        let cfg = DampingConfig {
            half_life: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut st = DampingState::new(t(0));
        st.on_withdrawal(&cfg, t(0));
        let p = penalty(&mut st, &cfg, t(10));
        assert!((p - 500.0).abs() < 1.0, "one half-life: {p}");
        let p = penalty(&mut st, &cfg, t(30));
        assert!((p - 125.0).abs() < 1.0, "three half-lives: {p}");
    }

    #[test]
    fn suppressed_route_becomes_reusable() {
        let cfg = DampingConfig {
            half_life: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut st = DampingState::new(t(0));
        st.on_withdrawal(&cfg, t(0));
        st.on_withdrawal(&cfg, t(0));
        st.on_withdrawal(&cfg, t(0));
        assert!(st.is_suppressed(&cfg, t(0)));
        let eta = st.reuse_eta(&cfg, t(0)).unwrap();
        // 3000 -> 750 is two half-lives = 20 s.
        assert!((eta.as_secs_f64() - 20.0).abs() < 0.5, "{eta}");
        assert!(st.is_suppressed(&cfg, t(15)));
        assert!(!st.is_suppressed(&cfg, t(21)), "decayed below reuse");
        assert!(st.reuse_eta(&cfg, t(21)).is_none());
    }

    #[test]
    fn penalty_is_capped() {
        let cfg = DampingConfig::default();
        let mut st = DampingState::new(t(0));
        for _ in 0..100 {
            st.on_withdrawal(&cfg, t(0));
        }
        assert!(penalty(&mut st, &cfg, t(0)) <= cfg.max_penalty);
    }

    #[test]
    fn attribute_changes_accumulate_half_as_fast() {
        let cfg = DampingConfig::default();
        let mut a = DampingState::new(t(0));
        let mut b = DampingState::new(t(0));
        a.on_withdrawal(&cfg, t(0));
        b.on_attribute_change(&cfg, t(0));
        assert!(penalty(&mut a, &cfg, t(0)) > penalty(&mut b, &cfg, t(0)));
    }
}
