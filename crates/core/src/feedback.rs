//! The adaptation feedback loop `M --v_i--> P --d_c--> Ψ`.
//!
//! The paper distinguishes *closely-coupled* loops (monitoring, policy,
//! and reconfiguration run inline in the object's own methods, as in the
//! customized lock monitor) from *loosely-coupled* loops (observations
//! are queued to an external agent, which may lag and then act on stale
//! state). [`FeedbackLoop`] implements the closely-coupled form. The
//! loosely-coupled form is the simulated local monitor in
//! `thread-monitor`, whose delivery lag is measured there.

use crate::policy::AdaptationPolicy;

/// Statistics about a feedback loop's activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// Observations fed to the policy.
    pub observations: u64,
    /// Decisions the policy emitted.
    pub decisions: u64,
}

/// A closely-coupled feedback loop: each observation is handed to the
/// policy immediately and any decision is applied on the spot.
pub struct FeedbackLoop<P> {
    policy: P,
    stats: LoopStats,
}

impl<P> FeedbackLoop<P> {
    /// Wrap a policy.
    pub fn new(policy: P) -> FeedbackLoop<P> {
        FeedbackLoop {
            policy,
            stats: LoopStats::default(),
        }
    }

    /// Feed one observation; if the policy decides, `apply` enacts the
    /// reconfiguration (Ψ). Returns whether a decision was applied.
    pub fn step<Obs>(&mut self, obs: Obs, apply: impl FnOnce(P::Decision)) -> bool
    where
        P: AdaptationPolicy<Obs>,
    {
        self.stats.observations += 1;
        match self.policy.decide(obs) {
            Some(d) => {
                self.stats.decisions += 1;
                apply(d);
                true
            }
            None => false,
        }
    }

    /// Loop statistics so far.
    pub fn stats(&self) -> LoopStats {
        self.stats
    }

    /// Access the wrapped policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the wrapped policy (e.g. to retune thresholds).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FnPolicy;

    #[test]
    fn closely_coupled_applies_inline() {
        let policy = FnPolicy::new("gt3", |obs: u32| (obs > 3).then_some(obs * 2));
        let mut fb = FeedbackLoop::new(policy);
        let mut applied = Vec::new();
        assert!(!fb.step(1, |d| applied.push(d)));
        assert!(fb.step(5, |d| applied.push(d)));
        assert_eq!(applied, vec![10]);
        let s = fb.stats();
        assert_eq!(s.observations, 2);
        assert_eq!(s.decisions, 1);
    }

    #[test]
    fn policy_mut_allows_retuning() {
        struct Thresh {
            limit: u32,
        }
        impl AdaptationPolicy<u32> for Thresh {
            type Decision = ();
            fn decide(&mut self, obs: u32) -> Option<()> {
                (obs > self.limit).then_some(())
            }
        }
        let mut fb = FeedbackLoop::new(Thresh { limit: 10 });
        assert!(!fb.step(5, |_| {}));
        fb.policy_mut().limit = 1;
        assert!(fb.step(5, |_| {}));
        assert_eq!(fb.policy().limit, 1);
    }
}
