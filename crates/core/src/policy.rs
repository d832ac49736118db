//! Adaptation policies.
//!
//! A policy is the user-provided `P` in the paper's feedback loop
//! `M --v_i--> P --d_c--> Ψ`: it consumes monitored observations and
//! produces reconfiguration decisions. Policies are object-specific —
//! the lock crate instantiates [`AdaptationPolicy`] with lock
//! observations and lock reconfiguration decisions.

/// A user-provided adaptation policy.
pub trait AdaptationPolicy<Obs>: Send {
    /// The reconfiguration decision type this policy emits (`d_c`).
    type Decision;

    /// Consume one observation; `None` means "no change".
    fn decide(&mut self, obs: Obs) -> Option<Self::Decision>;
}

impl<Obs, P> AdaptationPolicy<Obs> for Box<P>
where
    P: AdaptationPolicy<Obs> + ?Sized,
{
    type Decision = P::Decision;

    fn decide(&mut self, obs: Obs) -> Option<Self::Decision> {
        (**self).decide(obs)
    }
}

/// Adapt via a plain function (for tests and one-off experiments).
pub struct FnPolicy<F> {
    f: F,
}

impl<F> FnPolicy<F> {
    /// Wrap `f` as a policy.
    pub fn new(f: F) -> FnPolicy<F> {
        FnPolicy { f }
    }
}

impl<Obs, D, F> AdaptationPolicy<Obs> for FnPolicy<F>
where
    F: FnMut(Obs) -> Option<D> + Send,
{
    type Decision = D;

    fn decide(&mut self, obs: Obs) -> Option<D> {
        (self.f)(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_policy_threads_state() {
        let mut seen = 0u32;
        let mut p = FnPolicy::new(move |obs: u32| {
            seen += obs;
            if seen > 5 {
                Some("block")
            } else {
                None
            }
        });
        assert_eq!(p.decide(2), None);
        assert_eq!(p.decide(2), None);
        assert_eq!(p.decide(2), Some("block"));
    }
}
