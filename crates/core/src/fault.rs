//! Deterministic fault injection for the memory pipeline.
//!
//! A [`FaultPlan`] in the [`crate::MachineConfig`] arms a per-run
//! injector driven by the in-tree xoshiro PRNG ([`dda_stats::Rng`]): it
//! can flip bits in resident LVC/L1 lines (modeled as line poisoning
//! with parity-check detection), drop or delay a memory-port grant, and
//! corrupt a fast-forwarded store value (detected by the commit-time
//! auditor). Same seed, same workload, same machine → bit-identical
//! injections, so every campaign run is reproducible.
//!
//! With [`FaultPlan::none`] (the default) the injector is not even
//! instantiated and the simulation is bit-identical to an unfaulted
//! build — the acceptance gate for every fault-free experiment.

use dda_stats::Rng;

use crate::error::ConfigError;

/// Per-class injection rates for one run. All rates are per-opportunity
/// probabilities in `0.0..=1.0` (e.g. `flip_l1_line` is drawn on every
/// L1 data access).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultPlan {
    /// PRNG seed; same seed → same injections.
    pub seed: u64,
    /// Probability of flipping bits in the accessed LVC line.
    pub flip_lvc_line: f64,
    /// Probability of flipping bits in the accessed L1 line.
    pub flip_l1_line: f64,
    /// Probability of revoking a granted memory-port slot (the port
    /// cycle is consumed; the instruction retries later).
    pub drop_port_grant: f64,
    /// Probability of delaying a granted port's address-ready event.
    pub delay_port_grant: f64,
    /// How many extra cycles a delayed grant costs.
    pub delay_cycles: u32,
    /// Probability of corrupting a store value forwarded to a load.
    pub corrupt_forward: f64,
}

impl FaultPlan {
    /// No injection at all — the plan of every ordinary run.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            flip_lvc_line: 0.0,
            flip_l1_line: 0.0,
            drop_port_grant: 0.0,
            delay_port_grant: 0.0,
            delay_cycles: 0,
            corrupt_forward: 0.0,
        }
    }

    /// Whether every rate is zero (no injector will be instantiated).
    pub fn is_none(&self) -> bool {
        self.flip_lvc_line == 0.0
            && self.flip_l1_line == 0.0
            && self.drop_port_grant == 0.0
            && self.delay_port_grant == 0.0
            && self.corrupt_forward == 0.0
    }

    /// Validates rates and delay.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for a rate outside `0.0..=1.0` (or not
    /// finite), or a delay plan with zero delay cycles.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("flip_lvc_line", self.flip_lvc_line),
            ("flip_l1_line", self.flip_l1_line),
            ("drop_port_grant", self.drop_port_grant),
            ("delay_port_grant", self.delay_port_grant),
            ("corrupt_forward", self.corrupt_forward),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::FaultRateOutOfRange { field, value });
            }
        }
        if self.delay_port_grant > 0.0 && self.delay_cycles == 0 {
            return Err(ConfigError::ZeroFaultDelay);
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// Injection and detection accounting for one run, carried in
/// [`crate::SimResult`]. All-zero (and bit-identical to a fault-free
/// run) under [`FaultPlan::none`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultStats {
    /// Bit flips injected into resident L1 lines.
    pub l1_flips_injected: u64,
    /// Bit flips injected into resident LVC lines.
    pub lvc_flips_injected: u64,
    /// Flipped lines caught by a parity check on a later access.
    pub flips_detected: u64,
    /// Flipped lines evicted before any parity check saw them (the
    /// corruption left the cache silently).
    pub flips_evicted: u64,
    /// Flipped lines still resident and undetected at the end of the run.
    pub flips_latent: u64,
    /// Port grants revoked after arbitration.
    pub grants_dropped: u64,
    /// Port grants delayed by `delay_cycles`.
    pub grants_delayed: u64,
    /// Forwarded store values corrupted.
    pub forwards_corrupted: u64,
    /// Corrupted forwards caught by the commit-time auditor.
    pub forwards_detected: u64,
}

impl FaultStats {
    /// Total injections of every class.
    pub fn injected(&self) -> u64 {
        self.l1_flips_injected
            + self.lvc_flips_injected
            + self.grants_dropped
            + self.grants_delayed
            + self.forwards_corrupted
    }

    /// Total detections (parity checks plus commit-time audits).
    pub fn detected(&self) -> u64 {
        self.flips_detected + self.forwards_detected
    }
}

/// Sums the accounts of several runs (a campaign's totals).
impl std::ops::AddAssign<&FaultStats> for FaultStats {
    fn add_assign(&mut self, other: &FaultStats) {
        self.l1_flips_injected += other.l1_flips_injected;
        self.lvc_flips_injected += other.lvc_flips_injected;
        self.flips_detected += other.flips_detected;
        self.flips_evicted += other.flips_evicted;
        self.flips_latent += other.flips_latent;
        self.grants_dropped += other.grants_dropped;
        self.grants_delayed += other.grants_delayed;
        self.forwards_corrupted += other.forwards_corrupted;
        self.forwards_detected += other.forwards_detected;
    }
}

/// The live injector owned by a running core: the plan, the PRNG stream,
/// and the counters accumulated so far.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) rng: Rng,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    /// An injector for `plan`, or `None` when the plan injects nothing —
    /// the fault-free fast path costs one pointer check per hook.
    pub(crate) fn from_plan(plan: FaultPlan) -> Option<FaultState> {
        if plan.is_none() {
            return None;
        }
        Some(FaultState {
            plan,
            rng: Rng::seed_from_u64(plan.seed),
            stats: FaultStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none_and_valid() {
        assert!(FaultPlan::none().is_none());
        assert_eq!(FaultPlan::none().validate(), Ok(()));
        assert!(FaultState::from_plan(FaultPlan::none()).is_none());
    }

    #[test]
    fn rates_are_validated() {
        let bad = FaultPlan {
            flip_l1_line: 1.5,
            ..FaultPlan::none()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            corrupt_forward: f64::NAN,
            ..FaultPlan::none()
        };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            delay_port_grant: 0.5,
            delay_cycles: 0,
            ..FaultPlan::none()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroFaultDelay));
        let ok = FaultPlan {
            delay_port_grant: 0.5,
            delay_cycles: 3,
            ..FaultPlan::none()
        };
        assert_eq!(ok.validate(), Ok(()));
        assert!(!ok.is_none());
    }

    #[test]
    fn injector_streams_are_seed_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            drop_port_grant: 0.5,
            ..FaultPlan::none()
        };
        let mut a = FaultState::from_plan(plan).unwrap();
        let mut b = FaultState::from_plan(plan).unwrap();
        for _ in 0..100 {
            assert_eq!(a.rng.next_u64(), b.rng.next_u64());
        }
    }
}
