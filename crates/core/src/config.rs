//! Machine configuration.

use std::fmt;

use dda_isa::{FuClass, LatencyTable};
use dda_mem::HierarchyConfig;

use crate::classify::SteerPolicy;
use crate::error::ConfigError;
use crate::fault::FaultPlan;

/// Configuration of the data-decoupling machinery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecouplingConfig {
    /// LVAQ capacity (the paper uses 64 entries, §4.2).
    pub lvaq_size: usize,
    /// Enable fast data forwarding in the LVAQ (§2.2.2).
    pub fast_forwarding: bool,
    /// Access-combining window: up to this many *consecutive* LVAQ entries
    /// falling on one LVC line share a port (§2.2.2). `1` disables
    /// combining.
    pub combining_degree: u32,
    /// How memory instructions are steered to a queue at dispatch.
    pub steer: SteerPolicy,
    /// Extra cycles charged to an access steered into the wrong queue
    /// (the paper's §2.1 recovery, "similar to the one for a branch
    /// misprediction").
    pub misclass_penalty: u32,
}

impl Default for DecouplingConfig {
    fn default() -> Self {
        DecouplingConfig {
            lvaq_size: 64,
            fast_forwarding: false,
            combining_degree: 1,
            steer: SteerPolicy::Hint,
            misclass_penalty: 8,
        }
    }
}

/// Full configuration of the simulated machine.
///
/// [`MachineConfig::iscapaper_base`] reproduces the paper's Table 1; the
/// `with_*` builders derive the per-experiment variants.
#[derive(Clone, PartialEq, Debug)]
pub struct MachineConfig {
    /// Instructions dispatched (renamed) per cycle. The paper sets decode
    /// and commit width equal to the 16-wide issue width.
    pub dispatch_width: u32,
    /// Instructions issued to functional units per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer (RUU) capacity (paper: 128).
    pub rob_size: usize,
    /// Load/store-queue capacity (paper: 64).
    pub lsq_size: usize,
    /// Functional-unit counts, indexed by [`FuClass`]. The paper's machine
    /// has 16 integer ALUs, 16 FP ALUs, 4 integer and 4 FP MULT/DIV units;
    /// multiply and divide share the same physical units here, as there.
    pub fu_counts: FuCounts,
    /// Execution latencies (paper: MIPS R10000).
    pub latencies: LatencyTable,
    /// The data-memory hierarchy (L1 ports, optional LVC, L2).
    pub hierarchy: HierarchyConfig,
    /// Data-decoupling parameters; only meaningful when the hierarchy has
    /// an LVC.
    pub decoupling: DecouplingConfig,
    /// Abort if this many cycles elapse with no commit (a simulator-bug
    /// backstop, not a micro-architectural feature).
    pub deadlock_cycles: u64,
    /// Run the reference kernel instead of the fast one: a binary-heap
    /// event queue, per-cycle queue rescans, a whole-ROB issue walk,
    /// per-cycle occupancy histograms and an interpretive one-instruction
    /// front-end, in place of the fast kernel's event wheel, wake lists,
    /// ready lists and translation cache. The two are architecturally
    /// identical, so this exists as the differential oracle: the
    /// determinism tests and the fuzzer compare full
    /// [`crate::SimResult`]s between the kernels. Simulation *results*
    /// never depend on this flag, only wall-clock time.
    pub reference_kernel: bool,
    /// Fault-injection plan; [`FaultPlan::none`] (the default) injects
    /// nothing and leaves results bit-identical to an unfaulted run.
    pub fault_plan: FaultPlan,
    /// Run the cycle-by-cycle invariant auditor (queue/age-order/
    /// forwarding cross-checks; a broken invariant becomes a structured
    /// [`crate::SimError::InvariantViolation`] instead of silent
    /// corruption). Defaults to on in debug builds, off in release.
    pub audit: bool,
    /// **Test-only.** Plants a deterministic counter defect in the *fast*
    /// kernel (the reference kernel is untouched): LVAQ stores retiring
    /// to certain addresses charge a phantom port-stall cycle, so the two
    /// kernels' [`crate::SimResult`]s diverge. The differential fuzzer's
    /// self-test flips this on to prove its oracle catches and minimizes
    /// a real kernel bug. Never set outside tests; defaults to off and
    /// has zero effect on any counter while off.
    pub planted_defect: bool,
}

/// Functional-unit pool sizes. Multiply and divide of the same register
/// file share units (MULT/DIV units, as in the paper's Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuCounts {
    /// Integer ALUs (also execute branches and address generation).
    pub int_alu: u32,
    /// Integer MULT/DIV units.
    pub int_mul_div: u32,
    /// FP ALUs (adds, compares, conversions).
    pub fp_alu: u32,
    /// FP MULT/DIV units.
    pub fp_mul_div: u32,
}

impl FuCounts {
    /// The paper's Table 1 pool: 16 + 16 ALUs, 4 + 4 MULT/DIV units.
    pub fn iscapaper_base() -> FuCounts {
        FuCounts {
            int_alu: 16,
            int_mul_div: 4,
            fp_alu: 16,
            fp_mul_div: 4,
        }
    }

    /// The pool a [`FuClass`] executes on, as a dense index `0..4`.
    pub fn pool_of(class: FuClass) -> usize {
        match class {
            FuClass::IntAlu | FuClass::Branch | FuClass::MemRead | FuClass::MemWrite => 0,
            FuClass::IntMul | FuClass::IntDiv => 1,
            FuClass::FpAdd => 2,
            FuClass::FpMul | FuClass::FpDiv => 3,
        }
    }

    /// Pool sizes as an array indexed by pool id.
    pub fn pool_sizes(&self) -> [u32; 4] {
        [self.int_alu, self.int_mul_div, self.fp_alu, self.fp_mul_div]
    }
}

impl MachineConfig {
    /// The paper's base machine (Table 1) with the default 2-port L1 and
    /// no LVC — the "(2+0)" reference configuration of §4.
    pub fn iscapaper_base() -> MachineConfig {
        MachineConfig {
            dispatch_width: 16,
            issue_width: 16,
            commit_width: 16,
            rob_size: 128,
            lsq_size: 64,
            fu_counts: FuCounts::iscapaper_base(),
            latencies: LatencyTable::r10000(),
            hierarchy: HierarchyConfig::iscapaper_base(),
            decoupling: DecouplingConfig::default(),
            deadlock_cycles: 200_000,
            reference_kernel: false,
            fault_plan: FaultPlan::none(),
            audit: cfg!(debug_assertions),
            planted_defect: false,
        }
    }

    /// The "(N+M)" machine of §4: N L1 ports, and when `m > 0` an M-port
    /// 2 KB LVC with the decoupling machinery enabled.
    pub fn n_plus_m(n: u32, m: u32) -> MachineConfig {
        MachineConfig {
            hierarchy: HierarchyConfig::n_plus_m(n, m),
            ..MachineConfig::iscapaper_base()
        }
    }

    /// Returns a copy with fast data forwarding enabled/disabled.
    pub fn with_fast_forwarding(mut self, on: bool) -> MachineConfig {
        self.decoupling.fast_forwarding = on;
        self
    }

    /// Returns a copy with the given access-combining degree (1 = off).
    pub fn with_combining(mut self, degree: u32) -> MachineConfig {
        self.decoupling.combining_degree = degree.max(1);
        self
    }

    /// Returns a copy with both §2.2.2 optimizations on (2-way combining,
    /// the paper's recommended design point).
    pub fn with_optimizations(self) -> MachineConfig {
        self.with_fast_forwarding(true).with_combining(2)
    }

    /// Returns a copy with a different L1 hit latency (the §4.3 study).
    pub fn with_l1_hit_latency(mut self, cycles: u32) -> MachineConfig {
        self.hierarchy.l1.hit_latency = cycles;
        self
    }

    /// Returns a copy with a different LVC hit latency (the §4.3 study).
    ///
    /// # Panics
    ///
    /// Panics if the machine has no LVC.
    pub fn with_lvc_hit_latency(mut self, cycles: u32) -> MachineConfig {
        match self.hierarchy.lvc.as_mut() {
            Some(lvc) => lvc.hit_latency = cycles,
            None => panic!("machine has no LVC"),
        }
        self
    }

    /// Returns a copy with a different LVC size in bytes (the Fig. 6
    /// sweep).
    ///
    /// # Panics
    ///
    /// Panics if the machine has no LVC.
    pub fn with_lvc_size(mut self, bytes: u32) -> MachineConfig {
        match self.hierarchy.lvc.as_mut() {
            Some(lvc) => lvc.size_bytes = bytes,
            None => panic!("machine has no LVC"),
        }
        self
    }

    /// Returns a copy with the given fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> MachineConfig {
        self.fault_plan = plan;
        self
    }

    /// Returns a copy with the invariant auditor forced on or off.
    pub fn with_audit(mut self, on: bool) -> MachineConfig {
        self.audit = on;
        self
    }

    /// Returns a copy with the deadlock-watchdog window set to `cycles`
    /// (how long the pipeline may go without committing before the run
    /// aborts with a structured [`crate::SimError::Deadlock`]).
    ///
    /// The 200 000-cycle default suits interactive runs; fuzz campaigns
    /// set a much tighter window so a wedged input is bounded by
    /// `budget × window` cycles instead of hanging a worker. A zero
    /// window is rejected by [`MachineConfig::validate`].
    pub fn with_deadlock_window(mut self, cycles: u64) -> MachineConfig {
        self.deadlock_cycles = cycles;
        self
    }

    /// Whether data decoupling is active (an LVC exists).
    pub fn decoupled(&self) -> bool {
        self.hierarchy.lvc.is_some()
    }

    /// A stable textual rendering of every *result-affecting* field — the
    /// content a design-space-exploration cache keys simulation results
    /// by (hashed together with the program, seed, sampling plan and
    /// kernel version).
    ///
    /// Two flags are deliberately normalized out: `reference_kernel` and
    /// `audit` select between implementations proven bit-identical (the
    /// determinism suite and the differential fuzzer enforce it), so a
    /// result computed under either serves the other. Everything else — widths, capacities, latencies, hierarchy
    /// geometry, decoupling knobs, the fault plan, even the test-only
    /// planted defect — changes counters and therefore the fingerprint.
    pub fn result_fingerprint_text(&self) -> String {
        let mut text = String::new();
        let _ = self.write_result_fingerprint(&mut text); // a `String` never fails
        text
    }

    /// Writes [`MachineConfig::result_fingerprint_text`] into `w` — its
    /// one renderer, so a cache key can hash the text as it is written.
    ///
    /// # Errors
    ///
    /// The first error `w` returns.
    pub fn write_result_fingerprint(&self, w: &mut impl fmt::Write) -> fmt::Result {
        let canon = MachineConfig {
            reference_kernel: false,
            audit: false,
            ..self.clone()
        };
        write!(w, "{canon:?}")
    }

    /// Validates widths, capacities, the hierarchy and the fault plan.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dispatch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err(ConfigError::ZeroPipelineWidth);
        }
        if self.rob_size == 0 {
            return Err(ConfigError::ZeroRobSize);
        }
        if self.lsq_size == 0 {
            return Err(ConfigError::ZeroLsqSize);
        }
        if self.decoupled() && self.decoupling.lvaq_size == 0 {
            return Err(ConfigError::ZeroLvaqSize);
        }
        if self.fu_counts.pool_sizes().contains(&0) {
            return Err(ConfigError::EmptyFuPool);
        }
        if self.deadlock_cycles == 0 {
            return Err(ConfigError::ZeroDeadlockWindow);
        }
        self.fault_plan.validate()?;
        self.hierarchy.validate()?;
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::iscapaper_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_machine_matches_table_1() {
        let c = MachineConfig::iscapaper_base();
        assert_eq!(c.issue_width, 16);
        assert_eq!(c.dispatch_width, 16);
        assert_eq!(c.commit_width, 16);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.lsq_size, 64);
        assert_eq!(c.decoupling.lvaq_size, 64);
        assert_eq!(c.fu_counts.int_alu, 16);
        assert_eq!(c.fu_counts.fp_alu, 16);
        assert_eq!(c.fu_counts.int_mul_div, 4);
        assert_eq!(c.fu_counts.fp_mul_div, 4);
        assert_eq!(c.hierarchy.l1.size_bytes, 32 << 10);
        assert_eq!(c.hierarchy.l1.hit_latency, 2);
        assert_eq!(c.hierarchy.l2.latency, 12);
        assert_eq!(c.hierarchy.l2.memory_latency, 50);
        assert!(!c.decoupled());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn n_plus_m_builder() {
        let c = MachineConfig::n_plus_m(3, 2);
        assert_eq!(c.hierarchy.l1.ports, 3);
        assert_eq!(c.hierarchy.lvc.unwrap().ports, 2);
        assert!(c.decoupled());
        assert!(!MachineConfig::n_plus_m(4, 0).decoupled());
    }

    #[test]
    fn optimization_builders() {
        let c = MachineConfig::n_plus_m(3, 2).with_optimizations();
        assert!(c.decoupling.fast_forwarding);
        assert_eq!(c.decoupling.combining_degree, 2);
        let c = c.with_combining(0);
        assert_eq!(c.decoupling.combining_degree, 1, "degree clamps to 1");
    }

    #[test]
    fn latency_builders() {
        let c = MachineConfig::n_plus_m(2, 2)
            .with_l1_hit_latency(3)
            .with_lvc_hit_latency(2);
        assert_eq!(c.hierarchy.l1.hit_latency, 3);
        assert_eq!(c.hierarchy.lvc.unwrap().hit_latency, 2);
    }

    #[test]
    #[should_panic(expected = "no LVC")]
    fn lvc_builder_without_lvc_panics() {
        let _ = MachineConfig::iscapaper_base().with_lvc_hit_latency(2);
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut c = MachineConfig::iscapaper_base();
        c.rob_size = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::iscapaper_base();
        c.issue_width = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::iscapaper_base();
        c.fu_counts.int_alu = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn deadlock_window_builder_and_validation() {
        let c = MachineConfig::iscapaper_base();
        assert_eq!(c.deadlock_cycles, 200_000, "default window");
        let c = c.with_deadlock_window(25_000);
        assert_eq!(c.deadlock_cycles, 25_000);
        assert_eq!(c.validate(), Ok(()));
        let c = c.with_deadlock_window(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroDeadlockWindow));
    }

    #[test]
    fn planted_defect_defaults_off() {
        assert!(!MachineConfig::iscapaper_base().planted_defect);
        assert!(
            !MachineConfig::n_plus_m(4, 2)
                .with_optimizations()
                .planted_defect
        );
    }

    #[test]
    fn result_fingerprint_tracks_result_affecting_fields_only() {
        let base = MachineConfig::n_plus_m(4, 2);
        assert_eq!(
            base.result_fingerprint_text(),
            base.clone().result_fingerprint_text()
        );
        // Kernel choice and auditing are proven result-neutral: same text.
        let mut reference = base.clone();
        reference.reference_kernel = true;
        let audited = base.clone().with_audit(true);
        assert_eq!(
            base.result_fingerprint_text(),
            reference.result_fingerprint_text()
        );
        assert_eq!(
            base.result_fingerprint_text(),
            audited.result_fingerprint_text()
        );
        // Anything that moves a counter changes the text.
        for variant in [
            base.clone().with_combining(2),
            base.clone().with_fast_forwarding(true),
            base.clone().with_lvc_size(4096),
            base.clone().with_l1_hit_latency(3),
            MachineConfig::n_plus_m(4, 0),
            {
                let mut c = base.clone();
                c.rob_size = 64;
                c
            },
            {
                let mut c = base.clone();
                c.planted_defect = true;
                c
            },
        ] {
            assert_ne!(
                base.result_fingerprint_text(),
                variant.result_fingerprint_text(),
                "variant {variant:?} should change the fingerprint"
            );
        }
    }

    #[test]
    fn fault_plan_is_validated_with_the_machine() {
        let mut c = MachineConfig::iscapaper_base();
        c.fault_plan.drop_port_grant = 2.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::FaultRateOutOfRange { .. })
        ));
    }

    #[test]
    fn pool_mapping_covers_all_classes() {
        for class in FuClass::ALL {
            assert!(FuCounts::pool_of(class) < 4);
        }
        assert_eq!(
            FuCounts::pool_of(FuClass::IntMul),
            FuCounts::pool_of(FuClass::IntDiv)
        );
        assert_eq!(
            FuCounts::pool_of(FuClass::FpMul),
            FuCounts::pool_of(FuClass::FpDiv)
        );
        assert_ne!(
            FuCounts::pool_of(FuClass::IntAlu),
            FuCounts::pool_of(FuClass::FpAdd)
        );
    }
}
