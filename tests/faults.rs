//! Integration tests for the hardened runtime: typed configuration
//! errors, the deadlock watchdog's diagnostic dump, and the
//! fault-injection harness (containment, determinism, and the
//! non-interference of a [`FaultPlan::none`] build).

use dda::core::{ConfigError, FaultPlan, MachineConfig, SimError, Simulator};
use dda::workloads::Benchmark;

const BUDGET: u64 = 30_000;

fn program() -> dda::program::Program {
    Benchmark::Li.program(u32::MAX / 2)
}

/// A machine guaranteed to wedge: every memory-port grant is revoked, so
/// no load or store can ever launch and the watchdog must fire.
fn wedged_config() -> MachineConfig {
    let mut cfg = MachineConfig::n_plus_m(4, 2)
        .with_optimizations()
        .with_fault_plan(FaultPlan {
            drop_port_grant: 1.0,
            seed: 7,
            ..FaultPlan::none()
        });
    cfg.deadlock_cycles = 5_000;
    cfg
}

#[test]
fn invalid_configs_are_typed_errors_not_panics() {
    let mut cfg = MachineConfig::n_plus_m(2, 0);
    cfg.rob_size = 0;
    match Simulator::new(cfg) {
        Err(SimError::Config(ConfigError::ZeroRobSize)) => {}
        other => panic!("expected ZeroRobSize, got {other:?}"),
    }

    let cfg = MachineConfig::n_plus_m(2, 0).with_fault_plan(FaultPlan {
        flip_l1_line: 2.0,
        ..FaultPlan::none()
    });
    match Simulator::new(cfg) {
        Err(SimError::Config(ConfigError::FaultRateOutOfRange { field, .. })) => {
            assert_eq!(field, "flip_l1_line");
        }
        other => panic!("expected FaultRateOutOfRange, got {other:?}"),
    }

    let cfg = MachineConfig::n_plus_m(2, 0).with_fault_plan(FaultPlan {
        delay_port_grant: 0.5,
        delay_cycles: 0,
        ..FaultPlan::none()
    });
    match Simulator::new(cfg) {
        Err(SimError::Config(ConfigError::ZeroFaultDelay)) => {}
        other => panic!("expected ZeroFaultDelay, got {other:?}"),
    }
}

#[test]
fn wedged_machine_deadlocks_with_a_populated_dump() {
    let p = program();
    let err = Simulator::new(wedged_config())
        .unwrap()
        .run(&p, BUDGET)
        .unwrap_err();
    let SimError::Deadlock(dump) = err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert_eq!(dump.watchdog_window, 5_000);
    assert!(dump.cycle >= 5_000);
    // The pipeline is genuinely wedged: the ROB is occupied, the head is
    // a stuck instruction, and the dump explains the stall.
    assert!(dump.rob_len > 0, "wedged ROB should not be empty");
    let head = dump.head.expect("wedged ROB has a head entry");
    assert!(
        !head.completed,
        "the head of a wedged pipeline cannot be complete"
    );
    assert!(
        !dump.recent_pcs.is_empty(),
        "some instructions retired before the wedge"
    );
    // The human rendering carries the occupancy numbers.
    let text = dump.to_string();
    assert!(
        text.contains("rob") && text.contains("recent retired pcs"),
        "{text}"
    );
}

#[test]
fn deadlock_dumps_are_deterministic_across_runs() {
    let p = program();
    let runs: Vec<_> = (0..3)
        .map(
            |_| match Simulator::new(wedged_config()).unwrap().run(&p, BUDGET) {
                Err(SimError::Deadlock(d)) => *d,
                other => panic!("expected Deadlock, got {other:?}"),
            },
        )
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "same config + seed must wedge identically"
    );
    assert_eq!(
        runs[1], runs[2],
        "same config + seed must wedge identically"
    );
}

#[test]
fn fault_free_plan_is_bit_identical_to_the_reference_kernel() {
    let p = program();
    let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
    let fast = Simulator::new(cfg.clone())
        .unwrap()
        .run(&p, BUDGET)
        .unwrap();
    let mut ref_cfg = cfg.clone();
    ref_cfg.reference_kernel = true;
    let reference = Simulator::new(ref_cfg).unwrap().run(&p, BUDGET).unwrap();
    assert_eq!(
        fast, reference,
        "FaultPlan::none must not perturb the kernel"
    );
    assert_eq!(fast.faults, Default::default(), "no injector, no counters");

    // The auditor is pure observation: enabling it changes nothing.
    let audited = Simulator::new(cfg.with_audit(true))
        .unwrap()
        .run(&p, BUDGET)
        .unwrap();
    assert_eq!(
        fast, audited,
        "the invariant auditor must not perturb results"
    );
}

#[test]
fn every_fault_class_is_contained_and_accounted() {
    let p = program();
    let none = FaultPlan::none();
    let classes = [
        (
            "lvc_flip",
            FaultPlan {
                flip_lvc_line: 0.05,
                ..none
            },
        ),
        (
            "l1_flip",
            FaultPlan {
                flip_l1_line: 0.05,
                ..none
            },
        ),
        (
            "drop_grant",
            FaultPlan {
                drop_port_grant: 0.05,
                ..none
            },
        ),
        (
            "delay_grant",
            FaultPlan {
                delay_port_grant: 0.05,
                delay_cycles: 8,
                ..none
            },
        ),
        (
            "corrupt_forward",
            FaultPlan {
                corrupt_forward: 0.2,
                ..none
            },
        ),
    ];
    for (name, plan) in classes {
        let cfg = MachineConfig::n_plus_m(4, 2)
            .with_optimizations()
            .with_audit(true)
            .with_fault_plan(FaultPlan { seed: 3, ..plan });
        let res = Simulator::new(cfg)
            .unwrap()
            .run(&p, BUDGET)
            .unwrap_or_else(|e| panic!("{name}: injection must be survivable, got {e}"));
        assert_eq!(
            res.committed, BUDGET,
            "{name}: the workload still completes"
        );
        assert!(
            res.faults.injected() > 0,
            "{name}: the class must actually fire"
        );
        // Every injected flip is accounted for: detected by a later
        // parity check, evicted before one, or still latent at the end.
        let flips = res.faults.l1_flips_injected + res.faults.lvc_flips_injected;
        assert_eq!(
            flips,
            res.faults.flips_detected + res.faults.flips_evicted + res.faults.flips_latent,
            "{name}: flip accounting must balance"
        );
        // A corrupted forward is always caught by the commit-time audit.
        assert_eq!(
            res.faults.forwards_corrupted, res.faults.forwards_detected,
            "{name}: corrupted forwards are caught at commit"
        );
    }
}

#[test]
fn injection_is_seed_deterministic() {
    let p = program();
    let plan = FaultPlan {
        seed: 11,
        flip_l1_line: 0.02,
        delay_port_grant: 0.05,
        delay_cycles: 4,
        ..FaultPlan::none()
    };
    let run = || {
        let cfg = MachineConfig::n_plus_m(4, 2)
            .with_optimizations()
            .with_fault_plan(plan);
        Simulator::new(cfg).unwrap().run(&p, BUDGET).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must inject identically");
    assert!(a.faults.injected() > 0);

    let other = {
        let cfg = MachineConfig::n_plus_m(4, 2)
            .with_optimizations()
            .with_fault_plan(FaultPlan { seed: 12, ..plan });
        Simulator::new(cfg).unwrap().run(&p, BUDGET).unwrap()
    };
    assert_ne!(
        a.faults, other.faults,
        "a different seed draws a different stream"
    );
}

#[test]
fn checked_harness_reports_structured_failures_per_run() {
    // A parallel sweep where one configuration is wedged: the checked
    // entry points degrade that run to an Err value and the good runs
    // still return results.
    let good = MachineConfig::n_plus_m(4, 2).with_optimizations();
    let mut matrix =
        dda_bench::run_matrix_checked(&[Benchmark::Compress], &[good, wedged_config()], BUDGET);
    assert_eq!(matrix.len(), 1);
    let results = matrix.remove(0);
    assert_eq!(results.len(), 2);
    assert!(results[0].is_ok(), "the healthy config still simulates");
    assert!(
        matches!(results[1], Err(SimError::Deadlock(_))),
        "the wedged config degrades to a structured error"
    );
}
