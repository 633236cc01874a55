//! The store's format commitment, pinned.
//!
//! Result-store and checkpoint-store file names are FNV-1a digests of
//! stable text renderings: the program's assembly, the configuration's
//! `Debug` form, and the run plan. A renderer that drifts by one byte
//! leaves every stored record and checkpoint unreachable without any
//! other test noticing, because a miss is recomputed and still correct.
//! These values were computed by the byte-for-byte `format!`/`to_asm`
//! renderers the streaming ones replaced; they may only change together
//! with a deliberate key-format change.

use dda::core::MachineConfig;
use dda::stats::fnv1a64;
use dda::workloads::Benchmark;
use dda_bench::dse::{DEFAULT_SEED, KERNEL_VERSION};
use dda_bench::{
    config_fingerprint, program_fingerprint, result_key, DseRequest, RunPlan, SamplingConfig,
};

/// A workload scale in the range perfbench's DSE workloads draw from.
const SEED_B: u32 = (1 << 20) + 12_345;

/// `program_fingerprint` per benchmark (in `Benchmark::ALL` order), at
/// `DEFAULT_SEED` and at `SEED_B`.
const PROGRAM_PINS: [(Benchmark, u64, u64); 12] = [
    (Benchmark::Go, 0x88fe_b844_0d18_c796, 0xb1fc_a257_47a6_4955),
    (
        Benchmark::M88ksim,
        0xe6a1_5a4c_1df7_3a05,
        0x6536_97e1_2c29_3be1,
    ),
    (Benchmark::Gcc, 0x010a_439a_0ddd_4685, 0x998e_b411_a201_607e),
    (
        Benchmark::Compress,
        0x2549_aac7_9783_870f,
        0x7b33_ce14_b869_d62a,
    ),
    (Benchmark::Li, 0x8df8_3daa_3dfc_2aee, 0xabb3_22cf_1fc7_057f),
    (
        Benchmark::Ijpeg,
        0x0c7a_4294_9216_7d96,
        0x7f91_41d9_1cf6_9478,
    ),
    (
        Benchmark::Perl,
        0x9d77_5077_5902_a3ca,
        0x6bdc_92d3_4f8a_c378,
    ),
    (
        Benchmark::Vortex,
        0xabdf_9101_ccde_3733,
        0x7333_5794_f686_acaf,
    ),
    (
        Benchmark::Tomcatv,
        0xef0f_dfe0_8a54_98c8,
        0x2f85_cb59_dec1_401f,
    ),
    (
        Benchmark::Swim,
        0xa388_e75f_5bdd_d802,
        0xf848_51f7_5320_77eb,
    ),
    (
        Benchmark::Su2cor,
        0xbf7f_5628_aabc_b865,
        0x2246_42d8_b9b1_7e36,
    ),
    (
        Benchmark::Mgrid,
        0x51ce_ebdf_b97f_679d,
        0xf322_90ec_b8cc_66e2,
    ),
];

/// The three configurations whose fingerprints are pinned.
fn pinned_configs() -> [(&'static str, MachineConfig); 3] {
    [
        ("2+0", MachineConfig::n_plus_m(2, 0)),
        (
            "4+2 optimized",
            MachineConfig::n_plus_m(4, 2).with_optimizations(),
        ),
        (
            "4+2 lvc 1024",
            MachineConfig::n_plus_m(4, 2).with_lvc_size(1024),
        ),
    ]
}

/// Per pinned configuration: `config_fingerprint`, and the FNV-1a of
/// `result_fingerprint_text`.
const CONFIG_PINS: [(u64, u64); 3] = [
    (0x0f65_d0b1_e2c1_f5c8, 0x6c87_9778_6d4a_400c),
    (0xd31e_dd67_54cb_9045, 0x6958_da9a_4796_3033),
    (0xa23f_4f3e_87c8_d9ba, 0x4582_bc33_9a38_7606),
];

/// A sampled plan that renders every field of the plan text, including
/// an adaptive target.
fn sampled_plan() -> RunPlan {
    RunPlan::Sampled(SamplingConfig {
        adaptive_target: Some(0.025),
        ..SamplingConfig::for_budget(3_000_000)
    })
}

/// The request shape of perfbench's DSE workloads: all 12 benchmarks,
/// the paper's (N+M) grid, combining {1,2}, fast forwarding {off,on}.
fn sweep_request() -> DseRequest {
    DseRequest {
        benches: Benchmark::ALL.to_vec(),
        grid: vec![(2, 0), (1, 1), (2, 2), (4, 2), (8, 4), (16, 0)],
        combining: vec![1, 2],
        fast_forward: vec![false, true],
        lvc_bytes: None,
        seed: SEED_B,
        plan: RunPlan::Full { budget: 30_123 },
    }
}

/// Every dedupe path of `expand` at once: a repeated benchmark, repeated
/// grid points (with and without an LVC), repeated combining and
/// forwarding values, and an LVC size override.
fn edge_request() -> DseRequest {
    DseRequest {
        benches: vec![Benchmark::Li, Benchmark::Compress, Benchmark::Li],
        grid: vec![(2, 0), (4, 2), (2, 0), (1, 1), (4, 2), (8, 0)],
        combining: vec![2, 1, 2],
        fast_forward: vec![true, false, true],
        lvc_bytes: Some(1024),
        seed: DEFAULT_SEED,
        plan: sampled_plan(),
    }
}

/// `(cells, digest)` of a request's expansion: the count, and the FNV-1a
/// over one `label key` line per cell in cell order, each key computed
/// by `result_key` at `KERNEL_VERSION`.
fn expansion_digest(req: &DseRequest) -> (usize, u64) {
    let cells = req.expand();
    let mut text = String::new();
    for cell in &cells {
        let program = cell.bench.program(req.seed.max(1));
        let key = result_key(
            KERNEL_VERSION,
            &cell.cfg,
            program_fingerprint(&program),
            req.seed,
            &req.plan,
        );
        text.push_str(&format!("{} {key:016x}\n", cell.label));
    }
    (cells.len(), fnv1a64(text.as_bytes()))
}

#[test]
fn program_fingerprints_are_pinned() {
    for (bench, at_default, at_b) in PROGRAM_PINS {
        let got = (
            program_fingerprint(&bench.program(DEFAULT_SEED)),
            program_fingerprint(&bench.program(SEED_B)),
        );
        assert_eq!(got, (at_default, at_b), "{}", bench.name());
    }
    assert_eq!(
        PROGRAM_PINS.map(|(b, ..)| b),
        Benchmark::ALL,
        "one pin per benchmark"
    );
}

#[test]
fn config_fingerprints_are_pinned() {
    for ((name, cfg), want) in pinned_configs().into_iter().zip(CONFIG_PINS) {
        let got = (
            config_fingerprint(&cfg),
            fnv1a64(cfg.result_fingerprint_text().as_bytes()),
        );
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn result_keys_are_pinned() {
    let cfg = MachineConfig::n_plus_m(4, 2).with_optimizations();
    let phash = program_fingerprint(&Benchmark::Compress.program(DEFAULT_SEED));
    let full = result_key(
        KERNEL_VERSION,
        &cfg,
        phash,
        DEFAULT_SEED,
        &RunPlan::Full { budget: 30_000 },
    );
    let sampled = result_key(KERNEL_VERSION, &cfg, phash, DEFAULT_SEED, &sampled_plan());
    assert_eq!(
        (full, sampled),
        (0x4920_7ace_4f6c_6e38, 0x8f9b_283a_18b7_b96e)
    );
}

#[test]
fn expansions_and_their_keys_are_pinned() {
    assert_eq!(
        expansion_digest(&sweep_request()),
        (216, 0x963b_1634_9b29_a9c4)
    );
    assert_eq!(
        expansion_digest(&edge_request()),
        (20, 0x9e4b_90e6_c6e3_939c)
    );
}
