//! Generative differential fuzzing campaign.
//!
//! Feeds seeded generator/mutator programs (`dda_program::fuzz`) through
//! the fast and reference simulation kernels with the invariant auditor
//! armed and compares outcomes bit-for-bit: any disagreement is a kernel
//! bug. Each input runs under panic isolation and a per-run budget
//! (committed instructions + a tightened deadlock-watchdog window), so a
//! pathological input degrades to one structured record instead of
//! taking the campaign down. Every divergence is delta-debugged to a
//! minimal reproducer and written into the regression corpus.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dda-bench --bin fuzz [-- --quick]
//!     [--programs N] [--seed S] [--budget N] [--mutate-every K]
//!     [--workers N] [--faults] [--plant-defect]
//!     [--out PATH] [--corpus DIR]
//! ```
//!
//! `--quick` is the CI smoke mode (200 programs, smaller budget).
//! `--faults` arms a mild plan of every fault kind on *both* kernels
//! (fault-RNG draw order is part of the bit-identity contract, so faulted
//! runs remain a valid oracle); the report counts each kind's injections
//! in the fast kernel's completed runs and lists, under `faults_silent`,
//! every armed kind that never fired. `--plant-defect` arms the test-only
//! planted kernel bug and *expects* the campaign to catch and minimize it
//! — the end-to-end self-test of the oracle, the isolation, and the
//! minimizer.
//!
//! The report records `kernel_version` and `host_cpus` beside the
//! outcomes and timings.
//!
//! Exit status: 0 for a clean campaign (and, under `--plant-defect`, a
//! caught + fully minimized defect); 1 otherwise.

use std::fmt::Write as _;

use dda_bench::campaign::{
    corpus_entry_source, json_escape, run_campaign, CampaignConfig, CampaignReport,
};
use dda_bench::KERNEL_VERSION;
use dda_core::{FaultPlan, FaultStats};
use dda_vm::{EDGE_BUCKETS, OP_CLASS_COUNT};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: fuzz [--quick] [--programs N] [--seed S] [--budget N] \
         [--mutate-every K] [--workers N] [--faults] [--plant-defect] \
         [--out PATH] [--corpus DIR]"
    );
    std::process::exit(2);
}

struct Args {
    quick: bool,
    programs: Option<u32>,
    seed: u64,
    budget: Option<u64>,
    mutate_every: u32,
    workers: usize,
    faults: bool,
    plant_defect: bool,
    out: String,
    corpus: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        quick: false,
        programs: None,
        seed: 0xD1FF,
        budget: None,
        mutate_every: 4,
        workers: 0,
        faults: false,
        plant_defect: false,
        out: String::from("BENCH_fuzz.json"),
        corpus: String::from("tests/corpus"),
    };
    let mut args = std::env::args().skip(1);
    let num = |args: &mut dyn Iterator<Item = String>, what: &str| -> u64 {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("{what} needs an integer")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => a.quick = true,
            "--programs" => a.programs = Some(num(&mut args, "--programs") as u32),
            "--seed" => a.seed = num(&mut args, "--seed"),
            "--budget" => a.budget = Some(num(&mut args, "--budget")),
            "--mutate-every" => a.mutate_every = num(&mut args, "--mutate-every") as u32,
            "--workers" => a.workers = num(&mut args, "--workers") as usize,
            "--faults" => a.faults = true,
            "--plant-defect" => a.plant_defect = true,
            "--out" => a.out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--corpus" => a.corpus = args.next().unwrap_or_else(|| usage("--corpus needs a dir")),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    a
}

/// Each fault kind as `(plan field, armed rate, injections)`.
fn fault_kinds(plan: &FaultPlan, f: &FaultStats) -> [(&'static str, f64, u64); 5] {
    [
        ("flip_l1_line", plan.flip_l1_line, f.l1_flips_injected),
        ("flip_lvc_line", plan.flip_lvc_line, f.lvc_flips_injected),
        ("drop_port_grant", plan.drop_port_grant, f.grants_dropped),
        ("delay_port_grant", plan.delay_port_grant, f.grants_delayed),
        (
            "corrupt_forward",
            plan.corrupt_forward,
            f.forwards_corrupted,
        ),
    ]
}

fn report_json(
    a: &Args,
    cc: &CampaignConfig,
    r: &CampaignReport,
    corpus_files: &[String],
) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"kernel_version\": {KERNEL_VERSION},\n  \"host_cpus\": {host_cpus},\n  \
         \"seed\": {},\n  \"programs\": {},\n  \"budget\": {},\n  \"quick\": {},\n  \
         \"deadlock_window\": {},\n  \"mutate_every\": {},\n  \"faults_armed\": {},\n  \
         \"plant_defect\": {},\n",
        cc.seed,
        r.inputs,
        cc.budget,
        a.quick,
        cc.deadlock_window,
        cc.mutate_every,
        a.faults,
        cc.plant_defect
    );
    let _ =
        write!(
        json,
        "  \"generated\": {},\n  \"mutated\": {},\n  \"completed\": {},\n  \"trapped\": {},\n  \
         \"deadlocked\": {},\n  \"invariant_violations\": {},\n  \"host_panics\": {},\n",
        r.generated, r.mutated, r.completed, r.trapped, r.deadlocked, r.invariant_violations,
        r.host_panics
    );
    let _ = writeln!(
        json,
        "  \"coverage\": {{\"op_classes_seen\": {}, \"op_classes_total\": {}, \
         \"edge_buckets_seen\": {}, \"edge_buckets_total\": {}, \"instructions_observed\": {}}},",
        r.coverage.op_classes_seen(),
        OP_CLASS_COUNT,
        r.coverage.edge_buckets_seen(),
        EDGE_BUCKETS,
        r.coverage.observed()
    );
    let kinds = fault_kinds(&cc.fault_plan.unwrap_or_else(FaultPlan::none), &r.faults);
    let injected: Vec<String> = kinds
        .iter()
        .map(|(name, _, n)| format!("\"{name}\": {n}"))
        .collect();
    let silent: Vec<String> = kinds
        .iter()
        .filter(|(_, rate, n)| *rate > 0.0 && *n == 0)
        .map(|(name, _, _)| format!("\"{name}\""))
        .collect();
    let _ = writeln!(
        json,
        "  \"faults_injected\": {{{}}},\n  \"faults_silent\": [{}],",
        injected.join(", "),
        silent.join(", ")
    );
    json.push_str("  \"divergences\": [\n");
    let rows: Vec<String> = r
        .divergences
        .iter()
        .enumerate()
        .map(|(k, d)| {
            let mut row = format!(
                "    {{\"index\": {}, \"seed\": {}, \"preset\": \"{}\", \
                 \"original_instructions\": {}, ",
                d.index, d.seed, d.preset, d.original_instructions
            );
            match &d.minimized {
                Some(m) => {
                    let _ = write!(
                        row,
                        "\"minimized_instructions\": {}, \"probes\": {}, \"compacted\": {}, ",
                        m.instructions, m.probes, m.compacted
                    );
                }
                None => row.push_str("\"minimized_instructions\": null, "),
            }
            let _ = write!(
                row,
                "\"corpus_file\": {}, \"fast\": \"{}\", \"reference\": \"{}\"}}",
                corpus_files
                    .get(k)
                    .map(|f| format!("\"{}\"", json_escape(f)))
                    .unwrap_or_else(|| "null".to_string()),
                json_escape(&d.fast),
                json_escape(&d.reference)
            );
            row
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    if !rows.is_empty() {
        json.push('\n');
    }
    let _ = write!(
        json,
        "  ],\n  \"unminimized_divergences\": {},\n  \"committed_total\": {},\n  \
         \"slowest_input_ms\": {},\n  \"elapsed_ms\": {},\n  \"clean\": {}\n}}\n",
        r.unminimized(),
        r.committed_total,
        r.slowest_input_ms,
        r.elapsed_ms,
        r.clean()
    );
    json
}

fn main() {
    let a = parse_args();
    let programs = a.programs.unwrap_or(if a.quick { 200 } else { 500 });
    let mut cc = CampaignConfig::new(a.seed, programs);
    cc.budget = a.budget.unwrap_or(if a.quick { 8_000 } else { 20_000 });
    cc.mutate_every = a.mutate_every;
    cc.workers = a.workers;
    cc.plant_defect = a.plant_defect;
    if a.faults {
        // A mild, recoverable mix of every kind; the wedge-everything
        // rates live in the dedicated faults campaign.
        cc.fault_plan = Some(FaultPlan {
            flip_l1_line: 0.02,
            flip_lvc_line: 0.01,
            drop_port_grant: 0.02,
            delay_port_grant: 0.02,
            delay_cycles: 3,
            corrupt_forward: 0.01,
            ..FaultPlan::none()
        });
    }

    // Fail on an unwritable report path now, not after the campaign.
    if let Err(e) = std::fs::write(&a.out, "") {
        usage(&format!("cannot write {}: {e}", a.out));
    }

    eprintln!(
        "[fuzz] campaign: {programs} programs, seed {:#x}, budget {} instrs, \
         window {} cycles{}{}",
        cc.seed,
        cc.budget,
        cc.deadlock_window,
        if a.faults { ", faults armed" } else { "" },
        if a.plant_defect {
            ", planted defect armed"
        } else {
            ""
        },
    );
    let r = run_campaign(&cc);
    eprintln!(
        "[fuzz] {} inputs ({} generated, {} mutated): {} completed, {} trapped, \
         {} deadlocked, {} invariant violations, {} host panics",
        r.inputs,
        r.generated,
        r.mutated,
        r.completed,
        r.trapped,
        r.deadlocked,
        r.invariant_violations,
        r.host_panics
    );
    eprintln!(
        "[fuzz] coverage: {}/{} op classes, {} edge buckets, {} instructions observed",
        r.coverage.op_classes_seen(),
        OP_CLASS_COUNT,
        r.coverage.edge_buckets_seen(),
        r.coverage.observed()
    );
    if let Some(plan) = &cc.fault_plan {
        let kinds: Vec<String> = fault_kinds(plan, &r.faults)
            .iter()
            .filter(|(_, rate, _)| *rate > 0.0)
            .map(|(name, _, n)| format!("{n} {name}"))
            .collect();
        eprintln!("[fuzz] faults injected: {}", kinds.join(", "));
    }

    // Write every minimized reproducer into the regression corpus.
    let mut corpus_files: Vec<String> = Vec::new();
    if !r.divergences.is_empty() {
        if let Err(e) = std::fs::create_dir_all(&a.corpus) {
            eprintln!("[fuzz] cannot create corpus dir {}: {e}", a.corpus);
            std::process::exit(1);
        }
    }
    for d in &r.divergences {
        match corpus_entry_source(cc.seed, d) {
            Some(src) => {
                let name = format!("fuzz-{:08x}-{:04}.s", cc.seed, d.index);
                let path = format!("{}/{}", a.corpus, name);
                if let Err(e) = std::fs::write(&path, src) {
                    eprintln!("[fuzz] cannot write corpus entry {path}: {e}");
                    std::process::exit(1);
                }
                let m = d.minimized.as_ref().map(|m| m.instructions).unwrap_or(0);
                eprintln!(
                    "[fuzz] divergence at input {} (preset {}): minimized {} -> {} instrs, {path}",
                    d.index, d.preset, d.original_instructions, m
                );
                corpus_files.push(path);
            }
            None => {
                eprintln!(
                    "[fuzz] divergence at input {} (preset {}): NOT minimized \
                     (fast: {} | reference: {})",
                    d.index, d.preset, d.fast, d.reference
                );
                corpus_files.push(String::new());
            }
        }
    }

    let json = report_json(&a, &cc, &r, &corpus_files);
    if let Err(e) = std::fs::write(&a.out, &json) {
        eprintln!("cannot write {}: {e}", a.out);
        print!("{json}");
        std::process::exit(1);
    }
    eprintln!(
        "[fuzz] {} divergences ({} unminimized) in {} ms -> {}",
        r.divergences.len(),
        r.unminimized(),
        r.elapsed_ms,
        a.out
    );

    let failed = if a.plant_defect {
        // Self-test mode: the planted bug must be caught and every
        // divergence fully minimized; panics still fail.
        r.host_panics > 0 || r.divergences.is_empty() || r.unminimized() > 0
    } else {
        !r.clean() || r.unminimized() > 0
    };
    if failed {
        eprintln!("[fuzz] campaign FAILED");
        std::process::exit(1);
    }
}
