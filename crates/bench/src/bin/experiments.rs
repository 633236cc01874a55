//! `experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! experiments <name>...     run the named experiments
//! experiments all           run everything (EXPERIMENTS.md order)
//! experiments --list        list available experiments
//! ```
//!
//! Budgets are controlled by `DDA_BUDGET` (pipeline runs, default 300000
//! committed instructions) and `DDA_PROFILE_BUDGET` (profiling runs,
//! default 2000000).
//!
//! Every pipeline cell goes through one memoized [`DseService`] over a
//! persistent result store in the workspace's `target/experiments-store`,
//! so a rerun at the same budget is served from the store (records are
//! keyed by budget, configuration, program and `KERNEL_VERSION`). After
//! each experiment its hits, misses and instructions simulated go to
//! stderr.

use std::path::Path;
use std::time::Instant;

use dda_bench::{DseService, ResultStore};
use dda_stats::Table;

type Exp = (&'static str, &'static str, fn(&DseService) -> Vec<Table>);

fn registry() -> Vec<Exp> {
    vec![
        ("table1", "base machine model", |_| {
            vec![dda_bench::table1_machine_model()]
        }),
        ("table2", "benchmark roster", |_| {
            vec![dda_bench::table2_benchmarks()]
        }),
        ("fig2", "instruction mix / local fractions", |_| {
            vec![dda_bench::fig2_instruction_mix()]
        }),
        ("fig3", "frame-size distributions", |_| {
            vec![dda_bench::fig3_frame_sizes()]
        }),
        ("fig5", "(N+0) bandwidth requirements", |s| {
            vec![dda_bench::fig5_bandwidth(s)]
        }),
        ("fig6", "LVC miss rate vs size", |_| {
            vec![dda_bench::fig6_lvc_size()]
        }),
        ("fig7", "(N+M) performance, no optimizations", |s| {
            vec![dda_bench::fig7_lvc_ports(s)]
        }),
        ("table3", "fast data forwarding", |s| {
            vec![dda_bench::table3_fast_forwarding(s)]
        }),
        ("fig8", "access combining", |s| {
            vec![dda_bench::fig8_combining(s)]
        }),
        ("fig9", "(N+M) performance, optimized", |s| {
            vec![dda_bench::fig9_optimized(s)]
        }),
        ("fig10", "cache-latency sensitivity", |s| {
            vec![dda_bench::fig10_latency_sensitivity(s)]
        }),
        (
            "fig11",
            "per-program (N+M) surfaces",
            dda_bench::fig11_per_program,
        ),
        ("l2traffic", "L2 traffic with/without LVC", |s| {
            vec![dda_bench::l2_traffic(s)]
        }),
        ("lvclat", "(3+3) and LVC latency", |s| {
            vec![dda_bench::lvc_latency(s)]
        }),
        ("smalll1", "§4.4: small fast L1 alternative", |s| {
            vec![dda_bench::small_l1(s)]
        }),
        ("linesize", "§4.2.1: LVC line-size sensitivity", |_| {
            vec![dda_bench::lvc_line_size()]
        }),
        ("lvaqsize", "ablation: LVAQ size", |s| {
            vec![dda_bench::ablation_lvaq_size(s)]
        }),
        ("steering", "ablation: classification policy", |s| {
            vec![dda_bench::ablation_steering(s)]
        }),
        ("width", "ablation: issue width", |s| {
            vec![dda_bench::ablation_issue_width(s)]
        }),
        ("window", "ablation: ROB size", |s| {
            vec![dda_bench::ablation_window(s)]
        }),
        ("mshrs", "ablation: MSHR count", |s| {
            vec![dda_bench::ablation_mshrs(s)]
        }),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reg = registry();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: experiments [--list] <name>... | all");
        eprintln!(
            "experiments: {}",
            reg.iter().map(|e| e.0).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for (name, desc, _) in &reg {
            println!("{name:10} {desc}");
        }
        return;
    }
    let selected: Vec<&Exp> = if args.iter().any(|a| a == "all") {
        reg.iter().collect()
    } else {
        args.iter()
            .map(|a| {
                reg.iter().find(|e| e.0 == a).unwrap_or_else(|| {
                    eprintln!("unknown experiment `{a}` (try --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let store = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments-store");
    let results = ResultStore::open(&store).unwrap_or_else(|e| {
        eprintln!("cannot open result store {}: {e}", store.display());
        std::process::exit(1);
    });
    let svc = DseService::new(results, None);
    for (name, desc, f) in selected {
        let start = Instant::now();
        eprintln!("== {name}: {desc} ==");
        for table in f(&svc) {
            println!("{table}");
        }
        eprintln!(
            "   [{name} done in {:.1}s]\n",
            start.elapsed().as_secs_f64()
        );
    }
}
