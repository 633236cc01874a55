//! One function per table/figure of the paper's evaluation section.
//!
//! Every pipeline cell runs through the memoized [`DseService`]: a figure
//! builds its whole benchmark × configuration matrix and submits it as
//! one request, so cells it shares with another figure (or with an
//! earlier run against the same store) are simulated once.

use dda_core::{MachineConfig, SimResult, SteerPolicy};
use dda_mem::{CacheConfig, CacheCore};
use dda_stats::Table;
use dda_vm::Vm;
use dda_workloads::Benchmark;

use crate::dse::{CellOutcome, CellStatus, DseCell, DseService, RunPlan, DEFAULT_SEED};
use crate::harness::{pipeline_budget, profile_budget, workload_stats};

/// Runs every `benches` × `cfgs` cell through `svc` as one request at the
/// pipeline budget and returns each benchmark with its results in `cfgs`
/// order. The request's hits, misses and simulated instructions go to
/// stderr.
///
/// # Panics
///
/// Panics with the failing cell's label and error text — generated
/// benchmarks are expected to execute cleanly.
fn run_matrix(
    svc: &DseService,
    benches: &[Benchmark],
    cfgs: &[MachineConfig],
) -> Vec<(Benchmark, Vec<SimResult>)> {
    let cells: Vec<DseCell> = benches
        .iter()
        .flat_map(|&bench| {
            cfgs.iter().enumerate().map(move |(ci, cfg)| DseCell {
                bench,
                cfg: cfg.clone(),
                label: format!("{}/cfg{ci}", bench.name()),
            })
        })
        .collect();
    let plan = RunPlan::Full {
        budget: pipeline_budget(),
    };
    let mut results: Vec<Result<SimResult, String>> = vec![Err("no report".into()); cells.len()];
    let sum = svc.run_streaming(&cells, DEFAULT_SEED, &plan, &mut |rep| {
        results[rep.index] = match (rep.outcome, rep.status) {
            (Some(CellOutcome::Full(r)), _) => Ok(r),
            (_, CellStatus::Error(e)) => Err(e),
            (_, status) => Err(format!("no full-run result ({})", status.as_str())),
        };
    });
    eprintln!(
        "   [dse: {} cells, {} hits, {} misses, {} insts simulated]",
        sum.cells, sum.hits, sum.misses, sum.sim_insts
    );
    let mut flat = cells
        .iter()
        .zip(results)
        .map(|(cell, r)| r.unwrap_or_else(|e| panic!("{}: {e}", cell.label)));
    benches
        .iter()
        .map(|&b| (b, flat.by_ref().take(cfgs.len()).collect()))
        .collect()
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn rel(r: &SimResult, base: &SimResult) -> f64 {
    r.speedup_over(base)
}

fn fmt_rel(x: f64) -> String {
    format!("{x:.3}")
}

/// Table 1: the base machine model (printed from the live configuration so
/// it cannot drift from the implementation).
pub fn table1_machine_model() -> Table {
    let c = MachineConfig::iscapaper_base();
    let mut t = Table::new(["parameter", "value"]);
    t.title("Table 1: base machine model");
    t.row(["Issue width", &c.issue_width.to_string()]);
    t.row(["ROB/LSQ size", &format!("{}/{}", c.rob_size, c.lsq_size)]);
    t.row([
        "Func. units".to_string(),
        format!(
            "{} int + {} FP ALUs, {} int + {} FP MULT/DIV",
            c.fu_counts.int_alu,
            c.fu_counts.fp_alu,
            c.fu_counts.int_mul_div,
            c.fu_counts.fp_mul_div
        ),
    ]);
    t.row([
        "L1 D-cache".to_string(),
        format!(
            "{}-way set-assoc. {} KB. {}-cycle hit time.",
            c.hierarchy.l1.assoc,
            c.hierarchy.l1.size_bytes >> 10,
            c.hierarchy.l1.hit_latency
        ),
    ]);
    t.row([
        "L2 D-cache".to_string(),
        format!(
            "{}-way. {} KB. {}-cycle access time.",
            c.hierarchy.l2.assoc,
            c.hierarchy.l2.size_bytes >> 10,
            c.hierarchy.l2.latency
        ),
    ]);
    t.row([
        "Memory".to_string(),
        format!(
            "{}-cycle access time. Fully interleaved.",
            c.hierarchy.l2.memory_latency
        ),
    ]);
    t.row(["I-cache", "Perfect I-cache with 1 cycle latency."]);
    t.row(["Br. prediction", "Perfect."]);
    t.row(["Inst. latencies", "Same as those of MIPS R10000."]);
    t.row([
        "LVC (when decoupled)".to_string(),
        "direct-mapped 2 KB, 1-cycle hit, 64-entry LVAQ".to_string(),
    ]);
    t
}

/// Table 2: the benchmark roster (paper inputs and counts, plus the
/// synthetic stand-in budgets actually simulated here).
pub fn table2_benchmarks() -> Table {
    let mut t = Table::new([
        "benchmark",
        "paper input",
        "paper Minst",
        "simulated inst (budget)",
    ]);
    t.title("Table 2: benchmark programs (synthetic stand-ins keep the SPEC names)");
    t.numeric();
    for b in Benchmark::ALL {
        t.row([
            b.name().to_string(),
            b.paper_input().to_string(),
            format!("{}M", b.paper_minsts()),
            pipeline_budget().to_string(),
        ]);
    }
    t
}

/// Figure 2: frequency of memory-access instructions and the local
/// fraction of each (paper: 30 % of loads and 48 % of stores are local on
/// average; 147.vortex over 60 %/80 %).
pub fn fig2_instruction_mix() -> Table {
    let mut t = Table::new([
        "benchmark",
        "loads/inst",
        "stores/inst",
        "local/loads",
        "local/stores",
        "local/refs",
    ]);
    t.title("Figure 2: instruction mix and local-access fractions");
    t.numeric();
    let mut ll = Vec::new();
    let mut ls = Vec::new();
    let mut lr = Vec::new();
    for b in Benchmark::ALL {
        let w = workload_stats(b);
        let s = &w.stats;
        if !b.is_float() {
            ll.push(s.local_load_fraction());
            ls.push(s.local_store_fraction());
        }
        lr.push(s.local_mem_fraction());
        t.row([
            b.name().to_string(),
            format!("{:.1}%", 100.0 * s.load_fraction()),
            format!("{:.1}%", 100.0 * s.store_fraction()),
            format!("{:.1}%", 100.0 * s.local_load_fraction()),
            format!("{:.1}%", 100.0 * s.local_store_fraction()),
            format!("{:.1}%", 100.0 * s.local_mem_fraction()),
        ]);
    }
    t.row([
        "int average (paper: 30%/48%)".to_string(),
        "".to_string(),
        "".to_string(),
        format!("{:.1}%", 100.0 * ll.iter().sum::<f64>() / ll.len() as f64),
        format!("{:.1}%", 100.0 * ls.iter().sum::<f64>() / ls.len() as f64),
        format!("{:.1}%", 100.0 * lr.iter().sum::<f64>() / lr.len() as f64),
    ]);
    t
}

/// Figure 3: dynamic frame-size distribution (paper: average ≈ 3 words;
/// static frames ≈ 7 words over 4746 functions).
pub fn fig3_frame_sizes() -> Table {
    let mut t = Table::new([
        "benchmark",
        "dyn mean (words)",
        "p50",
        "p90",
        "p99",
        "static mean",
        "funcs",
        "max depth",
    ]);
    t.title("Figure 3: frame-size distributions (integer programs)");
    t.numeric();
    let mut dyn_means = Vec::new();
    let mut static_means = Vec::new();
    for b in Benchmark::INTEGER {
        let w = workload_stats(b);
        let h = &w.stats.frame_words;
        dyn_means.push(h.mean().unwrap_or(0.0));
        static_means.push(w.static_frame_words);
        t.row([
            b.name().to_string(),
            format!("{:.1}", h.mean().unwrap_or(0.0)),
            h.quantile(0.5).unwrap_or(0).to_string(),
            h.quantile(0.9).unwrap_or(0).to_string(),
            h.quantile(0.99).unwrap_or(0).to_string(),
            format!("{:.1}", w.static_frame_words),
            w.static_functions.to_string(),
            w.stats.call_depth.max().unwrap_or(0).to_string(),
        ]);
    }
    t.row([
        "average (paper: ~3 dyn / ~7 static)".to_string(),
        format!(
            "{:.1}",
            dyn_means.iter().sum::<f64>() / dyn_means.len() as f64
        ),
        String::new(),
        String::new(),
        String::new(),
        format!(
            "{:.1}",
            static_means.iter().sum::<f64>() / static_means.len() as f64
        ),
        String::new(),
        String::new(),
    ]);
    t
}

/// Figure 5: performance of (N+0), N = 1..5, relative to the (16+0)
/// maximum-bandwidth machine (paper: two ports reach ~90 % of the
/// maximum; three or four are enough).
pub fn fig5_bandwidth(svc: &DseService) -> Table {
    let ns = [1u32, 2, 3, 4, 5];
    let mut cfgs: Vec<MachineConfig> = ns.iter().map(|&n| MachineConfig::n_plus_m(n, 0)).collect();
    cfgs.push(MachineConfig::n_plus_m(16, 0));
    let mut t = Table::new(["benchmark", "(1+0)", "(2+0)", "(3+0)", "(4+0)", "(5+0)"]);
    t.title("Figure 5: (N+0) performance relative to (16+0)");
    t.numeric();
    let mut per_n: Vec<Vec<f64>> = vec![Vec::new(); ns.len()];
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let max = rs.last().expect("(16+0) run");
        let rels: Vec<f64> = rs[..ns.len()].iter().map(|r| rel(r, max)).collect();
        for (i, v) in rels.iter().enumerate() {
            per_n[i].push(*v);
        }
        let mut row = vec![b.name().to_string()];
        row.extend(rels.iter().map(|v| fmt_rel(*v)));
        t.row(row);
    }
    let mut row = vec!["geometric mean".to_string()];
    row.extend(per_n.iter().map(|v| fmt_rel(geomean(v))));
    t.row(row);
    t
}

/// Figure 6: LVC miss rate as its size sweeps 0.5–4 KB (paper: a 2 KB LVC
/// exceeds 99 % hit rate for everything except 126.gcc).
///
/// Content-model experiment: the local-access stream is filtered from the
/// dynamic stream and replayed against the LVC tag array.
pub fn fig6_lvc_size() -> Table {
    let sizes = [512u32, 1024, 2048, 4096];
    let mut t = Table::new(["benchmark", "0.5 KB", "1 KB", "2 KB", "4 KB", "local refs"]);
    t.title("Figure 6: LVC miss rate vs capacity (direct-mapped, 32 B lines)");
    t.numeric();
    for b in Benchmark::ALL {
        let program = b.program(u32::MAX / 2);
        let mut vm = Vm::new(program);
        let mut caches: Vec<CacheCore> = sizes
            .iter()
            .map(|&s| CacheCore::new(&CacheConfig::lvc_2k().with_size(s)))
            .collect();
        let mut locals = 0u64;
        crate::drain_stream(&mut vm, profile_budget(), |d| {
            if let Some(m) = d.mem {
                if m.is_local() {
                    locals += 1;
                    for c in &mut caches {
                        if !c.access(m.addr, m.is_store) {
                            c.fill(m.addr, m.is_store);
                        }
                    }
                }
            }
        })
        .expect("benchmark executes cleanly");
        let mut row = vec![b.name().to_string()];
        row.extend(
            caches
                .iter()
                .map(|c| format!("{:.2}%", 100.0 * c.stats().miss_rate())),
        );
        row.push(locals.to_string());
        t.row(row);
    }
    t
}

fn nm_grid(optimized: bool) -> (Vec<(u32, u32)>, Vec<MachineConfig>) {
    let mut pairs = Vec::new();
    for n in [2u32, 3, 4] {
        for m in [0u32, 1, 2, 3, 16] {
            pairs.push((n, m));
        }
    }
    let cfgs = pairs
        .iter()
        .map(|&(n, m)| {
            let c = MachineConfig::n_plus_m(n, m);
            if optimized && m > 0 {
                c.with_optimizations()
            } else {
                c
            }
        })
        .collect();
    (pairs, cfgs)
}

fn nm_table(svc: &DseService, title: &str, optimized: bool) -> Table {
    let (pairs, cfgs) = nm_grid(optimized);
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(pairs.iter().map(|(n, m)| format!("({n}+{m})")));
    let mut t = Table::new(headers);
    t.title(title);
    t.numeric();
    let base_idx = pairs
        .iter()
        .position(|&p| p == (2, 0))
        .expect("(2+0) in grid");
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let base = &rs[base_idx];
        let mut row = vec![b.name().to_string()];
        for (i, r) in rs.iter().enumerate() {
            let v = rel(r, base);
            acc[i].push(v);
            row.push(fmt_rel(v));
        }
        t.row(row);
    }
    let mut row = vec!["geometric mean".to_string()];
    row.extend(acc.iter().map(|v| fmt_rel(geomean(v))));
    t.row(row);
    t
}

/// Figure 7: (N+M) performance without the LVAQ optimizations, relative
/// to (2+0) (paper: (N+1) degrades, (N+2) restores and gains 1–10 %,
/// three LVC ports are effectively unlimited).
pub fn fig7_lvc_ports(svc: &DseService) -> Table {
    nm_table(
        svc,
        "Figure 7: (N+M) relative to (2+0), no optimizations",
        false,
    )
}

/// Figure 9: (N+M) performance with fast data forwarding and 2-way access
/// combining (paper: the (N+1) configurations recover noticeably).
pub fn fig9_optimized(svc: &DseService) -> Table {
    nm_table(
        svc,
        "Figure 9: (N+M) relative to (2+0), with fast forwarding + 2-way combining",
        true,
    )
}

/// Table 3: speedup from fast data forwarding under (3+2) (paper: up to
/// 3.9 %, zero for 124.m88ksim).
pub fn table3_fast_forwarding(svc: &DseService) -> Table {
    let base = MachineConfig::n_plus_m(3, 2);
    let ff = MachineConfig::n_plus_m(3, 2).with_fast_forwarding(true);
    let mut t = Table::new(["benchmark", "speedup", "fast fwds", "% of local loads"]);
    t.title("Table 3: fast data forwarding under (3+2)");
    t.numeric();
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &[base, ff]) {
        let s = rel(&rs[1], &rs[0]);
        let loads = rs[1].lvaq.loads.max(1);
        t.row([
            b.name().to_string(),
            format!("{:+.1}%", 100.0 * (s - 1.0)),
            rs[1].lvaq.fast_forwards.to_string(),
            format!(
                "{:.1}%",
                100.0 * rs[1].lvaq.fast_forwards as f64 / loads as f64
            ),
        ]);
    }
    t
}

/// Figure 8: access combining under (3+1) and (3+2) (paper: 2-way
/// combining gains ≈ 8 % and ≈ 2 % respectively; 130.li and 147.vortex
/// gain 16 %/26 % under (3+1)).
pub fn fig8_combining(svc: &DseService) -> Table {
    let degrees = [1u32, 2, 4];
    let mut headers = vec!["benchmark".to_string()];
    for m in [1u32, 2] {
        for d in degrees {
            headers.push(if d == 1 {
                format!("(3+{m}) none")
            } else {
                format!("(3+{m}) {d}-way")
            });
        }
    }
    let mut t = Table::new(headers);
    t.title("Figure 8: access combining (relative to the same config without combining)");
    t.numeric();
    let cfgs: Vec<MachineConfig> = [1u32, 2]
        .iter()
        .flat_map(|&m| {
            degrees
                .iter()
                .map(move |&d| MachineConfig::n_plus_m(3, m).with_combining(d))
        })
        .collect();
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); cfgs.len()];
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let mut row = vec![b.name().to_string()];
        for (i, r) in rs.iter().enumerate() {
            let base = &rs[(i / degrees.len()) * degrees.len()];
            let v = rel(r, base);
            acc[i].push(v);
            row.push(fmt_rel(v));
        }
        t.row(row);
    }
    let mut row = vec!["geometric mean".to_string()];
    row.extend(acc.iter().map(|v| fmt_rel(geomean(v))));
    t.row(row);
    t
}

/// Figure 10: sensitivity to L1 hit latency (paper: a 3-cycle (4+0) loses
/// up to 13.4 % and can fall below (2+0); (2+2) beats the 3-cycle (4+0)
/// on the integer programs but not the FP ones).
pub fn fig10_latency_sensitivity(svc: &DseService) -> Table {
    let cfgs = [
        MachineConfig::n_plus_m(2, 0),
        MachineConfig::n_plus_m(2, 2).with_optimizations(),
        MachineConfig::n_plus_m(4, 0),
        MachineConfig::n_plus_m(4, 0).with_l1_hit_latency(3),
    ];
    let mut t = Table::new([
        "benchmark",
        "(2+0) 2cy",
        "(2+2) 2cy",
        "(4+0) 2cy",
        "(4+0) 3cy",
    ]);
    t.title("Figure 10: relative to (2+0) with 2-cycle L1 hits");
    t.numeric();
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); cfgs.len()];
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let mut row = vec![b.name().to_string()];
        for (i, r) in rs.iter().enumerate() {
            let v = rel(r, &rs[0]);
            acc[i].push(v);
            row.push(fmt_rel(v));
        }
        t.row(row);
    }
    let mut row = vec!["geometric mean".to_string()];
    row.extend(acc.iter().map(|v| fmt_rel(geomean(v))));
    t.row(row);
    t
}

/// Figure 11: per-program (N+M) surfaces for the four programs the paper
/// plots (126.gcc, 130.li, 147.vortex, 102.swim).
pub fn fig11_per_program(svc: &DseService) -> Vec<Table> {
    let benches = [
        Benchmark::Gcc,
        Benchmark::Li,
        Benchmark::Vortex,
        Benchmark::Swim,
    ];
    let ms = [0u32, 1, 2, 3];
    let ns = [2u32, 3, 4];
    let cfgs: Vec<MachineConfig> = ns
        .iter()
        .flat_map(|&n| {
            ms.iter().map(move |&m| {
                let c = MachineConfig::n_plus_m(n, m);
                if m > 0 {
                    c.with_optimizations()
                } else {
                    c
                }
            })
        })
        .collect();
    run_matrix(svc, &benches, &cfgs)
        .into_iter()
        .map(|(b, rs)| {
            let mut headers = vec!["config".to_string()];
            headers.extend(ms.iter().map(|m| format!("M={m}")));
            let mut t = Table::new(headers);
            t.title(format!(
                "Figure 11: {} — (N+M) relative to (2+0), optimized",
                b.name()
            ));
            t.numeric();
            let base = &rs[0]; // (2+0)
            for (ni, &n) in ns.iter().enumerate() {
                let mut row = vec![format!("N={n}")];
                for mi in 0..ms.len() {
                    row.push(fmt_rel(rel(&rs[ni * ms.len() + mi], base)));
                }
                t.row(row);
            }
            t
        })
        .collect()
}

/// §4.2.1: change in L2 traffic when a 2 KB LVC is added (paper: 130.li
/// −24 %, 147.vortex −7 %, 126.gcc a slight increase).
pub fn l2_traffic(svc: &DseService) -> Table {
    let cfgs = [MachineConfig::n_plus_m(2, 0), MachineConfig::n_plus_m(2, 2)];
    let mut t = Table::new([
        "benchmark",
        "L2 reqs (2+0)",
        "L2 reqs (2+2)",
        "change",
        "bus txns change",
    ]);
    t.title("§4.2.1: L2 traffic with and without the 2 KB LVC");
    t.numeric();
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let (a, c) = (&rs[0].l2, &rs[1].l2);
        let delta = |x: u64, y: u64| {
            if x == 0 {
                "—".to_string()
            } else {
                format!("{:+.1}%", 100.0 * (y as f64 - x as f64) / x as f64)
            }
        };
        t.row([
            b.name().to_string(),
            a.requests().to_string(),
            c.requests().to_string(),
            delta(a.requests(), c.requests()),
            delta(a.bus_transactions(), c.bus_transactions()),
        ]);
    }
    t
}

/// §4.3: LVC latency sensitivity and the (3+3) configuration (paper: a
/// 2-cycle LVC is almost free; (3+3) ≈ +5 % over (4+0) for the integer
/// programs).
pub fn lvc_latency(svc: &DseService) -> Table {
    let cfgs = [
        MachineConfig::n_plus_m(4, 0),
        MachineConfig::n_plus_m(3, 3).with_optimizations(),
        MachineConfig::n_plus_m(3, 3)
            .with_optimizations()
            .with_lvc_hit_latency(2),
    ];
    let mut t = Table::new([
        "benchmark",
        "(4+0)",
        "(3+3) 1cy LVC",
        "(3+3) 2cy LVC",
        "in-queue fwd %",
    ]);
    t.title("§4.3: (3+3) vs (4+0) and LVC hit-latency sensitivity (relative to (4+0))");
    t.numeric();
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); cfgs.len()];
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let mut row = vec![b.name().to_string()];
        for (i, r) in rs.iter().enumerate() {
            let v = rel(r, &rs[0]);
            acc[i].push(v);
            row.push(fmt_rel(v));
        }
        row.push(format!("{:.0}%", 100.0 * rs[1].lvaq.forward_fraction()));
        t.row(row);
    }
    let mut row = vec!["geometric mean".to_string()];
    row.extend(acc.iter().map(|v| fmt_rel(geomean(v))));
    row.push(String::new());
    t.row(row);
    t
}

/// Ablation: LVAQ capacity sweep (the paper fixes 64 entries).
pub fn ablation_lvaq_size(svc: &DseService) -> Table {
    let sizes = [8usize, 16, 32, 64];
    let cfgs: Vec<MachineConfig> = sizes
        .iter()
        .map(|&s| {
            let mut c = MachineConfig::n_plus_m(3, 2).with_optimizations();
            c.decoupling.lvaq_size = s;
            c
        })
        .collect();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(sizes.iter().map(|s| format!("LVAQ {s}")));
    let mut t = Table::new(headers);
    t.title("Ablation: LVAQ size under (3+2) optimized, relative to 64 entries");
    t.numeric();
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let base = rs.last().expect("64-entry run");
        let mut row = vec![b.name().to_string()];
        row.extend(rs.iter().map(|r| fmt_rel(rel(r, base))));
        t.row(row);
    }
    t
}

/// Ablation: steering policy (§2.1's speculation machinery) — compiler
/// hints + 1-bit predictor vs `$sp`-base-only vs oracle.
pub fn ablation_steering(svc: &DseService) -> Table {
    let mk = |p: SteerPolicy| {
        let mut c = MachineConfig::n_plus_m(3, 2).with_optimizations();
        c.decoupling.steer = p;
        c
    };
    let cfgs = [
        mk(SteerPolicy::Oracle),
        mk(SteerPolicy::Hint),
        mk(SteerPolicy::SpBase),
        mk(SteerPolicy::Replicate),
    ];
    let mut t = Table::new([
        "benchmark",
        "hint vs oracle",
        "sp-base vs oracle",
        "replicate vs oracle",
        "mispredicts (hint)",
        "mispredicts (sp-base)",
    ]);
    t.title("Ablation: stream-classification policy under (3+2) optimized");
    t.numeric();
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        t.row([
            b.name().to_string(),
            fmt_rel(rel(&rs[1], &rs[0])),
            fmt_rel(rel(&rs[2], &rs[0])),
            fmt_rel(rel(&rs[3], &rs[0])),
            rs[1].misclassifications.to_string(),
            rs[2].misclassifications.to_string(),
        ]);
    }
    t
}

/// §4.4 discussion: is a small, fast L1 (with no LVC) a better answer?
/// The paper's "preliminary simulation results (not shown)" say the
/// higher miss rates negate the latency gain unless the L2 is faster
/// than four cycles. This experiment regenerates that claim: a 2 KB,
/// direct-mapped, 1-cycle L1 against the paper's 32 KB L1 and against
/// the (2+2) decoupled design, sweeping the L2 latency.
pub fn small_l1(svc: &DseService) -> Table {
    let l2_lats = [2u32, 4, 8, 12];
    let mut cfgs: Vec<MachineConfig> = vec![
        MachineConfig::n_plus_m(2, 0),
        MachineConfig::n_plus_m(2, 2).with_optimizations(),
    ];
    for &lat in &l2_lats {
        let mut c = MachineConfig::n_plus_m(2, 0).with_l1_hit_latency(1);
        c.hierarchy.l1.size_bytes = 2 << 10;
        c.hierarchy.l1.assoc = 1;
        c.hierarchy.l2.latency = lat;
        cfgs.push(c);
    }
    let mut headers = vec![
        "benchmark".to_string(),
        "(2+0) 32K".into(),
        "(2+2) opt".into(),
    ];
    headers.extend(l2_lats.iter().map(|l| format!("2K L1, L2={l}cy")));
    let mut t = Table::new(headers);
    t.title("§4.4: small fast L1 vs decoupling (relative to the 32 KB (2+0))");
    t.numeric();
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); cfgs.len()];
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let mut row = vec![b.name().to_string()];
        for (i, r) in rs.iter().enumerate() {
            let v = rel(r, &rs[0]);
            acc[i].push(v);
            row.push(fmt_rel(v));
        }
        t.row(row);
    }
    let mut row = vec!["geometric mean".to_string()];
    row.extend(acc.iter().map(|v| fmt_rel(geomean(v))));
    t.row(row);
    t
}

/// §4.2.1 aside: "The line size of the LVC, being it 32 or 64 Bytes, has
/// a negligible effect on the hit rate when the LVC size is larger than
/// or equal to 2 KB."
pub fn lvc_line_size() -> Table {
    let sizes = [1024u32, 2048, 4096];
    let lines = [32u32, 64];
    let mut headers = vec!["benchmark".to_string()];
    for &s in &sizes {
        for &l in &lines {
            headers.push(format!("{}KB/{l}B", s >> 10));
        }
    }
    let mut t = Table::new(headers);
    t.title("§4.2.1: LVC miss rate vs line size (direct-mapped)");
    t.numeric();
    for b in Benchmark::INTEGER {
        let program = b.program(u32::MAX / 2);
        let mut vm = Vm::new(program);
        let mut caches: Vec<CacheCore> = sizes
            .iter()
            .flat_map(|&s| {
                lines.iter().map(move |&l| {
                    let mut c = CacheConfig::lvc_2k().with_size(s);
                    c.line_bytes = l;
                    c
                })
            })
            .map(|c| CacheCore::new(&c))
            .collect();
        crate::drain_stream(&mut vm, profile_budget(), |d| {
            if let Some(m) = d.mem {
                if m.is_local() {
                    for c in &mut caches {
                        if !c.access(m.addr, m.is_store) {
                            c.fill(m.addr, m.is_store);
                        }
                    }
                }
            }
        })
        .expect("benchmark executes cleanly");
        let mut row = vec![b.name().to_string()];
        row.extend(
            caches
                .iter()
                .map(|c| format!("{:.2}%", 100.0 * c.stats().miss_rate())),
        );
        t.row(row);
    }
    t
}

/// Ablation: issue width. The paper's premise is a *wide-issue* machine
/// ("the ability to provide the execution core with adequate memory
/// bandwidth becomes extremely critical for the next generations of
/// wide-issue processors") — at narrow widths the port pressure, and so
/// the decoupling benefit, should shrink.
pub fn ablation_issue_width(svc: &DseService) -> Table {
    let widths = [4u32, 8, 16];
    let mut headers = vec!["benchmark".to_string()];
    for w in widths {
        headers.push(format!("(2+0) w{w}"));
        headers.push(format!("(2+2) gain w{w}"));
    }
    let mut t = Table::new(headers);
    t.title("Ablation: decoupling benefit vs issue width ((2+2) opt over (2+0))");
    t.numeric();
    // Per width: (2+0), then (2+2) optimized.
    let cfgs: Vec<MachineConfig> = widths
        .iter()
        .flat_map(|&w| {
            [0u32, 2].map(|m| {
                let mut c = MachineConfig::n_plus_m(2, m);
                if m > 0 {
                    c = c.with_optimizations();
                }
                c.dispatch_width = w;
                c.issue_width = w;
                c.commit_width = w;
                c
            })
        })
        .collect();
    let mut gains: Vec<Vec<f64>> = vec![Vec::new(); widths.len()];
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let mut row = vec![b.name().to_string()];
        for (i, pair) in rs.chunks(2).enumerate() {
            let gain = rel(&pair[1], &pair[0]);
            gains[i].push(gain);
            row.push(format!("{:.2}", pair[0].ipc()));
            row.push(format!("{:+.1}%", 100.0 * (gain - 1.0)));
        }
        t.row(row);
    }
    let mut row = vec!["geometric mean".to_string()];
    for g in &gains {
        row.push(String::new());
        row.push(format!("{:+.1}%", 100.0 * (geomean(g) - 1.0)));
    }
    t.row(row);
    t
}

/// Ablation: instruction-window (ROB) size under the base machine — the
/// "large number of reservation stations" whose complexity motivates the
/// whole decoupling approach (§2.1).
pub fn ablation_window(svc: &DseService) -> Table {
    let sizes = [32usize, 64, 128, 256];
    let cfgs: Vec<MachineConfig> = sizes
        .iter()
        .map(|&s| {
            let mut c = MachineConfig::n_plus_m(3, 2).with_optimizations();
            c.rob_size = s;
            c
        })
        .collect();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(sizes.iter().map(|s| format!("ROB {s}")));
    let mut t = Table::new(headers);
    t.title("Ablation: ROB size under (3+2) optimized, relative to 128 entries");
    t.numeric();
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let base = &rs[2]; // 128
        let mut row = vec![b.name().to_string()];
        row.extend(rs.iter().map(|r| fmt_rel(rel(r, base))));
        t.row(row);
    }
    t
}

/// Ablation: MSHR count — how lockup-free the caches need to be.
pub fn ablation_mshrs(svc: &DseService) -> Table {
    let counts = [1u32, 2, 4, 8];
    let cfgs: Vec<MachineConfig> = counts
        .iter()
        .map(|&n| {
            let mut c = MachineConfig::n_plus_m(2, 2).with_optimizations();
            c.hierarchy.l1.mshrs = n;
            if let Some(lvc) = &mut c.hierarchy.lvc {
                lvc.mshrs = n.min(4);
            }
            c
        })
        .collect();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(counts.iter().map(|n| format!("{n} MSHRs")));
    let mut t = Table::new(headers);
    t.title("Ablation: L1 MSHR count under (2+2) optimized, relative to 8 MSHRs");
    t.numeric();
    for (b, rs) in run_matrix(svc, &Benchmark::ALL, &cfgs) {
        let base = rs.last().expect("8-MSHR run");
        let mut row = vec![b.name().to_string()];
        row.extend(rs.iter().map(|r| fmt_rel(rel(r, base))));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table1_and_table2_render() {
        let t1 = table1_machine_model().to_string();
        assert!(t1.contains("MIPS R10000"));
        let t2 = table2_benchmarks().to_string();
        assert!(t2.contains("147.vortex"));
        assert!(t2.contains("ctak"));
    }

    #[test]
    fn nm_grid_contains_baseline() {
        let (pairs, cfgs) = nm_grid(true);
        assert!(pairs.contains(&(2, 0)));
        assert_eq!(pairs.len(), cfgs.len());
        // Optimized grid leaves (N+0) without decoupling.
        let i = pairs.iter().position(|&p| p == (3, 0)).unwrap();
        assert!(!cfgs[i].decoupled());
        let j = pairs.iter().position(|&p| p == (3, 2)).unwrap();
        assert!(cfgs[j].decoupling.fast_forwarding);
    }
}
