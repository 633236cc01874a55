//! Shared machinery: budgets and functional profiling.

use std::sync::OnceLock;

use dda_vm::{DynInst, StreamProfiler, StreamStats, Vm, VmError};
use dda_workloads::Benchmark;

/// Drains up to `budget` instructions of `vm`'s dynamic stream through
/// `observe` — the one shared warm-up/profiling loop (the experiment
/// tables, the fuzzer's coverage pass and [`profile`] all route through
/// here instead of hand-rolling a `vm.step()` drain each).
///
/// Replays pre-decoded basic blocks via [`Vm::step_block`], so profiling
/// sweeps run at translation-cache speed; the observed prefix is
/// bit-identical to stepping one instruction at a time. Returns the
/// number of instructions observed (less than `budget` when the program
/// halts first).
///
/// # Errors
///
/// Returns the [`VmError`] if the program faults within the observed
/// window. A fault past the budget is not reported — a per-step loop
/// stopping at `budget` would never have executed it.
pub fn drain_stream(
    vm: &mut Vm,
    budget: u64,
    mut observe: impl FnMut(&DynInst),
) -> Result<u64, VmError> {
    let mut seen = 0u64;
    let mut ring: Vec<DynInst> = Vec::with_capacity(72);
    while seen < budget {
        ring.clear();
        let fault = vm.step_block(&mut ring);
        for d in &ring {
            observe(d);
            seen += 1;
            if seen == budget {
                return Ok(seen);
            }
        }
        if let Some(e) = fault {
            return Err(e);
        }
        if ring.is_empty() {
            break; // machine halted
        }
    }
    Ok(seen)
}

/// Committed-instruction budget for pipeline experiments.
///
/// Set by the `DDA_BUDGET` environment variable (read once). The default
/// keeps a full figure sweep (hundreds of runs) in the minutes range; the
/// paper's shapes are stable well below this budget.
pub fn pipeline_budget() -> u64 {
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("DDA_BUDGET")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300_000)
    })
}

/// Instruction budget for functional-profiling experiments (Figures 2, 3
/// and 6), which run only the VM and are much cheaper per instruction.
///
/// Set by the `DDA_PROFILE_BUDGET` environment variable (read once).
pub fn profile_budget() -> u64 {
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("DDA_PROFILE_BUDGET")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2_000_000)
    })
}

/// A benchmark plus its measured stream statistics.
#[derive(Clone, Debug)]
pub struct ProfiledWorkload {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Statistics over the profiled prefix of the dynamic stream.
    pub stats: StreamStats,
    /// Mean static frame size in words (over the generated functions).
    pub static_frame_words: f64,
    /// Number of static functions in the stand-in.
    pub static_functions: usize,
}

/// Profiles `bench` for `budget` dynamic instructions.
///
/// # Panics
///
/// Panics if the generated program raises a functional-execution error —
/// generator output is expected to be well-formed.
pub fn profile(bench: Benchmark, budget: u64) -> ProfiledWorkload {
    let program = bench.program(u32::MAX / 2);
    let mut vm = Vm::new(program.clone());
    let mut prof = StreamProfiler::new(&program);
    drain_stream(&mut vm, budget, |d| prof.observe(d)).expect("benchmark executes cleanly");
    ProfiledWorkload {
        bench,
        stats: prof.into_stats(),
        static_frame_words: program.mean_static_frame_words(),
        static_functions: program.functions().len(),
    }
}

/// Profiles `bench` with the default profiling budget.
pub fn workload_stats(bench: Benchmark) -> ProfiledWorkload {
    profile(bench, profile_budget())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_produces_traffic() {
        let w = profile(Benchmark::Compress, 50_000);
        assert!(w.stats.instructions >= 50_000);
        assert!(w.stats.loads > 0 && w.stats.stores > 0);
        assert!(w.static_functions >= 3);
    }
}
