//! Counters every traced workload records from simulated results, and the
//! per-layer metrics derived from them.

use dda_core::SimResult;
use dda_vm::TCacheStats;

use crate::metrics::MetricSet;
use crate::trace::Tracer;

/// Counts a run's committed instructions, cycles and modelled memory
/// accesses.
pub fn count_sim(tr: &Tracer, r: &SimResult) {
    tr.count("core.committed", r.committed as f64);
    tr.count("core.sim_cycles", r.cycles as f64);
    tr.count("mem.l1_accesses", r.l1.accesses() as f64);
    tr.count(
        "mem.l2_accesses",
        (r.l2.requests_from_l1 + r.l2.requests_from_lvc) as f64,
    );
    if let Some(l) = &r.lvc {
        tr.count("mem.lvc_accesses", l.accesses() as f64);
        tr.count("mem.lvc_hits", l.hits as f64);
    }
}

/// Counts a front-end's translation-cache activity.
pub fn count_tcache(tr: &Tracer, tc: &TCacheStats) {
    tr.count("vm.blocks_decoded", tc.blocks_decoded as f64);
    tr.count("vm.blocks_replayed", tc.blocks_replayed as f64);
}

/// Sets the `core` counts, the `mem` counts and the translation-cache
/// metrics from the counters of `iters` traced iterations, and returns
/// committed instructions and cycles per iteration.
pub fn set_sim(tr: &Tracer, iters: f64, m: &mut MetricSet) -> (f64, f64) {
    let committed = tr.counter("core.committed") / iters;
    let cycles = tr.counter("core.sim_cycles") / iters;
    m.set("core.committed", committed);
    m.set("core.sim_cycles", cycles);
    let lvc = tr.counter("mem.lvc_accesses");
    m.set("mem.l1_accesses", tr.counter("mem.l1_accesses") / iters);
    m.set("mem.lvc_accesses", lvc / iters);
    m.set("mem.l2_accesses", tr.counter("mem.l2_accesses") / iters);
    m.set(
        "mem.lvc_hit_rate",
        tr.counter("mem.lvc_hits") / lvc.max(1.0),
    );
    let tc = TCacheStats {
        blocks_decoded: tr.counter("vm.blocks_decoded") as u64,
        blocks_replayed: tr.counter("vm.blocks_replayed") as u64,
        ..TCacheStats::default()
    };
    m.set("vm.tcache_hit_rate", tc.hit_rate());
    m.set("vm.blocks_decoded", tc.blocks_decoded as f64 / iters);
    (committed, cycles)
}
