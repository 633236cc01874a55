//! The benchmark's metric catalogue and the `BENCHMARK.json` contract.
//!
//! The tables here are the single source of the metric names the binary
//! emits; `BENCHMARK.json` must declare exactly the same names and units
//! (checked at start-up and by the round-trip test), so the manifest and
//! the program can never drift apart.

use std::collections::{BTreeMap, HashSet};

use crate::json::{self, Value};

/// Workload names, in manifest order.
pub const WORKLOADS: [&str; 4] = [
    "detailed-sweep",
    "warm-resweep",
    "sampled-long",
    "fuzz-differential",
];

/// End-to-end metrics (`--trace 0`): name, unit, whether higher is better.
pub const END_TO_END: [(&str, &str, bool); 4] = [
    ("setup_s", "s", false),
    ("cells_per_s", "cells/s", true),
    ("mips", "Minst/s", true),
    ("peak_heap_mb", "MB", false),
];

/// Per-layer metrics (`--trace 1`): name, unit, whether higher is better.
/// Times and counts are per iteration of the workload (one request,
/// pass or campaign) unless the name says otherwise. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, bool); 75] = [
    ("workloads.gen_s", "s", false),
    ("workloads.programs", "count", true),
    ("program.fuzz_gen_s", "s", false),
    ("program.mutate_s", "s", false),
    ("program.inputs", "count", true),
    ("vm.ff_s", "s", false),
    ("vm.ff_mips", "Minst/s", true),
    ("vm.clone_s", "s", false),
    ("vm.tcache_hit_rate", "ratio", true),
    ("vm.blocks_decoded", "count", false),
    ("vm.checkpoint_bytes", "bytes", false),
    ("vm.checkpoint_encode_s", "s", false),
    ("mem.warm_s", "s", false),
    ("mem.touches", "count", true),
    ("mem.l1_accesses", "count", true),
    ("mem.lvc_accesses", "count", true),
    ("mem.l2_accesses", "count", true),
    ("mem.lvc_hit_rate", "ratio", true),
    ("core.run_s", "s", false),
    ("core.ns_per_inst", "ns", false),
    ("core.ns_per_cycle", "ns", false),
    ("core.window_s", "s", false),
    ("core.sim_cycles", "count", true),
    ("core.committed", "count", true),
    ("core.timing_s", "s", false),
    ("core.cell_fixed_ms", "ms", false),
    ("core.ref_ns_per_inst", "ns", false),
    ("dse.hits", "count", true),
    ("dse.misses", "count", true),
    ("dse.errors", "count", false),
    ("dse.hit_rate", "ratio", true),
    ("dse.load_us_p50", "us", false),
    ("dse.load_us_tail", "us", false),
    ("dse.load_tail_pct", "%", true),
    ("dse.load_n", "count", true),
    ("dse.save_us_p50", "us", false),
    ("dse.decode_us_p50", "us", false),
    ("dse.key_us", "us", false),
    ("dse.expand_ms", "ms", false),
    ("dse.cell_ms_p50", "ms", false),
    ("dse.cell_ms_tail", "ms", false),
    ("dse.cell_tail_pct", "%", true),
    ("dse.cell_n", "count", true),
    ("dse.record_bytes", "bytes", false),
    ("dse.unaccounted_s", "s", false),
    ("checkpoint.fingerprint_ms", "ms", false),
    ("checkpoint.save_s", "s", false),
    ("checkpoint.load_s", "s", false),
    ("checkpoint.saves", "count", true),
    ("checkpoint.bytes", "bytes", false),
    ("sampling.windows", "count", true),
    ("sampling.rounds", "count", false),
    ("sampling.detailed_insts", "count", false),
    ("sampling.ff_insts", "count", true),
    ("sampling.unaccounted_s", "s", false),
    ("sampling.measured_share", "ratio", true),
    ("sampling.ci_rel_halfwidth", "ratio", false),
    ("sampling.cpi_err_pct", "%", false),
    ("pool.workers", "count", true),
    ("pool.busy_s", "s", false),
    ("pool.queue_wait_s", "s", false),
    ("pool.efficiency", "ratio", true),
    ("campaign.input_ms_p50", "ms", false),
    ("campaign.input_ms_tail", "ms", false),
    ("campaign.input_tail_pct", "%", true),
    ("campaign.input_n", "count", true),
    ("campaign.fast_s", "s", false),
    ("campaign.ref_s", "s", false),
    ("campaign.divergences", "count", false),
    ("campaign.panics", "count", false),
    ("campaign.edge_buckets", "count", true),
    ("trace.overhead_pct", "%", false),
    ("trace.iter_s", "s", false),
    ("host.peak_rss_mb", "MB", false),
    ("host.calib_ms", "ms", false),
];

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: at most 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// A set of named metric values, restricted to one catalogue table.
#[derive(Debug)]
pub struct MetricSet {
    table: &'static [(&'static str, &'static str, bool)],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// An empty set over `table`; every metric starts at 0.
    pub fn new(table: &'static [(&'static str, &'static str, bool)]) -> MetricSet {
        MetricSet {
            table,
            values: table.iter().map(|(n, _, _)| (*n, 0.0)).collect(),
        }
    }

    /// Sets `name` to `v`.
    ///
    /// # Panics
    ///
    /// When `name` is not in the set's table — a typo in the benchmark.
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            self.values.contains_key(name),
            "metric {name} is not in the catalogue"
        );
        self.values
            .insert(name, if v.is_finite() { v } else { 0.0 });
    }

    /// The value of `name` (0 when unset or unknown).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line, in catalogue order.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.table
                .iter()
                .map(|(n, u, _)| {
                    (
                        n.to_string(),
                        Value::Obj(vec![
                            ("value".into(), Value::Num(self.get(n))),
                            ("unit".into(), Value::Str(u.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The final stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted.max(1) as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), metrics.to_json()),
    ])
    .render()
}

fn exact_keys(v: &Value, want: &[&str], what: &str) -> Result<(), String> {
    let mut got = v.keys();
    got.sort_unstable();
    let mut w = want.to_vec();
    w.sort_unstable();
    if got == w {
        Ok(())
    } else {
        Err(format!("{what}: keys {got:?}, expected {w:?}"))
    }
}

fn arr<'a>(v: &'a Value, key: &str, lo: usize, hi: usize) -> Result<&'a [Value], String> {
    let a = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("`{key}` must be an array"))?;
    if a.len() < lo || a.len() > hi {
        return Err(format!(
            "`{key}` has {} entries, expected {lo}..={hi}",
            a.len()
        ));
    }
    Ok(a)
}

fn str_of<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or(format!("`{key}` must be a string"))
}

fn check_table(
    entries: &[Value],
    table: &[(&str, &str, bool)],
    with_bound: bool,
    seen: &mut HashSet<String>,
    what: &str,
) -> Result<(), String> {
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    if entries.len() != table.len() {
        return Err(format!(
            "{what}: {} entries, the binary emits {}",
            entries.len(),
            table.len()
        ));
    }
    for (e, (name, unit, higher)) in entries.iter().zip(table) {
        exact_keys(e, keys, what)?;
        let n = str_of(e, "name")?;
        let u = str_of(e, "unit")?;
        let b = str_of(e, "better")?;
        if !valid_name(n) || !seen.insert(n.to_string()) {
            return Err(format!("{what}: invalid or repeated name {n:?}"));
        }
        if !valid_unit(u) {
            return Err(format!("{what}: invalid unit {u:?} for {n}"));
        }
        if (n, u, b) != (*name, *unit, if *higher { "higher" } else { "lower" }) {
            return Err(format!(
                "{what}: {n} [{u}, {b}] differs from the binary's {name} [{unit}]"
            ));
        }
        if with_bound {
            let bound = e
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("bound must be a number")?;
            if !(bound > 0.0 && bound <= 0.25) {
                return Err(format!("{what}: bound {bound} of {n} outside (0, 0.25]"));
            }
        }
    }
    Ok(())
}

/// Checks a parsed `BENCHMARK.json` against the manifest contract and
/// against the catalogue above.
///
/// # Errors
///
/// A message naming the first violation.
pub fn check_manifest(v: &Value) -> Result<(), String> {
    exact_keys(
        v,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
    )?;
    for c in arr(v, "command", 1, 32)? {
        let s = c.as_str().ok_or("command entries must be strings")?;
        if s.len() > 200 || s.starts_with('/') || s.contains("..") {
            return Err(format!("command entry {s:?} not allowed"));
        }
    }
    for p in arr(v, "paths", 1, 16)? {
        let s = p.as_str().ok_or("paths entries must be strings")?;
        let ok = !s.is_empty()
            && s.len() <= 200
            && !s.starts_with('/')
            && !s.split('/').any(|seg| seg == "..")
            && s.bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-' | b'/'));
        if !ok {
            return Err(format!("path {s:?} not allowed"));
        }
    }
    let secs = v
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("run_seconds must be a number")?;
    if secs.fract() != 0.0 || !(1.0..=60.0).contains(&secs) {
        return Err(format!("run_seconds {secs} outside 1..=60"));
    }
    let mut seen = HashSet::new();
    let wl = arr(v, "workloads", 2, 8)?;
    if wl.len() != WORKLOADS.len() {
        return Err(format!(
            "{} workloads declared, the binary runs {}",
            wl.len(),
            WORKLOADS.len()
        ));
    }
    for (w, want) in wl.iter().zip(WORKLOADS) {
        exact_keys(w, &["name", "why"], "workload")?;
        let n = str_of(w, "name")?;
        let why = str_of(w, "why")?;
        if n != want || !valid_name(n) || !seen.insert(n.to_string()) {
            return Err(format!("workload {n:?} (expected {want})"));
        }
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload {n}: `why` must be one line of at most 200 characters"
            ));
        }
    }
    check_table(
        arr(v, "end_to_end", 1, 16)?,
        &END_TO_END,
        true,
        &mut seen,
        "end_to_end",
    )?;
    check_table(
        arr(v, "per_layer", 1, 128)?,
        &PER_LAYER,
        false,
        &mut seen,
        "per_layer",
    )?;
    Ok(())
}

/// Reads and checks the manifest at `path`.
///
/// # Errors
///
/// When the file is unreadable, malformed, or violates the contract.
pub fn load_manifest(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if text.len() > 64 * 1024 {
        return Err("BENCHMARK.json exceeds 64 KiB".into());
    }
    let v = json::parse(&text)?;
    check_manifest(&v)?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_path() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
    }

    #[test]
    fn metric_name_validation() {
        for ok in [
            "setup_s",
            "dse.load_us_p50",
            "0abc",
            "a-b.c_d",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a%",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "Minst/s", "cells/s", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "x".repeat(17).as_str(), "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for (n, u, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(n) && valid_unit(u), "{n} [{u}]");
            assert!(seen.insert(*n), "{n} repeated");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", false)));
    }

    #[test]
    fn manifest_round_trips_and_matches_catalogue() {
        let text = std::fs::read_to_string(manifest_path()).unwrap();
        let v = json::parse(&text).unwrap();
        check_manifest(&v).unwrap();
        let again = json::parse(&v.render()).unwrap();
        assert_eq!(again, v);
        check_manifest(&again).unwrap();
    }

    #[test]
    fn manifest_violations_are_caught() {
        let text = std::fs::read_to_string(manifest_path()).unwrap();
        let good = json::parse(&text).unwrap();
        let Value::Obj(members) = &good else {
            panic!("object")
        };
        // An extra key.
        let mut extra = members.clone();
        extra.push(("notes".into(), Value::Null));
        assert!(check_manifest(&Value::Obj(extra)).is_err());
        // A bound above 0.25.
        let loosened: Vec<_> = members
            .iter()
            .map(|(k, v)| match (k.as_str(), v) {
                ("end_to_end", Value::Arr(a)) => {
                    let mut a = a.clone();
                    if let Value::Obj(m) = &mut a[0] {
                        for (mk, mv) in m.iter_mut() {
                            if mk == "bound" {
                                *mv = Value::Num(0.5);
                            }
                        }
                    }
                    (k.clone(), Value::Arr(a))
                }
                _ => (k.clone(), v.clone()),
            })
            .collect();
        assert!(check_manifest(&Value::Obj(loosened)).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = MetricSet::new(&END_TO_END);
        m.set("setup_s", 0.8127);
        m.set("mips", f64::NAN);
        let line = result_line(true, 12, 0, &m);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.keys(), vec!["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.keys().len(), END_TO_END.len());
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(
            metrics
                .get("mips")
                .and_then(|x| x.get("value"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_panic() {
        MetricSet::new(&END_TO_END).set("latency_ms", 1.0);
    }
}
