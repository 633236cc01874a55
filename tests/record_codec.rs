//! The persisted record formats, pinned byte for byte.
//!
//! Four framed binary formats are written to disk or embedded in one
//! another: a [`SimResult`], a DSE [`CellOutcome`] (full or sampled), a
//! VM [`Checkpoint`] and a [`HierarchyTags`] snapshot. Result and
//! checkpoint stores persist across builds, so each encoding is a format
//! commitment: a change to a pinned length or hash means stores written
//! by an older build no longer decode, and that takes a format version
//! bump, not an edit of these constants. (The realistic checkpoint pin
//! lives in `checkpoint_roundtrip.rs`.)
//!
//! Every format is also checked to reject every strict prefix of a valid
//! record and a record with one byte appended: an `Err`, never a panic
//! and never a misparse.

use std::sync::Arc;

use dda::core::{QueueStats, SimResult};
use dda::mem::{CacheTags, DataCacheStats, HierarchyTags, L2Stats, TagLine};
use dda::stats::{fnv1a64, Histogram};
use dda::vm::{Checkpoint, Vm};
use dda::workloads::Benchmark;
use dda_bench::{CellOutcome, Estimate, SampledCell, WindowSample};

fn queue(base: u64) -> QueueStats {
    let mut occupancy = Histogram::new();
    occupancy.record_n(base % 7, 40 + base);
    occupancy.record_n(9, 2);
    QueueStats {
        loads: base + 100,
        stores: base + 55,
        forwards: base + 7,
        fast_forwards: base + 11,
        combined: base + 6,
        combine_groups: base + 3,
        port_stall_cycles: base + 17,
        occupancy,
    }
}

fn cache(base: u64) -> DataCacheStats {
    DataCacheStats {
        reads: base + 80,
        writes: base + 13,
        hits: base + 75,
        misses: base + 5,
        miss_merges: base + 1,
        mshr_stalls: base + 2,
    }
}

/// A result with every field distinct and non-zero.
fn sim_result() -> SimResult {
    let mut r = SimResult {
        cycles: 12_345,
        committed: 6_789,
        halted: true,
        stall_rob_full: 1,
        stall_lsq_full: 2,
        stall_lvaq_full: 3,
        misclassifications: 4,
        lsq: queue(0),
        lvaq: queue(1_000),
        l1: cache(0),
        lvc: Some(cache(500)),
        l2: L2Stats {
            requests_from_l1: 21,
            requests_from_lvc: 9,
            hits: 25,
            misses: 5,
            writebacks_in: 6,
            writebacks_to_memory: 4,
        },
        load_latency_sum: 999,
        load_latency_count: 111,
        faults: Default::default(),
    };
    r.faults.l1_flips_injected = 3;
    r.faults.lvc_flips_injected = 8;
    r.faults.flips_detected = 7;
    r.faults.flips_evicted = 2;
    r.faults.flips_latent = 2;
    r.faults.grants_dropped = 5;
    r.faults.grants_delayed = 6;
    r.faults.forwards_corrupted = 4;
    r.faults.forwards_detected = 1;
    r
}

fn sampled_cell() -> SampledCell {
    let window = |i: u64| WindowSample {
        start_inst: 10_000 * i,
        committed: 4_000,
        cycles: 3_000 + i,
        cpi: 0.75 + i as f64 / 64.0,
        lvc_hit_rate: 0.96875,
        port_stalls_per_kinst: 1.5 * i as f64,
    };
    SampledCell {
        windows: (0..3).map(window).collect(),
        cpi: Estimate {
            mean: 0.765625,
            half_width: 0.03125,
        },
        lvc_hit_rate: Estimate {
            mean: 0.96875,
            half_width: 0.0,
        },
        port_stalls_per_kinst: Estimate {
            mean: 1.5,
            half_width: f64::INFINITY,
        },
        detailed_insts: 18_000,
        halted_early: true,
        rounds: 2,
    }
}

fn cache_tags(n: u32) -> CacheTags {
    CacheTags {
        lines: (0..n)
            .map(|i| TagLine {
                tag: 0x1000 + i,
                valid: i % 3 != 0,
                dirty: i % 2 == 0,
                lru: 40 + u64::from(i),
            })
            .collect(),
        clock: 77 + u64::from(n),
    }
}

/// A small hand-built tag snapshot (decoding does not check geometry).
fn hierarchy_tags() -> HierarchyTags {
    HierarchyTags {
        l1: cache_tags(8),
        lvc: Some(cache_tags(4)),
        l2: cache_tags(16),
    }
}

/// A checkpoint of compress cut down to one resident page, carrying the
/// tag snapshot above, so the every-prefix sweep stays cheap.
fn small_checkpoint() -> Checkpoint {
    let mut vm = Vm::new(Arc::new(Benchmark::Compress.program(u32::MAX / 2)));
    vm.fast_forward(2_000).unwrap();
    let mut ck = vm.checkpoint(0xAAAA, 0xBBBB);
    ck.pages.truncate(1);
    ck.cache_tags = Some(hierarchy_tags().to_bytes());
    ck
}

/// `(length, FNV-1a 64)` of each fixture's encoding, as encoded when the
/// formats were pinned.
const PINNED_SIM_RESULT: (usize, u64) = (478, 0x8599_6b5b_8ec7_9e3a);
const PINNED_CELL_FULL: (usize, u64) = (491, 0x841a_6cc6_a2ad_f061);
const PINNED_CELL_SAMPLED: (usize, u64) = (222, 0x44cf_98ed_1fea_02f2);
const PINNED_HIERARCHY_TAGS: (usize, u64) = (413, 0xb41c_c927_e6ad_c3b3);

fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

#[test]
fn record_encodings_are_pinned() {
    let r = sim_result();
    let full = CellOutcome::Full(sim_result());
    let sampled = CellOutcome::Sampled(sampled_cell());
    let tags = hierarchy_tags();
    let got = [
        pin(&r.to_bytes()),
        pin(&full.to_bytes()),
        pin(&sampled.to_bytes()),
        pin(&tags.to_bytes()),
    ];
    let want = [
        PINNED_SIM_RESULT,
        PINNED_CELL_FULL,
        PINNED_CELL_SAMPLED,
        PINNED_HIERARCHY_TAGS,
    ];
    assert_eq!(got, want, "a record encoding moved");
    // And each decodes back to the value it was encoded from.
    assert_eq!(SimResult::from_bytes(&r.to_bytes()).unwrap(), r);
    assert_eq!(CellOutcome::from_bytes(&full.to_bytes()).unwrap(), full);
    assert_eq!(
        CellOutcome::from_bytes(&sampled.to_bytes()).unwrap(),
        sampled
    );
    assert_eq!(HierarchyTags::from_bytes(&tags.to_bytes()).unwrap(), tags);
}

/// Every format: each strict prefix of a valid record, and the record
/// with one byte appended, fail to decode.
#[test]
fn truncated_or_padded_records_are_rejected() {
    type Decodes = fn(&[u8]) -> bool;
    let formats: [(&str, Vec<u8>, Decodes); 5] = [
        ("SimResult", sim_result().to_bytes(), |b| {
            SimResult::from_bytes(b).is_ok()
        }),
        (
            "CellOutcome::Full",
            CellOutcome::Full(sim_result()).to_bytes(),
            |b| CellOutcome::from_bytes(b).is_ok(),
        ),
        (
            "CellOutcome::Sampled",
            CellOutcome::Sampled(sampled_cell()).to_bytes(),
            |b| CellOutcome::from_bytes(b).is_ok(),
        ),
        ("Checkpoint", small_checkpoint().to_bytes(), |b| {
            Checkpoint::from_bytes(b).is_ok()
        }),
        ("HierarchyTags", hierarchy_tags().to_bytes(), |b| {
            HierarchyTags::from_bytes(b).is_ok()
        }),
    ];
    for (name, bytes, decodes) in formats {
        assert!(decodes(&bytes), "{name}: the valid record failed");
        for cut in 0..bytes.len() {
            assert!(!decodes(&bytes[..cut]), "{name}: {cut}-byte prefix decoded");
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(!decodes(&padded), "{name}: one appended byte was accepted");
    }
}
