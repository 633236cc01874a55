//! # dda-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§4), each
//! returning the printable [`dda_stats::Table`]s that regenerate it, plus the
//! `experiments` binary that runs them from the command line. Every
//! pipeline cell of a figure, like every other sweep, runs through the
//! memoized [`DseService`], which simulates its misses with
//! [`compute_cell`] on the [`pool`].
//!
//! The harness runs every benchmark for a fixed instruction budget
//! (configurable via `DDA_BUDGET`, default 300 000 committed instructions
//! for pipeline experiments), so IPC comparisons across configurations
//! always cover the same dynamic instruction stream.

pub mod campaign;
pub mod checkpoint;
pub mod dse;
mod experiments;
mod harness;
pub mod pool;
pub mod sampling;
mod store;

pub use checkpoint::{config_fingerprint, program_fingerprint, CheckpointStore};
pub use dse::{
    compute_cell, result_key, CellOutcome, CellReport, CellStatus, DseCell, DseRequest, DseService,
    DseSummary, ResultStore, RunPlan, SampledCell, KERNEL_VERSION,
};
pub use sampling::{
    sample_program, sample_program_adaptive, sample_program_stored, tags_from_checkpoint,
    Confidence, Estimate, SampledRun, SamplingConfig, WindowSample,
};

pub use experiments::{
    ablation_issue_width, ablation_lvaq_size, ablation_mshrs, ablation_steering, ablation_window,
    fig10_latency_sensitivity, fig11_per_program, fig2_instruction_mix, fig3_frame_sizes,
    fig5_bandwidth, fig6_lvc_size, fig7_lvc_ports, fig8_combining, fig9_optimized, l2_traffic,
    lvc_latency, lvc_line_size, small_l1, table1_machine_model, table2_benchmarks,
    table3_fast_forwarding,
};
pub use harness::{
    drain_stream, pipeline_budget, profile, profile_budget, workload_stats, ProfiledWorkload,
};
