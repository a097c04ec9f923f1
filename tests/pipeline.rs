//! End-to-end integration tests of the full OptiWISE pipeline, asserting
//! the paper's qualitative claims at unit-test scale.

use optiwise::{run_optiwise, AnalysisOptions, OptiwiseConfig};
use wiser_sampler::{Attribution, SamplerConfig};
use wiser_workloads::InputSize;

fn config(period: u64, attribution: Attribution) -> OptiwiseConfig {
    OptiwiseConfig {
        sampler: SamplerConfig {
            attribution,
            ..SamplerConfig::with_period(period)
        },
        ..OptiwiseConfig::default()
    }
}

fn build(name: &str) -> Vec<wiser_isa::Module> {
    wiser_workloads::by_name(name)
        .unwrap_or_else(|| panic!("workload {name}"))
        .build(InputSize::Test)
        .expect("workload assembles")
}

/// Figure 1's claim: combined CPI singles out the cache-missing load even
/// though cheap ALU instructions execute 4x more often.
#[test]
fn combined_cpi_reveals_the_load() {
    let run = run_optiwise(
        &build("fig1_motivating"),
        &config(256, Attribution::Precise),
    )
    .expect("pipeline");
    let rows = run.analysis.annotate_function(0, "_start");
    let load = rows
        .iter()
        .find(|r| r.text.starts_with("ld.8"))
        .expect("load row");
    let max_count = rows.iter().map(|r| r.count).max().unwrap();
    let alu_cpi_max = rows
        .iter()
        .filter(|r| {
            r.count == max_count && (r.text.starts_with("add") || r.text.starts_with("xor"))
        })
        .filter_map(|r| r.cpi)
        .fold(0.0f64, f64::max);
    // The ALU block executes more often...
    assert!(max_count >= 4 * load.count);
    // ...but the load is far more expensive per execution.
    let load_cpi = load.cpi.expect("load executed");
    assert!(
        load_cpi > 5.0 * alu_cpi_max.max(0.1),
        "load CPI {load_cpi:.1} vs max ALU CPI {alu_cpi_max:.2}"
    );
}

/// Figure 6 / Table I: five back edges on one header merge into exactly
/// three program loops under the T = 3 heuristic, and stay five without it.
#[test]
fn loop_merge_heuristic_matches_table1() {
    let modules = build("loop_merge");
    let merged = run_optiwise(&modules, &config(512, Attribution::Interrupt)).unwrap();
    assert_eq!(merged.analysis.loops().len(), 3, "merged loop count");
    let depths: Vec<usize> = {
        let mut d: Vec<usize> = merged.analysis.loops().iter().map(|l| l.depth).collect();
        d.sort_unstable();
        d
    };
    assert_eq!(depths, vec![0, 1, 2], "three-level nest");

    let mut cfg = config(512, Attribution::Interrupt);
    cfg.analysis = AnalysisOptions {
        merge_threshold: None,
    };
    let raw = run_optiwise(&modules, &cfg).unwrap();
    assert_eq!(raw.analysis.loops().len(), 5, "one loop per back edge");
}

/// Figure 4: the shared callee's time and instruction counts divide between
/// the two calling loops in their 3:1 call ratio.
#[test]
fn stack_profiling_splits_shared_callee() {
    let run = run_optiwise(&build("stack_attr"), &config(128, Attribution::Interrupt)).unwrap();
    let find = |f: &str| {
        run.analysis
            .loops()
            .iter()
            .find(|l| l.function == f)
            .unwrap_or_else(|| panic!("loop in {f}"))
    };
    let loop1 = find("func1");
    let loop2 = find("func2");
    // Exact for instruction counts (deterministic counting).
    let ratio_insns = loop1.total_insns as f64 / loop2.total_insns as f64;
    assert!(
        (ratio_insns - 3.0).abs() < 0.1,
        "instruction ratio {ratio_insns:.2}"
    );
    // Statistical for cycles.
    let ratio_cycles = loop1.cycles as f64 / loop2.cycles.max(1) as f64;
    assert!(
        ratio_cycles > 2.0 && ratio_cycles < 4.5,
        "cycle ratio {ratio_cycles:.2}"
    );
}

/// §IV-A: both passes run under different ASLR layouts, yet the fused
/// analysis keyed on (module, offset) is meaningful — and the instruction
/// totals agree exactly between the timing run and the counting run.
#[test]
fn aslr_runs_fuse_exactly() {
    let mut cfg = config(512, Attribution::Interrupt);
    cfg.aslr_seeds = (123, 98765);
    let run = run_optiwise(&build("fig1_motivating"), &cfg).unwrap();
    // The raw counts profile is counter-placed; the analysis carries the
    // exact recovered total, which must match the timing run bit for bit.
    assert_eq!(run.analysis.total_insns, run.timed.stats.retired);
    assert_eq!(
        wiser_cfg::recover(&run.counts).unwrap().total_insns(),
        run.timed.stats.retired
    );
    assert!(run.analysis.total_cycles > 0);
    // All samples resolved to module-relative locations.
    assert_eq!(run.samples.unmapped, 0);
}

/// §IV-F: identical seeds give identical control flow, so the whole
/// pipeline is reproducible.
#[test]
fn pipeline_is_deterministic() {
    let modules = build("loop_merge");
    let cfg = config(512, Attribution::Interrupt);
    let a = run_optiwise(&modules, &cfg).unwrap();
    let b = run_optiwise(&modules, &cfg).unwrap();
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.timed.stats.cycles, b.timed.stats.cycles);
}

/// The three attribution modes agree at function granularity (§III's
/// aggregation claim) even where they disagree per instruction.
#[test]
fn aggregation_reconciles_attribution_modes() {
    let modules = build("fig1_motivating");
    let share = |attribution| {
        let run = run_optiwise(&modules, &config(256, attribution)).unwrap();
        let f = run.analysis.function("_start").expect("_start");
        f.self_cycles as f64 / run.analysis.total_cycles.max(1) as f64
    };
    let interrupt = share(Attribution::Interrupt);
    let precise = share(Attribution::Precise);
    // One function dominates; every mode must agree on that.
    assert!(interrupt > 0.95, "{interrupt}");
    assert!(precise > 0.95, "{precise}");
}

/// Cross-module profiling through the PLT: the library loop dominates and
/// is attributed to the library module.
#[test]
fn cross_module_attribution() {
    let run = run_optiwise(&build("mcf_like"), &config(512, Attribution::Interrupt)).unwrap();
    let qsort = run.analysis.function("spec_qsort").expect("spec_qsort");
    assert_eq!(qsort.module, 1, "spec_qsort lives in libqsort");
    // Its inclusive time (through the comparators back in module 0)
    // dominates the program.
    assert!(
        qsort.incl_cycles * 10 > run.analysis.total_cycles * 5,
        "qsort inclusive share too small"
    );
    // The PLT stub itself was counted (executed blocks beyond .text).
    let plt = run.analysis.function("spec_qsort@plt");
    assert!(plt.is_some(), "PLT stub appears in the profile");
}
