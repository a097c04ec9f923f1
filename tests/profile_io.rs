//! The split workflow at library level: run the sampling and the
//! instrumentation pass separately, persist each as a single-pass `.owp`
//! file (as `optiwise sample` and `instrument` do), reload both, and verify
//! that restoring them into the pipeline reproduces the in-memory run.

mod common;

use optiwise::{
    report, run_counts_pass, run_optiwise, run_optiwise_ctl, run_sampling_pass, CancelToken,
    OptiwiseConfig, ResumeState, RunControl,
};
use wiser_dbi::{instrument_run, DbiConfig};
use wiser_sampler::SamplerConfig;
use wiser_sim::{LoadConfig, ProcessImage};
use wiser_store::Checkpoint;
use wiser_workloads::InputSize;

#[test]
fn profiles_roundtrip_through_owp_files() {
    let modules = wiser_workloads::by_name("stack_attr")
        .unwrap()
        .build(InputSize::Test)
        .unwrap();
    let cfg = OptiwiseConfig {
        sampler: SamplerConfig::with_period(200),
        ..OptiwiseConfig::default()
    };
    let token = CancelToken::new();
    let (samples, _, _) = run_sampling_pass(&modules, &cfg, &token, 0, None).unwrap();
    let (counts, _, _) = run_counts_pass(&modules, &cfg, &token, 0, None).unwrap();

    // Persist both to disk and reload (the `optiwise sample/instrument/
    // analyze` workflow).
    let dir = std::env::temp_dir().join(format!("optiwise-io-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sp = dir.join("samples.owp");
    let cp = dir.join("counts.owp");
    let spec = common::spec_for(&modules, &cfg, 0);
    let sample_file = common::pass_file(spec.clone(), Some(samples.clone()), None);
    let counts_file = common::pass_file(spec, None, Some(counts.clone()));
    std::fs::write(&sp, sample_file.to_bytes()).unwrap();
    std::fs::write(&cp, counts_file.to_bytes()).unwrap();
    let samples2 = Checkpoint::load(&sp).unwrap();
    let counts2 = Checkpoint::load(&cp).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(samples2, sample_file);
    assert_eq!(counts2, counts_file);
    assert!(samples2.counts.is_none() && counts2.samples.is_none());

    // Restored into the pipeline, the reloaded passes give exactly the
    // in-memory run.
    let fresh = run_optiwise(&modules, &cfg).unwrap();
    let ctl = RunControl {
        resume: ResumeState {
            samples: samples2.samples,
            counts: counts2.counts,
        },
        ..RunControl::default()
    };
    let reloaded = run_optiwise_ctl(&modules, &cfg, ctl).unwrap();
    assert_eq!(reloaded.attempts, (0, 0));
    assert_eq!(reloaded.samples, fresh.samples);
    assert_eq!(reloaded.counts, fresh.counts);
    assert_eq!(
        report::full_report(&reloaded.analysis, 50),
        report::full_report(&fresh.analysis, 50)
    );
    for (a, b) in fresh.analysis.loops().iter().zip(reloaded.analysis.loops()) {
        assert_eq!(a, b);
    }
    for (a, b) in fresh
        .analysis
        .functions()
        .iter()
        .zip(reloaded.analysis.functions())
    {
        assert_eq!(a, b);
    }
}

#[test]
fn large_profile_roundtrip() {
    // A bigger, branchier workload stresses the codec (indirect target
    // lists, callee tables, many blocks).
    let modules = wiser_workloads::by_name("xalancbmk_like")
        .unwrap()
        .build(InputSize::Test)
        .unwrap();
    let image = ProcessImage::load(&modules, &LoadConfig::default()).unwrap();
    let counts = instrument_run(&image, &DbiConfig::default()).unwrap();
    let back = common::reload(&common::any_pass_file(None, Some(counts.clone())))
        .counts
        .unwrap();
    assert_eq!(counts, back);
    assert!(
        back.blocks.iter().any(|b| !b.targets.is_empty()),
        "indirect targets survived the roundtrip"
    );
    assert!(!back.callee_counts.is_empty());
}
