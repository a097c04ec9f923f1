//! Helpers shared by the integration tests: checkpoint specs and the
//! single-pass `.owp` files `optiwise sample` and `instrument` exchange.

#![allow(dead_code)] // each test crate uses its own subset

use optiwise::{module_fingerprint, OptiwiseConfig};
use wiser_dbi::CountsProfile;
use wiser_isa::Module;
use wiser_sampler::SampleProfile;
use wiser_store::{Checkpoint, CheckpointSpec};

/// A checkpoint spec matching `cfg` for `modules`, as the CLI would build.
pub fn spec_for(modules: &[Module], cfg: &OptiwiseConfig, every: u64) -> CheckpointSpec {
    let hash = module_fingerprint(modules);
    CheckpointSpec::for_run(cfg, hash, "counted_loop", "test", "xeon", &[], every)
}

/// The file `sample` (given `samples`) or `instrument` (given `counts`)
/// writes under `spec`.
pub fn pass_file(
    spec: CheckpointSpec,
    samples: Option<SampleProfile>,
    counts: Option<CountsProfile>,
) -> Checkpoint {
    Checkpoint {
        spec,
        sample_pos: samples.as_ref().map_or(0, |p| p.retired),
        counts_pos: counts.as_ref().map_or(0, CountsProfile::total_insns),
        samples,
        counts,
    }
}

/// `pass_file` for a profile of no particular program (default config).
pub fn any_pass_file(samples: Option<SampleProfile>, counts: Option<CountsProfile>) -> Checkpoint {
    pass_file(
        spec_for(&[], &OptiwiseConfig::default(), 0),
        samples,
        counts,
    )
}

/// Encodes `file` to `.owp` bytes and decodes them back.
pub fn reload(file: &Checkpoint) -> Checkpoint {
    Checkpoint::from_bytes(&file.to_bytes()).expect("single-pass file decodes")
}
