//! Correctness gate: every timed job must match the exact oracle.

use optiwise::{AnalysisMode, OptiwiseRun};
use wiser_sim::{CodeLoc, OracleProfile};

/// What a job's fused run reports, reduced to the values the oracle pins.
pub struct Observed<'a> {
    /// Exact execution count of one instruction (`Analysis::count_at`).
    pub count_at: &'a dyn Fn(CodeLoc) -> u64,
    /// Instructions the analysis counted in total.
    pub total_insns: u64,
    /// Cycles of the sampled (timed) run.
    pub cycles: u64,
    /// Instructions the timed run retired.
    pub retired: u64,
    /// Whether the analysis is a full join (not degraded to sampling-only).
    pub full: bool,
    /// Whether either pass ended truncated.
    pub truncated: bool,
}

impl<'a> Observed<'a> {
    /// The observable outcome of a pipeline run.
    pub fn of_run(run: &'a OptiwiseRun, count_at: &'a dyn Fn(CodeLoc) -> u64) -> Observed<'a> {
        Observed {
            count_at,
            total_insns: run.analysis.total_insns,
            cycles: run.timed.stats.cycles,
            retired: run.timed.stats.retired,
            full: run.analysis.mode == AnalysisMode::Full,
            truncated: run.samples.truncated.is_some() || run.counts.truncated.is_some(),
        }
    }
}

/// Compares a run against the oracle: no degraded or truncated mode, timed
/// cycles and retired instructions equal to the oracle's, and the exact
/// per-instruction count at every instruction the oracle saw retire.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn against_oracle(got: &Observed<'_>, oracle: &OracleProfile) -> Result<(), String> {
    if let Some(reason) = &oracle.truncated {
        return Err(format!("oracle run truncated ({reason})"));
    }
    if got.truncated {
        return Err("a profiling pass ended truncated".into());
    }
    if !got.full {
        return Err("analysis degraded to sampling-only".into());
    }
    if got.cycles != oracle.total_cycles {
        return Err(format!(
            "timed cycles {} != oracle cycles {}",
            got.cycles, oracle.total_cycles
        ));
    }
    if got.retired != oracle.total_retired || got.total_insns != oracle.total_retired {
        return Err(format!(
            "retired {} / counted {} != oracle retired {}",
            got.retired, got.total_insns, oracle.total_retired
        ));
    }
    for (&loc, &want) in &oracle.retired {
        let have = (got.count_at)(loc);
        if have != want {
            return Err(format!("count at {loc}: {have} != oracle {want}"));
        }
    }
    Ok(())
}

/// FNV-1a digest of an `.owp` image, for byte-identity checks and for
/// printing as a deterministic count.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};
    use wiser_sim::ModuleId;

    fn loc(offset: u64) -> CodeLoc {
        CodeLoc {
            module: ModuleId(0),
            offset,
        }
    }

    fn oracle() -> OracleProfile {
        let retired: BTreeMap<CodeLoc, u64> = [(loc(0), 1), (loc(4), 500), (loc(8), 500)].into();
        OracleProfile {
            module_names: vec!["m".into()],
            retired,
            total_retired: 1001,
            total_cycles: 4000,
            ..OracleProfile::default()
        }
    }

    fn observed<'a>(counts: &'a dyn Fn(CodeLoc) -> u64) -> Observed<'a> {
        Observed {
            count_at: counts,
            total_insns: 1001,
            cycles: 4000,
            retired: 1001,
            full: true,
            truncated: false,
        }
    }

    #[test]
    fn exact_match_passes() {
        let o = oracle();
        let counts = |l: CodeLoc| o.retired_at(l);
        assert_eq!(against_oracle(&observed(&counts), &o), Ok(()));
    }

    #[test]
    fn a_perturbed_count_is_rejected() {
        let o = oracle();
        let mut perturbed: HashMap<CodeLoc, u64> = o.retired.clone().into_iter().collect();
        *perturbed.get_mut(&loc(4)).unwrap() += 1;
        let counts = |l: CodeLoc| perturbed.get(&l).copied().unwrap_or(0);
        let err = against_oracle(&observed(&counts), &o).unwrap_err();
        assert!(err.contains("501 != oracle 500"), "{err}");
    }

    #[test]
    fn cycle_total_and_mode_mismatches_are_rejected() {
        let o = oracle();
        let counts = |l: CodeLoc| o.retired_at(l);
        let mut got = observed(&counts);
        got.cycles += 1;
        assert!(against_oracle(&got, &o).unwrap_err().contains("cycles"));
        let mut got = observed(&counts);
        got.total_insns -= 1;
        assert!(against_oracle(&got, &o).is_err());
        let mut got = observed(&counts);
        got.full = false;
        assert!(against_oracle(&got, &o).is_err());
        let mut got = observed(&counts);
        got.truncated = true;
        assert!(against_oracle(&got, &o).is_err());
    }

    #[test]
    fn digest_is_byte_sensitive() {
        assert_eq!(digest(b"owp"), digest(b"owp"));
        assert_ne!(digest(b"owp"), digest(b"owq"));
    }
}
