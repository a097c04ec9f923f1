//! One-call pipeline: the equivalent of `optiwise run -- <binary>`.
//!
//! Loads the program twice with different ASLR layouts, performs the
//! sampling run on the timing model and the instrumentation run on the DBI
//! engine, then fuses both profiles into an [`Analysis`] (figure 3's five
//! components end to end).
//!
//! The runner is fault-tolerant: a pass that its instruction budget would
//! cut short runs once with the escalated budget [`RetryPolicy`] allows,
//! instead of being replayed from instruction zero; an instrumentation
//! pass that stays unusable degrades the analysis to sampling-only instead
//! of discarding the run; and the post-join divergence check can fail the
//! pipeline in strict mode.
//!
//! The two passes are *independent executions* of the same program (§III):
//! they share no state beyond the module list and the config, so by default
//! the runner overlaps them on two threads ([`OptiwiseConfig::concurrent_passes`]).
//! Each pass executes exactly once, and the fused analysis is built from
//! the joined results exactly as in the sequential order — output is
//! bit-identical either way.

use std::collections::{HashMap, HashSet};

use wiser_dbi::{instrument_run_ctl, CountsPassControl, CountsProfile, DbiConfig};
use wiser_isa::Module;
use wiser_sampler::{sample_run_ctl, SamplePassControl, SampleProfile, SamplerConfig};
use wiser_sim::{
    CancelCause, CancelToken, CoreConfig, CoreStats, FaultPlan, LoadConfig, ModuleId,
    ProcessImage, TimedRun, TruncationReason,
};

use crate::analysis::{Analysis, AnalysisOptions, DEFAULT_DIVERGENCE_THRESHOLD};
use crate::error::{OptiwiseError, Pass};

/// Bounded budget escalation for passes cut short by their instruction
/// budget.
///
/// Only budget exhaustion escalates — execution faults and injected aborts
/// are deterministic and would recur at any budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Escalations allowed per pass beyond the first budget.
    pub max_retries: u32,
    /// Budget multiplier applied on each escalation.
    pub budget_multiplier: u64,
    /// Cap on the sum of a pass's budgets, the first one included. An
    /// escalation that would push the sum past this cap is not taken, and
    /// a cut at the last budget taken stands (the usual degradation path
    /// applies).
    pub max_total_insns: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            budget_multiplier: 4,
            max_total_insns: 8_000_000_000,
        }
    }
}

/// The budgets a pass starting at `max_insns` may escalate through, lowest
/// first: up to `max_retries` escalations by `budget_multiplier`, each
/// taken only while the sum of the rungs so far plus the next stays within
/// `max_total_insns`. A rung no larger than the one below it could not
/// finish a pass that rung cut, so the ladder ends there.
///
/// A pass is deterministic and its budget only decides where it stops, so
/// one execution at the top rung yields the profile a replay from
/// instruction zero at each rung in turn would settle on.
fn budget_ladder(retry: &RetryPolicy, max_insns: u64) -> Vec<u64> {
    let mut rungs = vec![max_insns];
    let mut total = max_insns;
    for _ in 0..retry.max_retries {
        let top = rungs[rungs.len() - 1];
        let next = top.saturating_mul(retry.budget_multiplier);
        if next <= top || total.saturating_add(next) > retry.max_total_insns {
            break;
        }
        total = total.saturating_add(next);
        rungs.push(next);
    }
    rungs
}

/// Attempts the ladder's climb spends on a pass whose single execution at
/// the top rung shows that every budget below `reach` cuts it: one per
/// lower rung that cuts, plus the top rung itself.
fn ladder_attempts(ladder: &[u64], reach: u64) -> u32 {
    let lower = &ladder[..ladder.len() - 1];
    1 + lower.iter().take_while(|&&b| b < reach).count() as u32
}

/// Pipeline progress notifications delivered to [`RunControl::observer`].
///
/// `*Checkpoint` events fire mid-pass every [`RunControl::checkpoint_every`]
/// committed instructions with an owned snapshot (always marked
/// `truncated = Cancelled`, since it describes an interrupted prefix of the
/// pass); `*Done` events fire exactly once per pass when its execution
/// ends, truncated or not. With concurrent passes the observer is called
/// from two threads, so it must be `Sync`.
pub enum PassEvent<'a> {
    /// Mid-pass snapshot of the sampling profile.
    SampleCheckpoint {
        /// Instructions committed at the snapshot.
        retired: u64,
        /// The partial profile (owned; nothing else retains it).
        profile: SampleProfile,
    },
    /// The sampling pass settled with this final profile.
    SampleDone {
        /// The final profile; `truncated` tells how it ended.
        profile: &'a SampleProfile,
    },
    /// Mid-pass snapshot of the instrumentation profile.
    CountsCheckpoint {
        /// Instructions committed at the snapshot.
        retired: u64,
        /// The partial profile (owned; nothing else retains it).
        profile: CountsProfile,
    },
    /// The instrumentation pass settled with this final profile.
    CountsDone {
        /// The final profile; `truncated` tells how it ended.
        profile: &'a CountsProfile,
    },
}

/// External controls threaded through one pipeline run: cooperative
/// cancellation, checkpoint cadence, an event observer (typically a
/// checkpoint writer), and passes restored from a previous checkpoint.
///
/// The default is inert: a fresh token nobody cancels, no checkpoints, no
/// observer, nothing restored — exactly [`run_optiwise`].
#[derive(Default)]
pub struct RunControl<'a> {
    /// Cancellation token polled by both passes at instruction boundaries.
    pub cancel: CancelToken,
    /// Checkpoint cadence in committed instructions; 0 disables checkpoint
    /// events (Done events still fire).
    pub checkpoint_every: u64,
    /// Receives [`PassEvent`]s; must be `Sync` because concurrent passes
    /// call it from two threads.
    pub observer: Option<&'a (dyn Fn(PassEvent<'_>) + Sync)>,
    /// Passes restored from a checkpoint, skipping their re-execution.
    pub resume: ResumeState,
}

/// Passes restored from disk instead of executed.
///
/// A restored profile enters the pipeline exactly as a freshly run one
/// would, including the recovery ladder of [`run_optiwise`]: `optiwise
/// analyze` hands over the profiles of single-pass files as they are, so a
/// truncated counts profile degrades the analysis to sampling-only. Resume
/// restores only passes that *finished* — `Checkpoint::resume_state` leaves
/// partial profiles out and those passes replay from instruction zero,
/// which is what makes a resumed run byte-identical to an uninterrupted
/// one.
#[derive(Default)]
pub struct ResumeState {
    /// Completed sampling profile to restore, if any.
    pub samples: Option<SampleProfile>,
    /// Completed instrumentation profile to restore, if any.
    pub counts: Option<CountsProfile>,
}

/// Order-sensitive FNV-1a fingerprint over the identity-bearing parts of a
/// module set (name, text, data, bss size, entry point).
///
/// A checkpoint taken against one build of a program must not resume
/// against another: the replayed passes would silently profile different
/// code while claiming the restored passes describe it.
pub fn module_fingerprint(modules: &[Module]) -> u64 {
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in modules {
        h = eat(h, m.name.as_bytes());
        h = eat(h, &[0]);
        h = eat(h, &m.text);
        h = eat(h, &[0]);
        h = eat(h, &m.data);
        h = eat(h, &m.bss_size.to_le_bytes());
        h = eat(h, &m.entry.unwrap_or(u64::MAX).to_le_bytes());
    }
    h
}

/// Configuration of the whole OptiWISE pipeline.
#[derive(Clone, Debug)]
pub struct OptiwiseConfig {
    /// Microarchitecture to sample on.
    pub core: CoreConfig,
    /// Sampling parameters.
    pub sampler: SamplerConfig,
    /// Instrumentation parameters.
    pub dbi: DbiConfig,
    /// Analysis options (loop merging).
    pub analysis: AnalysisOptions,
    /// Program input seed (the deterministic `rand` syscall); identical in
    /// both runs so control flow matches (§IV-F).
    pub rand_seed: u64,
    /// Instruction budget per run.
    pub max_insns: u64,
    /// ASLR seeds for the two runs; distinct values prove the analysis is
    /// keyed on module-relative addresses.
    pub aslr_seeds: (u64, u64),
    /// Fail instead of degrading: truncated profiles and above-threshold
    /// divergence become errors.
    pub strict: bool,
    /// Permit truncated/partial profiles to flow into the analysis (ignored
    /// — treated as `false` — when `strict` is set).
    pub allow_partial: bool,
    /// Divergence score above which the run is considered inconsistent.
    pub divergence_threshold: f64,
    /// Re-run policy for budget-truncated passes.
    pub retry: RetryPolicy,
    /// Deterministic fault injection applied to both passes (testing only).
    pub fault: FaultPlan,
    /// Overlap the sampling and instrumentation passes on two threads. The
    /// passes are independent executions, so the fused output is
    /// bit-identical either way; disable only to measure the sequential
    /// baseline or to cap the pipeline at one thread.
    pub concurrent_passes: bool,
    /// Two-phase selective instrumentation: run the sampling pass first,
    /// rank functions by sample weight, and fully instrument only those at
    /// or above [`OptiwiseConfig::hot_threshold`]. Cold functions keep
    /// their sampling attribution and are marked
    /// [`crate::Coverage::SamplingOnly`]. Forces sequential passes (the
    /// instrumentation plan needs the sampling profile).
    pub selective: bool,
    /// Minimum fraction of total sample weight a function must carry to be
    /// fully instrumented under [`OptiwiseConfig::selective`].
    pub hot_threshold: f64,
    /// Charge one counter per executed block/edge as the seed engine did,
    /// instead of computing a minimal counter placement and recovering the
    /// suppressed values by flow conservation at analysis time. The
    /// recovered profile is bit-identical either way; this switch exists to
    /// measure the overhead delta and as an escape hatch.
    pub exhaustive_counters: bool,
}

impl Default for OptiwiseConfig {
    fn default() -> OptiwiseConfig {
        OptiwiseConfig {
            core: CoreConfig::xeon_like(),
            sampler: SamplerConfig::default(),
            dbi: DbiConfig::default(),
            analysis: AnalysisOptions::default(),
            rand_seed: 0,
            max_insns: 200_000_000,
            aslr_seeds: (0x5a5a, 0xa5a5),
            strict: false,
            allow_partial: true,
            divergence_threshold: DEFAULT_DIVERGENCE_THRESHOLD,
            retry: RetryPolicy::default(),
            fault: FaultPlan::default(),
            concurrent_passes: true,
            selective: false,
            hot_threshold: DEFAULT_HOT_THRESHOLD,
            exhaustive_counters: false,
        }
    }
}

/// Default [`OptiwiseConfig::hot_threshold`]: 1% of total sample weight.
pub const DEFAULT_HOT_THRESHOLD: f64 = 0.01;

/// Module-relative text spans to fully instrument under `--selective`.
type SelectiveRanges = Vec<(ModuleId, u64, u64)>;
/// `(module index, function name)` keys of the fully-counted hot set.
type HotSet = HashSet<(u32, String)>;

/// Ranks functions by self sample weight and splits them at `hot_threshold`.
///
/// Returns the instrumentation ranges (module-relative text spans) of the
/// hot functions plus their `(module, name)` keys for the analysis'
/// coverage marking, or `None` when the profile carries no weight at all —
/// with nothing to rank, full instrumentation is the only safe plan.
///
/// Everything here is a deterministic function of the sampling profile and
/// the module list, so selective runs inherit the pipeline's bit-identical
/// reproducibility.
fn plan_selective(
    modules: &[Module],
    samples: &SampleProfile,
    hot_threshold: f64,
) -> Option<(SelectiveRanges, HotSet)> {
    let mut weight_by_func: HashMap<(u32, u64), u64> = HashMap::new();
    let mut total: u64 = 0;
    for s in &samples.samples {
        total += s.weight;
        let m = s.loc.module.0;
        if let Some(sym) = modules
            .get(m as usize)
            .and_then(|md| md.function_at(s.loc.offset))
        {
            *weight_by_func.entry((m, sym.offset)).or_insert(0) += s.weight;
        }
    }
    if total == 0 {
        return None;
    }
    let mut ranges = Vec::new();
    let mut hot = HashSet::new();
    for (mi, md) in modules.iter().enumerate() {
        for sym in md.functions() {
            let w = weight_by_func
                .get(&(mi as u32, sym.offset))
                .copied()
                .unwrap_or(0);
            if w > 0 && w as f64 >= hot_threshold * total as f64 {
                ranges.push((ModuleId(mi as u32), sym.offset, sym.offset + sym.size));
                hot.insert((mi as u32, sym.name.clone()));
            }
        }
    }
    Some((ranges, hot))
}

/// The sampling pass (run 1): the timing model and sampler under the first
/// ASLR layout, executed once with the largest budget `config.retry`
/// escalates to.
///
/// `observer` receives a [`PassEvent::SampleCheckpoint`] every
/// `checkpoint_every` committed instructions (0 disables them) and one
/// [`PassEvent::SampleDone`] when the pass ends. Returns the final
/// profile, possibly truncated, the timing summary and the attempts a
/// replay at each escalated budget in turn would have spent.
/// [`run_optiwise_ctl`] and the CLI's `sample` command both run the pass
/// through here.
///
/// # Errors
///
/// Loader and simulator failures, including [`OptiwiseError::Killed`] for
/// an injected crash.
pub fn run_sampling_pass(
    modules: &[Module],
    config: &OptiwiseConfig,
    cancel: &CancelToken,
    checkpoint_every: u64,
    observer: Option<&(dyn Fn(PassEvent<'_>) + Sync)>,
) -> Result<(SampleProfile, TimedRun, u32), OptiwiseError> {
    let load = LoadConfig {
        aslr_seed: Some(config.aslr_seeds.0),
        ..LoadConfig::default()
    };
    let image = ProcessImage::load(modules, &load)?;
    let mut sampler_cfg = config.sampler;
    sampler_cfg.fault = config.fault;
    let ladder = budget_ladder(&config.retry, config.max_insns);
    let mut sink = |retired: u64, profile: SampleProfile| {
        if let Some(obs) = observer {
            obs(PassEvent::SampleCheckpoint { retired, profile });
        }
    };
    let pass_ctl = SamplePassControl {
        cancel: Some(cancel),
        checkpoint_every,
        sink: observer.is_some().then_some(&mut sink as _),
    };
    let (samples, timed) = sample_run_ctl(
        &image,
        config.rand_seed,
        config.core,
        sampler_cfg,
        ladder[ladder.len() - 1],
        pass_ctl,
    )?;
    // The timed feed checks `retired >= budget` before each step, so a
    // budget cuts the pass iff it is below where the pass stopped — or
    // equal to it, when the next step would have faulted. An injected
    // abort stops the pass at its cut point, and a budget that ties with
    // it keeps the injected label, so that budget adds no attempt.
    let stop = timed.stats.retired;
    let reach = match samples.truncated {
        Some(TruncationReason::ExecFault { .. }) => stop + 1,
        _ => stop,
    };
    let attempts = ladder_attempts(&ladder, reach);
    if let Some(obs) = observer {
        obs(PassEvent::SampleDone { profile: &samples });
    }
    Ok((samples, timed, attempts))
}

/// The process image of the instrumentation pass (the second ASLR layout)
/// and its linked, module-relative view that the analysis keys on.
fn instrumentation_image(
    modules: &[Module],
    config: &OptiwiseConfig,
) -> Result<(ProcessImage, Vec<Module>), OptiwiseError> {
    let load = LoadConfig {
        aslr_seed: Some(config.aslr_seeds.1),
        ..LoadConfig::default()
    };
    let image = ProcessImage::load(modules, &load)?;
    let linked = image.modules.iter().map(|m| m.linked.clone()).collect();
    Ok((image, linked))
}

/// The instrumentation pass (run 2): the DBI engine under the second ASLR
/// layout, executed once with the largest budget `config.retry` escalates
/// to, like [`run_sampling_pass`]. `config.dbi.selective` restricts full
/// counting to the listed text spans, and the fault plan's desync seed (if
/// any) deliberately runs the pass on different input.
///
/// Events mirror the sampling pass ([`PassEvent::CountsCheckpoint`],
/// [`PassEvent::CountsDone`]). Returns the final profile, possibly
/// truncated, the linked modules the analysis keys on and the attempts a
/// replay at each escalated budget in turn would have spent. The raw
/// profile carries no counter placement: the pipeline applies it after the
/// pass.
///
/// # Errors
///
/// As [`run_sampling_pass`].
pub fn run_counts_pass(
    modules: &[Module],
    config: &OptiwiseConfig,
    cancel: &CancelToken,
    checkpoint_every: u64,
    observer: Option<&(dyn Fn(PassEvent<'_>) + Sync)>,
) -> Result<(CountsProfile, Vec<Module>, u32), OptiwiseError> {
    let (image, linked) = instrumentation_image(modules, config)?;
    let ladder = budget_ladder(&config.retry, config.max_insns);
    let dbi_cfg = DbiConfig {
        rand_seed: config.fault.desync_rand_seed.unwrap_or(config.rand_seed),
        max_insns: ladder[ladder.len() - 1],
        fault: config.fault,
        ..config.dbi.clone()
    };
    let mut sink = |retired: u64, profile: CountsProfile| {
        if let Some(obs) = observer {
            obs(PassEvent::CountsCheckpoint { retired, profile });
        }
    };
    let pass_ctl = CountsPassControl {
        cancel: Some(cancel),
        checkpoint_every,
        sink: observer.is_some().then_some(&mut sink as _),
    };
    let counts = instrument_run_ctl(&image, &dbi_cfg, pass_ctl)?;
    // The block loop checks `retired > budget` after each step, so a
    // budget cuts the pass iff it is below the instructions the pass
    // retired. A cut pass dropped its partial block from the profile, so
    // it reaches its cut point instead; an injected cut that ties with a
    // budget keeps its label there, so that budget adds no attempt.
    let reach = match counts.truncated {
        Some(TruncationReason::InsnLimit(cut) | TruncationReason::Injected(cut)) => cut,
        _ => counts.total_insns(),
    };
    let attempts = ladder_attempts(&ladder, reach);
    if let Some(obs) = observer {
        obs(PassEvent::CountsDone { profile: &counts });
    }
    Ok((counts, linked, attempts))
}

/// Everything OptiWISE produced for one program.
pub struct OptiwiseRun {
    /// The fused analysis.
    pub analysis: Analysis,
    /// Raw sampling profile (run 1).
    pub samples: SampleProfile,
    /// Raw instrumentation profile (run 2).
    pub counts: CountsProfile,
    /// Timing statistics of the sampled run.
    pub timed: TimedRun,
    /// Attempts per pass (1 = the first budget sufficed): `(sampling,
    /// instrumentation)`. Each pass executes once; this counts the budgets
    /// of the [`RetryPolicy`] escalation a replay from instruction zero at
    /// each budget in turn would have run.
    pub attempts: (u32, u32),
}

/// Runs the full OptiWISE pipeline on a set of modules.
///
/// Recovery behaviour, in order:
///
/// 1. Each pass runs once with the largest budget `config.retry`
///    escalates to, so a pass the first budget would cut is given the
///    escalated budget (injected aborts and execution faults are
///    deterministic and never escalate).
/// 2. A sampling profile that stays truncated is still used (partial
///    cycles), unless `strict` or `!allow_partial`.
/// 3. A counts profile that stays truncated is *discarded* — truncated
///    counts systematically undercount late code, which would silently
///    skew every CPI — and the analysis degrades to sampling-only, again
///    unless `strict` or `!allow_partial`.
/// 4. In strict mode, a post-join divergence score above
///    `config.divergence_threshold` fails the run.
///
/// # Errors
///
/// Returns [`OptiwiseError`]: loader/simulator failures from either run,
/// [`OptiwiseError::Truncated`] when partial profiles are disallowed, and
/// [`OptiwiseError::Divergence`] in strict mode.
///
/// # Examples
///
/// ```
/// use optiwise::{run_optiwise, OptiwiseConfig};
/// use wiser_isa::assemble;
///
/// let module = assemble(
///     "demo",
///     r#"
///     .func _start global
///         li x8, 10000
///         li x9, 0
///     loop:
///         subi x8, x8, 1
///         bne x8, x9, loop
///         li x0, 0
///         syscall
///     .endfunc
///     .entry _start
///     "#,
/// )?;
/// let run = run_optiwise(&[module], &OptiwiseConfig::default())?;
/// assert!(!run.analysis.loops().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_optiwise(
    modules: &[Module],
    config: &OptiwiseConfig,
) -> Result<OptiwiseRun, OptiwiseError> {
    run_optiwise_ctl(modules, config, RunControl::default())
}

/// Runs the full OptiWISE pipeline under external [`RunControl`]: a
/// cancellation token (deadline / Ctrl-C) stops both passes at the next
/// safe instruction boundary and surfaces as
/// [`OptiwiseError::DeadlineExceeded`] (exit code 8) *after* the final
/// state reached the observer; checkpoint events fire on the configured
/// cadence; and passes restored via [`ResumeState`] are not re-executed
/// (their `attempts` count reads 0).
///
/// # Errors
///
/// Everything [`run_optiwise`] returns, plus
/// [`OptiwiseError::DeadlineExceeded`] for cancellation and
/// [`OptiwiseError::Killed`] for an injected crash.
pub fn run_optiwise_ctl(
    modules: &[Module],
    config: &OptiwiseConfig,
    ctl: RunControl<'_>,
) -> Result<OptiwiseRun, OptiwiseError> {
    // Central chokepoint for uarch-config validation: every entry into the
    // pipeline — CLI run/resume, daemon jobs, sweep cells — passes through
    // here, so a user-supplied grid can never reach the timing model with a
    // divide-by-zero cache geometry or a zero-width pipeline.
    config
        .core
        .validate()
        .map_err(|e| OptiwiseError::Usage(e.to_string()))?;
    let allow_partial = config.allow_partial && !config.strict;
    let RunControl {
        cancel,
        checkpoint_every,
        observer,
        resume,
    } = ctl;
    let ResumeState {
        samples: restored_samples,
        counts: restored_counts,
    } = resume;
    let cancel = &cancel;

    // A restored pass is used verbatim and re-announced, so a continuing
    // checkpoint keeps it; only the other pass executes.
    let sampling = move || -> Result<(SampleProfile, TimedRun, u32), OptiwiseError> {
        let Some(prior) = restored_samples else {
            return run_sampling_pass(modules, config, cancel, checkpoint_every, observer);
        };
        // Nothing downstream reads deeper pipeline statistics from a
        // restored pass, so the timing summary is synthesized from its
        // totals.
        let timed = TimedRun {
            stats: CoreStats {
                cycles: prior.total_cycles,
                retired: prior.retired,
                ..CoreStats::default()
            },
            exit_code: None,
            output: String::new(),
        };
        if let Some(obs) = observer {
            obs(PassEvent::SampleDone { profile: &prior });
        }
        Ok((prior, timed, 0))
    };
    let counts =
        move |config: &OptiwiseConfig| -> Result<(CountsProfile, Vec<Module>, u32), OptiwiseError> {
            let Some(prior) = restored_counts else {
                return run_counts_pass(modules, config, cancel, checkpoint_every, observer);
            };
            let (_, linked) = instrumentation_image(modules, config)?;
            if let Some(obs) = observer {
                obs(PassEvent::CountsDone { profile: &prior });
            }
            Ok((prior, linked, 0))
        };

    // The two passes are independent executions of the same program with
    // their own process images, so they can overlap. Errors
    // are reported in the fixed pass order (sampling first) regardless of
    // which thread failed first, keeping failures deterministic too.
    //
    // Selective mode breaks the independence on purpose: the sampling
    // profile decides which functions the instrumentation pass counts, so
    // the passes run sequentially and the hot set flows into both the DBI
    // config and the analysis' coverage marking.
    let (sampling_result, counts_result, hot_set) = if config.selective {
        let sampled = sampling()?;
        let (counts_result, hot) = match plan_selective(modules, &sampled.0, config.hot_threshold) {
            Some((ranges, hot)) => {
                let mut narrowed = config.clone();
                narrowed.dbi.selective = Some(ranges);
                (counts(&narrowed), Some(hot))
            }
            // No sample weight to rank by: instrument everything.
            None => (counts(config), None),
        };
        (Ok(sampled), counts_result, hot)
    } else if config.concurrent_passes {
        let (s, c) = std::thread::scope(|scope| {
            let dbi_thread = scope.spawn(move || counts(config));
            let sampling_result = sampling();
            let counts_result = dbi_thread
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (sampling_result, counts_result)
        });
        (s, c, None)
    } else {
        (sampling(), counts(config), None)
    };
    let (samples, timed, sample_attempts) = sampling_result?;
    let (mut counts, linked, count_attempts) = counts_result?;

    // Cooperative cancellation in either pass stops the pipeline here, with
    // a dedicated error class (exit code 8) instead of the truncation
    // handling below. The Done events above already handed the partial
    // state to the observer, so a configured checkpoint has everything.
    let cancel_point = |t: &Option<TruncationReason>| match t {
        Some(TruncationReason::Cancelled(n)) => Some(*n),
        _ => None,
    };
    let cancelled = cancel_point(&samples.truncated).max(cancel_point(&counts.truncated));
    if let Some(retired) = cancelled {
        return Err(OptiwiseError::DeadlineExceeded {
            retired,
            deadline: matches!(cancel.cause(), Some(CancelCause::Deadline)),
        });
    }

    if let Some(reason) = &samples.truncated {
        if !allow_partial {
            return Err(OptiwiseError::Truncated {
                pass: Pass::Sampling,
                reason: reason.clone(),
            });
        }
    }

    // Analysis over the linked modules (module-relative, layout agnostic).
    let analysis = match &counts.truncated {
        Some(reason) => {
            if !allow_partial {
                return Err(OptiwiseError::Truncated {
                    pass: Pass::Instrumentation,
                    reason: reason.clone(),
                });
            }
            // Truncated counts undercount everything executed after the
            // cut; fusing them would silently skew CPI. Degrade to a
            // labelled sampling-only analysis instead.
            let mut analysis = Analysis::sampling_only(&linked, &samples, config.analysis)?;
            analysis.diagnostics.counts_truncated = Some(reason.clone());
            analysis.diagnostics.warnings.push(format!(
                "instrumentation run truncated ({reason}); counts profile discarded"
            ));
            analysis
        }
        None => {
            // Minimal counter placement: drop every counter whose value
            // flow conservation provably recovers, then hand the analysis
            // the placed profile (it recovers internally, bit-identically).
            // Restored profiles already carry their placement, so resumed
            // runs stay byte-identical to uninterrupted ones.
            if !config.exhaustive_counters && counts.placement.is_none() {
                wiser_cfg::optimize_placement(&mut counts, &linked, &config.dbi.cost);
            }
            match &hot_set {
                Some(hot) => {
                    Analysis::try_new_selective(&linked, &samples, &counts, config.analysis, hot)?
                }
                None => Analysis::try_new(&linked, &samples, &counts, config.analysis)?,
            }
        }
    };

    if config.strict && analysis.diagnostics.diverged(config.divergence_threshold) {
        return Err(OptiwiseError::Divergence {
            score: analysis.diagnostics.divergence_score,
            threshold: config.divergence_threshold,
            summary: analysis.diagnostics.summary(),
        });
    }

    Ok(OptiwiseRun {
        analysis,
        samples,
        counts,
        timed,
        attempts: (sample_attempts, count_attempts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisMode;
    use wiser_isa::assemble;

    fn counted_loop() -> Module {
        assemble(
            "cl",
            r#"
            .func _start global
                li x8, 5000
                li x9, 0
            loop:
                addi x1, x1, 1
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap()
    }

    /// [`counted_loop`], but ending in a jump outside mapped code instead
    /// of the exit syscall: both passes stop with an execution fault.
    fn faulting_loop() -> Module {
        assemble(
            "fl",
            r#"
            .func _start global
                li x8, 5000
                li x9, 0
            loop:
                addi x1, x1, 1
                subi x8, x8, 1
                bne x8, x9, loop
                li x1, 1
                jr x1
            .endfunc
            .entry _start
            "#,
        )
        .unwrap()
    }

    /// The replay loop the single execution replaced, kept as its
    /// reference: run at `budget`, and while the pass ends in a budget cut
    /// the policy allows escalating, run it again from instruction zero.
    /// `attempt` returns the pass output, the instructions it spent and
    /// how it was cut short.
    fn replay<T>(
        retry: &RetryPolicy,
        mut budget: u64,
        mut attempt: impl FnMut(u64) -> (T, u64, Option<TruncationReason>),
    ) -> (T, u32) {
        let mut attempts = 0u32;
        let mut spent = 0u64;
        loop {
            attempts += 1;
            let (result, used, truncated) = attempt(budget);
            spent += used;
            let escalated = budget.saturating_mul(retry.budget_multiplier);
            match truncated {
                Some(reason)
                    if reason.retryable()
                        && attempts <= retry.max_retries
                        && spent.saturating_add(escalated) <= retry.max_total_insns =>
                {
                    budget = escalated;
                }
                _ => return (result, attempts),
            }
        }
    }

    /// Both passes through [`replay`], fused by the runner from the
    /// restored profiles.
    fn reference_run(modules: &[Module], cfg: &OptiwiseConfig) -> OptiwiseRun {
        let load = LoadConfig {
            aslr_seed: Some(cfg.aslr_seeds.0),
            ..LoadConfig::default()
        };
        let image = ProcessImage::load(modules, &load).unwrap();
        let sampler_cfg = SamplerConfig {
            fault: cfg.fault,
            ..cfg.sampler
        };
        let (samples, sample_attempts) = replay(&cfg.retry, cfg.max_insns, |budget| {
            let ctl = SamplePassControl::default();
            let (samples, timed) =
                sample_run_ctl(&image, cfg.rand_seed, cfg.core, sampler_cfg, budget, ctl).unwrap();
            let truncated = samples.truncated.clone();
            (samples, timed.stats.retired, truncated)
        });
        let (image, _) = instrumentation_image(modules, cfg).unwrap();
        let (counts, count_attempts) = replay(&cfg.retry, cfg.max_insns, |budget| {
            let dbi_cfg = DbiConfig {
                rand_seed: cfg.fault.desync_rand_seed.unwrap_or(cfg.rand_seed),
                max_insns: budget,
                fault: cfg.fault,
                ..cfg.dbi.clone()
            };
            let counts =
                instrument_run_ctl(&image, &dbi_cfg, CountsPassControl::default()).unwrap();
            let (spent, truncated) = (counts.total_insns(), counts.truncated.clone());
            (counts, spent, truncated)
        });
        let ctl = RunControl {
            resume: ResumeState {
                samples: Some(samples),
                counts: Some(counts),
            },
            ..RunControl::default()
        };
        let mut run = run_optiwise_ctl(modules, cfg, ctl).unwrap();
        run.attempts = (sample_attempts, count_attempts);
        run
    }

    fn assert_matches_reference(module: &Module, cfg: &OptiwiseConfig) {
        let modules = std::slice::from_ref(module);
        let got = run_optiwise(modules, cfg).unwrap();
        let want = reference_run(modules, cfg);
        let case = format!(
            "{}: max_insns {}, {:?}, abort at {:?}/{:?}",
            module.name,
            cfg.max_insns,
            cfg.retry,
            cfg.fault.abort_sample_at,
            cfg.fault.truncate_counts_at,
        );
        assert_eq!(got.samples, want.samples, "{case}");
        assert_eq!(got.counts, want.counts, "{case}");
        assert_eq!(got.attempts, want.attempts, "{case}");
        assert_eq!(
            crate::report::full_report(&got.analysis, 20),
            crate::report::full_report(&want.analysis, 20),
            "{case}"
        );
    }

    /// Every policy of the sweeps: 0–2 escalations at 2x and 4x.
    fn policies() -> impl Iterator<Item = RetryPolicy> {
        (0..=2).flat_map(|max_retries| {
            [2, 4].map(|budget_multiplier| RetryPolicy {
                max_retries,
                budget_multiplier,
                ..RetryPolicy::default()
            })
        })
    }

    /// The sweep programs with their instruction count before they stop.
    fn sweep_programs() -> Vec<(Module, u64)> {
        [counted_loop(), faulting_loop()]
            .into_iter()
            .map(|m| {
                let run = run_optiwise(std::slice::from_ref(&m), &OptiwiseConfig::default());
                let len = run.unwrap().timed.stats.retired;
                (m, len)
            })
            .collect()
    }

    #[test]
    fn budget_ladder_escalates_within_the_total_cap() {
        let policy = RetryPolicy::default();
        assert_eq!(budget_ladder(&policy, 8_000), vec![8_000, 32_000]);
        let two = RetryPolicy {
            max_retries: 2,
            ..policy
        };
        assert_eq!(budget_ladder(&two, 8_000), vec![8_000, 32_000, 128_000]);
        // The cap sums rung budgets: 8k + 32k fits 40k exactly, 39_999
        // does not.
        for (cap, rungs) in [(40_000, 2), (39_999, 1), (168_000, 3), (167_999, 2)] {
            let capped = RetryPolicy {
                max_total_insns: cap,
                ..two
            };
            assert_eq!(budget_ladder(&capped, 8_000).len(), rungs, "cap {cap}");
        }
        // A multiplier that cannot grow the budget never escalates.
        for budget_multiplier in [0, 1] {
            let flat = RetryPolicy {
                budget_multiplier,
                ..two
            };
            assert_eq!(budget_ladder(&flat, 8_000), vec![8_000]);
        }
        let none = RetryPolicy {
            max_retries: 0,
            ..policy
        };
        assert_eq!(budget_ladder(&none, 8_000), vec![8_000]);
    }

    #[test]
    fn single_execution_matches_replay_across_budgets() {
        for (module, len) in sweep_programs() {
            for retry in policies() {
                let budgets = (len - 2..=len + 2).chain([len / 4 - 1, len / 4 + 1]);
                for max_insns in budgets {
                    let cfg = OptiwiseConfig {
                        max_insns,
                        retry,
                        ..OptiwiseConfig::default()
                    };
                    assert_matches_reference(&module, &cfg);
                }
            }
        }
    }

    #[test]
    fn single_execution_matches_replay_at_injected_cuts() {
        for (module, len) in sweep_programs() {
            for retry in policies() {
                let max_insns = len / 4 - 1;
                for rung in budget_ladder(&retry, max_insns) {
                    for at in [rung - 1, rung, rung + 1] {
                        let mut cfg = OptiwiseConfig {
                            max_insns,
                            retry,
                            ..OptiwiseConfig::default()
                        };
                        cfg.fault.abort_sample_at = Some(at);
                        cfg.fault.truncate_counts_at = Some(at);
                        assert_matches_reference(&module, &cfg);
                    }
                }
            }
        }
    }

    #[test]
    fn single_execution_matches_replay_under_total_caps() {
        for (module, len) in sweep_programs() {
            for retry in policies() {
                let max_insns = len / 4 - 1;
                let mut sum = 0;
                for rung in budget_ladder(&retry, max_insns) {
                    sum += rung;
                    for max_total_insns in [sum - rung, sum, sum + rung] {
                        let cfg = OptiwiseConfig {
                            max_insns,
                            retry: RetryPolicy {
                                max_total_insns,
                                ..retry
                            },
                            ..OptiwiseConfig::default()
                        };
                        assert_matches_reference(&module, &cfg);
                    }
                }
            }
        }
    }

    #[test]
    fn checkpoints_advance_monotonically_through_budget_escalation() {
        use std::sync::Mutex;
        // The 8k first budget cuts both passes; their one execution at the
        // escalated budget must not restart the checkpoint sequence.
        let seen = Mutex::new((Vec::new(), Vec::new()));
        let observer = |ev: PassEvent<'_>| {
            let mut s = seen.lock().unwrap();
            match ev {
                PassEvent::SampleCheckpoint { retired, .. } => s.0.push(retired),
                PassEvent::CountsCheckpoint { retired, .. } => s.1.push(retired),
                _ => {}
            }
        };
        let ctl = RunControl {
            checkpoint_every: 2_000,
            observer: Some(&observer),
            ..RunControl::default()
        };
        let cfg = OptiwiseConfig {
            max_insns: 8_000,
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise_ctl(&[counted_loop()], &cfg, ctl).unwrap();
        assert_eq!(run.attempts, (2, 2));
        let (samples, counts) = seen.into_inner().unwrap();
        for retired in [samples, counts] {
            assert!(retired.len() >= 2, "{retired:?}");
            assert!(retired.windows(2).all(|w| w[0] < w[1]), "{retired:?}");
        }
    }

    #[test]
    fn budget_retry_recovers_truncated_passes() {
        // ~15k instructions needed; the 8k first budget would cut both
        // passes, so each runs once at the 4x-escalated budget.
        let cfg = OptiwiseConfig {
            max_insns: 8_000,
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        assert_eq!(run.attempts, (2, 2));
        assert_eq!(run.samples.truncated, None);
        assert_eq!(run.counts.truncated, None);
        assert_eq!(run.analysis.mode, AnalysisMode::Full);
        assert_eq!(run.timed.exit_code, Some(5000));
    }

    #[test]
    fn injected_counts_truncation_degrades_to_sampling_only() {
        let mut cfg = OptiwiseConfig::default();
        cfg.fault.truncate_counts_at = Some(5_000);
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        // Injected aborts are deterministic: no escalation is spent on them.
        assert_eq!(run.attempts.1, 1);
        assert_eq!(run.counts.truncated, Some(TruncationReason::Injected(5_000)));
        assert_eq!(run.analysis.mode, AnalysisMode::SamplingOnly);
        assert!(run
            .analysis
            .diagnostics
            .warnings
            .iter()
            .any(|w| w.contains("counts profile discarded")));
        // Cycle attribution still works in degraded mode.
        assert!(run.analysis.total_cycles > 0);
        assert_eq!(run.analysis.total_insns, 0);
    }

    #[test]
    fn strict_rejects_truncation_instead_of_degrading() {
        let mut cfg = OptiwiseConfig {
            strict: true,
            ..OptiwiseConfig::default()
        };
        cfg.fault.truncate_counts_at = Some(5_000);
        let err = match run_optiwise(&[counted_loop()], &cfg) {
            Err(e) => e,
            Ok(_) => panic!("strict run with injected truncation should fail"),
        };
        assert!(matches!(
            err,
            OptiwiseError::Truncated {
                pass: Pass::Instrumentation,
                ..
            }
        ));
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn strict_passes_on_healthy_run() {
        let cfg = OptiwiseConfig {
            strict: true,
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        assert!(run.analysis.diagnostics.divergence_score < DEFAULT_DIVERGENCE_THRESHOLD);
        assert_eq!(run.attempts, (1, 1));
    }

    #[test]
    fn concurrent_and_sequential_passes_agree_exactly() {
        let par = run_optiwise(&[counted_loop()], &OptiwiseConfig::default()).unwrap();
        let seq = run_optiwise(
            &[counted_loop()],
            &OptiwiseConfig {
                concurrent_passes: false,
                ..OptiwiseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(par.samples, seq.samples);
        assert_eq!(par.counts, seq.counts);
        assert_eq!(par.attempts, seq.attempts);
        assert_eq!(
            crate::report::full_report(&par.analysis, 20),
            crate::report::full_report(&seq.analysis, 20),
        );
    }

    #[test]
    fn total_insn_cap_makes_final_truncation_stand() {
        // ~15k instructions needed. The 8k first budget truncates; the
        // default policy would escalate to 32k and succeed, but the 20k
        // cap on the ladder's rung sum forbids 8k + 32k, so the budget
        // truncation stands and the run degrades to sampling-only.
        let cfg = OptiwiseConfig {
            max_insns: 8_000,
            retry: RetryPolicy {
                max_total_insns: 20_000,
                ..RetryPolicy::default()
            },
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        assert_eq!(run.attempts, (1, 1));
        assert_eq!(run.counts.truncated, Some(TruncationReason::InsnLimit(8_000)));
        assert_eq!(run.analysis.mode, AnalysisMode::SamplingOnly);

        // Same workload with a permissive cap escalates and completes.
        let cfg = OptiwiseConfig {
            max_insns: 8_000,
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        assert_eq!(run.attempts, (2, 2));
    }

    #[test]
    fn cancelled_token_surfaces_as_deadline_exceeded() {
        let ctl = RunControl::default();
        ctl.cancel.cancel();
        let err = match run_optiwise_ctl(&[counted_loop()], &OptiwiseConfig::default(), ctl) {
            Err(e) => e,
            Ok(_) => panic!("pre-cancelled run should fail"),
        };
        match err {
            OptiwiseError::DeadlineExceeded { deadline, .. } => assert!(!deadline),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert_eq!(
            OptiwiseError::DeadlineExceeded {
                retired: 0,
                deadline: false
            }
            .exit_code(),
            8
        );
    }

    #[test]
    fn injected_kill_surfaces_as_killed() {
        let mut cfg = OptiwiseConfig::default();
        cfg.fault.kill_after_insns = Some(6_000);
        let err = match run_optiwise(&[counted_loop()], &cfg) {
            Err(e) => e,
            Ok(_) => panic!("injected kill should fail the run"),
        };
        assert!(matches!(err, OptiwiseError::Killed { .. }), "{err}");
        assert_eq!(err.exit_code(), 9);
    }

    #[test]
    fn restored_passes_skip_execution_and_match_fresh_run() {
        let cfg = OptiwiseConfig::default();
        let fresh = run_optiwise(&[counted_loop()], &cfg).unwrap();

        let ctl = RunControl {
            resume: ResumeState {
                samples: Some(fresh.samples.clone()),
                counts: Some(fresh.counts.clone()),
            },
            ..RunControl::default()
        };
        let resumed = run_optiwise_ctl(&[counted_loop()], &cfg, ctl).unwrap();
        assert_eq!(resumed.attempts, (0, 0));
        assert_eq!(resumed.samples, fresh.samples);
        assert_eq!(resumed.counts, fresh.counts);
        assert_eq!(
            crate::report::full_report(&resumed.analysis, 20),
            crate::report::full_report(&fresh.analysis, 20),
        );
    }

    #[test]
    fn observer_receives_checkpoints_and_done_events() {
        use std::sync::Mutex;
        // (sample ckpts, counts ckpts, sample done, counts done)
        let seen = Mutex::new((0u32, 0u32, 0u32, 0u32));
        let observer = |ev: PassEvent<'_>| {
            let mut s = seen.lock().unwrap();
            match ev {
                PassEvent::SampleCheckpoint { profile, .. } => {
                    assert!(matches!(
                        profile.truncated,
                        Some(TruncationReason::Cancelled(_))
                    ));
                    s.0 += 1;
                }
                PassEvent::CountsCheckpoint { profile, .. } => {
                    assert!(matches!(
                        profile.truncated,
                        Some(TruncationReason::Cancelled(_))
                    ));
                    s.1 += 1;
                }
                PassEvent::SampleDone { profile } => {
                    assert!(profile.truncated.is_none());
                    s.2 += 1;
                }
                PassEvent::CountsDone { profile } => {
                    assert!(profile.truncated.is_none());
                    s.3 += 1;
                }
            }
        };
        let ctl = RunControl {
            checkpoint_every: 4_000,
            observer: Some(&observer),
            ..RunControl::default()
        };
        run_optiwise_ctl(&[counted_loop()], &OptiwiseConfig::default(), ctl).unwrap();
        let s = seen.into_inner().unwrap();
        // ~15k instructions at a 4k cadence: several snapshots per pass,
        // one Done each.
        assert!(s.0 >= 2, "sample checkpoints: {}", s.0);
        assert!(s.1 >= 2, "counts checkpoints: {}", s.1);
        assert_eq!((s.2, s.3), (1, 1));
    }

    #[test]
    fn pipeline_end_to_end() {
        let module = assemble(
            "e2e",
            r#"
            .func _start global
                li x8, 5000
                li x9, 0
            loop:
                addi x1, x1, 1
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let run = run_optiwise(&[module], &OptiwiseConfig::default()).unwrap();
        // Exit code is x1, the loop counter.
        assert_eq!(run.timed.exit_code, Some(5000));
        assert_eq!(run.analysis.loops().len(), 1);
        assert_eq!(run.analysis.loops()[0].iterations, 4999);
        assert!(run.analysis.total_cycles > 0);
        // Same program, both runs: instruction totals agree exactly. The
        // raw profile carries a minimal counter placement (some counters
        // suppressed), so the exact total lives in the recovered view the
        // analysis built.
        assert_eq!(run.analysis.total_insns, run.timed.stats.retired);
        let placement = run.counts.placement.as_ref().expect("placement applied");
        assert!(!placement.recovered);
        assert!(run.counts.cost.counters_suppressed > 0);
        let recovered = wiser_cfg::recover(&run.counts).unwrap();
        assert_eq!(recovered.total_insns(), run.timed.stats.retired);
    }

    #[test]
    fn placement_recovers_bit_identically_to_exhaustive_counting() {
        let placed = run_optiwise(&[counted_loop()], &OptiwiseConfig::default()).unwrap();
        let exhaustive = run_optiwise(
            &[counted_loop()],
            &OptiwiseConfig {
                exhaustive_counters: true,
                ..OptiwiseConfig::default()
            },
        )
        .unwrap();
        assert!(exhaustive.counts.placement.is_none());
        // The placed run drops real instrumentation work...
        assert!(
            placed.counts.cost.instrumented_insns < exhaustive.counts.cost.instrumented_insns
        );
        assert!(
            placed.counts.cost.counters_placed < exhaustive.counts.cost.counters_placed
        );
        // ...and recovery reproduces the exhaustive profile's counts
        // exactly, so the analyses agree verbatim.
        let recovered = wiser_cfg::recover(&placed.counts).unwrap();
        assert_eq!(recovered.blocks, exhaustive.counts.blocks);
        assert_eq!(
            crate::report::full_report(&placed.analysis, 20),
            crate::report::full_report(&exhaustive.analysis, 20),
        );
    }

    #[test]
    fn selective_mode_counts_hot_functions_and_marks_cold_ones() {
        use crate::types::Coverage;
        let main = assemble(
            "sel",
            r#"
            .func cold_setup
                li x5, 3000
                li x6, 0
            tiny:
                subi x5, x5, 1
                bne x5, x6, tiny
                ret
            .endfunc
            .func hot_spin global
                li x1, 40000
                li x2, 0
            spin:
                udiv x3, x1, x1
                subi x1, x1, 1
                bne x1, x2, spin
                ret
            .endfunc
            .func _start global
                call cold_setup
                call hot_spin
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let cfg = OptiwiseConfig {
            selective: true,
            // cold_setup runs ~6k cycles — enough to catch several samples
            // at the default 2048-cycle period, far below 10% of the
            // udiv-dominated total.
            hot_threshold: 0.10,
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(std::slice::from_ref(&main), &cfg).unwrap();
        assert_eq!(run.analysis.mode, AnalysisMode::Full);
        let hot = run.analysis.function("hot_spin").expect("hot function");
        assert_eq!(hot.coverage, Coverage::Counted);
        assert_eq!(hot.self_insns, 2 + 3 * 40_000 + 1);
        // The setup function ran for a handful of instructions: far below
        // the hotness threshold, so it keeps cycles but has no counts.
        let cold = run.analysis.function("cold_setup").expect("cold function");
        assert_eq!(cold.coverage, Coverage::SamplingOnly);
        assert_eq!(cold.self_insns, 0);
        // Stack profiling stays exact for cold code: the callee table still
        // attributes hot_spin's instructions to _start's call site.
        let start = run.analysis.function("_start").unwrap();
        assert!(start.incl_insns > 3 * 40_000);
        // Selective runs are deterministic like everything else.
        let again = run_optiwise(&[main], &cfg).unwrap();
        assert_eq!(again.counts, run.counts);
        assert_eq!(
            crate::report::full_report(&again.analysis, 20),
            crate::report::full_report(&run.analysis, 20),
        );
    }

    #[test]
    fn cross_module_pipeline() {
        let main = assemble(
            "main",
            r#"
            .import busy
            .func _start global
                li x8, 2000
                li x9, 0
            loop:
                call busy
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let lib = assemble(
            "libbusy",
            r#"
            .func busy global
                li x1, 50
                li x2, 0
            spin:
                subi x1, x1, 1
                bne x1, x2, spin
                ret
            .endfunc
            "#,
        )
        .unwrap();
        let run = run_optiwise(&[main, lib], &OptiwiseConfig::default()).unwrap();
        // The caller loop subsumes the callee's spin loop, so it sorts on
        // top; the spin loop in the library module is second.
        let caller_loop = run
            .analysis
            .loops()
            .iter()
            .find(|l| l.function == "_start")
            .unwrap();
        let spin_loop = run
            .analysis
            .loops()
            .iter()
            .find(|l| l.function == "busy")
            .expect("spin loop in library module");
        assert_eq!(spin_loop.module, 1);
        assert!(caller_loop.cycles >= spin_loop.cycles);
        // The callee still holds the lion's share of the time.
        assert!(spin_loop.cycles * 2 > caller_loop.cycles);
        // And its instruction total includes callee instructions via the
        // callee table (2000 calls × ~102 insns each).
        assert!(caller_loop.total_insns > 2000 * 100);
    }
}
