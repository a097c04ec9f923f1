//! The four workloads, their set-up, and the two ways of running a job:
//! untraced through `run_optiwise` (end-to-end numbers) and traced as the
//! chain of public layer calls (per-layer numbers).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use optiwise::sweep::{SweepConfig, SweepGrid, SweepResult, SweepWorkload};
use optiwise::{
    module_fingerprint, reduce_fleet, report, run_optiwise, run_optiwise_ctl, Analysis,
    CancelToken, DiffOptions, OptiwiseConfig, OptiwiseError, OptiwiseRun, PassEvent, ProfileTables,
    RetryPolicy, RunControl,
};
use wiser_archive::Archive;
use wiser_dbi::{instrument_run_ctl, CountsPassControl, CountsProfile, DbiConfig};
use wiser_isa::Module;
use wiser_sampler::{sample_run_ctl, SamplePassControl, SampleProfile, SamplerConfig};
use wiser_sim::{
    run_oracle, run_timed, CoreConfig, Interp, LoadConfig, NoProbes, OracleProfile, ProcessImage,
    Step, TimedRun, TruncationReason,
};
use wiser_store::{Checkpoint, CheckpointSpec, CheckpointWriter, StoredProfile};
use wiser_workloads::InputSize;

use crate::trace::{SpanId, Tracer};

/// Per-pass instruction budget of `budget_replay`: between a quarter of and
/// the full length of both programs, so each pass's first attempt
/// truncates and the 4x retry completes.
const REPLAY_BUDGET: u64 = 4_000_000;
/// Checkpoint cadence of fleet cells: the CLI's default.
const CHECKPOINT_EVERY: u64 = 1_000_000;
/// Budget for the oracle and the reference calls; every program here exits
/// long before it.
const REFERENCE_BUDGET: u64 = 1_000_000_000;
/// Rows per report table, as `optiwise run` prints by default.
const REPORT_TOP: usize = 20;
/// Fleet uarch configurations, baseline first.
const FLEET_CONFIGS: [&str; 3] = ["xeon", "neoverse", "tiny"];
/// Fleet programs. Each checkpoint and archive commit is an fsync'd atomic
/// write, which a throttled disk stretches from a fraction of a
/// millisecond to tens of milliseconds. The cells are therefore programs
/// that spend seconds per million instructions (7-12 simulated cycles
/// each), so the writes stay a small share of the fleet's wall time in
/// either disk state. Short 1-CPI programs, generated ones included, pay
/// five such writes per few tens of milliseconds of profiling.
const FLEET_PROGRAMS: [(&str, InputSize); 2] = [
    ("stack_attr", InputSize::Train),
    ("recip_loop", InputSize::Train),
];

/// One of the benchmark's workloads; each loads a different layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Programs at 7-12 simulated cycles per instruction: the timed core.
    StallBound,
    /// Programs near 1 CPI: the interpreter, memory map and DBI pass.
    DenseMix,
    /// Passes that hit their budget and replay: the runner's retry.
    BudgetReplay,
    /// A config-sweep fleet: checkpoints, archive and worker pool.
    Fleet,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::StallBound,
    Workload::DenseMix,
    Workload::BudgetReplay,
    Workload::Fleet,
];

impl Workload {
    /// Workload name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StallBound => "stall_bound",
            Workload::DenseMix => "dense_mix",
            Workload::BudgetReplay => "budget_replay",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The per-pass instruction budget the workload runs with.
    pub fn max_insns(self) -> u64 {
        match self {
            Workload::BudgetReplay => REPLAY_BUDGET,
            _ => OptiwiseConfig::default().max_insns,
        }
    }

    /// Programs and sizes, for the provenance record.
    pub fn describe(self) -> String {
        let programs: Vec<String> = self
            .programs()
            .iter()
            .map(|(name, size)| format!("{name}@{}", size.name()))
            .collect();
        match self {
            Workload::Fleet => format!("{} x {}", programs.join(","), FLEET_CONFIGS.join(",")),
            _ => programs.join(","),
        }
    }

    fn programs(self) -> Vec<(&'static str, InputSize)> {
        use InputSize::{Test, Train};
        match self {
            Workload::StallBound => vec![("recip_loop", Train), ("stack_attr", Train)],
            Workload::DenseMix => vec![
                ("lbm_like", Test),
                ("gcc_like", Train),
                ("xalancbmk_like", Train),
            ],
            Workload::BudgetReplay => vec![("bwaves_like", Train), ("deepsjeng_like", Train)],
            Workload::Fleet => FLEET_PROGRAMS.to_vec(),
        }
    }
}

/// SplitMix64 of `seed` on stream `stream`: independent derived seeds.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One profiling job: a program, its configuration and its oracle image.
pub struct Job {
    /// Label stored in the `.owp` (a sweep cell label for fleet cells).
    pub label: String,
    /// Registry name.
    pub program: String,
    /// Input size name recorded in checkpoints.
    pub size: &'static str,
    /// The built program.
    pub modules: Vec<Module>,
    /// Pipeline configuration.
    pub config: OptiwiseConfig,
    /// `module_fingerprint` of the program.
    pub fingerprint: u64,
    /// The sampling pass's process image, for the oracle and reference
    /// calls.
    pub image: ProcessImage,
    /// Whether the job is a fleet cell (checkpointed, committed to the
    /// archive, reduced) rather than a single `optiwise run --save`.
    pub cell: Option<optiwise::SweepCell>,
}

impl Job {
    /// Arch preset the job runs on: the cell's, or the default `xeon`.
    fn arch(&self) -> &str {
        self.cell.as_ref().map_or("xeon", |c| &c.config.arch)
    }

    fn checkpoint_spec(&self) -> CheckpointSpec {
        let c = &self.config;
        CheckpointSpec {
            module_hash: self.fingerprint,
            workload: self.program.clone(),
            size: self.size.to_string(),
            arch: self.arch().to_string(),
            overrides: self
                .cell
                .as_ref()
                .map_or_else(Vec::new, |c| c.config.overrides.clone()),
            rand_seed: c.rand_seed,
            period: c.sampler.period,
            jitter: c.sampler.jitter,
            sampler_seed: c.sampler.seed,
            attribution: c.sampler.attribution,
            stacks: c.sampler.stacks,
            stack_profiling: c.dbi.stack_profiling,
            merge_threshold: c.analysis.merge_threshold,
            max_insns: c.max_insns,
            strict: c.strict,
            allow_partial: c.allow_partial,
            checkpoint_every: CHECKPOINT_EVERY,
        }
    }

    fn store(&self, run: &OptiwiseRun) -> StoredProfile {
        StoredProfile::from_run(
            &self.label,
            run,
            self.config.rand_seed,
            self.arch(),
            self.config.core,
        )
    }
}

/// A workload ready to run.
pub struct Prepared {
    /// The workload's jobs, in declared (grid) order.
    pub jobs: Vec<Arc<Job>>,
    /// The fleet's archive.
    pub archive: Option<Archive>,
}

fn pipeline_config(workload: Workload, seed: u64, core: CoreConfig) -> OptiwiseConfig {
    OptiwiseConfig {
        core,
        sampler: SamplerConfig {
            seed: derive(seed, 3),
            ..SamplerConfig::default()
        },
        rand_seed: seed,
        max_insns: workload.max_insns(),
        aslr_seeds: (derive(seed, 1), derive(seed, 2)),
        // One thread per job. Overlapping the two passes on the two
        // hardware threads of a 2-vCPU AMD EPYC VM made single-program
        // rounds vary about 10% (coefficient of variation) against 2-5%
        // run sequentially; the fleet gets its parallelism from the pool.
        concurrent_passes: false,
        ..OptiwiseConfig::default()
    }
}

fn load(modules: &[Module], aslr: u64) -> Result<ProcessImage, OptiwiseError> {
    let cfg = LoadConfig {
        aslr_seed: Some(aslr),
        ..LoadConfig::default()
    };
    Ok(ProcessImage::load(modules, &cfg)?)
}

/// Set-up: assembles every program of the workload and loads its process
/// images. With a tracer, each program build gets a `workloads.build`
/// span. The fleet's archive is created by [`Prepared::create_archive`].
///
/// # Errors
///
/// Assembly or load failures.
pub fn setup(
    workload: Workload,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<Prepared, OptiwiseError> {
    let build = |i: usize, name: &str, size: InputSize| {
        let f = || {
            let w = wiser_workloads::by_name(name)
                .ok_or_else(|| OptiwiseError::Load(format!("unknown workload {name}")))?;
            w.build(size)
                .map_err(|e| OptiwiseError::Load(format!("building {name}: {e}")))
        };
        match tracer {
            Some(t) => t.time("workloads.build", i, None, f),
            None => f(),
        }
    };
    let programs = workload.programs();
    let mut jobs = Vec::new();
    if workload == Workload::Fleet {
        let workloads = programs
            .iter()
            .map(|(name, _)| SweepWorkload {
                name: (*name).to_string(),
                seed,
            })
            .collect();
        let configs = FLEET_CONFIGS
            .iter()
            .map(|c| SweepConfig::parse(c))
            .collect::<Result<Vec<_>, _>>()?;
        let per_program = configs.len();
        for cell in (SweepGrid { configs, workloads }).expand() {
            // Cells expand workload-major.
            let (name, size) = programs[cell.index / per_program];
            let modules = build(cell.index, name, size)?;
            let config = pipeline_config(workload, seed, cell.config.core());
            let label = cell.label();
            jobs.push(job(label, name, size, modules, config, Some(cell))?);
        }
    } else {
        for (i, &(name, size)) in programs.iter().enumerate() {
            let modules = build(i, name, size)?;
            let config = pipeline_config(workload, seed, CoreConfig::xeon_like());
            let label = format!("{name}-{}", size.name());
            jobs.push(job(label, name, size, modules, config, None)?);
        }
    }
    Ok(Prepared {
        jobs,
        archive: None,
    })
}

impl Prepared {
    /// Creates the fleet's archive in `dir`. Not part of the timed
    /// set-up: it is one fsync'd manifest write, which a throttled disk
    /// stretches from a millisecond to tens of milliseconds, more than the
    /// rest of set-up takes.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn create_archive(&mut self, dir: &Path) -> Result<(), OptiwiseError> {
        self.archive = Some(Archive::create(dir)?);
        Ok(())
    }
}

fn job(
    label: String,
    program: &str,
    size: InputSize,
    modules: Vec<Module>,
    config: OptiwiseConfig,
    cell: Option<optiwise::SweepCell>,
) -> Result<Arc<Job>, OptiwiseError> {
    let image = load(&modules, config.aslr_seeds.0)?;
    // The instrumentation pass's image is loaded too, as the pipeline
    // will; set-up fails here rather than mid-measurement if it cannot be.
    load(&modules, config.aslr_seeds.1)?;
    Ok(Arc::new(Job {
        label,
        program: program.to_string(),
        size: size.name(),
        fingerprint: module_fingerprint(&modules),
        modules,
        config,
        image,
        cell,
    }))
}

/// The exact reference of one job: what its sampling pass must reproduce.
///
/// # Errors
///
/// Loader-class failures of the oracle run.
pub fn oracle(job: &Job) -> Result<OracleProfile, OptiwiseError> {
    let (profile, _) = run_oracle(
        &job.image,
        job.config.rand_seed,
        job.config.core,
        REFERENCE_BUDGET,
    )?;
    Ok(profile)
}

/// A finished job: the run, its `.owp` bytes and its deterministic counts.
pub struct JobOutput {
    /// The pipeline's result.
    pub run: OptiwiseRun,
    /// The `.owp` image the job saved.
    pub bytes: Vec<u8>,
    /// Tables for the fleet reduction (fleet cells only).
    pub tables: Option<ProfileTables>,
    /// Checkpoint writes the job made (fleet cells only).
    pub checkpoint_writes: u64,
}

/// One untraced single-program job, as `optiwise run --save` then `show`
/// perform it: profile, package and encode the `.owp`, read it back, and
/// render the report.
///
/// # Errors
///
/// Pipeline and store errors.
pub fn run_single(job: &Job) -> Result<JobOutput, OptiwiseError> {
    let run = run_optiwise(&job.modules, &job.config)?;
    let bytes = job.store(&run).to_bytes();
    std::hint::black_box(StoredProfile::from_bytes(&bytes)?);
    std::hint::black_box(report::full_report(&run.analysis, REPORT_TOP));
    Ok(JobOutput {
        run,
        bytes,
        tables: None,
        checkpoint_writes: 0,
    })
}

/// One untraced fleet cell, as `optiwise sweep` runs it: profile under a
/// checkpoint writer, then package and encode the `.owp`.
fn run_cell(job: &Job, checkpoints: &Path) -> Result<JobOutput, OptiwiseError> {
    let token = CancelToken::new();
    let writer = CheckpointWriter::new(
        checkpoint_path(job, checkpoints),
        Checkpoint::fresh(job.checkpoint_spec()),
        token.clone(),
        None,
    );
    let writes = AtomicU64::new(1);
    writer.persist_initial()?;
    let observe = |event: PassEvent<'_>| {
        writes.fetch_add(1, Ordering::Relaxed);
        writer.observe(event);
    };
    let run = run_optiwise_ctl(
        &job.modules,
        &job.config,
        RunControl {
            cancel: token,
            checkpoint_every: CHECKPOINT_EVERY,
            observer: Some(&observe as &(dyn Fn(PassEvent<'_>) + Sync)),
            resume: optiwise::ResumeState::default(),
        },
    )?;
    writer.finish()?;
    let stored = job.store(&run);
    Ok(JobOutput {
        bytes: stored.to_bytes(),
        tables: Some(stored.tables),
        run,
        checkpoint_writes: writes.into_inner(),
    })
}

fn checkpoint_path(job: &Job, checkpoints: &Path) -> PathBuf {
    checkpoints.join(format!("sweep-{}.owp", job.label))
}

/// Pool timing of one fleet round.
#[derive(Default)]
pub struct PoolTiming {
    /// Summed time cells waited in the queue before a worker took them.
    pub queue_wait_s: f64,
    /// Summed time workers spent running cells.
    pub busy_s: f64,
    /// Wall time from the first submission to the pool's join.
    pub wall_s: f64,
    /// Pool width.
    pub width: usize,
}

/// A fleet cell's result: a plain job output, or one with its trace.
pub trait CellOutput: Send + 'static {
    /// The job output inside.
    fn output(&self) -> &JobOutput;
}

impl CellOutput for JobOutput {
    fn output(&self) -> &JobOutput {
        self
    }
}

/// Results of a fleet round: per-cell outputs in grid order.
pub struct FleetRound<O> {
    /// Per-cell outcomes, in grid order.
    pub cells: Vec<Result<O, OptiwiseError>>,
    /// The reduced cross-config report.
    pub reduced: String,
    /// Pool timing.
    pub pool: PoolTiming,
}

/// Runs every cell of a fleet on a pool of `width` workers, commits the
/// finished cells to the archive in grid order, and reduces the fleet —
/// `optiwise sweep`'s order of work. `cell_fn` profiles one cell;
/// `commit` wraps each archive commit (the traced run puts a span there).
///
/// # Errors
///
/// Pool panics and archive failures. Cell failures are returned per cell.
pub fn run_fleet<O, F>(
    prepared: &mut Prepared,
    width: usize,
    cell_fn: F,
    commit: &dyn Fn(&mut dyn FnMut()),
    reduce: &dyn Fn(&mut dyn FnMut()),
) -> Result<FleetRound<O>, OptiwiseError>
where
    O: CellOutput,
    F: Fn(&Job, &Path) -> Result<O, OptiwiseError> + Send + Sync + 'static,
{
    let archive = prepared
        .archive
        .as_mut()
        .ok_or_else(|| OptiwiseError::Usage("fleet without an archive".into()))?;
    let checkpoints = archive.checkpoints_dir();
    let cell_fn = Arc::new(cell_fn);
    let pool = wiser_par::WorkerPool::new(width);
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    for (index, job) in prepared.jobs.iter().enumerate() {
        let (tx, job, cell_fn, dir) = (
            tx.clone(),
            Arc::clone(job),
            Arc::clone(&cell_fn),
            checkpoints.clone(),
        );
        let submitted = Instant::now();
        pool.execute(move || {
            let began = Instant::now();
            let out = cell_fn(&job, &dir);
            let ended = Instant::now();
            let _ = tx.send((index, out, began - submitted, ended - began));
        });
    }
    drop(tx);
    pool.finish()
        .map_err(|e| OptiwiseError::Internal(format!("fleet worker: {e}")))?;
    let mut pool_timing = PoolTiming {
        wall_s: start.elapsed().as_secs_f64(),
        width,
        ..PoolTiming::default()
    };
    let mut done: Vec<_> = rx.iter().collect();
    done.sort_by_key(|d| d.0);

    let mut cells = Vec::with_capacity(done.len());
    let mut results = Vec::with_capacity(done.len());
    for (index, out, waited, busy) in done {
        pool_timing.queue_wait_s += waited.as_secs_f64();
        pool_timing.busy_s += busy.as_secs_f64();
        let job = &prepared.jobs[index];
        let out = out.and_then(|o| {
            let mut result = Ok(0);
            let bytes = &o.output().bytes;
            commit(&mut || result = archive.add_run(bytes, job.fingerprint));
            result?;
            let _ = std::fs::remove_file(checkpoint_path(job, &checkpoints));
            if let (Some(cell), Some(tables)) = (&job.cell, &o.output().tables) {
                results.push(SweepResult {
                    cell: cell.clone(),
                    tables: tables.clone(),
                });
            }
            Ok(o)
        });
        cells.push(out);
    }
    let mut reduced = String::new();
    reduce(&mut || reduced = reduce_fleet(&results, DiffOptions::default(), REPORT_TOP));
    Ok(FleetRound {
        cells,
        reduced,
        pool: pool_timing,
    })
}

/// An untraced fleet round.
///
/// # Errors
///
/// As [`run_fleet`].
pub fn run_fleet_untraced(
    prepared: &mut Prepared,
    width: usize,
) -> Result<FleetRound<JobOutput>, OptiwiseError> {
    run_fleet(prepared, width, run_cell, &|f| f(), &|f| f())
}

/// Instructions each attempt of a budget-retried pass executed, in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Attempts {
    /// Executed instructions per attempt.
    pub executed: Vec<u64>,
}

impl Attempts {
    /// Instructions of every attempt but the last: work the retry replayed.
    pub fn replayed(&self) -> u64 {
        let n = self.executed.len().saturating_sub(1);
        self.executed[..n].iter().sum()
    }

    /// Instructions of the final attempt.
    pub fn useful(&self) -> u64 {
        self.executed.last().copied().unwrap_or(0)
    }
}

/// The runner's budget-escalation loop, step by step: run an attempt with
/// `budget`, and while it stops at a retryable budget cut and `policy`
/// allows it, run again from instruction zero with the escalated budget.
/// `attempt` returns the pass output, the instructions it executed and how
/// it was cut short.
///
/// # Errors
///
/// The first error an attempt returns.
pub fn with_retry<T, E>(
    budget: u64,
    policy: &RetryPolicy,
    mut attempt: impl FnMut(u64) -> Result<(T, u64, Option<TruncationReason>), E>,
) -> Result<(T, Attempts), E> {
    let mut budget = budget;
    let mut attempts = Attempts::default();
    let mut spent = 0u64;
    loop {
        let (out, executed, truncated) = attempt(budget)?;
        attempts.executed.push(executed);
        spent = spent.saturating_add(executed);
        let escalated = budget.saturating_mul(policy.budget_multiplier);
        let retry = match &truncated {
            Some(reason) => {
                reason.retryable()
                    && attempts.executed.len() as u64 <= u64::from(policy.max_retries)
                    && spent.saturating_add(escalated) <= policy.max_total_insns
            }
            None => false,
        };
        if !retry {
            return Ok((out, attempts));
        }
        budget = escalated;
    }
}

/// What the traced chain of one job recorded besides its spans.
pub struct Traced {
    /// The job's output; its bytes must equal the untraced job's.
    pub out: JobOutput,
    /// Sampling-pass attempts.
    pub sample_attempts: Attempts,
    /// Instrumentation-pass attempts.
    pub count_attempts: Attempts,
    /// Span of each sampling attempt, in order.
    pub sampler_spans: Vec<SpanId>,
    /// Span of each instrumentation attempt, in order.
    pub dbi_spans: Vec<SpanId>,
    /// The job's root span.
    pub root: SpanId,
    /// Checkpoint bytes written.
    pub checkpoint_bytes: u64,
}

impl CellOutput for Traced {
    fn output(&self) -> &JobOutput {
        &self.out
    }
}

type SamplingResult = ((SampleProfile, TimedRun), Attempts, Vec<SpanId>);
type CountsResult = (CountsProfile, Attempts, Vec<SpanId>);

/// Replays one job as the chain of public calls `run_optiwise` makes, with
/// a span around each call. Fleet cells checkpoint through a
/// `CheckpointWriter` exactly as the untraced cell does.
///
/// # Errors
///
/// Pipeline and store errors, and a truncated pass (the benchmark's
/// workloads must complete).
pub fn traced_job(
    job: &Job,
    t: &Tracer,
    id: usize,
    parent: Option<SpanId>,
    checkpoints: Option<&Path>,
) -> Result<Traced, OptiwiseError> {
    let cfg = &job.config;
    let root = t.open("job", id, parent);
    let image_a = t.time("sim.load", id, Some(root), || {
        load(&job.modules, cfg.aslr_seeds.0)
    })?;
    let image_b = t.time("sim.load", id, Some(root), || {
        load(&job.modules, cfg.aslr_seeds.1)
    })?;
    let linked: Vec<Module> = image_b.modules.iter().map(|m| m.linked.clone()).collect();

    let writer = checkpoints.map(|dir| {
        CheckpointWriter::new(
            checkpoint_path(job, dir),
            Checkpoint::fresh(job.checkpoint_spec()),
            CancelToken::new(),
            None,
        )
    });
    let writes = AtomicU64::new(0);
    let ckpt_bytes = AtomicU64::new(0);
    // One checkpoint persist, spanned; the file is measured after the span.
    let persist = |parent: SpanId, f: &mut dyn FnMut(&CheckpointWriter)| {
        if let (Some(w), Some(dir)) = (&writer, checkpoints) {
            t.time("store.checkpoint.write", id, Some(parent), || f(w));
            writes.fetch_add(1, Ordering::Relaxed);
            let len = std::fs::metadata(checkpoint_path(job, dir)).map_or(0, |m| m.len());
            ckpt_bytes.fetch_add(len, Ordering::Relaxed);
        }
    };
    let mut initial = Ok(());
    persist(root, &mut |w| initial = w.persist_initial());
    initial?;

    let runner = t.open("core.runner", id, Some(root));
    let cancel = CancelToken::new();
    let every = if writer.is_some() {
        CHECKPOINT_EVERY
    } else {
        0
    };
    let sampling = || -> Result<SamplingResult, OptiwiseError> {
        let mut spans = Vec::new();
        let (out, attempts) = with_retry(cfg.max_insns, &cfg.retry, |budget| {
            let span = t.open("sampler.pass", id, Some(runner));
            spans.push(span);
            let mut sink = |retired: u64, profile: SampleProfile| {
                let mut profile = Some(profile);
                persist(span, &mut |w| {
                    if let Some(profile) = profile.take() {
                        w.observe(PassEvent::SampleCheckpoint { retired, profile });
                    }
                });
            };
            let ctl = SamplePassControl {
                cancel: Some(&cancel),
                checkpoint_every: every,
                sink: writer.is_some().then_some(&mut sink as _),
            };
            let sampler_cfg = SamplerConfig {
                fault: cfg.fault,
                ..cfg.sampler
            };
            let result =
                sample_run_ctl(&image_a, cfg.rand_seed, cfg.core, sampler_cfg, budget, ctl);
            t.close(span);
            let (profile, timed) = result?;
            let (executed, truncated) = (timed.stats.retired, profile.truncated.clone());
            Ok::<_, OptiwiseError>(((profile, timed), executed, truncated))
        })?;
        persist(runner, &mut |w| {
            w.observe(PassEvent::SampleDone { profile: &out.0 })
        });
        Ok((out, attempts, spans))
    };
    let counting = || -> Result<CountsResult, OptiwiseError> {
        let mut spans = Vec::new();
        let (counts, attempts) = with_retry(cfg.max_insns, &cfg.retry, |budget| {
            let span = t.open("dbi.pass", id, Some(runner));
            spans.push(span);
            let mut sink = |retired: u64, profile: CountsProfile| {
                let mut profile = Some(profile);
                persist(span, &mut |w| {
                    if let Some(profile) = profile.take() {
                        w.observe(PassEvent::CountsCheckpoint { retired, profile });
                    }
                });
            };
            let ctl = CountsPassControl {
                cancel: Some(&cancel),
                checkpoint_every: every,
                sink: writer.is_some().then_some(&mut sink as _),
            };
            let dbi_cfg = DbiConfig {
                rand_seed: cfg.fault.desync_rand_seed.unwrap_or(cfg.rand_seed),
                max_insns: budget,
                fault: cfg.fault,
                ..cfg.dbi.clone()
            };
            let result = instrument_run_ctl(&image_b, &dbi_cfg, ctl);
            t.close(span);
            let counts = result?;
            let (executed, truncated) = (counts.total_insns(), counts.truncated.clone());
            Ok::<_, OptiwiseError>((counts, executed, truncated))
        })?;
        persist(runner, &mut |w| {
            w.observe(PassEvent::CountsDone { profile: &counts })
        });
        Ok((counts, attempts, spans))
    };
    // The benchmark's jobs run their passes sequentially (see
    // `pipeline_config`), sampling first, as the runner does.
    let (sampled, counted) = (sampling(), counting());
    t.close(runner);
    let ((samples, timed), sample_attempts, sampler_spans) = sampled?;
    let (mut counts, count_attempts, dbi_spans) = counted?;
    if samples.truncated.is_some() || counts.truncated.is_some() {
        return Err(OptiwiseError::Internal(format!(
            "{}: a pass ended truncated",
            job.label
        )));
    }

    if !cfg.exhaustive_counters {
        t.time("cfg.flow.placement", id, Some(root), || {
            wiser_cfg::optimize_placement(&mut counts, &linked, &cfg.dbi.cost)
        });
    }
    let analysis = t.time("core.analysis", id, Some(root), || {
        Analysis::try_new(&linked, &samples, &counts, cfg.analysis)
    })?;
    if let Some(w) = &writer {
        w.finish()?;
    }
    let run = OptiwiseRun {
        analysis,
        samples,
        counts,
        timed,
        attempts: (
            sample_attempts.executed.len() as u32,
            count_attempts.executed.len() as u32,
        ),
    };
    // `from_run` is where the pipeline builds its tables
    // (`ProfileTables::from_analysis`) and packages the profiles.
    let stored = t.time("core.tables", id, Some(root), || job.store(&run));
    let bytes = t.time("store.encode", id, Some(root), || stored.to_bytes());
    let tables = if job.cell.is_some() {
        Some(stored.tables)
    } else {
        let decoded = t.time("store.decode", id, Some(root), || {
            StoredProfile::from_bytes(&bytes)
        });
        std::hint::black_box(decoded?);
        let text = t.time("core.report", id, Some(root), || {
            report::full_report(&run.analysis, REPORT_TOP)
        });
        std::hint::black_box(text);
        None
    };
    t.close(root);
    Ok(Traced {
        out: JobOutput {
            run,
            bytes,
            tables,
            checkpoint_writes: writes.into_inner(),
        },
        sample_attempts,
        count_attempts,
        sampler_spans,
        dbi_spans,
        root,
        checkpoint_bytes: ckpt_bytes.into_inner(),
    })
}

/// The two reference calls that split a sampling pass into its layers:
/// the interpreter alone, then the timed core without the sampler.
pub struct Reference {
    /// Instructions the interpreter retired.
    pub interp_retired: u64,
    /// The timed run without probes.
    pub timed: TimedRun,
}

/// Runs the reference calls of `job` under `ref.interp` / `ref.uarch`
/// spans.
///
/// # Errors
///
/// Interpreter faults and timed-run failures.
pub fn reference_calls(job: &Job, t: &Tracer, id: usize) -> Result<Reference, OptiwiseError> {
    let cfg = &job.config;
    let interp = t.time("ref.interp", id, None, || -> Result<u64, OptiwiseError> {
        let mut interp = Interp::new(&job.image, cfg.rand_seed)?;
        while interp.retired() < REFERENCE_BUDGET {
            if let Step::Exited(_) = interp.step()? {
                break;
            }
        }
        Ok(interp.retired())
    });
    let timed = t.time("ref.uarch", id, None, || {
        run_timed(
            &job.image,
            cfg.rand_seed,
            cfg.core,
            &mut NoProbes,
            REFERENCE_BUDGET,
        )
    });
    Ok(Reference {
        interp_retired: interp?,
        timed: timed?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted_loop() -> Vec<Module> {
        vec![wiser_isa::assemble(
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
        .unwrap()]
    }

    fn small_job(max_insns: u64) -> Job {
        let modules = counted_loop();
        let config = OptiwiseConfig {
            max_insns,
            ..pipeline_config(Workload::BudgetReplay, 7, CoreConfig::xeon_like())
        };
        Arc::into_inner(job("cl".into(), "cl", InputSize::Test, modules, config, None).unwrap())
            .unwrap()
    }

    #[test]
    fn replayed_insns_are_the_first_attempts_retired() {
        // ~15k instructions; the 8k first attempt truncates and the 32k
        // retry completes, in both passes.
        let job = small_job(8_000);
        let tracer = Tracer::default();
        let traced = traced_job(&job, &tracer, 0, None, None).unwrap();
        let oracle = oracle(&job).unwrap();
        for attempts in [&traced.sample_attempts, &traced.count_attempts] {
            assert_eq!(attempts.executed.len(), 2);
            assert_eq!(attempts.replayed(), attempts.executed[0]);
            assert_eq!(attempts.replayed(), 8_000);
            assert_eq!(attempts.useful(), oracle.total_retired);
        }
        // The chain reproduces the runner: same attempts, same bytes.
        let untraced = run_single(&job).unwrap();
        assert_eq!(untraced.run.attempts, (2, 2));
        assert_eq!(traced.out.run.attempts, untraced.run.attempts);
        assert_eq!(traced.out.bytes, untraced.bytes);
    }

    #[test]
    fn no_replay_without_a_budget_cut() {
        let job = small_job(1_000_000);
        let traced = traced_job(&job, &Tracer::default(), 0, None, None).unwrap();
        assert_eq!(traced.sample_attempts.replayed(), 0);
        assert_eq!(traced.count_attempts.replayed(), 0);
        assert_eq!(traced.out.bytes, run_single(&job).unwrap().bytes);
    }

    #[test]
    fn retry_policy_caps_attempts_and_total_work() {
        let policy = RetryPolicy::default();
        // Always cut at the budget: one retry, then the cut stands.
        let (_, a) = with_retry(10, &policy, |b| {
            Ok::<_, ()>(((), b, Some(TruncationReason::InsnLimit(b))))
        })
        .unwrap();
        assert_eq!(a.executed, vec![10, 40]);
        assert_eq!(a.replayed(), 10);
        // A cap below first + escalated attempt forbids the retry.
        let tight = RetryPolicy {
            max_total_insns: 30,
            ..policy
        };
        let (_, a) = with_retry(10, &tight, |b| {
            Ok::<_, ()>(((), b, Some(TruncationReason::InsnLimit(b))))
        })
        .unwrap();
        assert_eq!(a.executed, vec![10]);
        // Injected cuts are not retryable.
        let (_, a) = with_retry(10, &policy, |b| {
            Ok::<_, ()>(((), b, Some(TruncationReason::Injected(b))))
        })
        .unwrap();
        assert_eq!(a.replayed(), 0);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(5, 3), derive(5, 3));
    }
}
