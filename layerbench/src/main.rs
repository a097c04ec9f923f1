//! `layerbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload for about S seconds and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! measured with tracing off; with `--trace 1` they are the per-layer ones
//! from a traced replay of the same jobs. Every job is checked against the
//! exact oracle; any failure exits 1 after printing the result.
//!
//! Scratch files (the fleet's archive, span dumps) go under `.layerbench/`
//! in the current directory.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use layerbench::alloc::{self, CountingAllocator};
use layerbench::bench::{
    self, nproc, reference_calls, run_fleet, run_fleet_untraced, run_single, setup, traced_job,
    JobOutput, PoolTiming, Prepared, Reference, Traced, Workload,
};
use layerbench::stats::{median, quartiles};
use layerbench::trace::{self_times, to_jsonl, Span, Tracer};
use layerbench::verify::{self, Observed};
use optiwise::OptiwiseError;
use wiser_sim::OracleProfile;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Set-up repetitions per measuring process.
const SETUP_REPS: usize = 21;
/// Busy time each set-up probe spends before it times anything.
const SETUP_WARMUP: Duration = Duration::from_millis(300);
/// Child processes that measure set-up ([`setup_median`]); `setup_s` is
/// the mean of their medians. Each process runs this microsecond-scale
/// work in one of two modes about 1.6x apart, fixed for its lifetime and
/// independent of heap and stack offsets; about half the processes land
/// in each. The median of a few processes therefore jumped between the
/// modes from run to run, while the mean over several moves by a few
/// percent. The children also keep their heap tuning out of the measured
/// process.
const SETUP_PROCS: usize = 9;
/// Scratch directory, relative to the working directory.
const SCRATCH: &str = ".layerbench";

/// `(name, unit, better)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("minsn_per_s", "Minsn/s", "higher"),
    ("peak_heap_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, in output order.
const PER_LAYER: [(&str, &str, &str); 42] = [
    ("sim.uarch.busy_s", "s", "lower"),
    ("sim.uarch.mcycles_per_s", "Mcycles/s", "higher"),
    ("sim.uarch.cycles", "count", "lower"),
    ("sim.uarch.retired", "count", "lower"),
    ("sim.uarch.job_share", "ratio", "lower"),
    ("sim.interp.busy_s", "s", "lower"),
    ("sim.interp.minsn_per_s", "Minsn/s", "higher"),
    ("sim.load_ms", "ms", "lower"),
    ("sampler.overhead_pct", "%", "lower"),
    ("sampler.samples", "count", "higher"),
    ("dbi.busy_s", "s", "lower"),
    ("dbi.minsn_per_s", "Minsn/s", "higher"),
    ("dbi.host_over_interp", "x", "lower"),
    ("dbi.instrumented_insns", "count", "lower"),
    ("dbi.counters_placed", "count", "lower"),
    ("dbi.counters_suppressed", "count", "higher"),
    ("core.runner.attempts", "count", "lower"),
    ("core.runner.replayed_minsn", "Minsn", "lower"),
    ("core.runner.useful_ratio", "ratio", "higher"),
    ("store.checkpoint.writes", "count", "lower"),
    ("store.checkpoint.busy_ms", "ms", "lower"),
    ("store.checkpoint.kb", "KiB", "lower"),
    ("archive.commits", "count", "lower"),
    ("archive.commit_ms", "ms", "lower"),
    ("store.encode_ms", "ms", "lower"),
    ("store.decode_ms", "ms", "lower"),
    ("store.owp_kb", "KiB", "lower"),
    ("store.owp_digest", "count", "lower"),
    ("par.queue_wait_ms", "ms", "lower"),
    ("par.busy_ratio", "ratio", "higher"),
    ("core.sweep.reduce_ms", "ms", "lower"),
    ("cfg.flow.placement_ms", "ms", "lower"),
    ("core.analysis_ms", "ms", "lower"),
    ("core.tables_ms", "ms", "lower"),
    ("core.report_ms", "ms", "lower"),
    ("workloads.build_ms", "ms", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.interp_dbi_cpu_share", "ratio", "lower"),
    ("bench.rounds", "count", "higher"),
    ("fail_rate", "ratio", "lower"),
    ("bench.untraced_cpu_s", "s", "lower"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: only measure set-up and print the median (the child
    /// processes of [`measure_setup`]).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--setup-probe" => setup_probe = value == "1",
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

/// Median set-up time of one process, measured warm: the allocator is
/// told never to return memory to the system, set-ups run untimed for
/// [`SETUP_WARMUP`], then [`SETUP_REPS`] timed set-ups each reuse the
/// heap. Timed cold, right after the idle parent spawned the probe, the
/// same set-up ran 1.6x slower on a 2-vCPU AMD EPYC VM (the core had not yet
/// come up to speed), and freshly mapped memory added page faults.
fn setup_median(args: &Args) -> Result<f64, OptiwiseError> {
    keep_heap();
    let warm = Instant::now();
    while warm.elapsed() < SETUP_WARMUP {
        drop(setup(args.workload, args.seed, None)?);
    }
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let prepared = setup(args.workload, args.seed, None)?;
        times.push(t0.elapsed().as_secs_f64());
        drop(prepared);
    }
    Ok(median(&times))
}

/// Stops glibc's allocator from trimming the heap or serving large blocks
/// with `mmap`, so freed memory stays mapped for reuse.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes allocator tuning parameters; it is
    // called from the probe process's only thread, before it allocates
    // anything large.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap() {}

/// `setup_s`: the mean over [`SETUP_PROCS`] fresh processes of each one's
/// [`setup_median`]. Each child is waited for.
fn measure_setup(args: &Args) -> Result<f64, OptiwiseError> {
    let exe = std::env::current_exe().map_err(|e| OptiwiseError::Io(e.to_string()))?;
    let mut medians = Vec::with_capacity(SETUP_PROCS);
    for _ in 0..SETUP_PROCS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed"])
            .arg(args.seed.to_string())
            .args(["--setup-probe", "1"])
            .output()
            .map_err(|e| OptiwiseError::Io(format!("set-up probe: {e}")))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success());
        medians.push(value.ok_or_else(|| {
            OptiwiseError::Internal(format!(
                "set-up probe failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        })?);
    }
    Ok(medians.iter().sum::<f64>() / medians.len() as f64)
}

/// Process CPU time (user + system, all threads) in seconds.
#[cfg(target_os = "linux")]
fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout of a
    // 64-bit Linux target, and the clock id is a valid Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
fn cpu_now() -> f64 {
    0.0
}

/// The scratch directory of one run; removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Pass/fail bookkeeping for every job the run attempted.
struct Checker {
    attempted: u64,
    failed: u64,
    /// Reference digest per job: the first untraced result.
    digests: Vec<Option<u64>>,
}

impl Checker {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("layerbench: FAILED {what}");
    }

    /// Checks one job's output against its oracle and its earlier bytes.
    fn check(
        &mut self,
        i: usize,
        label: &str,
        out: Result<&JobOutput, &OptiwiseError>,
        oracle: &OracleProfile,
    ) {
        self.attempted += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => return self.fail(&format!("{label}: {e}")),
        };
        let count_at = |loc| out.run.analysis.count_at(loc);
        if let Err(e) = verify::against_oracle(&Observed::of_run(&out.run, &count_at), oracle) {
            return self.fail(&format!("{label}: {e}"));
        }
        let d = verify::digest(&out.bytes);
        match self.digests[i] {
            None => self.digests[i] = Some(d),
            Some(want) if want != d => {
                self.fail(&format!("{label}: .owp bytes differ from the first run's"))
            }
            Some(_) => {}
        }
    }
}

/// End-to-end figures of one untraced round.
struct Round {
    wall_s: f64,
    cpu_s: f64,
    peak_bytes: usize,
    insns: u64,
}

fn untraced_round(
    workload: Workload,
    prepared: &mut Prepared,
    oracles: &[OracleProfile],
    checker: &mut Checker,
    width: usize,
    counts: &mut Option<String>,
) -> Result<Round, OptiwiseError> {
    let insns = oracles.iter().map(|o| o.total_retired).sum();
    let mut round = Round {
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_bytes: 0,
        insns,
    };
    let mut outputs: Vec<Result<JobOutput, OptiwiseError>> = Vec::new();
    if workload == Workload::Fleet {
        alloc::reset_peak();
        let (c0, t0) = (cpu_now(), Instant::now());
        let fleet = run_fleet_untraced(prepared, width)?;
        round.wall_s = t0.elapsed().as_secs_f64();
        round.cpu_s = cpu_now() - c0;
        round.peak_bytes = alloc::peak_bytes();
        std::hint::black_box(&fleet.reduced);
        outputs = fleet.cells;
    } else {
        for job in &prepared.jobs {
            alloc::reset_peak();
            let (c0, t0) = (cpu_now(), Instant::now());
            let out = run_single(job);
            round.wall_s += t0.elapsed().as_secs_f64();
            round.cpu_s += cpu_now() - c0;
            round.peak_bytes = round.peak_bytes.max(alloc::peak_bytes());
            outputs.push(out);
        }
    }
    for (i, (out, job)) in outputs.iter().zip(&prepared.jobs).enumerate() {
        checker.check(i, &job.label, out.as_ref(), &oracles[i]);
    }
    if counts.is_none() {
        *counts = Some(deterministic_counts(&outputs));
    }
    Ok(round)
}

/// Deterministic counts of a round, as one JSON object: simulated
/// statistics that a host-speed change must leave identical.
fn deterministic_counts(outputs: &[Result<JobOutput, OptiwiseError>]) -> String {
    let mut c: BTreeMap<&str, u64> = BTreeMap::new();
    let mut digests = Vec::new();
    for out in outputs.iter().flatten() {
        let run = &out.run;
        let cost = &run.counts.cost;
        for (k, v) in [
            ("cycles", run.timed.stats.cycles),
            ("retired", run.timed.stats.retired),
            ("samples", run.samples.samples.len() as u64),
            ("instrumented_insns", cost.instrumented_insns),
            ("counters_placed", cost.counters_placed),
            ("counters_suppressed", cost.counters_suppressed),
            ("attempts", u64::from(run.attempts.0 + run.attempts.1)),
            ("checkpoint_writes", out.checkpoint_writes),
            ("owp_bytes", out.bytes.len() as u64),
        ] {
            *c.entry(k).or_insert(0) += v;
        }
        digests.extend_from_slice(&verify::digest(&out.bytes).to_le_bytes());
    }
    let mut s = String::from("{\"counts\": {");
    for (k, v) in &c {
        let _ = write!(s, "\"{k}\": {v}, ");
    }
    let _ = write!(
        s,
        "\"owp_digest\": \"{:016x}\"}}}}",
        verify::digest(&digests)
    );
    s
}

/// Per-layer figures of one traced round.
type Layers = BTreeMap<&'static str, f64>;

fn traced_round(
    workload: Workload,
    prepared: &mut Prepared,
    oracles: &[OracleProfile],
    checker: &mut Checker,
    width: usize,
    all_spans: &mut Vec<Vec<Span>>,
) -> Result<Layers, OptiwiseError> {
    let tracer = Arc::new(Tracer::default());
    let mut pool = None;
    let mut traced: Vec<Result<Traced, OptiwiseError>> = Vec::new();
    let mut refs = Vec::new();
    // The reference calls of a job run right after its chain, so the
    // shares derived from them compare calls made close together.
    let mut reference = |i: usize, job: &bench::Job, checker: &mut Checker| {
        checker.attempted += 1;
        match reference_calls(job, &tracer, i) {
            Ok(r)
                if r.timed.stats.cycles == oracles[i].total_cycles
                    && r.interp_retired == oracles[i].total_retired =>
            {
                refs.push(r)
            }
            Ok(_) => checker.fail(&format!(
                "{}: reference calls disagree with the oracle",
                job.label
            )),
            Err(e) => checker.fail(&format!("{}: reference calls: {e}", job.label)),
        }
    };
    let wall_spans;
    if workload == Workload::Fleet {
        let t = Arc::clone(&tracer);
        let round = tracer.open("fleet.round", 0, None);
        let fleet = run_fleet(
            prepared,
            width,
            move |job, dir| {
                let index = job.cell.as_ref().map_or(0, |c| c.index);
                traced_job(job, &t, index, Some(round), Some(dir))
            },
            &|f| {
                tracer.time("archive.commit", 0, Some(round), f);
            },
            &|f| {
                tracer.time("core.sweep.reduce", 0, Some(round), f);
            },
        )?;
        tracer.close(round);
        wall_spans = vec![round];
        pool = Some(fleet.pool);
        traced = fleet.cells;
        for (i, job) in prepared.jobs.iter().enumerate() {
            reference(i, job, checker);
        }
    } else {
        let mut roots = Vec::new();
        for (i, job) in prepared.jobs.iter().enumerate() {
            let out = traced_job(job, &tracer, i, None, None);
            if let Ok(t) = &out {
                roots.push(t.root);
            }
            traced.push(out);
            reference(i, job, checker);
        }
        wall_spans = roots;
    }
    for (i, job) in prepared.jobs.iter().enumerate() {
        checker.check(
            i,
            &job.label,
            traced[i].as_ref().map(|t| &t.out),
            &oracles[i],
        );
    }
    let spans = tracer.spans();
    let traced: Vec<Traced> = traced.into_iter().flatten().collect();
    let layers = layer_metrics(&spans, &wall_spans, &traced, &refs, pool.as_ref());
    all_spans.push(spans);
    Ok(layers)
}

fn layer_metrics(
    spans: &[Span],
    wall_spans: &[usize],
    traced: &[Traced],
    refs: &[Reference],
    pool: Option<&PoolTiming>,
) -> Layers {
    let selfs = self_times(spans);
    let s = |ns: u64| ns as f64 * 1e-9;
    let ms = |ns: u64| ns as f64 * 1e-6;
    let dur = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(Span::dur)
            .sum()
    };
    let count = |name: &str| spans.iter().filter(|sp| sp.name == name).count() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Reference calls, per job: the interpreter alone, the core without
    // the sampler; the core's self time is their difference.
    let per_job = |name: &str| -> BTreeMap<usize, u64> {
        let mut m = BTreeMap::new();
        for sp in spans.iter().filter(|sp| sp.name == name) {
            *m.entry(sp.job).or_insert(0) += sp.dur();
        }
        m
    };
    let interp_ns = per_job("ref.interp");
    let timed_ns = per_job("ref.uarch");
    let interp_s = s(interp_ns.values().sum());
    let timed_s = s(timed_ns.values().sum());
    let uarch_s: f64 = timed_ns
        .iter()
        .map(|(j, &t)| s(t.saturating_sub(interp_ns.get(j).copied().unwrap_or(0))))
        .sum();
    let cycles: u64 = refs.iter().map(|r| r.timed.stats.cycles).sum();
    let retired: u64 = refs.iter().map(|r| r.timed.stats.retired).sum();
    let interp_retired: u64 = refs.iter().map(|r| r.interp_retired).sum();
    let self_of = |ids: &mut dyn Iterator<Item = usize>| -> f64 { ids.map(|i| s(selfs[i])).sum() };
    let sampler_final = self_of(
        &mut traced
            .iter()
            .filter_map(|t| t.sampler_spans.last().copied()),
    );
    let dbi_final = self_of(&mut traced.iter().filter_map(|t| t.dbi_spans.last().copied()));
    let dbi_all = self_of(&mut traced.iter().flat_map(|t| t.dbi_spans.iter().copied()));
    let dbi_exec: u64 = traced
        .iter()
        .map(|t| t.count_attempts.executed.iter().sum::<u64>())
        .sum();
    let traced_wall = s(wall_spans.iter().map(|&i| spans[i].dur()).sum());
    // Summed job time: the critical path of a single-program workload, the
    // pool's busy time of the fleet.
    let job_time = s(traced.iter().map(|t| spans[t.root].dur()).sum());
    let sum = |f: &dyn Fn(&Traced) -> u64| -> u64 { traced.iter().map(f).sum() };
    let attempts =
        sum(&|t| (t.sample_attempts.executed.len() + t.count_attempts.executed.len()) as u64);
    let replayed = sum(&|t| t.sample_attempts.replayed() + t.count_attempts.replayed());
    let useful = sum(&|t| t.sample_attempts.useful() + t.count_attempts.useful());
    let executed = replayed + useful;
    let mut digests = Vec::new();
    for t in traced {
        digests.extend_from_slice(&verify::digest(&t.out.bytes).to_le_bytes());
    }
    let d = verify::digest(&digests);

    let mut m = Layers::new();
    m.insert("sim.uarch.busy_s", uarch_s);
    m.insert(
        "sim.uarch.mcycles_per_s",
        ratio(cycles as f64, uarch_s) * 1e-6,
    );
    m.insert("sim.uarch.cycles", cycles as f64);
    m.insert("sim.uarch.retired", retired as f64);
    m.insert("sim.uarch.job_share", ratio(uarch_s, job_time));
    m.insert("sim.interp.busy_s", interp_s);
    m.insert(
        "sim.interp.minsn_per_s",
        ratio(interp_retired as f64, interp_s) * 1e-6,
    );
    m.insert("sim.load_ms", ms(dur("sim.load")));
    m.insert(
        "sampler.overhead_pct",
        100.0 * ratio(sampler_final - timed_s, timed_s),
    );
    m.insert(
        "sampler.samples",
        sum(&|t| t.out.run.samples.samples.len() as u64) as f64,
    );
    m.insert("dbi.busy_s", dbi_all);
    m.insert("dbi.minsn_per_s", ratio(dbi_exec as f64, dbi_all) * 1e-6);
    m.insert("dbi.host_over_interp", ratio(dbi_final, interp_s));
    m.insert(
        "dbi.instrumented_insns",
        sum(&|t| t.out.run.counts.cost.instrumented_insns) as f64,
    );
    m.insert(
        "dbi.counters_placed",
        sum(&|t| t.out.run.counts.cost.counters_placed) as f64,
    );
    m.insert(
        "dbi.counters_suppressed",
        sum(&|t| t.out.run.counts.cost.counters_suppressed) as f64,
    );
    m.insert("core.runner.attempts", attempts as f64);
    m.insert("core.runner.replayed_minsn", replayed as f64 * 1e-6);
    m.insert(
        "core.runner.useful_ratio",
        ratio(useful as f64, executed as f64),
    );
    m.insert(
        "store.checkpoint.writes",
        sum(&|t| t.out.checkpoint_writes) as f64,
    );
    m.insert(
        "store.checkpoint.busy_ms",
        ms(dur("store.checkpoint.write")),
    );
    m.insert(
        "store.checkpoint.kb",
        sum(&|t| t.checkpoint_bytes) as f64 / 1024.0,
    );
    m.insert("archive.commits", count("archive.commit"));
    m.insert("archive.commit_ms", ms(dur("archive.commit")));
    m.insert("store.encode_ms", ms(dur("store.encode")));
    m.insert("store.decode_ms", ms(dur("store.decode")));
    m.insert(
        "store.owp_kb",
        sum(&|t| t.out.bytes.len() as u64) as f64 / 1024.0,
    );
    // Folded to 32 bits so the digest survives as an exact JSON number.
    m.insert("store.owp_digest", ((d >> 32) ^ (d & 0xffff_ffff)) as f64);
    m.insert(
        "par.queue_wait_ms",
        pool.map_or(0.0, |p| p.queue_wait_s * 1e3),
    );
    m.insert(
        "par.busy_ratio",
        pool.map_or(0.0, |p| ratio(p.busy_s, p.wall_s * p.width as f64)),
    );
    m.insert("core.sweep.reduce_ms", ms(dur("core.sweep.reduce")));
    m.insert("cfg.flow.placement_ms", ms(dur("cfg.flow.placement")));
    m.insert("core.analysis_ms", ms(dur("core.analysis")));
    m.insert("core.tables_ms", ms(dur("core.tables")));
    m.insert("core.report_ms", ms(dur("core.report")));
    m.insert("bench.traced_wall_s", traced_wall);
    m
}

fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut n = 0;
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            n += rust_lines(&p);
        } else if p.extension().is_some_and(|x| x == "rs") {
            n += std::fs::read_to_string(&p).map_or(0, |s| s.lines().count() as u64);
        }
    }
    n
}

/// Lines of Rust per crate under `crates/`, sorted by crate directory.
fn loc_per_crate() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir("crates") {
        for e in entries.flatten() {
            if e.path().join("Cargo.toml").exists() {
                out.insert(
                    e.file_name().to_string_lossy().into_owned(),
                    rust_lines(&e.path()),
                );
            }
        }
    }
    out
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn provenance(args: &Args, width: usize) -> String {
    let loc: Vec<String> = loc_per_crate()
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"provenance\": {{\"git_revision\": {}, \"nproc\": {}, \"pool_width\": {width}, \"rustc\": {}, \"seed\": {}, \"workload\": {}, \"programs\": {}, \"max_insns\": {}, \"seconds\": {}, \"trace\": {}, \"loc_per_crate\": {{{}}}}}}}",
        json_str(&git_revision()),
        nproc(),
        json_str(env!("LAYERBENCH_RUSTC")),
        args.seed,
        json_str(args.workload.name()),
        json_str(&args.workload.describe()),
        args.workload.max_insns(),
        args.seconds,
        args.trace,
        loc.join(", ")
    )
}

struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> Result<Outcome, OptiwiseError> {
    let io = |e: std::io::Error| OptiwiseError::Io(e.to_string());
    let work = WorkDir(PathBuf::from(SCRATCH).join(format!(
        "{}-s{}-p{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(io)?;
    let width = nproc();
    println!("{}", provenance(args, width));

    // Set-up time is an end-to-end metric; the traced run does not print it.
    let setup_s = if args.trace {
        0.0
    } else {
        measure_setup(args)?
    };
    let build_tracer = Tracer::default();
    let mut prepared = setup(
        args.workload,
        args.seed,
        args.trace.then_some(&build_tracer),
    )?;
    if args.workload == Workload::Fleet {
        prepared.create_archive(&work.0.join("archive"))?;
    }
    // The benchmark's own verification: never timed.
    let oracles = prepared
        .jobs
        .iter()
        .map(|j| bench::oracle(j))
        .collect::<Result<Vec<_>, _>>()?;

    let sizes: Vec<String> = prepared
        .jobs
        .iter()
        .zip(&oracles)
        .map(|(j, o)| format!("{}: {}", json_str(&j.label), o.total_retired))
        .collect();
    println!("{{\"retired_insns\": {{{}}}}}", sizes.join(", "));
    let mut checker = Checker {
        attempted: 0,
        failed: 0,
        digests: vec![None; prepared.jobs.len()],
    };
    let mut rounds = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    let mut spans = Vec::new();
    let mut counts = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    loop {
        rounds.push(untraced_round(
            args.workload,
            &mut prepared,
            &oracles,
            &mut checker,
            width,
            &mut counts,
        )?);
        if args.trace {
            layers.push(traced_round(
                args.workload,
                &mut prepared,
                &oracles,
                &mut checker,
                width,
                &mut spans,
            )?);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    if args.trace && args.workload == Workload::Fleet {
        // Byte identity across pool widths: one sequential fleet, in the
        // traced run only, where the run's length is not the point.
        let fleet = run_fleet_untraced(&mut prepared, 1)?;
        for (i, (out, job)) in fleet.cells.iter().zip(&prepared.jobs).enumerate() {
            checker.check(
                i,
                &format!("{} (pool width 1)", job.label),
                out.as_ref(),
                &oracles[i],
            );
        }
    }
    println!("{}", counts.unwrap_or_default());

    let col = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let wall = median(&col(&|r| r.wall_s));
    let cpu = median(&col(&|r| r.cpu_s));
    let fail_rate = if checker.attempted == 0 {
        0.0
    } else {
        checker.failed as f64 / checker.attempted as f64
    };
    let mut metrics = Vec::new();
    if args.trace {
        let mut merged: Layers = Layers::new();
        for &(name, _, _) in &PER_LAYER {
            let values: Vec<f64> = layers.iter().filter_map(|l| l.get(name).copied()).collect();
            if !values.is_empty() {
                merged.insert(name, median(&values));
            }
        }
        let traced_wall = merged.get("bench.traced_wall_s").copied().unwrap_or(0.0);
        let overhead = if wall > 0.0 {
            100.0 * (traced_wall - wall) / wall
        } else {
            0.0
        };
        merged.insert("bench.trace_overhead_pct", overhead);
        let busy = merged["sim.interp.busy_s"] + merged["dbi.busy_s"];
        merged.insert(
            "bench.interp_dbi_cpu_share",
            if cpu > 0.0 { busy / cpu } else { 0.0 },
        );
        merged.insert("bench.untraced_cpu_s", cpu);
        merged.insert("bench.rounds", layers.len() as f64);
        merged.insert("fail_rate", fail_rate);
        let build_ms: u64 = build_tracer
            .spans()
            .iter()
            .filter(|s| s.name == "workloads.build")
            .map(Span::dur)
            .sum();
        merged.insert("workloads.build_ms", build_ms as f64 * 1e-6);
        for &(name, unit, _) in &PER_LAYER {
            metrics.push((name, unit, merged.get(name).copied().unwrap_or(0.0)));
        }
        let dump: String = spans
            .iter()
            .enumerate()
            .map(|(round, s)| to_jsonl(s, round))
            .collect();
        let path = PathBuf::from(SCRATCH).join(format!(
            "trace-{}-s{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&path, dump).map_err(io)?;
        eprintln!("layerbench: spans written to {}", path.display());
    } else {
        let insns = rounds.first().map_or(0, |r| r.insns) as f64;
        let values = [
            setup_s,
            wall,
            cpu,
            median(&col(&|r| insns / r.wall_s * 1e-6)),
            median(&col(&|r| r.peak_bytes as f64 / (1024.0 * 1024.0))),
        ];
        for (&(name, unit, _), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, value));
        }
    }
    for (i, r) in rounds.iter().enumerate() {
        eprintln!(
            "layerbench: round {i}: wall {:.4} s, cpu {:.4} s, peak {} B",
            r.wall_s, r.cpu_s, r.peak_bytes
        );
    }
    if let Some([q1, q2, q3]) = quartiles(&col(&|r| r.wall_s)) {
        eprintln!("layerbench: wall_s quartiles over the rounds: {q1:.4} {q2:.4} {q3:.4} s");
    }
    eprintln!(
        "layerbench: {} rounds, {} jobs attempted, {} failed",
        rounds.len(),
        checker.attempted,
        checker.failed
    );
    drop(work);
    // Leaves the scratch directory only when a span dump is in it.
    let _ = std::fs::remove_dir(SCRATCH);
    Ok(Outcome {
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "layerbench: {e}\nusage: layerbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match setup_median(&args) {
            Ok(t) => {
                println!("{t}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("layerbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit, value)) in outcome.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics and workloads this
    /// binary prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\": [")).expect(key);
            let rest = &json[start..];
            rest[..rest.find(']').expect("closing bracket")].to_string()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = section(key);
            assert_eq!(listed.matches("\"name\"").count(), table.len(), "{key}");
            for (name, unit, better) in table {
                let entry =
                    format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
                assert!(listed.contains(&entry), "{key} lacks {entry}");
            }
        }
        let workloads = section("workloads");
        assert_eq!(
            workloads.matches("\"name\"").count(),
            bench::WORKLOADS.len()
        );
        for w in bench::WORKLOADS {
            assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
