//! The combined analysis: OptiWISE's data-processing stage (component 5 of
//! figure 3).
//!
//! Joins the sampling profile (cycles) with the instrumentation profile
//! (execution counts) on `(module, offset)` keys, computes per-instruction
//! CPI, and aggregates to functions, loops (with stack-profiling
//! attribution across calls, §IV-D) and source lines.

use std::collections::{HashMap, HashSet};

use wiser_cfg::{build_cfg, find_all_loops, Cfg, LoopForest, MERGE_THRESHOLD};
use wiser_dbi::CountsProfile;
use wiser_isa::{Disassembly, Module, INSN_BYTES};
use wiser_sampler::SampleProfile;
use wiser_sim::{CodeLoc, ModuleId, TruncationReason};

use crate::error::OptiwiseError;
use crate::types::{Coverage, FuncStats, InsnRow, LineStats, LoopStats};

/// Default tolerance for the divergence score above which the two profiling
/// runs are considered to have observed different executions. Healthy runs
/// of the same deterministic program score well below this; a mismatched
/// `rand_seed` between passes scores far above it.
pub const DEFAULT_DIVERGENCE_THRESHOLD: f64 = 0.02;

/// Whether the analysis had both profiles or fell back to samples alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalysisMode {
    /// Both profiles joined: exact counts, CPI everywhere.
    Full,
    /// Degraded: the instrumentation profile was unusable, so results come
    /// from sampling alone — cycle attribution holds but execution counts,
    /// CPI and iteration counts are unavailable.
    SamplingOnly,
}

/// Reconciliation diagnostics from joining the two profiles (§IV-F assumes
/// both runs execute the same instruction stream; this is the check).
#[derive(Clone, Debug, Default)]
pub struct JoinDiagnostics {
    /// Samples landing on instructions the counts run says never executed.
    pub phantom_samples: u64,
    /// Cycle weight carried by those phantom samples.
    pub phantom_cycles: u64,
    /// Samples referencing module ids outside the analyzed module set.
    pub unknown_module_samples: u64,
    /// Instructions the sampling run retired (0 when the profile predates
    /// this field).
    pub sampled_retired: u64,
    /// Instructions the instrumentation run counted.
    pub counted_insns: u64,
    /// Relative disagreement between the two instruction totals, when both
    /// are trustworthy (neither run truncated, retired known).
    pub insn_total_rel_error: f64,
    /// Truncation marker of the sampling profile, if any.
    pub samples_truncated: Option<TruncationReason>,
    /// Truncation marker of the counts profile, if any.
    pub counts_truncated: Option<TruncationReason>,
    /// The combined divergence score: the worst of the phantom-cycle
    /// fraction, unknown-module fraction and instruction-total error.
    /// 0 = profiles agree perfectly.
    pub divergence_score: f64,
    /// Human-readable notes on every anomaly that contributed.
    pub warnings: Vec<String>,
}

impl JoinDiagnostics {
    /// Whether the score exceeds `threshold`.
    pub fn diverged(&self, threshold: f64) -> bool {
        self.divergence_score > threshold
    }

    /// One-line summary of the contributors, for error messages.
    pub fn summary(&self) -> String {
        if self.warnings.is_empty() {
            "profiles agree".to_string()
        } else {
            self.warnings.join("; ")
        }
    }
}

/// Analysis options.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisOptions {
    /// Loop-merge threshold (algorithm 2); `None` keeps one loop per back
    /// edge.
    pub merge_threshold: Option<u64>,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            merge_threshold: Some(MERGE_THRESHOLD),
        }
    }
}

/// Per-module analysis artifacts.
pub struct ModuleAnalysis {
    /// Module name.
    pub name: String,
    /// Symbolized disassembly.
    pub disasm: Disassembly,
    /// Reconstructed CFG with edge counts.
    pub cfg: Cfg,
    /// Loop forests, one per function.
    pub forests: Vec<LoopForest>,
    module: Module,
}

impl ModuleAnalysis {
    /// The underlying (linked) module.
    pub fn module(&self) -> &Module {
        &self.module
    }
}

/// The fused OptiWISE analysis result.
pub struct Analysis {
    /// Per-module artifacts, indexed by module id.
    pub modules: Vec<ModuleAnalysis>,
    insn_counts: HashMap<CodeLoc, u64>,
    insn_samples: HashMap<CodeLoc, (u64, u64)>,
    funcs: Vec<FuncStats>,
    loops: Vec<LoopStats>,
    lines: Vec<LineStats>,
    /// Total cycles attributed by samples (sum of weights).
    pub total_cycles: u64,
    /// Total cycles of the sampled run.
    pub wall_cycles: u64,
    /// Total dynamic instructions from instrumentation.
    pub total_insns: u64,
    /// Whether this is a full join or a degraded sampling-only analysis.
    pub mode: AnalysisMode,
    /// Reconciliation diagnostics from the join.
    pub diagnostics: JoinDiagnostics,
}

impl Analysis {
    /// Runs the combined analysis. See [`Analysis::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if the analysis fails (a module's text does not disassemble);
    /// linked modules produced by the loader always disassemble. Prefer
    /// [`Analysis::try_new`] for untrusted inputs.
    pub fn new(
        modules: &[Module],
        samples: &SampleProfile,
        counts: &CountsProfile,
        opts: AnalysisOptions,
    ) -> Analysis {
        Analysis::try_new(modules, samples, counts, opts).expect("analysis failed")
    }

    /// Runs the combined analysis.
    ///
    /// `modules` must be the linked modules of the instrumented process, in
    /// [`ModuleId`] order (both profiling runs see identical module-relative
    /// layouts, so either run's modules work).
    ///
    /// # Errors
    ///
    /// Returns [`OptiwiseError::Disasm`] if a module's text fails to
    /// disassemble.
    pub fn try_new(
        modules: &[Module],
        samples: &SampleProfile,
        counts: &CountsProfile,
        opts: AnalysisOptions,
    ) -> Result<Analysis, OptiwiseError> {
        Analysis::build(modules, samples, counts, opts, AnalysisMode::Full, None)
    }

    /// Runs the combined analysis of a selectively-instrumented run.
    ///
    /// `hot` is the set of `(module, function)` keys that were fully
    /// instrumented; every other function is marked
    /// [`Coverage::SamplingOnly`] and excluded from the cross-profile
    /// reconciliation checks (its counts are absent by construction, not by
    /// divergence).
    ///
    /// # Errors
    ///
    /// Returns [`OptiwiseError::Disasm`] if a module's text fails to
    /// disassemble.
    pub fn try_new_selective(
        modules: &[Module],
        samples: &SampleProfile,
        counts: &CountsProfile,
        opts: AnalysisOptions,
        hot: &HashSet<(u32, String)>,
    ) -> Result<Analysis, OptiwiseError> {
        Analysis::build(modules, samples, counts, opts, AnalysisMode::Full, Some(hot))
    }

    /// Degraded-mode analysis from the sampling profile alone, for when the
    /// instrumentation run failed and no usable counts exist. Cycle
    /// attribution (functions, hottest instructions) still works; execution
    /// counts, CPI and loop iteration counts are all zero/absent.
    ///
    /// # Errors
    ///
    /// Returns [`OptiwiseError::Disasm`] if a module's text fails to
    /// disassemble.
    pub fn sampling_only(
        modules: &[Module],
        samples: &SampleProfile,
        opts: AnalysisOptions,
    ) -> Result<Analysis, OptiwiseError> {
        let empty = CountsProfile {
            module_names: modules.iter().map(|m| m.name.clone()).collect(),
            ..CountsProfile::default()
        };
        Analysis::build(modules, samples, &empty, opts, AnalysisMode::SamplingOnly, None)
    }

    fn build(
        modules: &[Module],
        samples: &SampleProfile,
        counts: &CountsProfile,
        opts: AnalysisOptions,
        mode: AnalysisMode,
        hot: Option<&HashSet<(u32, String)>>,
    ) -> Result<Analysis, OptiwiseError> {
        // A profile carrying a minimal counter placement has some block and
        // fall-through counters suppressed; reconstruct the exact values by
        // flow conservation before anything downstream reads them. The
        // planner only accepts suppressions it proved recoverable, so a
        // failure here means the profile was corrupted in transit.
        let recovered_storage;
        let counts = if counts.placement.as_ref().is_some_and(|p| !p.recovered) {
            recovered_storage = wiser_cfg::recover(counts).map_err(|e| {
                OptiwiseError::Internal(format!("counter-placement recovery failed: {e}"))
            })?;
            &recovered_storage
        } else {
            counts
        };
        // Per-module structure: disassembly, CFG recovery and loop forests,
        // in ModuleId order.
        let build_module = |i: usize, m: &Module| -> Result<ModuleAnalysis, OptiwiseError> {
            let cfg = build_cfg(ModuleId(i as u32), m, counts);
            let forests = find_all_loops(&cfg, opts.merge_threshold);
            Ok(ModuleAnalysis {
                name: m.name.clone(),
                disasm: Disassembly::of_module(m).map_err(|e| OptiwiseError::Disasm {
                    module: m.name.clone(),
                    message: e.to_string(),
                })?,
                cfg,
                forests,
                module: m.clone(),
            })
        };
        let mods: Vec<ModuleAnalysis> = modules
            .iter()
            .enumerate()
            .map(|(i, m)| build_module(i, m))
            .collect::<Result<_, _>>()?;

        let insn_counts: HashMap<CodeLoc, u64> = counts.insn_counts();
        let mut insn_samples: HashMap<CodeLoc, (u64, u64)> = HashMap::new();
        for s in &samples.samples {
            let e = insn_samples.entry(s.loc).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.weight;
        }

        // ---- function table ------------------------------------------------
        // Keyed by (module, function name).
        let mut func_ids: HashMap<(u32, String), usize> = HashMap::new();
        let mut funcs: Vec<FuncStats> = Vec::new();
        let func_of = |mods: &Vec<ModuleAnalysis>,
                           funcs: &mut Vec<FuncStats>,
                           func_ids: &mut HashMap<(u32, String), usize>,
                           loc: CodeLoc|
         -> Option<usize> {
            let m = mods.get(loc.module.0 as usize)?;
            let name = m
                .module
                .function_at(loc.offset)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| format!("<anon@{:#x}>", loc.offset));
            let key = (loc.module.0, name.clone());
            Some(*func_ids.entry(key).or_insert_with_key(|key| {
                // Coverage is decided by the pre-run instrumentation plan,
                // never by observed counts: a hot function that happens to
                // execute zero instructions is still Counted.
                let coverage = match (mode, hot) {
                    (AnalysisMode::SamplingOnly, _) => Coverage::SamplingOnly,
                    (AnalysisMode::Full, None) => Coverage::Counted,
                    (AnalysisMode::Full, Some(set)) if set.contains(key) => Coverage::Counted,
                    (AnalysisMode::Full, Some(_)) => Coverage::SamplingOnly,
                };
                funcs.push(FuncStats {
                    module: loc.module.0,
                    name,
                    self_cycles: 0,
                    incl_cycles: 0,
                    self_samples: 0,
                    self_insns: 0,
                    incl_insns: 0,
                    coverage,
                });
                funcs.len() - 1
            }))
        };

        // Execution counts per function.
        for (&loc, &count) in &insn_counts {
            if let Some(fid) = func_of(&mods, &mut funcs, &mut func_ids, loc) {
                funcs[fid].self_insns += count;
            }
        }
        // Callee instruction totals attributed to the calling function.
        for (&site, &callee_insns) in &counts.callee_counts {
            if let Some(fid) = func_of(&mods, &mut funcs, &mut func_ids, site) {
                funcs[fid].incl_insns += callee_insns;
            }
        }
        for f in &mut funcs {
            f.incl_insns += f.self_insns;
        }

        // ---- loop table ----------------------------------------------------
        // Flatten forests into a global list; map (module, function, local
        // loop index) -> global index.
        let mut loop_ids: HashMap<(u32, usize, usize), usize> = HashMap::new();
        let mut loops: Vec<LoopStats> = Vec::new();
        for (mi, m) in mods.iter().enumerate() {
            for (fi, forest) in m.forests.iter().enumerate() {
                for (li, l) in forest.loops.iter().enumerate() {
                    loop_ids.insert((mi as u32, fi, li), loops.len());
                    // Body instruction total and callee totals.
                    let mut body_insns = 0;
                    let mut callee_insns = 0;
                    let mut line_range: Option<(String, u32, u32)> = None;
                    for &b in &l.body {
                        let block = &m.cfg.blocks[b];
                        body_insns += block.count * block.len as u64;
                        if !block.call_targets.is_empty() {
                            let site = CodeLoc {
                                module: ModuleId(mi as u32),
                                offset: block.terminator_offset(),
                            };
                            callee_insns += counts.callee_counts.get(&site).copied().unwrap_or(0);
                        }
                        for k in 0..block.len as u64 {
                            if let Some((file, line)) =
                                m.module.line_at(block.start + k * INSN_BYTES)
                            {
                                line_range = Some(match line_range.take() {
                                    None => (file.to_string(), line, line),
                                    Some((f0, lo, hi)) if f0 == file => {
                                        (f0, lo.min(line), hi.max(line))
                                    }
                                    Some(other) => other,
                                });
                            }
                        }
                    }
                    loops.push(LoopStats {
                        module: mi as u32,
                        function: m.cfg.functions[l.function].name.clone(),
                        header_offset: m.cfg.blocks[l.header].start,
                        depth: l.depth,
                        parent: None, // fixed up below
                        iterations: l.back_edge_freq,
                        invocations: l.invocations(&m.cfg),
                        body_insns,
                        total_insns: body_insns + callee_insns,
                        cycles: 0,
                        samples: 0,
                        lines: line_range,
                    });
                }
            }
        }
        // Parent pointers to global indices.
        for (mi, m) in mods.iter().enumerate() {
            for (fi, forest) in m.forests.iter().enumerate() {
                for (li, l) in forest.loops.iter().enumerate() {
                    if let Some(p) = l.parent {
                        let gid = loop_ids[&(mi as u32, fi, li)];
                        loops[gid].parent = loop_ids.get(&(mi as u32, fi, p)).copied();
                    }
                }
            }
        }

        // ---- sample attribution via stacks ----------------------------------
        let mut total_cycles = 0;
        for s in &samples.samples {
            total_cycles += s.weight;
            // Chain: sample PC first, then call sites innermost-first.
            let mut seen_funcs: HashSet<(u32, usize)> = HashSet::new();
            let mut credited_fids: HashSet<usize> = HashSet::new();
            let mut credited_loops: HashSet<usize> = HashSet::new();
            let chain = std::iter::once(s.loc).chain(s.stack.iter().rev().copied());
            for (depth, loc) in chain.enumerate() {
                let Some(m) = mods.get(loc.module.0 as usize) else {
                    continue;
                };
                let Some(block) = m.cfg.block_containing(loc.offset) else {
                    // Sample in cold code (sampling skid); functions still
                    // get self-credit below.
                    if depth == 0 {
                        if let Some(fid) = func_of(&mods, &mut funcs, &mut func_ids, loc) {
                            funcs[fid].self_cycles += s.weight;
                            funcs[fid].self_samples += 1;
                            if credited_fids.insert(fid) {
                                funcs[fid].incl_cycles += s.weight;
                            }
                        }
                    }
                    continue;
                };
                let fidx = m.cfg.blocks[block].function;
                // Most-recent-instance rule for recursion (§IV-D): later
                // (outer) occurrences of an already-seen function do not
                // receive inclusive credit again.
                if !seen_funcs.insert((loc.module.0, fidx)) {
                    continue;
                }
                if let Some(fid) = func_of(&mods, &mut funcs, &mut func_ids, loc) {
                    if depth == 0 {
                        funcs[fid].self_cycles += s.weight;
                        funcs[fid].self_samples += 1;
                    }
                    if credited_fids.insert(fid) {
                        funcs[fid].incl_cycles += s.weight;
                    }
                }
                for li in m.forests[fidx].loops_containing(block) {
                    let gid = loop_ids[&(loc.module.0, fidx, li)];
                    if credited_loops.insert(gid) {
                        loops[gid].cycles += s.weight;
                        loops[gid].samples += 1;
                    }
                }
            }
        }

        // ---- line table ------------------------------------------------------
        let mut line_map: HashMap<(u32, String, u32), LineStats> = HashMap::new();
        let all_locs: HashSet<CodeLoc> = insn_counts
            .keys()
            .chain(insn_samples.keys())
            .copied()
            .collect();
        for loc in all_locs {
            let Some(m) = mods.get(loc.module.0 as usize) else {
                continue;
            };
            let Some((file, line)) = m.module.line_at(loc.offset) else {
                continue;
            };
            let key = (loc.module.0, file.to_string(), line);
            let entry = line_map.entry(key.clone()).or_insert_with(|| LineStats {
                module: key.0,
                file: key.1.clone(),
                line: key.2,
                cycles: 0,
                samples: 0,
                count: 0,
            });
            if let Some(&(s, w)) = insn_samples.get(&loc) {
                entry.samples += s;
                entry.cycles += w;
            }
            if let Some(&c) = insn_counts.get(&loc) {
                entry.count += c;
            }
        }
        let mut lines: Vec<LineStats> = line_map.into_values().collect();
        lines.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then(a.module.cmp(&b.module))
                .then(a.file.cmp(&b.file))
                .then(a.line.cmp(&b.line))
        });

        let total_insns = counts.total_insns();
        funcs.sort_by(|a, b| {
            b.self_cycles
                .cmp(&a.self_cycles)
                .then(a.module.cmp(&b.module))
                .then(a.name.cmp(&b.name))
        });
        // Sort hottest-first, remapping the parent indices through the
        // permutation so nesting links stay exact.
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by(|&a, &b| {
            loops[b]
                .cycles
                .cmp(&loops[a].cycles)
                .then(loops[a].module.cmp(&loops[b].module))
                .then(loops[a].function.cmp(&loops[b].function))
                .then(loops[a].header_offset.cmp(&loops[b].header_offset))
        });
        let mut new_index = vec![0usize; loops.len()];
        for (new, &old) in order.iter().enumerate() {
            new_index[old] = new;
        }
        let mut sorted: Vec<LoopStats> = order.iter().map(|&i| loops[i].clone()).collect();
        for l in &mut sorted {
            l.parent = l.parent.map(|old| new_index[old]);
        }
        let loops = sorted;

        let diagnostics = reconcile(&mods, samples, counts, &insn_counts, mode, hot);

        Ok(Analysis {
            modules: mods,
            insn_counts,
            insn_samples,
            funcs,
            loops,
            lines,
            total_cycles,
            wall_cycles: samples.total_cycles,
            total_insns,
            mode,
            diagnostics,
        })
    }

    /// Function table, hottest (self cycles) first.
    pub fn functions(&self) -> &[FuncStats] {
        &self.funcs
    }

    /// Loop table, hottest first.
    pub fn loops(&self) -> &[LoopStats] {
        &self.loops
    }

    /// Source-line table, hottest first.
    pub fn lines(&self) -> &[LineStats] {
        &self.lines
    }

    /// Looks up a function by name (first match across modules).
    pub fn function(&self, name: &str) -> Option<&FuncStats> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Execution count of one instruction.
    pub fn count_at(&self, loc: CodeLoc) -> u64 {
        self.insn_counts.get(&loc).copied().unwrap_or(0)
    }

    /// `(samples, cycles)` attributed to one instruction.
    pub fn samples_at(&self, loc: CodeLoc) -> (u64, u64) {
        self.insn_samples.get(&loc).copied().unwrap_or((0, 0))
    }

    /// Fused per-instruction rows for one function (figure 10 view).
    pub fn annotate_function(&self, module: u32, name: &str) -> Vec<InsnRow> {
        let Some(m) = self.modules.get(module as usize) else {
            return Vec::new();
        };
        m.disasm
            .function_lines(name)
            .map(|line| {
                let loc = CodeLoc {
                    module: ModuleId(module),
                    offset: line.offset,
                };
                let (samples, cycles) = self.samples_at(loc);
                let count = self.count_at(loc);
                InsnRow {
                    loc,
                    text: line.text.clone(),
                    samples,
                    cycles,
                    count,
                    cpi: (count > 0).then(|| cycles as f64 / count as f64),
                }
            })
            .collect()
    }

    /// Fused rows for every executed instruction, sorted by cycles
    /// descending.
    pub fn hottest_insns(&self, limit: usize) -> Vec<InsnRow> {
        let mut rows: Vec<InsnRow> = self
            .insn_samples
            .iter()
            .map(|(&loc, &(samples, cycles))| {
                let count = self.count_at(loc);
                let text = self
                    .modules
                    .get(loc.module.0 as usize)
                    .and_then(|m| m.disasm.line_at(loc.offset))
                    .map(|l| l.text.clone())
                    .unwrap_or_default();
                InsnRow {
                    loc,
                    text,
                    samples,
                    cycles,
                    count,
                    cpi: (count > 0).then(|| cycles as f64 / count as f64),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.loc.cmp(&b.loc)));
        rows.truncate(limit);
        rows
    }
}

/// The divergence-detection pass (§IV-F): cross-checks the two profiles
/// after the join and scores how badly they disagree.
///
/// Three independent signals feed the score, each normalized to a fraction:
///
/// * **phantom cycles** — sample weight on instructions whose execution
///   count is zero. Sampling skid legitimately displaces samples by an
///   instruction or two, but displaced samples still land on *executed*
///   code; weight on never-executed code means the runs took different
///   paths.
/// * **unknown modules** — samples referencing module ids outside the
///   analyzed set (a profile from a different program or module list).
/// * **instruction-total error** — the sampling run's retired-instruction
///   count versus the instrumentation run's exact total. For identical
///   deterministic executions these agree exactly; this term is skipped
///   when either run was truncated (the totals are then incomparable by
///   construction) or when the sample profile predates the `retired` field.
///
/// Under selective instrumentation (`hot` present), cold functions have no
/// counts *by construction*: their samples cannot be phantom-checked and the
/// counted instruction total deliberately undercounts the execution, so both
/// signals are restricted to the instrumented subset.
fn reconcile(
    mods: &[ModuleAnalysis],
    samples: &SampleProfile,
    counts: &CountsProfile,
    insn_counts: &HashMap<CodeLoc, u64>,
    mode: AnalysisMode,
    hot: Option<&HashSet<(u32, String)>>,
) -> JoinDiagnostics {
    let mut d = JoinDiagnostics {
        sampled_retired: samples.retired,
        counted_insns: counts.total_insns(),
        samples_truncated: samples.truncated.clone(),
        counts_truncated: counts.truncated.clone(),
        ..JoinDiagnostics::default()
    };
    if let Some(r) = &d.samples_truncated {
        d.warnings.push(format!("sampling run truncated: {r}"));
    }
    if let Some(r) = &d.counts_truncated {
        d.warnings.push(format!("instrumentation run truncated: {r}"));
    }
    if mode == AnalysisMode::SamplingOnly {
        // No counts to reconcile against; the caller already knows this is
        // degraded output.
        d.warnings
            .push("degraded mode: no instrumentation profile, counts and CPI unavailable".into());
        return d;
    }

    if hot.is_some() {
        d.warnings.push(
            "selective instrumentation: reconciliation restricted to hot functions".into(),
        );
    }

    let mut total_weight = 0u64;
    for s in &samples.samples {
        total_weight += s.weight;
        if (s.loc.module.0 as usize) >= mods.len() {
            d.unknown_module_samples += 1;
            continue;
        }
        if let Some(set) = hot {
            let in_hot = mods[s.loc.module.0 as usize]
                .module
                .function_at(s.loc.offset)
                .is_some_and(|sym| set.contains(&(s.loc.module.0, sym.name.clone())));
            if !in_hot {
                continue;
            }
        }
        let executed = |offset: u64| {
            insn_counts
                .get(&CodeLoc {
                    module: s.loc.module,
                    offset,
                })
                .copied()
                .unwrap_or(0)
                > 0
        };
        // Sampling skid displaces a sample at most one instruction past the
        // stalling one, so a sample whose immediate predecessor executed is
        // legitimate even if its own count is zero (e.g. the never-taken
        // fall-through after a loop's back edge).
        let skid_excused =
            s.loc.offset >= INSN_BYTES && executed(s.loc.offset - INSN_BYTES);
        if !executed(s.loc.offset) && !skid_excused {
            d.phantom_samples += 1;
            d.phantom_cycles += s.weight;
        }
    }

    let phantom_frac = if total_weight > 0 {
        d.phantom_cycles as f64 / total_weight as f64
    } else {
        0.0
    };
    let unknown_frac = if samples.samples.is_empty() {
        0.0
    } else {
        d.unknown_module_samples as f64 / samples.samples.len() as f64
    };
    let totals_comparable = d.sampled_retired > 0
        && d.samples_truncated.is_none()
        && d.counts_truncated.is_none()
        && hot.is_none();
    if totals_comparable {
        d.insn_total_rel_error = (d.sampled_retired as f64 - d.counted_insns as f64).abs()
            / d.sampled_retired as f64;
    }

    if phantom_frac > 0.0 {
        d.warnings.push(format!(
            "{} samples ({:.1}% of cycle weight) on instructions the counts run never executed",
            d.phantom_samples,
            100.0 * phantom_frac
        ));
    }
    if d.unknown_module_samples > 0 {
        d.warnings.push(format!(
            "{} samples reference modules outside the analyzed set",
            d.unknown_module_samples
        ));
    }
    if d.insn_total_rel_error > 0.0 {
        d.warnings.push(format!(
            "instruction totals disagree: sampled run retired {} vs counted {} ({:.2}% off)",
            d.sampled_retired,
            d.counted_insns,
            100.0 * d.insn_total_rel_error
        ));
    }
    if samples.samples.is_empty() {
        d.warnings
            .push("sampling profile contains no samples".into());
    }

    d.divergence_score = phantom_frac.max(unknown_frac).max(d.insn_total_rel_error);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_dbi::{instrument_run, DbiConfig};
    use wiser_isa::assemble;
    use wiser_sampler::{sample_run, SamplerConfig};
    use wiser_sim::{CoreConfig, LoadConfig, ProcessImage};

    fn analyze(src: &str, period: u64) -> Analysis {
        let module = assemble("t", src).unwrap();
        // Different ASLR seeds for the two runs, as in real life.
        let cfg_a = LoadConfig {
            aslr_seed: Some(11),
            ..LoadConfig::default()
        };
        let image_a = ProcessImage::load(std::slice::from_ref(&module), &cfg_a).unwrap();
        let (samples, _) = sample_run(
            &image_a,
            7,
            CoreConfig::xeon_like(),
            SamplerConfig::with_period(period),
            50_000_000,
        )
        .unwrap();
        let cfg_b = LoadConfig {
            aslr_seed: Some(99),
            ..LoadConfig::default()
        };
        let image_b = ProcessImage::load(std::slice::from_ref(&module), &cfg_b).unwrap();
        let counts = instrument_run(
            &image_b,
            &DbiConfig {
                rand_seed: 7,
                ..DbiConfig::default()
            },
        )
        .unwrap();
        let modules: Vec<Module> =
            image_b.modules.iter().map(|m| m.linked.clone()).collect();
        Analysis::new(&modules, &samples, &counts, AnalysisOptions::default())
    }

    const DIV_LOOP: &str = r#"
        .func _start global
        .loc "div.c" 1
            li x8, 20000
            li x9, 0
            li x7, 12345
            li x6, 7
        .loc "div.c" 2
        loop:
            udiv x5, x7, x6
            mov x7, x5
            addi x7, x7, 12345
        .loc "div.c" 3
            subi x8, x8, 1
            bne x8, x9, loop
        .loc "div.c" 4
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;

    #[test]
    fn divide_has_high_cpi() {
        let a = analyze(DIV_LOOP, 512);
        // The udiv (offset 32) executes 20000 times and dominates time.
        let rows = a.annotate_function(0, "_start");
        let udiv_row = rows.iter().find(|r| r.text.starts_with("udiv")).unwrap();
        assert_eq!(udiv_row.count, 20000);
        // Samples land on/near the divide; with Interrupt attribution the
        // successor `mov` absorbs them. Check the loop-level CPI instead:
        let loops = a.loops();
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.iterations, 19999);
        assert_eq!(l.invocations, 1);
        // ~5 instructions per iteration with a serial divide: CPI >> 1.
        let cpi = l.cpi().unwrap();
        assert!(cpi > 3.0, "loop CPI {cpi}");
        // Line 2 (the divide chain) is hotter than line 3.
        let line2 = a.lines().iter().find(|l| l.line == 2).unwrap();
        let line3 = a.lines().iter().find(|l| l.line == 3).unwrap();
        assert!(line2.cycles > line3.cycles);
    }

    #[test]
    fn function_stats_consistent() {
        let a = analyze(DIV_LOOP, 512);
        let f = a.function("_start").unwrap();
        assert_eq!(f.self_insns, a.total_insns);
        assert_eq!(f.incl_insns, f.self_insns); // no callees
        assert!(f.self_cycles > 0);
        assert_eq!(f.incl_cycles, f.self_cycles);
        assert!(f.cpi().unwrap() > 1.0);
    }

    /// The figure 4 scenario: two loops in different functions call the
    /// same callee; stack attribution must split the callee's time between
    /// them rather than double counting.
    #[test]
    fn shared_callee_attributed_by_stack() {
        let src = r#"
            .func shared
                push fp
                mov fp, sp
                li x2, 60
                li x3, 0
            spin:
                udiv x4, x2, x2
                subi x2, x2, 1
                bne x2, x3, spin
                mov sp, fp
                pop fp
                ret
            .endfunc
            .func hot_caller
                push fp
                mov fp, sp
                li x8, 90         ; calls shared 90 times
                li x9, 0
            loop1:
                call shared
                subi x8, x8, 1
                bne x8, x9, loop1
                mov sp, fp
                pop fp
                ret
            .endfunc
            .func cold_caller
                push fp
                mov fp, sp
                li x8, 10         ; calls shared 10 times
                li x9, 0
            loop2:
                call shared
                subi x8, x8, 1
                bne x8, x9, loop2
                mov sp, fp
                pop fp
                ret
            .endfunc
            .func _start global
                call hot_caller
                call cold_caller
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let a = analyze(src, 256);
        // Find the two caller loops.
        let loop1 = a
            .loops()
            .iter()
            .find(|l| l.function == "hot_caller")
            .expect("loop in hot_caller");
        let loop2 = a
            .loops()
            .iter()
            .find(|l| l.function == "cold_caller")
            .expect("loop in cold_caller");
        // Instruction counts include the callee: 90 vs 10 calls.
        assert!(loop1.total_insns > 8 * loop2.total_insns);
        assert!(loop1.total_insns > loop1.body_insns);
        // Cycle attribution follows the 9:1 split (within sampling noise).
        assert!(
            loop1.cycles > 4 * loop2.cycles,
            "loop1 {} vs loop2 {}",
            loop1.cycles,
            loop2.cycles
        );
        // Inclusive function time: hot_caller >> cold_caller; shared has
        // large self time.
        let hot = a.function("hot_caller").unwrap();
        let cold = a.function("cold_caller").unwrap();
        let shared = a.function("shared").unwrap();
        assert!(hot.incl_cycles > 4 * cold.incl_cycles);
        assert!(shared.self_cycles > hot.self_cycles);
    }

    #[test]
    fn hottest_insns_sorted() {
        let a = analyze(DIV_LOOP, 512);
        let rows = a.hottest_insns(5);
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(w[0].cycles >= w[1].cycles);
        }
    }

    #[test]
    fn totals_positive() {
        let a = analyze(DIV_LOOP, 512);
        assert!(a.total_cycles > 0);
        assert!(a.wall_cycles >= a.total_cycles);
        assert!(a.total_insns >= 20000 * 5);
    }
}
