//! The combined Code Morphing Software engine:
//! interpret → profile → translate → execute-from-translation-cache.
//!
//! Cold code is interpreted one instruction at a time while per-block
//! execution counters accumulate; when a block crosses the hot threshold
//! the translator cracks it into atoms, list-schedules it into molecules,
//! pays a one-time translation cost, and installs the result in the
//! translation cache. Subsequent executions run at the scheduled molecule
//! cost. Values are identical on every path (see `isa::execute`); only the
//! charged cycles differ.
//!
//! Everything the engine knows about a block is indexed by the block's
//! leader pc: the translation ([`TCache`]'s slots), the profile counter
//! and the translation's atom mix (`Cms::blocks`), and the block's end
//! ([`Program::block_ends`], once per run). A block execution is
//! therefore a handful of indexed loads around the one step loop
//! ([`interpret_block`]). Both paths execute the guest instructions in
//! order, so a fault leaves the precise architected state by
//! construction and nothing is snapshotted on entry to a translation.

use crate::atoms::crack_block;
use crate::interp::interpret_block;
use crate::isa::{MachineState, MemFault};
use crate::molecule::OpKind;
use crate::program::Program;
use crate::schedule::{schedule_block, CoreParams};
use crate::tcache::{TCache, TCacheStats};

/// CMS generation. MetaBlade ran CMS 4.2.x; MetaBlade2 ran "a newer
/// version of CMS, i.e., 4.3.x" (§3.3 footnote), which the paper credits
/// (together with the 800-MHz TM5800) for 3.3 vs 2.1 Gflops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmsGeneration {
    /// CMS 4.2.x (MetaBlade, TM5600).
    V42,
    /// CMS 4.3.x (MetaBlade2, TM5800): cheaper interpretation, better
    /// scheduling/chaining of translated code.
    V43,
}

impl CmsGeneration {
    /// Interpreter cost per guest instruction, VLIW cycles.
    pub fn interp_cycles_per_insn(self) -> u64 {
        match self {
            CmsGeneration::V42 => 25,
            CmsGeneration::V43 => 20,
        }
    }

    /// Multiplier on translated-block cycles over our list-scheduled
    /// molecules. CMS 4.2 pays ~10% over the plain block schedule for
    /// x86 condition codes, commit points and shadow-register rollback;
    /// CMS 4.3 *beats* the naive block-at-a-time schedule (factor < 1)
    /// because its translator chains and software-pipelines across
    /// back-edges, which our scheduler deliberately does not. Both
    /// factors are calibrated jointly against the published MetaBlade /
    /// MetaBlade2 rates (2.1 vs 3.3 Gflops ⇒ ×1.264 clock × ×1.25 CMS).
    pub fn translated_cycle_factor(self) -> f64 {
        match self {
            CmsGeneration::V42 => 1.10,
            CmsGeneration::V43 => 0.88,
        }
    }
}

/// CMS configuration.
#[derive(Debug, Clone, Copy)]
pub struct CmsConfig {
    /// The VLIW core underneath.
    pub core: CoreParams,
    /// CMS generation.
    pub generation: CmsGeneration,
    /// Block executions before the translator kicks in. The real CMS
    /// "filters infrequently executed code from being needlessly
    /// optimized"; tens of executions is the published regime.
    pub hot_threshold: u64,
    /// One-time translation cost per guest instruction, VLIW cycles
    /// (cracking, scheduling, register allocation, code emission).
    pub translate_cycles_per_insn: u64,
    /// Translation-cache capacity in bits.
    pub tcache_capacity_bits: u64,
    /// Fixed per-execution overhead of entering a cached translation
    /// (chaining / dispatch), cycles.
    pub block_entry_overhead: u64,
}

impl CmsConfig {
    /// The MetaBlade configuration: TM5600 at 633 MHz, CMS 4.2.x, 2-MB
    /// translation cache.
    pub fn metablade() -> Self {
        CmsConfig {
            core: CoreParams::tm5600_vliw(),
            generation: CmsGeneration::V42,
            hot_threshold: 24,
            translate_cycles_per_insn: 4000,
            tcache_capacity_bits: 2 * 8 * 1024 * 1024,
            block_entry_overhead: 2,
        }
    }

    /// The MetaBlade2 configuration: TM5800 at 800 MHz, CMS 4.3.x.
    pub fn metablade2() -> Self {
        CmsConfig {
            core: crate::schedule::CoreParams::tm5800_vliw(),
            generation: CmsGeneration::V43,
            ..Self::metablade()
        }
    }
}

/// Statistics from one CMS run.
#[derive(Debug, Clone, Default)]
pub struct CmsRunStats {
    /// Total VLIW cycles (interpretation + translation + translated
    /// execution + block overheads).
    pub total_cycles: u64,
    /// Guest instructions executed via the interpreter.
    pub interp_insns: u64,
    /// Cycles spent interpreting.
    pub interp_cycles: u64,
    /// Guest instructions executed via cached translations.
    pub translated_insns: u64,
    /// Cycles spent in translated code (incl. entry overhead).
    pub translated_cycles: u64,
    /// Cycles spent translating.
    pub translate_cycles: u64,
    /// Number of translator invocations.
    pub translations: u64,
    /// Basic-block executions.
    pub block_executions: u64,
    /// Translated-block entries that chained directly from another
    /// translation (no dispatch overhead).
    pub chained_entries: u64,
    /// Translated blocks that faulted. Zero in every returned value: a
    /// fault ends the run, and [`Cms::run`] returns it instead of stats.
    pub rollbacks: u64,
    /// Atoms executed in translated code, by [`OpKind::index`].
    pub atom_counts: [u64; OpKind::COUNT],
    /// Final translation-cache statistics.
    pub tcache: TCacheStats,
}

impl CmsRunStats {
    /// Wall-clock seconds at the given core clock.
    pub fn seconds(&self, clock_mhz: f64) -> f64 {
        self.total_cycles as f64 / (clock_mhz * 1e6)
    }

    /// Fraction of guest instructions that ran translated.
    pub fn translated_fraction(&self) -> f64 {
        let total = self.interp_insns + self.translated_insns;
        if total == 0 {
            0.0
        } else {
            self.translated_insns as f64 / total as f64
        }
    }

    /// Total atoms executed in translated code.
    pub fn total_atoms(&self) -> u64 {
        self.atom_counts.iter().sum()
    }

    /// Record this run into a telemetry registry under `label` (usually
    /// empty, or `rank=N` when each SPMD rank runs its own CMS). Counters
    /// merge additively across runs and ranks; the translated fraction
    /// and t-cache hit rate land as gauges.
    pub fn record_into(&self, reg: &mut mb_telemetry::Registry, label: &str) {
        reg.count("cms.total_cycles", label, self.total_cycles);
        reg.count("cms.interp_insns", label, self.interp_insns);
        reg.count("cms.interp_cycles", label, self.interp_cycles);
        reg.count("cms.translated_insns", label, self.translated_insns);
        reg.count("cms.translated_cycles", label, self.translated_cycles);
        reg.count("cms.translate_cycles", label, self.translate_cycles);
        reg.count("cms.translations", label, self.translations);
        reg.count("cms.block_executions", label, self.block_executions);
        reg.count("cms.chained_entries", label, self.chained_entries);
        reg.count("cms.rollbacks", label, self.rollbacks);
        reg.record_gauge("cms.translated_fraction", label, self.translated_fraction());
        for (i, &n) in self.atom_counts.iter().enumerate() {
            if n > 0 {
                reg.count(&format!("cms.atoms.{}", OpKind::NAMES[i]), label, n);
            }
        }
        reg.count("tcache.hits", label, self.tcache.hits);
        reg.count("tcache.misses", label, self.tcache.misses);
        reg.count("tcache.insertions", label, self.tcache.insertions);
        reg.count("tcache.evictions", label, self.tcache.evictions);
        reg.count("tcache.flushes", label, self.tcache.flushes);
        reg.record_gauge("tcache.hit_rate", label, self.tcache.hit_rate());
    }
}

/// The CMS engine. Holds the translation cache and profile counters
/// across runs, as the resident CMS does.
///
/// ```
/// use mb_crusoe::cms::{Cms, CmsConfig};
/// use mb_crusoe::isa::{Cond, Insn, MachineState, Reg};
/// use mb_crusoe::program::ProgramBuilder;
///
/// // sum 1..=1000 in guest code
/// let mut b = ProgramBuilder::new();
/// let top = b.label();
/// b.push(Insn::MovImm(Reg(0), 1000));
/// b.push(Insn::MovImm(Reg(1), 0));
/// b.bind(top);
/// b.push(Insn::Add(Reg(1), Reg(0)));
/// b.push(Insn::AddImm(Reg(0), -1));
/// b.push(Insn::CmpImm(Reg(0), 0));
/// b.jcc(Cond::Gt, top);
/// b.push(Insn::Halt);
/// let program = b.finish();
///
/// let mut cms = Cms::new(CmsConfig::metablade());
/// let mut state = MachineState::new(1);
/// let stats = cms.run(&program, &mut state).unwrap();
/// assert_eq!(state.regs[1], 500_500);
/// assert!(stats.translations >= 1, "the hot loop gets translated");
/// ```
#[derive(Debug)]
pub struct Cms {
    /// Configuration (public for inspection). Translations are keyed by
    /// pc alone: after a change of `core` or `generation` the blocks
    /// already translated keep hitting with the old core's schedule. To
    /// re-translate, boot a fresh `Cms` with the new configuration.
    pub config: CmsConfig,
    tcache: TCache,
    /// Indexed by block-leader pc; grows to the longest program run.
    blocks: Vec<Block>,
}

/// What the engine keeps per guest block besides its translation.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    /// Interpreted executions so far (the profile counter).
    executions: u64,
    /// Atom kinds of the installed translation, for energy accounting.
    atoms: [u64; OpKind::COUNT],
}

impl Cms {
    /// Boot CMS with a configuration.
    pub fn new(config: CmsConfig) -> Self {
        Self {
            config,
            tcache: TCache::new(config.tcache_capacity_bits),
            blocks: Vec::new(),
        }
    }

    /// Access the translation cache (read-only).
    pub fn tcache(&self) -> &TCache {
        &self.tcache
    }

    /// Invalidate any translation covering guest pc `at` (the
    /// self-modifying-code path: the real CMS write-protects translated
    /// pages and flushes on a hit; our guest keeps code and data in
    /// separate spaces, so invalidation is exposed as an explicit API for
    /// loaders/JIT-style guests). Profile counts reset too, so the block
    /// must re-prove itself hot. Only what is removed changes: no lookup
    /// is counted and no other entry's LRU position moves.
    pub fn invalidate(&mut self, at: usize) {
        for start in 0..self.blocks.len().min(at.saturating_add(1)) {
            if self.tcache.peek(start).is_some_and(|entry| at < entry.end) {
                self.tcache.remove(start);
                self.blocks[start] = Block::default();
            }
        }
    }

    /// Crack and schedule the hot block `[pc, end)`, charge the one-time
    /// translation cost and install the result in the translation cache.
    fn translate(&mut self, program: &Program, pc: usize, end: usize, stats: &mut CmsRunStats) {
        let atoms = crack_block(&program.insns[pc..end], self.config.core.crack);
        let mut counts = [0u64; OpKind::COUNT];
        for a in &atoms {
            counts[a.kind.index()] += 1;
        }
        let schedule = schedule_block(&atoms, &self.config.core);
        let cost = self.config.translate_cycles_per_insn * (end - pc) as u64;
        stats.translate_cycles += cost;
        stats.total_cycles += cost;
        stats.translations += 1;
        if self.tcache.insert(pc, end, schedule) {
            self.blocks[pc].atoms = counts;
        }
    }

    /// Run a program from `state.pc` until it executes `Halt`.
    ///
    /// On a memory fault the architected state is the precise in-order
    /// state at the faulting instruction — what pure interpretation
    /// leaves — whether the faulting block ran interpreted or translated.
    pub fn run(
        &mut self,
        program: &Program,
        state: &mut MachineState,
    ) -> Result<CmsRunStats, MemFault> {
        let mut stats = CmsRunStats::default();
        let factor = self.config.generation.translated_cycle_factor();
        let interp_cycles_per_insn = self.config.generation.interp_cycles_per_insn();
        let ends = program.block_ends();
        if self.blocks.len() < ends.len() {
            self.blocks.resize(ends.len(), Block::default());
        }
        let mut pc = state.pc;
        // Chaining: a translated block whose successor is also translated
        // jumps straight into it — the dispatch overhead is paid only on
        // interpreter→translation transitions ("caching and reusing
        // translations exploits the locality of instruction streams").
        let mut chained_from_translation = false;
        loop {
            stats.block_executions += 1;
            let next = if let Some(entry) = self.tcache.lookup(pc) {
                let dispatch = if chained_from_translation {
                    stats.chained_entries += 1;
                    0
                } else {
                    self.config.block_entry_overhead
                };
                let cycles = ((entry.schedule.cycles as f64 * factor).ceil() as u64) + dispatch;
                // The molecules are a timing model; the values come from
                // the guest instructions in order, so a fault here is
                // already at a precise instruction boundary. The faulting
                // run's stats are dropped with it.
                let r = interpret_block(state, &program.insns, pc, entry.end)?;
                stats.translated_insns += r.insns;
                stats.translated_cycles += cycles;
                stats.total_cycles += cycles;
                for (acc, c) in stats.atom_counts.iter_mut().zip(&self.blocks[pc].atoms) {
                    *acc += c;
                }
                chained_from_translation = true;
                r.next_pc
            } else {
                chained_from_translation = false;
                // Interpret, profile, maybe translate for next time.
                assert!(pc < ends.len(), "pc {pc} out of range");
                let end = ends[pc];
                let r = interpret_block(state, &program.insns, pc, end)?;
                let cycles = r.insns * interp_cycles_per_insn;
                stats.interp_insns += r.insns;
                stats.interp_cycles += cycles;
                stats.total_cycles += cycles;
                self.blocks[pc].executions += 1;
                if self.blocks[pc].executions >= self.config.hot_threshold {
                    self.translate(program, pc, end, &mut stats);
                }
                r.next_pc
            };
            match next {
                Some(t) => pc = t,
                None => break,
            }
        }
        state.pc = pc;
        stats.tcache = self.tcache.stats;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Insn, Reg};
    use crate::program::ProgramBuilder;

    /// r0 counts down from `n`; r1 accumulates the sum of r0 values.
    fn countdown_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.push(Insn::MovImm(Reg(0), n));
        b.push(Insn::MovImm(Reg(1), 0));
        b.bind(top);
        b.push(Insn::Add(Reg(1), Reg(0)));
        b.push(Insn::AddImm(Reg(0), -1));
        b.push(Insn::CmpImm(Reg(0), 0));
        b.jcc(Cond::Gt, top);
        b.push(Insn::Halt);
        b.finish()
    }

    #[test]
    fn produces_correct_values() {
        let mut cms = Cms::new(CmsConfig::metablade());
        let mut st = MachineState::new(4);
        cms.run(&countdown_program(100), &mut st).unwrap();
        assert_eq!(st.regs[1], 5050);
        assert_eq!(st.regs[0], 0);
    }

    #[test]
    fn hot_loop_gets_translated_and_speeds_up() {
        let mut cms = Cms::new(CmsConfig::metablade());
        let mut st = MachineState::new(4);
        let stats = cms.run(&countdown_program(10_000), &mut st).unwrap();
        assert!(stats.translations >= 1, "loop never became hot");
        assert!(
            stats.translated_fraction() > 0.9,
            "expected mostly-translated execution, got {}",
            stats.translated_fraction()
        );
        // Amortization: average cycles/insn must land far below the
        // interpreter cost.
        let total_insns = stats.interp_insns + stats.translated_insns;
        let cpi = stats.total_cycles as f64 / total_insns as f64;
        assert!(
            cpi < cms.config.generation.interp_cycles_per_insn() as f64 / 2.0,
            "cpi {cpi} not amortized"
        );
    }

    #[test]
    fn cold_code_is_never_translated() {
        let mut cms = Cms::new(CmsConfig::metablade());
        let mut st = MachineState::new(4);
        let stats = cms.run(&countdown_program(3), &mut st).unwrap();
        assert_eq!(stats.translations, 0);
        assert_eq!(stats.translated_insns, 0);
        assert_eq!(st.regs[1], 6);
    }

    #[test]
    fn translation_persists_across_runs() {
        let mut cms = Cms::new(CmsConfig::metablade());
        let prog = countdown_program(1000);
        let mut st1 = MachineState::new(4);
        let first = cms.run(&prog, &mut st1).unwrap();
        let mut st2 = MachineState::new(4);
        let second = cms.run(&prog, &mut st2).unwrap();
        assert_eq!(st1.regs[1], st2.regs[1]);
        assert!(second.translations <= first.translations);
        assert!(
            second.total_cycles < first.total_cycles,
            "warm run ({}) should beat cold run ({})",
            second.total_cycles,
            first.total_cycles
        );
    }

    #[test]
    fn v43_generation_is_faster_than_v42() {
        let prog = countdown_program(50_000);
        let mut v42 = Cms::new(CmsConfig::metablade());
        let mut st42 = MachineState::new(4);
        let s42 = v42.run(&prog, &mut st42).unwrap();
        let mut cfg43 = CmsConfig::metablade();
        cfg43.generation = CmsGeneration::V43;
        let mut v43 = Cms::new(cfg43);
        let mut st43 = MachineState::new(4);
        let s43 = v43.run(&prog, &mut st43).unwrap();
        assert_eq!(st42.regs[1], st43.regs[1]);
        assert!(s43.total_cycles < s42.total_cycles);
    }

    #[test]
    fn faulting_translated_block_rolls_back_precisely() {
        // A loop that becomes hot, then starts faulting: r2 indexes
        // memory and eventually walks off the end. The fault must be
        // delivered with the architected state exactly as the in-order
        // interpreter would leave it.
        let build = || {
            let mut b = ProgramBuilder::new();
            let top = b.label();
            b.push(Insn::MovImm(Reg(0), 200)); // loop count > memory size
            b.push(Insn::MovImm(Reg(1), 0)); // sum
            b.push(Insn::MovImm(Reg(2), 0)); // index
            b.bind(top);
            b.push(Insn::Load(Reg(3), crate::isa::Addr::base(Reg(2), 0)));
            b.push(Insn::Add(Reg(1), Reg(3)));
            b.push(Insn::AddImm(Reg(2), 1));
            b.push(Insn::AddImm(Reg(0), -1));
            b.push(Insn::CmpImm(Reg(0), 0));
            b.jcc(Cond::Gt, top);
            b.push(Insn::Halt);
            b.finish()
        };
        let prog = build();
        // Reference: pure interpretation (threshold unreachable).
        let mut cfg_interp = CmsConfig::metablade();
        cfg_interp.hot_threshold = u64::MAX;
        let mut interp_only = Cms::new(cfg_interp);
        let mut st_ref = MachineState::new(64);
        for (i, cell) in st_ref.mem.iter_mut().enumerate() {
            *cell = i as u64;
        }
        let err_ref = interp_only.run(&prog, &mut st_ref).unwrap_err();
        // CMS with translation: same fault, same architected state.
        let mut cms = Cms::new(CmsConfig::metablade());
        let mut st = MachineState::new(64);
        for (i, cell) in st.mem.iter_mut().enumerate() {
            *cell = i as u64;
        }
        let err = cms.run(&prog, &mut st).unwrap_err();
        assert_eq!(err.addr, err_ref.addr, "fault address must be precise");
        assert_eq!(st.regs, st_ref.regs, "registers at the fault must match");
    }

    #[test]
    fn faulting_read_modify_write_block_is_applied_once() {
        // The faulting block increments mem[0] before the load that walks
        // off the end: a fault path that re-runs the block from its start
        // would apply the increment twice.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.push(Insn::MovImm(Reg(0), 200));
        b.push(Insn::MovImm(Reg(2), 0));
        b.push(Insn::MovImm(Reg(4), 1));
        b.bind(top);
        b.push(Insn::Load(Reg(1), crate::isa::Addr::abs(0)));
        b.push(Insn::Add(Reg(1), Reg(4)));
        b.push(Insn::Store(crate::isa::Addr::abs(0), Reg(1)));
        b.push(Insn::Load(Reg(3), crate::isa::Addr::base(Reg(2), 0)));
        b.push(Insn::AddImm(Reg(2), 1));
        b.push(Insn::AddImm(Reg(0), -1));
        b.push(Insn::CmpImm(Reg(0), 0));
        b.jcc(Cond::Gt, top);
        b.push(Insn::Halt);
        let prog = b.finish();
        let mut cfg_interp = CmsConfig::metablade();
        cfg_interp.hot_threshold = u64::MAX;
        let mut st_ref = MachineState::new(64);
        let err_ref = Cms::new(cfg_interp).run(&prog, &mut st_ref).unwrap_err();
        assert_eq!((err_ref.addr, st_ref.mem[0]), (64, 65));
        let mut st = MachineState::new(64);
        let err = Cms::new(CmsConfig::metablade())
            .run(&prog, &mut st)
            .unwrap_err();
        assert_eq!(err.addr, err_ref.addr, "fault address must be precise");
        assert_eq!(st.mem, st_ref.mem, "memory at the fault must match");
        assert_eq!(st.regs, st_ref.regs, "registers at the fault must match");
        assert_eq!(st.fregs, st_ref.fregs);
        assert_eq!(
            (st.flag_lt, st.flag_eq),
            (st_ref.flag_lt, st_ref.flag_eq),
            "flags at the fault must match"
        );
    }

    #[test]
    fn invalidation_forces_retranslation() {
        let prog = countdown_program(5_000);
        let mut cms = Cms::new(CmsConfig::metablade());
        let mut st = MachineState::new(4);
        let first = cms.run(&prog, &mut st).unwrap();
        assert!(first.translations >= 1);
        let entries_before = cms.tcache().len();
        // Invalidate the loop body (instruction 3 sits inside it).
        cms.invalidate(3);
        assert!(cms.tcache().len() < entries_before);
        // Re-run: the block re-interprets until hot again, then
        // retranslates.
        let mut st2 = MachineState::new(4);
        let second = cms.run(&prog, &mut st2).unwrap();
        assert_eq!(st.regs[1], st2.regs[1]);
        assert!(
            second.translations >= 1,
            "must retranslate after invalidation"
        );
        assert!(second.interp_insns > 0);
    }

    #[test]
    fn invalidation_counts_no_lookup() {
        let prog = countdown_program(5_000);
        let mut cms = Cms::new(CmsConfig::metablade());
        cms.run(&prog, &mut MachineState::new(4)).unwrap();
        let before = cms.tcache().stats;
        let entries_before = cms.tcache().len();
        cms.invalidate(3);
        assert!(cms.tcache().len() < entries_before, "the loop body went");
        assert_eq!(cms.tcache().stats, before, "inspection is not a lookup");
    }

    #[test]
    fn invalidation_that_covers_nothing_changes_nothing() {
        // Two hot loops, A then B, then a cold tail; A is the LRU entry.
        let mut b = ProgramBuilder::new();
        let (loop_a, loop_b) = (b.label(), b.label());
        b.push(Insn::MovImm(Reg(0), 100));
        b.bind(loop_a);
        b.push(Insn::AddImm(Reg(0), -1));
        b.push(Insn::CmpImm(Reg(0), 0));
        b.jcc(Cond::Gt, loop_a);
        b.push(Insn::MovImm(Reg(0), 100));
        b.bind(loop_b);
        b.push(Insn::AddImm(Reg(0), -1));
        b.push(Insn::CmpImm(Reg(0), 0));
        b.jcc(Cond::Gt, loop_b);
        b.push(Insn::Halt);
        let prog = b.finish();
        let (pc_a, pc_b, tail) = (1, 5, 8);
        // Size the cache to hold exactly the two loops' translations.
        let mut probe = Cms::new(CmsConfig::metablade());
        probe.run(&prog, &mut MachineState::new(4)).unwrap();
        let mut config = CmsConfig::metablade();
        config.tcache_capacity_bits = probe.tcache().used_bits();
        let mut cms = Cms::new(config);
        cms.run(&prog, &mut MachineState::new(4)).unwrap();
        assert_eq!(cms.tcache().len(), 2);

        let before = cms.tcache().stats;
        cms.invalidate(tail);
        assert_eq!(cms.tcache().stats, before);
        assert_eq!(cms.tcache().len(), 2);
        // The next insertion under pressure still evicts A, not B.
        let stall = schedule_block(&[], &config.core);
        let one_molecule = crate::schedule::BlockSchedule {
            molecules: vec![Default::default()],
            code_bits: 64,
            ..stall
        };
        assert!(cms.tcache.insert(tail, tail + 1, one_molecule));
        assert!(cms.tcache.peek(pc_a).is_none(), "A was the LRU entry");
        assert!(cms.tcache.peek(pc_b).is_some());
    }

    #[test]
    fn atom_counts_accumulate_in_translated_code() {
        let mut cms = Cms::new(CmsConfig::metablade());
        let mut st = MachineState::new(4);
        let stats = cms.run(&countdown_program(5_000), &mut st).unwrap();
        assert!(stats.total_atoms() > 0);
        // The loop body is integer ALU + branch only.
        assert!(stats.atom_counts[OpKind::IntAlu.index()] > 0);
        assert!(stats.atom_counts[OpKind::Branch.index()] > 0);
        assert_eq!(stats.atom_counts[OpKind::FpMul.index()], 0);
    }

    #[test]
    fn stats_record_into_a_telemetry_registry() {
        let mut cms = Cms::new(CmsConfig::metablade());
        let mut st = MachineState::new(4);
        let stats = cms.run(&countdown_program(10_000), &mut st).unwrap();

        let mut reg = mb_telemetry::Registry::new();
        stats.record_into(&mut reg, "");
        assert_eq!(
            reg.counter_value("cms.total_cycles", ""),
            Some(stats.total_cycles)
        );
        assert_eq!(
            reg.counter_value("cms.translated_insns", ""),
            Some(stats.translated_insns)
        );
        assert_eq!(
            reg.gauge_value("cms.translated_fraction", ""),
            Some(stats.translated_fraction())
        );
        assert_eq!(
            reg.gauge_value("tcache.hit_rate", ""),
            Some(stats.tcache.hit_rate())
        );
        assert!(stats.tcache.hit_rate() > 0.9, "hot loop mostly hits");
        assert_eq!(
            reg.counter_value("cms.atoms.int_alu", ""),
            Some(stats.atom_counts[OpKind::IntAlu.index()])
        );
        assert_eq!(
            reg.counter_value("cms.atoms.fp_mul", ""),
            None,
            "zero counts are not registered"
        );

        // A second run merges additively through the same registry.
        let mut st2 = MachineState::new(4);
        let stats2 = cms.run(&countdown_program(10_000), &mut st2).unwrap();
        stats2.record_into(&mut reg, "");
        assert_eq!(
            reg.counter_value("cms.total_cycles", ""),
            Some(stats.total_cycles + stats2.total_cycles)
        );
    }
}
