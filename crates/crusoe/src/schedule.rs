//! List scheduling of atoms into molecules / issue cycles.
//!
//! The same scheduler serves two roles:
//!
//! * as the **CMS translator backend** — packing atoms into VLIW molecules
//!   with the Crusoe's functional-unit mix (unbounded lookahead: the
//!   translator reorders freely within a block, which is exactly the
//!   "software takes over the out-of-order hardware's job" story of §2.1);
//! * as the **timing model for hardware CPUs** — the same atoms scheduled
//!   with that core's issue width, unit mix, latencies and reorder window
//!   (window 0 = strict in-order issue, e.g. Alpha EV56).
//!
//! Simplifications, documented: WAR/WAW hazards are assumed renamed away
//! (true for OoO cores and for the translator; optimistic by ≤1 cycle for
//! in-order cores), and memory disambiguation is conservative (loads never
//! cross stores — the `MEM_TOKEN` pseudo-register enforces it).

use crate::atoms::{fuse_fma, Atom, CrackConfig};
use crate::molecule::{FuClass, Molecule, OpKind};

/// Per-cycle functional-unit slot limits.
#[derive(Debug, Clone, Copy)]
pub struct SlotLimits {
    /// Integer ALU slots per cycle.
    pub alu: usize,
    /// FP slots per cycle.
    pub fpu: usize,
    /// Load/store slots per cycle.
    pub mem: usize,
    /// Branch slots per cycle.
    pub branch: usize,
}

impl SlotLimits {
    fn limit(&self, class: FuClass) -> usize {
        match class {
            FuClass::Alu => self.alu,
            FuClass::Fpu => self.fpu,
            FuClass::Mem => self.mem,
            FuClass::Branch => self.branch,
        }
    }
}

/// Operation latencies in cycles (result availability after issue).
#[derive(Debug, Clone, Copy)]
pub struct Latencies {
    /// Integer ALU.
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// FP add/sub/compare.
    pub fp_add: u32,
    /// FP multiply.
    pub fp_mul: u32,
    /// Fused multiply–add.
    pub fp_fma: u32,
    /// FP divide.
    pub fp_div: u32,
    /// FP square root.
    pub fp_sqrt: u32,
    /// FP move / conversion / bit move.
    pub fp_mov: u32,
    /// Load-to-use (L1 hit).
    pub load: u32,
    /// Store (to the ordering token).
    pub store: u32,
    /// Branch resolve.
    pub branch: u32,
}

impl Latencies {
    /// Latency of an operation kind.
    pub fn of(&self, kind: OpKind) -> u32 {
        match kind {
            OpKind::IntAlu => self.int_alu,
            OpKind::IntMul => self.int_mul,
            OpKind::FpAdd => self.fp_add,
            OpKind::FpMul => self.fp_mul,
            OpKind::FpFma => self.fp_fma,
            OpKind::FpDiv => self.fp_div,
            OpKind::FpSqrt => self.fp_sqrt,
            OpKind::FpMov => self.fp_mov,
            OpKind::Load => self.load,
            OpKind::Store => self.store,
            OpKind::Branch => self.branch,
        }
    }
}

/// A core's static timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct CoreParams {
    /// Display name.
    pub name: &'static str,
    /// Core clock, MHz.
    pub clock_mhz: f64,
    /// Max atoms issued per cycle.
    pub issue_width: usize,
    /// Per-class slot limits.
    pub slots: SlotLimits,
    /// Scheduling lookahead beyond the oldest unscheduled atom:
    /// `0` = strict in-order consecutive issue; `usize::MAX` = the CMS
    /// translator's free intra-block reordering; anything between models
    /// an out-of-order window.
    pub window: usize,
    /// Operation latencies.
    pub lat: Latencies,
    /// How CISC instructions crack on this core.
    pub crack: CrackConfig,
    /// Divide is unpipelined (blocks the FP unit for its full latency).
    pub div_blocking: bool,
    /// Square root is unpipelined.
    pub sqrt_blocking: bool,
    /// Core fuses multiply–add pairs (Power3-style FMA).
    pub fma: bool,
}

impl CoreParams {
    /// The Crusoe TM5600 VLIW engine: 2 integer units (7-stage), one FP
    /// unit (10-stage), one load/store unit, one branch unit; up to four
    /// atoms per molecule; the translator schedules with full intra-block
    /// freedom. No hardware square root (CMS expands it in software).
    pub fn tm5600_vliw() -> Self {
        CoreParams {
            name: "Transmeta TM5600 (VLIW)",
            clock_mhz: 633.0,
            issue_width: 4,
            slots: SlotLimits {
                alu: 2,
                fpu: 1,
                mem: 1,
                branch: 1,
            },
            window: usize::MAX,
            lat: Latencies {
                int_alu: 1,
                int_mul: 3,
                fp_add: 3,
                fp_mul: 3,
                fp_fma: 4,
                fp_div: 16,
                fp_sqrt: 24, // unused: cracked to software
                fp_mov: 1,
                load: 2,
                store: 1,
                branch: 1,
            },
            crack: CrackConfig::crusoe(),
            div_blocking: true,
            sqrt_blocking: true,
            fma: false,
        }
    }

    /// The TM5800 at 800 MHz (MetaBlade2). Same engine, higher clock; the
    /// newer CMS generation's scheduling gains are modeled in
    /// [`crate::cms::CmsGeneration`], not here.
    pub fn tm5800_vliw() -> Self {
        CoreParams {
            name: "Transmeta TM5800 (VLIW)",
            clock_mhz: 800.0,
            ..Self::tm5600_vliw()
        }
    }
}

/// The result of scheduling one basic block on one core.
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    /// Cycles from first issue to last result (makespan).
    pub cycles: u64,
    /// Issue packing: one molecule per issue cycle (VLIW view). Empty
    /// molecules are stall cycles.
    pub molecules: Vec<Molecule>,
    /// Number of atoms scheduled (after fusion, including soft-sequence
    /// expansions).
    pub n_atoms: usize,
    /// Encoded size of the translation in bits (64 per ≤2-atom molecule,
    /// 128 per 3–4-atom molecule) — what the translation cache stores.
    pub code_bits: u64,
}

impl BlockSchedule {
    /// Average atoms per non-empty molecule (packing density).
    pub fn packing_density(&self) -> f64 {
        let full: usize = self.molecules.iter().filter(|m| !m.is_empty()).count();
        if full == 0 {
            return 0.0;
        }
        self.n_atoms as f64 / full as f64
    }
}

/// The RAW dependence graph of a block, producer → consumer: for each
/// atom, the most recent earlier writer of each register it reads (WAR
/// and WAW are renamed away, see the module docs).
struct DepGraph {
    /// CSR row starts: the consumers of atom `i` are
    /// `consumers[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    consumers: Vec<usize>,
    /// Distinct producers of each atom that have not issued yet.
    pending: Vec<u32>,
}

impl DepGraph {
    fn build(atoms: &[Atom]) -> Self {
        let n = atoms.len();
        let max_id = atoms
            .iter()
            .flat_map(|a| a.reads.iter().chain(a.writes.iter()))
            .copied()
            .max()
            .unwrap_or(0) as usize;
        const NONE: usize = usize::MAX;
        let mut last_writer = vec![NONE; max_id + 1];
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(2 * n);
        let mut starts = vec![0usize; n + 1];
        let mut pending = vec![0u32; n];
        for (j, a) in atoms.iter().enumerate() {
            let first = edges.len();
            for &r in &a.reads {
                let p = last_writer[r as usize];
                if p != NONE && !edges[first..].contains(&(p, j)) {
                    edges.push((p, j));
                    starts[p + 1] += 1;
                }
            }
            pending[j] = (edges.len() - first) as u32;
            for &w in &a.writes {
                last_writer[w as usize] = j;
            }
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut fill = starts.clone();
        let mut consumers = vec![0usize; edges.len()];
        for (p, j) in edges {
            consumers[fill[p]] = j;
            fill[p] += 1;
        }
        DepGraph {
            starts,
            consumers,
            pending,
        }
    }
}

/// The atoms whose producers have all issued and that have not issued
/// themselves, as a bit set walked in index order — the order the
/// scheduler gives atoms priority in.
struct Candidates(Vec<u64>);

impl Candidates {
    fn insert(&mut self, j: usize) {
        self.0[j / 64] |= 1 << (j % 64);
    }

    fn remove(&mut self, j: usize) {
        self.0[j / 64] &= !(1 << (j % 64));
    }

    /// The first candidate in `from..end`.
    fn next(&self, from: usize, end: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = *self.0.get(word)? & (!0 << (from % 64));
        loop {
            if bits != 0 {
                let j = word * 64 + bits.trailing_zeros() as usize;
                return (j < end).then_some(j);
            }
            word += 1;
            if word * 64 >= end {
                return None;
            }
            bits = *self.0.get(word)?;
        }
    }
}

/// The state of one list-scheduling run.
struct ListScheduler<'a> {
    atoms: &'a [Atom],
    core: &'a CoreParams,
    graph: DepGraph,
    candidates: Candidates,
    /// When each atom's operands are complete; final once the atom is a
    /// candidate, because every producer has issued by then.
    ready_at: Vec<u64>,
    issued: Vec<bool>,
    fpu_blocked_until: u64,
    makespan: u64,
}

impl<'a> ListScheduler<'a> {
    fn new(atoms: &'a [Atom], core: &'a CoreParams) -> Self {
        let n = atoms.len();
        let graph = DepGraph::build(atoms);
        let mut candidates = Candidates(vec![0; n.div_ceil(64)]);
        for j in (0..n).filter(|&j| graph.pending[j] == 0) {
            candidates.insert(j);
        }
        ListScheduler {
            atoms,
            core,
            graph,
            candidates,
            ready_at: vec![0; n],
            issued: vec![false; n],
            fpu_blocked_until: 0,
            makespan: 0,
        }
    }

    /// Issue what `cycle` has room for from the candidates in `window`,
    /// oldest first, and promote the consumers this frees.
    fn issue(&mut self, cycle: u64, window: std::ops::Range<usize>) -> Molecule {
        let core = self.core;
        let mut used_total = 0usize;
        let mut used = [0usize; 4]; // per FuClass
        let mut mol = Molecule::default();
        let mut at = self.candidates.next(window.start, window.end);
        while let Some(j) = at {
            let kind = self.atoms[j].kind;
            let class = FuClass::for_op(kind);
            let fpu_ok = class != FuClass::Fpu || cycle >= self.fpu_blocked_until;
            if self.ready_at[j] <= cycle
                && fpu_ok
                && used_total < core.issue_width
                && used[class as usize] < core.slots.limit(class)
            {
                self.candidates.remove(j);
                self.issued[j] = true;
                used_total += 1;
                used[class as usize] += 1;
                mol.atoms.push(j);
                let done = cycle + core.lat.of(kind) as u64;
                self.makespan = self.makespan.max(done);
                if (kind == OpKind::FpDiv && core.div_blocking)
                    || (kind == OpKind::FpSqrt && core.sqrt_blocking)
                {
                    self.fpu_blocked_until = done;
                }
                let row = self.graph.starts[j]..self.graph.starts[j + 1];
                for &c in &self.graph.consumers[row] {
                    self.ready_at[c] = self.ready_at[c].max(done);
                    self.graph.pending[c] -= 1;
                    if self.graph.pending[c] == 0 {
                        self.candidates.insert(c);
                    }
                }
            }
            // A consumer freed just now lies past `j` and is seen by this
            // same walk (it can issue this cycle only at latency zero).
            at = self.candidates.next(j + 1, window.end);
        }
        mol
    }

    /// The first cycle at which a candidate in `window` could issue into
    /// an empty molecule: its operands complete and, for an FP atom, the
    /// FP unit unblocked. `None` if the core has no slot for any of them.
    fn earliest_issue(&self, window: std::ops::Range<usize>) -> Option<u64> {
        let mut earliest = None;
        let mut at = self.candidates.next(window.start, window.end);
        while let Some(j) = at {
            let class = FuClass::for_op(self.atoms[j].kind);
            if self.core.issue_width > 0 && self.core.slots.limit(class) > 0 {
                let mut when = self.ready_at[j];
                if class == FuClass::Fpu {
                    when = when.max(self.fpu_blocked_until);
                }
                earliest = Some(earliest.map_or(when, |e: u64| e.min(when)));
            }
            at = self.candidates.next(j + 1, window.end);
        }
        earliest
    }
}

/// Schedule a block of atoms on a core.
///
/// Event-driven list scheduling: an atom becomes a *candidate* when its
/// last producer issues (so a candidate's producers have all issued and
/// its ready time is final), a cycle looks only at the candidates inside
/// the core's window, in index order, and a run of cycles in which none
/// of them can issue is emitted as stall molecules in one step.
pub fn schedule_block(atoms: &[Atom], core: &CoreParams) -> BlockSchedule {
    let fused;
    let atoms: &[Atom] = if core.fma {
        fused = fuse_fma(atoms);
        &fused
    } else {
        atoms
    };
    let n = atoms.len();
    let mut sched = ListScheduler::new(atoms, core);
    let mut head = 0usize;
    let mut cycle = 0u64;
    let mut molecules: Vec<Molecule> = Vec::new();
    // Safety valve: no real schedule issues this late; the cap catches
    // modeling bugs (say, a core with no slot for some atom).
    let cap = 64 * (n as u64) + 4096;
    while head < n {
        assert!(cycle < cap, "scheduler failed to converge on {}", core.name);
        // Candidate range: [head, head+window] for OoO / translator;
        // the oldest unissued atom alone when window == 0 (in-order).
        let window = head..head.saturating_add(core.window).saturating_add(1).min(n);
        let mol = sched.issue(cycle, window.clone());
        cycle += 1;
        if mol.is_empty() {
            // Nothing issued, so nothing changed: every cycle before the
            // window's first candidate can go is another stall.
            let next = sched
                .earliest_issue(window)
                .map_or(cap, |c| c.clamp(cycle, cap));
            let stalls = (next - cycle) as usize;
            molecules.resize_with(molecules.len() + stalls, Molecule::default);
            cycle = next;
        }
        molecules.push(mol);
        while head < n && sched.issued[head] {
            head += 1;
        }
    }
    let code_bits = molecules.iter().map(|m| m.bits() as u64).sum();
    BlockSchedule {
        cycles: sched.makespan.max(cycle),
        molecules,
        n_atoms: n,
        code_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::{crack_block, CrackConfig, FIRST_TEMP};
    use crate::isa::{FReg, Insn};

    fn alu_atom(dst: u16, srcs: Vec<u16>) -> Atom {
        Atom::new(OpKind::IntAlu, &srcs, &[dst])
    }

    #[test]
    fn independent_atoms_pack_into_one_molecule() {
        let core = CoreParams::tm5600_vliw();
        let atoms = vec![alu_atom(0, vec![]), alu_atom(1, vec![])];
        let s = schedule_block(&atoms, &core);
        assert_eq!(s.molecules[0].atoms.len(), 2, "both ALUs used");
        assert_eq!(s.cycles, 1);
    }

    #[test]
    fn alu_limit_of_two_is_enforced() {
        let core = CoreParams::tm5600_vliw();
        let atoms = vec![
            alu_atom(0, vec![]),
            alu_atom(1, vec![]),
            alu_atom(2, vec![]),
        ];
        let s = schedule_block(&atoms, &core);
        // 3 independent ALU atoms, 2 ALU slots ⇒ 2 issue cycles.
        assert_eq!(
            s.molecules.iter().filter(|m| !m.is_empty()).count(),
            2,
            "{:?}",
            s.molecules
        );
    }

    #[test]
    fn dependence_chain_respects_latency() {
        let core = CoreParams::tm5600_vliw();
        // f16 += f17 three times: each FpAdd depends on the previous (lat 3).
        let atoms = vec![Atom::new(OpKind::FpAdd, &[16, 17], &[16]); 3];
        let s = schedule_block(&atoms, &core);
        // Issues at 0, 3, 6; result at 9.
        assert_eq!(s.cycles, 9);
    }

    #[test]
    fn blocking_divide_stalls_the_fpu() {
        let core = CoreParams::tm5600_vliw();
        let atoms = vec![
            Atom::new(OpKind::FpDiv, &[16, 17], &[16]),
            // Independent FP add should still wait for the divider.
            Atom::new(OpKind::FpAdd, &[18, 19], &[18]),
        ];
        let s = schedule_block(&atoms, &core);
        assert!(
            s.cycles >= core.lat.fp_div as u64,
            "cycles {} < div latency",
            s.cycles
        );
    }

    #[test]
    fn in_order_window_zero_blocks_behind_stall() {
        let mut core = CoreParams::tm5600_vliw();
        core.window = 0;
        // Atom 1 depends on atom 0 (fp, lat 3); atom 2 is independent int.
        let atoms = vec![
            Atom::new(OpKind::FpAdd, &[16], &[17]),
            Atom::new(OpKind::FpAdd, &[17], &[18]),
            alu_atom(0, vec![]),
        ];
        let in_order = schedule_block(&atoms, &core);
        core.window = usize::MAX;
        let reordered = schedule_block(&atoms, &core);
        // The translator hoists the independent ALU op; in-order cannot
        // retire it earlier, so in-order uses at least as many cycles and
        // its ALU op issues later.
        assert!(in_order.cycles >= reordered.cycles);
    }

    #[test]
    fn microkernel_block_schedules_and_packs() {
        let insns = vec![
            Insn::FLoad(FReg(0), crate::isa::Addr::abs(0)),
            Insn::FMul(FReg(0), FReg(0)),
            Insn::FSqrt(FReg(0)),
            Insn::FStore(crate::isa::Addr::abs(1), FReg(0)),
        ];
        let atoms = crack_block(&insns, CrackConfig::crusoe());
        let s = schedule_block(&atoms, &CoreParams::tm5600_vliw());
        assert!(s.cycles > 10, "software sqrt must cost: {}", s.cycles);
        assert!(s.packing_density() >= 1.0);
        assert!(s.code_bits >= 64 * s.molecules.len() as u64);
    }

    #[test]
    fn empty_block_is_free() {
        let s = schedule_block(&[], &CoreParams::tm5600_vliw());
        assert_eq!(s.cycles, 0);
        assert_eq!(s.code_bits, 0);
    }

    #[test]
    #[should_panic(expected = "scheduler failed to converge")]
    fn a_core_with_no_slot_for_an_atom_panics_instead_of_hanging() {
        let mut core = CoreParams::tm5600_vliw();
        core.slots.fpu = 0;
        let fp = Atom::new(OpKind::FpAdd, &[16], &[17]);
        schedule_block(&[alu_atom(0, vec![]), fp], &core);
    }

    #[test]
    fn fma_core_fuses_and_speeds_up() {
        let mut core = CoreParams::tm5600_vliw();
        let atoms = vec![
            Atom::new(OpKind::FpMul, &[16, 17], &[FIRST_TEMP]),
            Atom::new(OpKind::FpAdd, &[18, FIRST_TEMP], &[18]),
        ];
        let plain = schedule_block(&atoms, &core);
        core.fma = true;
        let fused = schedule_block(&atoms, &core);
        assert!(fused.cycles < plain.cycles);
        assert_eq!(fused.n_atoms, 1);
    }
}

/// The scheduler as it stood before it became event-driven, kept
/// verbatim as the oracle [`equivalence`] compares against: every cycle
/// rescans the whole window and re-derives each atom's ready time from
/// its producers.
#[cfg(test)]
mod reference {
    use super::*;

    #[allow(clippy::too_many_lines)] // verbatim, so not split
    pub fn schedule_block(atoms: &[Atom], core: &CoreParams) -> BlockSchedule {
        let fused;
        let atoms: &[Atom] = if core.fma {
            fused = fuse_fma(atoms);
            &fused
        } else {
            atoms
        };
        let n = atoms.len();
        if n == 0 {
            return BlockSchedule {
                cycles: 0,
                molecules: vec![],
                n_atoms: 0,
                code_bits: 0,
            };
        }
        let max_id = atoms
            .iter()
            .flat_map(|a| a.reads.iter().chain(a.writes.iter()))
            .copied()
            .max()
            .unwrap_or(0) as usize;
        // RAW producers: for each atom, the most recent earlier writer of
        // each register it reads. Eligibility requires every producer to be
        // scheduled AND complete — readiness cannot be inferred from a
        // default-zero ready time, or a reader could issue before its
        // producer is ever scheduled.
        let mut last_writer: Vec<Option<usize>> = vec![None; max_id + 1];
        let mut producers: Vec<Vec<usize>> = Vec::with_capacity(n);
        for a in atoms {
            let mut ps: Vec<usize> = a
                .reads
                .iter()
                .filter_map(|&r| last_writer[r as usize])
                .collect();
            ps.sort_unstable();
            ps.dedup();
            producers.push(ps);
            for &w in &a.writes {
                last_writer[w as usize] = Some(producers.len() - 1);
            }
        }
        let mut scheduled = vec![false; n];
        let mut issue_cycle = vec![0u64; n];
        let mut head = 0usize;
        let mut cycle = 0u64;
        let mut fpu_blocked_until = 0u64;
        let mut makespan = 0u64;
        let mut molecules: Vec<Molecule> = Vec::new();

        let mut remaining = n;
        // Safety valve: every iteration either schedules an atom or advances
        // the clock, and ready times are finite, so this terminates; the cap
        // catches modeling bugs rather than real schedules.
        let cap = 64 * (n as u64) + 4096;
        while remaining > 0 {
            assert!(cycle < cap, "scheduler failed to converge on {}", core.name);
            let mut used_total = 0usize;
            let mut used = [0usize; 4]; // per FuClass
            let mut mol = Molecule::default();
            // Candidate range: [head, head+window] for OoO / translator;
            // strict consecutive issue when window == 0.
            let window_end = if core.window == usize::MAX {
                n
            } else {
                (head + core.window + 1).min(n)
            };
            let mut j = head;
            while j < window_end {
                if scheduled[j] {
                    j += 1;
                    continue;
                }
                let a = &atoms[j];
                let class = FuClass::for_op(a.kind);
                let class_ix = class as usize;
                let ready = producers[j].iter().try_fold(0u64, |acc, &i| {
                    if scheduled[i] {
                        Some(acc.max(issue_cycle[i] + core.lat.of(atoms[i].kind) as u64))
                    } else {
                        None // producer not yet scheduled: not eligible
                    }
                });
                let fpu_ok = class != FuClass::Fpu || cycle >= fpu_blocked_until;
                let issuable = matches!(ready, Some(r) if r <= cycle)
                    && fpu_ok
                    && used_total < core.issue_width
                    && used[class_ix] < core.slots.limit(class);
                if issuable {
                    scheduled[j] = true;
                    issue_cycle[j] = cycle;
                    remaining -= 1;
                    used_total += 1;
                    used[class_ix] += 1;
                    mol.atoms.push(j);
                    let lat = core.lat.of(a.kind) as u64;
                    makespan = makespan.max(cycle + lat);
                    if class == FuClass::Fpu
                        && ((a.kind == OpKind::FpDiv && core.div_blocking)
                            || (a.kind == OpKind::FpSqrt && core.sqrt_blocking))
                    {
                        fpu_blocked_until = cycle + lat;
                    }
                } else if core.window == 0 {
                    // Strict in-order: a stalled atom blocks everything behind it.
                    break;
                }
                j += 1;
            }
            while head < n && scheduled[head] {
                head += 1;
            }
            molecules.push(mol);
            cycle += 1;
        }
        let code_bits = molecules.iter().map(|m| m.bits() as u64).sum();
        BlockSchedule {
            cycles: makespan.max(cycle),
            molecules,
            n_atoms: n,
            code_bits,
        }
    }
}

/// The event-driven scheduler produces the reference's schedule, field
/// by field and molecule by molecule.
#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::atoms::{crack_block, FIRST_TEMP, FLAGS, MEM_TOKEN};
    use crate::hardware::hardware_catalog;
    use crate::kernels::{build_microkernel, MicrokernelVariant};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_same(atoms: &[Atom], core: &CoreParams, what: &str) {
        let new = schedule_block(atoms, core);
        let old = reference::schedule_block(atoms, core);
        let what = format!("{what} on {} (window {})", core.name, core.window);
        assert_eq!(new.cycles, old.cycles, "cycles: {what}");
        assert_eq!(new.n_atoms, old.n_atoms, "n_atoms: {what}");
        assert_eq!(new.code_bits, old.code_bits, "code_bits: {what}");
        assert_eq!(new.molecules.len(), old.molecules.len(), "length: {what}");
        for (cycle, (n, o)) in new.molecules.iter().zip(&old.molecules).enumerate() {
            assert_eq!(n, o, "molecule {cycle}: {what}");
        }
    }

    /// Every block of both microkernels, alone and as the four
    /// concatenated copies `HwCpu::run` schedules, on every core in use.
    #[test]
    fn microkernel_blocks_schedule_identically() {
        let mut cores: Vec<CoreParams> = hardware_catalog().iter().map(|c| c.params).collect();
        cores.push(CoreParams::tm5600_vliw());
        cores.push(CoreParams::tm5800_vliw());
        for window in [0, 3] {
            cores.push(CoreParams {
                window,
                ..CoreParams::tm5600_vliw()
            });
        }
        for variant in [MicrokernelVariant::KarpSqrt, MicrokernelVariant::MathSqrt] {
            let program = build_microkernel(variant, 16, 2).program;
            for leader in program.leaders() {
                let block = &program.insns[program.block_at(leader)];
                for copies in [1, 4] {
                    let insns = block.repeat(copies);
                    for core in &cores {
                        assert_same(
                            &crack_block(&insns, core.crack),
                            core,
                            &format!("{variant:?} block {leader} x{copies}"),
                        );
                    }
                }
            }
        }
    }

    fn random_id(rng: &mut StdRng) -> u16 {
        match rng.random_range(0..10u32) {
            0 => FLAGS,
            1 => MEM_TOKEN,
            2..=4 => rng.random_range(FIRST_TEMP..FIRST_TEMP + 12),
            _ => rng.random_range(0..32u16),
        }
    }

    fn random_atoms(rng: &mut StdRng) -> Vec<Atom> {
        const KINDS: [OpKind; OpKind::COUNT] = [
            OpKind::IntAlu,
            OpKind::IntMul,
            OpKind::FpAdd,
            OpKind::FpMul,
            OpKind::FpFma,
            OpKind::FpDiv,
            OpKind::FpSqrt,
            OpKind::FpMov,
            OpKind::Load,
            OpKind::Store,
            OpKind::Branch,
        ];
        let n = rng.random_range(1..=200usize);
        (0..n)
            .map(|_| {
                let kind = KINDS[rng.random_range(0..KINDS.len())];
                // A fused multiply-add reads what both halves read, so
                // the halves stay at two reads each.
                let max_reads = match kind {
                    OpKind::FpMul | OpKind::FpAdd => 2,
                    _ => 4usize,
                };
                let reads: Vec<u16> = (0..rng.random_range(0..=max_reads))
                    .map(|_| random_id(rng))
                    .collect();
                let writes: Vec<u16> = (0..rng.random_range(0..=1usize))
                    .map(|_| random_id(rng))
                    .collect();
                Atom::new(kind, &reads, &writes)
            })
            .collect()
    }

    /// 1 200 seeded random atom lists, 30 for each combination of window,
    /// FMA fusion and blocking divide / square root, over the cores'
    /// slot mixes and latencies.
    #[test]
    fn random_atom_lists_schedule_identically() {
        let mut bases: Vec<CoreParams> = hardware_catalog().iter().map(|c| c.params).collect();
        bases.push(CoreParams::tm5600_vliw());
        let mut rng = StdRng::seed_from_u64(0x5C4ED);
        for case in 0..1_200usize {
            let atoms = random_atoms(&mut rng);
            let core = CoreParams {
                window: [0, 1, 3, 16, usize::MAX][case % 5],
                fma: (case / 5) % 2 == 1,
                div_blocking: (case / 10) % 2 == 1,
                sqrt_blocking: (case / 20) % 2 == 1,
                ..bases[(case / 40) % bases.len()]
            };
            assert_same(&atoms, &core, &format!("random case {case}"));
        }
    }
}

#[cfg(test)]
mod schedule_properties {
    use super::*;
    use crate::atoms::Atom;
    use crate::molecule::{FuClass, OpKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_atom(rng: &mut StdRng) -> Atom {
        const KINDS: [OpKind; 8] = [
            OpKind::IntAlu,
            OpKind::IntMul,
            OpKind::FpAdd,
            OpKind::FpMul,
            OpKind::FpDiv,
            OpKind::FpMov,
            OpKind::Load,
            OpKind::Store,
        ];
        let kind = KINDS[rng.random_range(0..KINDS.len())];
        let n_reads = rng.random_range(0..3usize);
        let reads: Vec<u16> = (0..n_reads).map(|_| rng.random_range(0..24u16)).collect();
        Atom::new(kind, &reads, &[rng.random_range(0..24u16)])
    }

    fn random_block(rng: &mut StdRng) -> Vec<Atom> {
        let n = rng.random_range(1..40usize);
        (0..n).map(|_| random_atom(rng)).collect()
    }

    fn cores() -> Vec<CoreParams> {
        let mut in_order = CoreParams::tm5600_vliw();
        in_order.window = 0;
        let mut windowed = CoreParams::tm5600_vliw();
        windowed.window = 6;
        vec![CoreParams::tm5600_vliw(), in_order, windowed]
    }

    /// Every atom is scheduled exactly once; per-cycle functional-unit
    /// and issue-width limits hold; RAW dependences respect latency.
    #[test]
    fn schedules_are_valid() {
        let mut rng = StdRng::seed_from_u64(0xC001);
        for case in 0..64 {
            let atoms = random_block(&mut rng);
            for core in cores() {
                let s = schedule_block(&atoms, &core);
                // Coverage: each atom appears in exactly one molecule.
                let mut seen = vec![0u32; atoms.len()];
                for m in &s.molecules {
                    for &ai in &m.atoms {
                        seen[ai] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "case {case} {}: coverage {seen:?}",
                    core.name
                );
                // Per-cycle limits.
                let mut issue_cycle = vec![0u64; atoms.len()];
                for (cycle, m) in s.molecules.iter().enumerate() {
                    assert!(m.atoms.len() <= core.issue_width);
                    let mut per = [0usize; 4];
                    for &ai in &m.atoms {
                        issue_cycle[ai] = cycle as u64;
                        per[FuClass::for_op(atoms[ai].kind) as usize] += 1;
                    }
                    assert!(per[FuClass::Alu as usize] <= core.slots.alu);
                    assert!(per[FuClass::Fpu as usize] <= core.slots.fpu);
                    assert!(per[FuClass::Mem as usize] <= core.slots.mem);
                    assert!(per[FuClass::Branch as usize] <= core.slots.branch);
                }
                // RAW: a reader issues no earlier than the most recent
                // prior writer's completion.
                for (j, a) in atoms.iter().enumerate() {
                    for &r in &a.reads {
                        let producer = (0..j).rev().find(|&i| atoms[i].writes.contains(&r));
                        if let Some(i) = producer {
                            let ready = issue_cycle[i] + core.lat.of(atoms[i].kind) as u64;
                            assert!(
                                issue_cycle[j] >= ready,
                                "case {case} {}: atom {j} reads {r} at {} before atom {i} completes at {ready}",
                                core.name,
                                issue_cycle[j]
                            );
                        }
                    }
                }
                // Makespan is at least the last issue cycle.
                let last = issue_cycle.iter().max().copied().unwrap_or(0);
                assert!(s.cycles >= last);
            }
        }
    }

    /// The translator (infinite window) never does worse than strict
    /// in-order issue.
    #[test]
    fn reordering_never_hurts() {
        let mut rng = StdRng::seed_from_u64(0xC002);
        for case in 0..64 {
            let atoms = random_block(&mut rng);
            let translator = CoreParams::tm5600_vliw();
            let mut in_order = CoreParams::tm5600_vliw();
            in_order.window = 0;
            let a = schedule_block(&atoms, &translator).cycles;
            let b = schedule_block(&atoms, &in_order).cycles;
            assert!(a <= b, "case {case}: translator {a} > in-order {b}");
        }
    }
}
