//! Cracking guest (x86-like) instructions into RISC atoms.
//!
//! "CMS dynamically morphs x86 instructions into VLIW instructions" (§2.2).
//! The cracker is shared by the CMS translator and by the hardware-CPU
//! timing models (real x86 cores also crack CISC instructions into µops;
//! RISC comparison CPUs execute an essentially 1:1 stream). Cracking is a
//! *timing* transformation only — architected semantics always come from
//! [`crate::isa::MachineState::execute`].
//!
//! Dependences are expressed through a unified register namespace:
//! integer registers `0..16`, FP registers `16..32`, the flags register,
//! a memory-ordering token (loads read it, stores read-modify-write it, so
//! loads may reorder with loads but never cross a store), and unbounded
//! scheduling temporaries.

use crate::isa::{Addr, FReg, Insn, Reg};
use crate::molecule::OpKind;

/// Unified id of the flags register.
pub const FLAGS: u16 = 32;
/// Unified id of the memory-ordering token.
pub const MEM_TOKEN: u16 = 33;
/// First id available for scheduling temporaries.
pub const FIRST_TEMP: u16 = 34;

/// Unified id of an integer register.
pub fn ireg(r: Reg) -> u16 {
    r.0 as u16
}

/// Unified id of an FP register.
pub fn freg(f: FReg) -> u16 {
    16 + f.0 as u16
}

/// A fixed-capacity list of unified register ids, read as a slice. The
/// cracker never produces an atom that reads more than four ids (a
/// store: base, index, the memory token, the source) or writes more
/// than one, so an [`Atom`] is `Copy` and cracking allocates nothing
/// per atom.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Ids<const N: usize> {
    len: u8,
    /// Slots past `len` stay zero, so the derived equality is list equality.
    ids: [u16; N],
}

impl<const N: usize> Ids<N> {
    /// The list holding `ids`. Panics if there are more than `N`.
    pub fn new(ids: &[u16]) -> Self {
        let mut list = Ids {
            len: 0,
            ids: [0; N],
        };
        for &id in ids {
            list.push(id);
        }
        list
    }

    /// Append one id. Panics when the list is full.
    pub fn push(&mut self, id: u16) {
        assert!((self.len as usize) < N, "an atom holds at most {N} ids");
        self.ids[self.len as usize] = id;
        self.len += 1;
    }
}

impl<const N: usize> std::ops::Deref for Ids<N> {
    type Target = [u16];

    fn deref(&self) -> &[u16] {
        &self.ids[..self.len as usize]
    }
}

impl<'a, const N: usize> IntoIterator for &'a Ids<N> {
    type Item = &'a u16;
    type IntoIter = std::slice::Iter<'a, u16>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<const N: usize> std::fmt::Debug for Ids<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One RISC atom: an operation plus its read/write sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Atom {
    /// What the atom does (determines FU routing and latency on a core).
    pub kind: OpKind,
    /// Unified register ids read.
    pub reads: Ids<4>,
    /// Unified register ids written.
    pub writes: Ids<1>,
}

impl Atom {
    /// An atom of `kind` reading `reads` and writing `writes`. Panics on
    /// more than four reads or more than one write.
    pub fn new(kind: OpKind, reads: &[u16], writes: &[u16]) -> Self {
        Atom {
            kind,
            reads: Ids::new(reads),
            writes: Ids::new(writes),
        }
    }
}

/// Target properties that change how instructions crack.
#[derive(Debug, Clone, Copy)]
pub struct CrackConfig {
    /// Core has a hardware FP square-root unit. Cores without one (the
    /// Crusoe VLIW, the Alpha EV56) expand `FSqrt` into a Newton–Raphson
    /// software sequence — "particularly \[slow\] when the square root must
    /// be performed in software" (§3.2).
    pub hw_sqrt: bool,
    /// Core has a hardware FP divider. Cores without one expand `FDiv`
    /// into a reciprocal Newton–Raphson sequence.
    pub hw_div: bool,
}

impl CrackConfig {
    /// Everything in hardware (typical x86 superscalar).
    pub fn full_hardware() -> Self {
        CrackConfig {
            hw_sqrt: true,
            hw_div: true,
        }
    }

    /// The Crusoe VLIW: hardware divide, software square root.
    pub fn crusoe() -> Self {
        CrackConfig {
            hw_sqrt: false,
            hw_div: true,
        }
    }
}

/// Allocator for scheduling temporaries.
#[derive(Debug)]
struct Temps {
    next: u16,
}

impl Temps {
    fn fresh(&mut self) -> u16 {
        let t = self.next;
        self.next += 1;
        t
    }
}

/// The atom of a memory access: reads the address registers, the
/// memory-ordering token and (for a store) the source; writes `dst`.
fn mem_atom(kind: OpKind, a: &Addr, src: Option<u16>, dst: u16) -> Atom {
    let mut reads = Ids::new(&[]);
    if let Some(b) = a.base {
        reads.push(ireg(b));
    }
    if let Some((i, _)) = a.index {
        reads.push(ireg(i));
    }
    reads.push(MEM_TOKEN);
    if let Some(s) = src {
        reads.push(s);
    }
    Atom {
        kind,
        reads,
        writes: Ids::new(&[dst]),
    }
}

/// Software square root: timing atoms for `d ← sqrt(d)` on a core with no
/// sqrt unit, modeling a correctly-rounded libm-style routine: a bit-trick
/// initial guess (4 integer/move atoms), **four** Newton–Raphson rsqrt
/// iterations (`y ← y·(3 − x·y²)/2`, a 5-FP-op dependence chain each — the
/// raw bit-trick guess is only ~4 bits accurate, unlike Karp's table), the
/// `sqrt(x) = x·rsqrt(x)` multiply, and a final IEEE rounding fix-up step
/// (`r ← r − (r² − x)·(y/2)`). This is precisely the cost Karp's algorithm
/// avoids by starting from a table+Chebyshev guess.
fn soft_sqrt(d: FReg, temps: &mut Temps, out: &mut Vec<Atom>) {
    let x = freg(d);
    let guess_bits = temps.fresh();
    let shifted = temps.fresh();
    let sub = temps.fresh();
    let mut y = temps.fresh();
    out.push(Atom::new(OpKind::FpMov, &[x], &[guess_bits])); // IBits
    out.push(Atom::new(OpKind::IntAlu, &[guess_bits], &[shifted])); // shift
    out.push(Atom::new(OpKind::IntAlu, &[shifted], &[sub])); // magic − shifted
    out.push(Atom::new(OpKind::FpMov, &[sub], &[y])); // FBits
    for _ in 0..4 {
        let yy = temps.fresh();
        let xyy = temps.fresh();
        let three = temps.fresh();
        let half = temps.fresh();
        let y2 = temps.fresh();
        out.push(Atom::new(OpKind::FpMul, &[y, y], &[yy]));
        out.push(Atom::new(OpKind::FpMul, &[x, yy], &[xyy]));
        out.push(Atom::new(OpKind::FpAdd, &[xyy], &[three])); // 3 − x·y²
        out.push(Atom::new(OpKind::FpMul, &[y, three], &[half]));
        out.push(Atom::new(OpKind::FpMul, &[half], &[y2])); // × 0.5
        y = y2;
    }
    // sqrt(x) = x · rsqrt(x).
    let r = temps.fresh();
    out.push(Atom::new(OpKind::FpMul, &[x, y], &[r]));
    // IEEE rounding fix-up: r ← r − (r² − x)·(y/2), writing the
    // architected register.
    let rr = temps.fresh();
    let err = temps.fresh();
    let half_y = temps.fresh();
    let corr = temps.fresh();
    out.push(Atom::new(OpKind::FpMul, &[r, r], &[rr]));
    out.push(Atom::new(OpKind::FpAdd, &[rr, x], &[err]));
    out.push(Atom::new(OpKind::FpMul, &[y], &[half_y]));
    out.push(Atom::new(OpKind::FpMul, &[err, half_y], &[corr]));
    out.push(Atom::new(OpKind::FpAdd, &[r, corr], &[x]));
}

/// Hardware square root as the benchmark reaches it — through the math
/// *library*: the fsqrt instruction sits inside a function call with x87
/// control-word saves/restores (fstcw/fldcw — FPU-port operations that
/// are partially serializing) plus stack and errno bookkeeping. The
/// wrapper is modeled as chained FPU-port moves around the `FpSqrt` so
/// the overhead occupies the (single) FP pipe the way the real sequence
/// did.
fn libm_sqrt(d: FReg, temps: &mut Temps, out: &mut Vec<Atom>) {
    let x = freg(d);
    let mut prev = temps.fresh();
    out.push(Atom::new(OpKind::FpMov, &[], &[prev]));
    for _ in 0..9 {
        let t = temps.fresh();
        out.push(Atom::new(OpKind::FpMov, &[prev], &[t]));
        prev = t;
    }
    out.push(Atom::new(OpKind::FpSqrt, &[x, prev], &[x]));
    let mut tail = x;
    for _ in 0..10 {
        let t = temps.fresh();
        out.push(Atom::new(OpKind::FpMov, &[tail], &[t]));
        tail = t;
    }
    out.push(Atom::new(OpKind::FpMov, &[tail], &[x]));
}

/// Software Newton–Raphson reciprocal for `d ← d / s` on a core with no
/// divide unit: bit-trick guess + three iterations of `r ← r·(2 − s·r)`
/// and the final multiply.
fn soft_div(d: FReg, s: FReg, temps: &mut Temps, out: &mut Vec<Atom>) {
    let num = freg(d);
    let den = freg(s);
    let guess = temps.fresh();
    out.push(Atom::new(OpKind::FpMov, &[den], &[guess]));
    let mut r = guess;
    for _ in 0..3 {
        let sr = temps.fresh();
        let two = temps.fresh();
        let r2 = temps.fresh();
        out.push(Atom::new(OpKind::FpMul, &[den, r], &[sr]));
        out.push(Atom::new(OpKind::FpAdd, &[sr], &[two])); // 2 − s·r
        out.push(Atom::new(OpKind::FpMul, &[r, two], &[r2]));
        r = r2;
    }
    out.push(Atom::new(OpKind::FpMul, &[num, r], &[num]));
}

/// Crack one instruction, appending its atoms to `out`. `temps_next` is
/// the next free scheduling temporary, advanced past the ones used.
pub fn crack_insn(insn: &Insn, cfg: CrackConfig, temps_next: &mut u16, out: &mut Vec<Atom>) {
    use Insn::*;
    let mut temps = Temps { next: *temps_next };
    match *insn {
        MovImm(d, _) => out.push(Atom::new(OpKind::IntAlu, &[], &[ireg(d)])),
        Mov(d, s) => out.push(Atom::new(OpKind::IntAlu, &[ireg(s)], &[ireg(d)])),
        Add(d, s) | Sub(d, s) | And(d, s) | Or(d, s) | Xor(d, s) => {
            out.push(Atom::new(OpKind::IntAlu, &[ireg(d), ireg(s)], &[ireg(d)]))
        }
        AddImm(d, _) | AndImm(d, _) | Shl(d, _) | Shr(d, _) | Sar(d, _) => {
            out.push(Atom::new(OpKind::IntAlu, &[ireg(d)], &[ireg(d)]))
        }
        IMul(d, s) => out.push(Atom::new(OpKind::IntMul, &[ireg(d), ireg(s)], &[ireg(d)])),
        Load(d, ref a) => out.push(mem_atom(OpKind::Load, a, None, ireg(d))),
        Store(ref a, s) => out.push(mem_atom(OpKind::Store, a, Some(ireg(s)), MEM_TOKEN)),
        FLoad(d, ref a) => out.push(mem_atom(OpKind::Load, a, None, freg(d))),
        FStore(ref a, s) => out.push(mem_atom(OpKind::Store, a, Some(freg(s)), MEM_TOKEN)),
        FMovImm(d, _) => out.push(Atom::new(OpKind::FpMov, &[], &[freg(d)])),
        FMov(d, s) => out.push(Atom::new(OpKind::FpMov, &[freg(s)], &[freg(d)])),
        FAdd(d, s) | FSub(d, s) => {
            out.push(Atom::new(OpKind::FpAdd, &[freg(d), freg(s)], &[freg(d)]))
        }
        FMul(d, s) => out.push(Atom::new(OpKind::FpMul, &[freg(d), freg(s)], &[freg(d)])),
        FDiv(d, s) if cfg.hw_div => {
            out.push(Atom::new(OpKind::FpDiv, &[freg(d), freg(s)], &[freg(d)]))
        }
        FDiv(d, s) => soft_div(d, s, &mut temps, out),
        FSqrt(d) if cfg.hw_sqrt => libm_sqrt(d, &mut temps, out),
        FSqrt(d) => soft_sqrt(d, &mut temps, out),
        FAddMem(d, ref a) => {
            let t = temps.fresh();
            out.push(mem_atom(OpKind::Load, a, None, t));
            out.push(Atom::new(OpKind::FpAdd, &[freg(d), t], &[freg(d)]));
        }
        FMulMem(d, ref a) => {
            let t = temps.fresh();
            out.push(mem_atom(OpKind::Load, a, None, t));
            out.push(Atom::new(OpKind::FpMul, &[freg(d), t], &[freg(d)]));
        }
        Cvtsi2sd(d, s) => out.push(Atom::new(OpKind::FpMov, &[ireg(s)], &[freg(d)])),
        Cvtsd2si(d, s) => out.push(Atom::new(OpKind::FpMov, &[freg(s)], &[ireg(d)])),
        FBits(d, s) => out.push(Atom::new(OpKind::FpMov, &[ireg(s)], &[freg(d)])),
        IBits(d, s) => out.push(Atom::new(OpKind::FpMov, &[freg(s)], &[ireg(d)])),
        Cmp(a, b) => out.push(Atom::new(OpKind::IntAlu, &[ireg(a), ireg(b)], &[FLAGS])),
        CmpImm(a, _) => out.push(Atom::new(OpKind::IntAlu, &[ireg(a)], &[FLAGS])),
        FCmp(a, b) => out.push(Atom::new(OpKind::FpAdd, &[freg(a), freg(b)], &[FLAGS])),
        Jcc(_, _) => out.push(Atom::new(OpKind::Branch, &[FLAGS], &[])),
        Jmp(_) | Halt => out.push(Atom::new(OpKind::Branch, &[], &[])),
    }
    *temps_next = temps.next;
}

/// Crack a straight-line instruction slice (one basic block) into atoms.
pub fn crack_block(insns: &[Insn], cfg: CrackConfig) -> Vec<Atom> {
    let mut temps_next = FIRST_TEMP;
    let mut atoms = Vec::with_capacity(2 * insns.len());
    for insn in insns {
        crack_insn(insn, cfg, &mut temps_next, &mut atoms);
    }
    atoms
}

/// Fuse multiply–add pairs: an `FpMul` writing a temp consumed exactly
/// once by a following `FpAdd` becomes one `FpFma` atom. Applied only on
/// cores with an FMA datapath (e.g. Power3).
pub fn fuse_fma(atoms: &[Atom]) -> Vec<Atom> {
    let mut out: Vec<Atom> = Vec::with_capacity(atoms.len());
    let mut consumed = vec![false; atoms.len()];
    for i in 0..atoms.len() {
        if consumed[i] {
            continue;
        }
        let a = &atoms[i];
        if a.kind == OpKind::FpMul && a.writes.len() == 1 {
            let t = a.writes[0];
            // Find the next reader of t; fuse only if it is an FpAdd and
            // nothing else reads or rewrites t in between or after.
            let mut reader = None;
            let mut uses = 0;
            for (j, b) in atoms.iter().enumerate().skip(i + 1) {
                if b.reads.contains(&t) {
                    uses += 1;
                    if reader.is_none() {
                        reader = Some(j);
                    }
                }
                if b.writes.contains(&t) {
                    break;
                }
            }
            if let Some(j) = reader {
                if uses == 1 && atoms[j].kind == OpKind::FpAdd && !consumed[j] {
                    let mut reads = a.reads;
                    for &r in atoms[j].reads.iter().filter(|&&r| r != t) {
                        reads.push(r);
                    }
                    out.push(Atom {
                        kind: OpKind::FpFma,
                        reads,
                        writes: atoms[j].writes,
                    });
                    consumed[j] = true;
                    continue;
                }
            }
        }
        out.push(*a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Cond;

    /// The atoms of one instruction, temporaries numbered from `*t`.
    fn crack_one(insn: &Insn, cfg: CrackConfig, t: &mut u16) -> Vec<Atom> {
        let mut out = Vec::new();
        crack_insn(insn, cfg, t, &mut out);
        out
    }

    #[test]
    fn simple_ops_crack_to_one_atom() {
        let cfg = CrackConfig::full_hardware();
        let mut t = FIRST_TEMP;
        assert_eq!(crack_one(&Insn::Add(Reg(0), Reg(1)), cfg, &mut t).len(), 1);
        assert_eq!(
            crack_one(&Insn::FMul(FReg(0), FReg(1)), cfg, &mut t).len(),
            1
        );
        // FSqrt cracks to the libm-call wrapper around the hardware op.
        let sqrt_atoms = crack_one(&Insn::FSqrt(FReg(0)), cfg, &mut t);
        assert!(sqrt_atoms.iter().any(|a| a.kind == OpKind::FpSqrt));
        assert!(sqrt_atoms.len() > 10, "libm wrapper expected");
    }

    #[test]
    fn cisc_memory_form_cracks_to_two_atoms() {
        let cfg = CrackConfig::full_hardware();
        let mut t = FIRST_TEMP;
        let atoms = crack_one(&Insn::FAddMem(FReg(0), Addr::base(Reg(1), 8)), cfg, &mut t);
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].kind, OpKind::Load);
        assert_eq!(atoms[1].kind, OpKind::FpAdd);
        // The add consumes the load's temp.
        assert!(atoms[1].reads.contains(&atoms[0].writes[0]));
    }

    #[test]
    fn software_sqrt_expands_without_sqrt_atoms() {
        let cfg = CrackConfig::crusoe();
        let mut t = FIRST_TEMP;
        let atoms = crack_one(&Insn::FSqrt(FReg(2)), cfg, &mut t);
        assert!(
            atoms.len() > 10,
            "expected a long sequence, got {}",
            atoms.len()
        );
        assert!(atoms.iter().all(|a| a.kind != OpKind::FpSqrt));
        // The architected register is the final write.
        assert_eq!(*atoms.last().unwrap().writes, [freg(FReg(2))]);
    }

    #[test]
    fn stores_order_against_loads() {
        let cfg = CrackConfig::full_hardware();
        let atoms = crack_block(
            &[
                Insn::Store(Addr::abs(0), Reg(1)),
                Insn::Load(Reg(2), Addr::abs(0)),
            ],
            cfg,
        );
        assert!(atoms[0].writes.contains(&MEM_TOKEN));
        assert!(atoms[1].reads.contains(&MEM_TOKEN));
    }

    #[test]
    fn branch_reads_flags() {
        let cfg = CrackConfig::full_hardware();
        let atoms = crack_block(&[Insn::CmpImm(Reg(0), 3), Insn::Jcc(Cond::Lt, 0)], cfg);
        assert!(atoms[0].writes.contains(&FLAGS));
        assert!(atoms[1].reads.contains(&FLAGS));
        assert_eq!(atoms[1].kind, OpKind::Branch);
    }

    #[test]
    fn fma_fusion_merges_mul_add_chain() {
        // t = a*b ; d = d + t  →  d = fma(a,b,d)
        let atoms = vec![
            Atom::new(OpKind::FpMul, &[16, 17], &[FIRST_TEMP]),
            Atom::new(OpKind::FpAdd, &[18, FIRST_TEMP], &[18]),
        ];
        let fused = fuse_fma(&atoms);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].kind, OpKind::FpFma);
        assert_eq!(*fused[0].writes, [18]);
        assert!(fused[0].reads.contains(&16) && fused[0].reads.contains(&17));
        assert!(fused[0].reads.contains(&18));
        assert!(!fused[0].reads.contains(&FIRST_TEMP));
    }

    #[test]
    fn fma_fusion_skips_multi_use_temps() {
        let atoms = vec![
            Atom::new(OpKind::FpMul, &[16, 17], &[FIRST_TEMP]),
            Atom::new(OpKind::FpAdd, &[18, FIRST_TEMP], &[18]),
            Atom::new(OpKind::FpAdd, &[19, FIRST_TEMP], &[19]),
        ];
        assert_eq!(fuse_fma(&atoms).len(), 3);
    }
}
