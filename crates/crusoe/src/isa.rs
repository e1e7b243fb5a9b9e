//! The x86-like guest instruction set and its exact semantics.
//!
//! CMS "presents an x86 interface to the BIOS, operating system, and
//! applications". Our guest ISA is a compact x86 idealization: 16 integer
//! registers, 16 double-precision FP registers, condition flags set by
//! compare instructions, and CISC-flavoured memory addressing
//! (base + index·2^scale + displacement) including FP-op-with-memory-operand
//! forms that the translator must crack into multiple atoms.
//!
//! Memory is word-addressed (one 64-bit cell per address); integer cells
//! hold two's-complement `i64` and FP cells hold `f64` bit patterns, which
//! also lets the Karp kernel do its IEEE-754 bit surgery with `FBits`/
//! `IBits` moves exactly as the real code does.
//!
//! The same semantics are used by the CMS interpreter, by "translated"
//! execution, and by the hardware CPU models — timing differs, values never
//! do. That invariant is what the cross-engine tests check
//! (`tests/engines.rs`). Integer arithmetic wraps as two's-complement
//! hardware does — shift counts mod 64, address sums modulo 2^64 — in
//! debug and release builds alike. [`MachineState::execute`] is inlined
//! into the one step loop (`interp::interpret_block`), the body that runs
//! once per guest instruction.

/// Number of integer registers.
pub const NUM_REGS: usize = 16;
/// Number of floating-point registers.
pub const NUM_FREGS: usize = 16;

/// An integer register, `R0..R15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// A floating-point register, `F0..F15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FReg(pub u8);

/// Branch conditions, evaluated against the flags set by the last
/// `Cmp`/`CmpImm`/`FCmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

/// A memory operand: `[base + index·2^scale + disp]`, in 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// Base register (`None` for absolute addressing).
    pub base: Option<Reg>,
    /// Optional scaled index register.
    pub index: Option<(Reg, u8)>,
    /// Word displacement.
    pub disp: i64,
}

impl Addr {
    /// Absolute address.
    pub fn abs(disp: i64) -> Self {
        Addr {
            base: None,
            index: None,
            disp,
        }
    }

    /// `[base + disp]`.
    pub fn base(base: Reg, disp: i64) -> Self {
        Addr {
            base: Some(base),
            index: None,
            disp,
        }
    }

    /// `[base + index·2^scale + disp]`.
    pub fn indexed(base: Reg, index: Reg, scale: u8, disp: i64) -> Self {
        Addr {
            base: Some(base),
            index: Some((index, scale)),
            disp,
        }
    }
}

/// A guest instruction.
///
/// Branch targets are absolute instruction indices (the
/// [`ProgramBuilder`](crate::program::ProgramBuilder) resolves labels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Insn {
    // ---- integer ----
    /// `dst ← imm`.
    MovImm(Reg, i64),
    /// `dst ← src`.
    Mov(Reg, Reg),
    /// `dst ← dst + src`.
    Add(Reg, Reg),
    /// `dst ← dst + imm`.
    AddImm(Reg, i64),
    /// `dst ← dst − src`.
    Sub(Reg, Reg),
    /// `dst ← dst · src` (low 64 bits).
    IMul(Reg, Reg),
    /// `dst ← dst & src`.
    And(Reg, Reg),
    /// `dst ← dst & imm`.
    AndImm(Reg, i64),
    /// `dst ← dst | src`.
    Or(Reg, Reg),
    /// `dst ← dst ^ src`.
    Xor(Reg, Reg),
    /// `dst ← dst << k` (logical).
    Shl(Reg, u8),
    /// `dst ← dst >> k` (logical).
    Shr(Reg, u8),
    /// `dst ← dst >> k` (arithmetic).
    Sar(Reg, u8),
    // ---- memory ----
    /// `dst ← mem[addr]` (integer bits).
    Load(Reg, Addr),
    /// `mem[addr] ← src` (integer bits).
    Store(Addr, Reg),
    /// `dst ← mem[addr]` (FP bits).
    FLoad(FReg, Addr),
    /// `mem[addr] ← src` (FP bits).
    FStore(Addr, FReg),
    // ---- floating point ----
    /// `dst ← imm`.
    FMovImm(FReg, f64),
    /// `dst ← src`.
    FMov(FReg, FReg),
    /// `dst ← dst + src`.
    FAdd(FReg, FReg),
    /// `dst ← dst − src`.
    FSub(FReg, FReg),
    /// `dst ← dst · src`.
    FMul(FReg, FReg),
    /// `dst ← dst / src`.
    FDiv(FReg, FReg),
    /// `dst ← sqrt(dst)` — the x87-style hardware square root. On cores
    /// lacking one (Crusoe VLIW, Alpha EV56) the translator expands this
    /// into a software Newton–Raphson sequence; semantics are identical.
    FSqrt(FReg),
    /// CISC form: `dst ← dst + mem[addr]`.
    FAddMem(FReg, Addr),
    /// CISC form: `dst ← dst · mem[addr]`.
    FMulMem(FReg, Addr),
    // ---- conversions / bit moves ----
    /// `dst ← (f64) src` — signed int to double.
    Cvtsi2sd(FReg, Reg),
    /// `dst ← trunc(src)` — double to signed int (toward zero).
    Cvtsd2si(Reg, FReg),
    /// `dst(FP) ← bits(src)` — raw bit move, for IEEE-754 surgery.
    FBits(FReg, Reg),
    /// `dst(int) ← bits(src)` — raw bit move.
    IBits(Reg, FReg),
    // ---- control ----
    /// Compare `a − b` (signed), set flags.
    Cmp(Reg, Reg),
    /// Compare `a − imm` (signed), set flags.
    CmpImm(Reg, i64),
    /// Compare doubles, set flags (`Lt/Eq/Gt` by total order of finite values).
    FCmp(FReg, FReg),
    /// Conditional branch to instruction index.
    Jcc(Cond, usize),
    /// Unconditional branch.
    Jmp(usize),
    /// Stop execution.
    Halt,
}

impl Insn {
    /// True for instructions that end a basic block.
    pub fn is_control(&self) -> bool {
        matches!(self, Insn::Jcc(..) | Insn::Jmp(..) | Insn::Halt)
    }

    /// Branch target, if statically known.
    pub fn target(&self) -> Option<usize> {
        match self {
            Insn::Jcc(_, t) | Insn::Jmp(t) => Some(*t),
            _ => None,
        }
    }
}

/// Architected guest state: registers, flags, memory, program counter.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Integer registers.
    pub regs: [i64; NUM_REGS],
    /// FP registers.
    pub fregs: [f64; NUM_FREGS],
    /// Flags from the last compare: sign of `a − b`.
    pub flag_lt: bool,
    /// Flags from the last compare: `a == b`.
    pub flag_eq: bool,
    /// Word-addressed memory (64-bit cells).
    pub mem: Vec<u64>,
    /// Program counter (instruction index).
    pub pc: usize,
    /// Set once `Halt` executes.
    pub halted: bool,
}

/// Outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Fall through to the next instruction.
    Next,
    /// Jump to an instruction index.
    Jump(usize),
    /// Execution finished.
    Halted,
}

/// Error raised by a memory access outside the allocated guest memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting effective word address.
    pub addr: i64,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "guest memory fault at word address {}", self.addr)
    }
}

impl std::error::Error for MemFault {}

impl MachineState {
    /// Fresh state with `mem_words` words of zeroed memory.
    pub fn new(mem_words: usize) -> Self {
        Self {
            regs: [0; NUM_REGS],
            fregs: [0.0; NUM_FREGS],
            flag_lt: false,
            flag_eq: false,
            mem: vec![0; mem_words],
            pc: 0,
            halted: false,
        }
    }

    /// Effective word address of a memory operand. The sum and the scale
    /// shift wrap (shift count mod 64), so an overflowing address is a
    /// [`MemFault`] at the wrapped value in every build.
    #[inline]
    pub fn effective(&self, a: &Addr) -> i64 {
        let mut ea = a.disp;
        if let Some(b) = a.base {
            ea = ea.wrapping_add(self.regs[b.0 as usize]);
        }
        if let Some((i, s)) = a.index {
            ea = ea.wrapping_add(self.regs[i.0 as usize].wrapping_shl(u32::from(s)));
        }
        ea
    }

    #[inline]
    fn read_mem(&self, a: &Addr) -> Result<u64, MemFault> {
        let ea = self.effective(a);
        self.mem
            .get(usize::try_from(ea).map_err(|_| MemFault { addr: ea })?)
            .copied()
            .ok_or(MemFault { addr: ea })
    }

    #[inline]
    fn write_mem(&mut self, a: &Addr, v: u64) -> Result<(), MemFault> {
        let ea = self.effective(a);
        let idx = usize::try_from(ea).map_err(|_| MemFault { addr: ea })?;
        match self.mem.get_mut(idx) {
            Some(cell) => {
                *cell = v;
                Ok(())
            }
            None => Err(MemFault { addr: ea }),
        }
    }

    /// Store an `f64` into guest memory (helper for test/kernel setup).
    pub fn poke_f64(&mut self, word: usize, v: f64) {
        self.mem[word] = v.to_bits();
    }

    /// Read an `f64` from guest memory.
    pub fn peek_f64(&self, word: usize) -> f64 {
        f64::from_bits(self.mem[word])
    }

    fn set_flags(&mut self, a: i64, b: i64) {
        self.flag_lt = a < b;
        self.flag_eq = a == b;
    }

    fn set_fflags(&mut self, a: f64, b: f64) {
        self.flag_lt = a < b;
        self.flag_eq = a == b;
    }

    /// Evaluate a branch condition against the current flags.
    pub fn cond(&self, c: Cond) -> bool {
        match c {
            Cond::Eq => self.flag_eq,
            Cond::Ne => !self.flag_eq,
            Cond::Lt => self.flag_lt,
            Cond::Le => self.flag_lt || self.flag_eq,
            Cond::Gt => !self.flag_lt && !self.flag_eq,
            Cond::Ge => !self.flag_lt,
        }
    }

    /// Execute one instruction; the caller updates `pc` from the returned
    /// [`Step`]. Shared by every engine, so values are engine-independent.
    /// Shift counts are taken mod 64 in every build.
    // The body of the one step loop (`interp::interpret_block`), run once
    // per guest instruction: inlined, the loop compiles with the dispatch
    // match in its body instead of a call per instruction.
    #[inline]
    pub fn execute(&mut self, insn: &Insn) -> Result<Step, MemFault> {
        use Insn::*;
        match *insn {
            MovImm(d, v) => self.regs[d.0 as usize] = v,
            Mov(d, s) => self.regs[d.0 as usize] = self.regs[s.0 as usize],
            Add(d, s) => {
                self.regs[d.0 as usize] =
                    self.regs[d.0 as usize].wrapping_add(self.regs[s.0 as usize])
            }
            AddImm(d, v) => self.regs[d.0 as usize] = self.regs[d.0 as usize].wrapping_add(v),
            Sub(d, s) => {
                self.regs[d.0 as usize] =
                    self.regs[d.0 as usize].wrapping_sub(self.regs[s.0 as usize])
            }
            IMul(d, s) => {
                self.regs[d.0 as usize] =
                    self.regs[d.0 as usize].wrapping_mul(self.regs[s.0 as usize])
            }
            And(d, s) => self.regs[d.0 as usize] &= self.regs[s.0 as usize],
            AndImm(d, v) => self.regs[d.0 as usize] &= v,
            Or(d, s) => self.regs[d.0 as usize] |= self.regs[s.0 as usize],
            Xor(d, s) => self.regs[d.0 as usize] ^= self.regs[s.0 as usize],
            Shl(d, k) => {
                self.regs[d.0 as usize] = self.regs[d.0 as usize].wrapping_shl(u32::from(k))
            }
            Shr(d, k) => {
                self.regs[d.0 as usize] =
                    (self.regs[d.0 as usize] as u64).wrapping_shr(u32::from(k)) as i64
            }
            Sar(d, k) => {
                self.regs[d.0 as usize] = self.regs[d.0 as usize].wrapping_shr(u32::from(k))
            }
            Load(d, ref a) => self.regs[d.0 as usize] = self.read_mem(a)? as i64,
            Store(ref a, s) => self.write_mem(a, self.regs[s.0 as usize] as u64)?,
            FLoad(d, ref a) => self.fregs[d.0 as usize] = f64::from_bits(self.read_mem(a)?),
            FStore(ref a, s) => self.write_mem(a, self.fregs[s.0 as usize].to_bits())?,
            FMovImm(d, v) => self.fregs[d.0 as usize] = v,
            FMov(d, s) => self.fregs[d.0 as usize] = self.fregs[s.0 as usize],
            FAdd(d, s) => self.fregs[d.0 as usize] += self.fregs[s.0 as usize],
            FSub(d, s) => self.fregs[d.0 as usize] -= self.fregs[s.0 as usize],
            FMul(d, s) => self.fregs[d.0 as usize] *= self.fregs[s.0 as usize],
            FDiv(d, s) => self.fregs[d.0 as usize] /= self.fregs[s.0 as usize],
            FSqrt(d) => self.fregs[d.0 as usize] = self.fregs[d.0 as usize].sqrt(),
            FAddMem(d, ref a) => self.fregs[d.0 as usize] += f64::from_bits(self.read_mem(a)?),
            FMulMem(d, ref a) => self.fregs[d.0 as usize] *= f64::from_bits(self.read_mem(a)?),
            Cvtsi2sd(d, s) => self.fregs[d.0 as usize] = self.regs[s.0 as usize] as f64,
            Cvtsd2si(d, s) => self.regs[d.0 as usize] = self.fregs[s.0 as usize] as i64,
            FBits(d, s) => {
                self.fregs[d.0 as usize] = f64::from_bits(self.regs[s.0 as usize] as u64)
            }
            IBits(d, s) => self.regs[d.0 as usize] = self.fregs[s.0 as usize].to_bits() as i64,
            Cmp(a, b) => self.set_flags(self.regs[a.0 as usize], self.regs[b.0 as usize]),
            CmpImm(a, v) => self.set_flags(self.regs[a.0 as usize], v),
            FCmp(a, b) => self.set_fflags(self.fregs[a.0 as usize], self.fregs[b.0 as usize]),
            Jcc(c, t) => {
                return Ok(if self.cond(c) {
                    Step::Jump(t)
                } else {
                    Step::Next
                });
            }
            Jmp(t) => return Ok(Step::Jump(t)),
            Halt => {
                self.halted = true;
                return Ok(Step::Halted);
            }
        }
        Ok(Step::Next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_arithmetic_and_flags() {
        let mut st = MachineState::new(16);
        st.execute(&Insn::MovImm(Reg(0), 7)).unwrap();
        st.execute(&Insn::MovImm(Reg(1), 5)).unwrap();
        st.execute(&Insn::Sub(Reg(0), Reg(1))).unwrap();
        assert_eq!(st.regs[0], 2);
        st.execute(&Insn::CmpImm(Reg(0), 2)).unwrap();
        assert!(st.cond(Cond::Eq));
        assert!(st.cond(Cond::Ge));
        assert!(!st.cond(Cond::Lt));
        st.execute(&Insn::CmpImm(Reg(0), 3)).unwrap();
        assert!(st.cond(Cond::Lt));
        assert!(st.cond(Cond::Le));
        assert!(st.cond(Cond::Ne));
    }

    #[test]
    fn memory_roundtrip_and_addressing() {
        let mut st = MachineState::new(64);
        st.poke_f64(10, 2.5);
        st.regs[2] = 4; // base
        st.regs[3] = 3; // index
                        // [r2 + r3*2 + 0] = word 10
        let a = Addr::indexed(Reg(2), Reg(3), 1, 0);
        assert_eq!(st.effective(&a), 10);
        st.execute(&Insn::FLoad(FReg(0), a)).unwrap();
        assert_eq!(st.fregs[0], 2.5);
        st.execute(&Insn::FAddMem(FReg(0), a)).unwrap();
        assert_eq!(st.fregs[0], 5.0);
        st.execute(&Insn::FStore(Addr::abs(11), FReg(0))).unwrap();
        assert_eq!(st.peek_f64(11), 5.0);
    }

    #[test]
    fn out_of_bounds_access_faults() {
        let mut st = MachineState::new(4);
        let err = st.execute(&Insn::Load(Reg(0), Addr::abs(100))).unwrap_err();
        assert_eq!(err.addr, 100);
        st.regs[0] = -5;
        let err = st
            .execute(&Insn::Store(Addr::base(Reg(0), 0), Reg(1)))
            .unwrap_err();
        assert_eq!(err.addr, -5);
    }

    #[test]
    fn bit_moves_are_exact() {
        let mut st = MachineState::new(4);
        st.fregs[1] = -1.5;
        st.execute(&Insn::IBits(Reg(0), FReg(1))).unwrap();
        assert_eq!(st.regs[0] as u64, (-1.5f64).to_bits());
        st.execute(&Insn::FBits(FReg(2), Reg(0))).unwrap();
        assert_eq!(st.fregs[2], -1.5);
    }

    #[test]
    fn fp_ops_match_host_semantics() {
        let mut st = MachineState::new(4);
        st.fregs[0] = 9.0;
        st.execute(&Insn::FSqrt(FReg(0))).unwrap();
        assert_eq!(st.fregs[0], 3.0);
        st.fregs[1] = 2.0;
        st.execute(&Insn::FDiv(FReg(0), FReg(1))).unwrap();
        assert_eq!(st.fregs[0], 1.5);
        st.execute(&Insn::FCmp(FReg(0), FReg(1))).unwrap();
        assert!(st.cond(Cond::Lt));
    }

    #[test]
    fn branches_and_halt() {
        let mut st = MachineState::new(4);
        assert_eq!(st.execute(&Insn::Jmp(7)).unwrap(), Step::Jump(7));
        st.execute(&Insn::CmpImm(Reg(0), 0)).unwrap();
        assert_eq!(st.execute(&Insn::Jcc(Cond::Eq, 3)).unwrap(), Step::Jump(3));
        assert_eq!(st.execute(&Insn::Jcc(Cond::Ne, 3)).unwrap(), Step::Next);
        assert_eq!(st.execute(&Insn::Halt).unwrap(), Step::Halted);
        assert!(st.halted);
    }

    #[test]
    fn shifts_are_logical_and_arithmetic() {
        let mut st = MachineState::new(1);
        st.regs[0] = -8;
        st.execute(&Insn::Sar(Reg(0), 1)).unwrap();
        assert_eq!(st.regs[0], -4);
        st.regs[1] = -8;
        st.execute(&Insn::Shr(Reg(1), 1)).unwrap();
        assert_eq!(st.regs[1] as u64, (-8i64 as u64) >> 1);
        st.regs[2] = 3;
        st.execute(&Insn::Shl(Reg(2), 4)).unwrap();
        assert_eq!(st.regs[2], 48);
    }

    #[test]
    fn oversized_shifts_and_overflowing_addresses_wrap_in_every_build() {
        let mut st = MachineState::new(4);
        st.regs[0] = 3;
        st.regs[1] = 3;
        st.execute(&Insn::Shl(Reg(0), 65)).unwrap();
        st.execute(&Insn::Shl(Reg(1), 1)).unwrap();
        assert_eq!(st.regs[0], st.regs[1]);
        st.regs[2] = -8;
        st.execute(&Insn::Sar(Reg(2), 64)).unwrap();
        assert_eq!(st.regs[2], -8);
        // i64::MAX + (1 << (65 mod 64)) wraps.
        st.regs[0] = i64::MAX;
        st.regs[1] = 1;
        let a = Addr::indexed(Reg(0), Reg(1), 65, 0);
        let err = st.execute(&Insn::Load(Reg(3), a)).unwrap_err();
        assert_eq!(err, MemFault { addr: i64::MIN + 1 });
    }
}
