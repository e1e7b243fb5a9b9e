//! Guest programs and an assembler-style builder with labels.
//!
//! A [`Program`] is a flat instruction vector; basic blocks are discovered
//! from branch structure (leaders are entry, branch targets, and
//! fall-throughs after control instructions), matching how CMS picks
//! translation regions.

use crate::isa::Insn;

/// An assembled guest program.
#[derive(Debug, Clone)]
pub struct Program {
    /// The instruction stream. Branch targets are indices into this vector.
    pub insns: Vec<Insn>,
}

/// A forward-referenceable label used while building a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builder that assembles instructions and resolves labels.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insns: Vec<Insn>,
    /// label id → bound instruction index
    bound: Vec<Option<usize>>,
    /// (instruction index, label id) fix-ups
    fixups: Vec<(usize, usize)>,
}

impl ProgramBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an instruction.
    pub fn push(&mut self, insn: Insn) -> &mut Self {
        self.insns.push(insn);
        self
    }

    /// Create a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Bind a label to the current position.
    pub fn bind(&mut self, l: Label) -> &mut Self {
        assert!(self.bound[l.0].is_none(), "label bound twice");
        self.bound[l.0] = Some(self.insns.len());
        self
    }

    /// Append a conditional jump to a label.
    pub fn jcc(&mut self, cond: crate::isa::Cond, l: Label) -> &mut Self {
        self.fixups.push((self.insns.len(), l.0));
        self.insns.push(Insn::Jcc(cond, usize::MAX));
        self
    }

    /// Append an unconditional jump to a label.
    pub fn jmp(&mut self, l: Label) -> &mut Self {
        self.fixups.push((self.insns.len(), l.0));
        self.insns.push(Insn::Jmp(usize::MAX));
        self
    }

    /// Resolve all labels and produce the program.
    ///
    /// Panics if a label is used but never bound.
    pub fn finish(mut self) -> Program {
        for &(at, label) in &self.fixups {
            let target = self.bound[label].expect("unbound label at finish()");
            match &mut self.insns[at] {
                Insn::Jcc(_, t) | Insn::Jmp(t) => *t = target,
                other => unreachable!("fixup points at non-branch {other:?}"),
            }
        }
        Program { insns: self.insns }
    }
}

impl Program {
    /// Per instruction: does a basic block start here? True for
    /// instruction 0, every branch target, and every instruction after a
    /// control instruction.
    fn leader_flags(&self) -> Vec<bool> {
        let mut leaders = vec![false; self.insns.len()];
        if !self.insns.is_empty() {
            leaders[0] = true;
        }
        for (i, insn) in self.insns.iter().enumerate() {
            if let Some(t) = insn.target() {
                if t < leaders.len() {
                    leaders[t] = true;
                }
            }
            if insn.is_control() && i + 1 < leaders.len() {
                leaders[i + 1] = true;
            }
        }
        leaders
    }

    /// Indices of basic-block leaders: instruction 0, every branch target,
    /// and every instruction after a control instruction.
    pub fn leaders(&self) -> Vec<usize> {
        self.leader_flags()
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| l.then_some(i))
            .collect()
    }

    /// For every `pc`, the end of the basic block starting there —
    /// `block_ends()[pc] == block_at(pc).end` — in one pass over the
    /// program, for engines that look a block up on every execution.
    pub fn block_ends(&self) -> Vec<usize> {
        let leaders = self.leader_flags();
        let n = self.insns.len();
        let mut ends = vec![n; n];
        for pc in (0..n.saturating_sub(1)).rev() {
            ends[pc] = if self.insns[pc].is_control() || leaders[pc + 1] {
                pc + 1
            } else {
                ends[pc + 1]
            };
        }
        ends
    }

    /// The basic block starting at `pc`: the instruction range
    /// `[pc, end)` where `end` is just past the first control instruction
    /// at or after `pc` (or just before the next leader, so a block never
    /// swallows another block's entry point).
    pub fn block_at(&self, pc: usize) -> std::ops::Range<usize> {
        assert!(pc < self.insns.len(), "pc {pc} out of range");
        pc..self.block_ends()[pc]
    }

    /// Total instruction count.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True if the program holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Reg};

    fn counting_loop() -> Program {
        // r0 = 10; loop: r0 -= 1; cmp r0, 0; jne loop; halt
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.push(Insn::MovImm(Reg(0), 10));
        b.bind(top);
        b.push(Insn::AddImm(Reg(0), -1));
        b.push(Insn::CmpImm(Reg(0), 0));
        b.jcc(Cond::Ne, top);
        b.push(Insn::Halt);
        b.finish()
    }

    #[test]
    fn labels_resolve_backward() {
        let p = counting_loop();
        assert_eq!(p.insns[3], Insn::Jcc(Cond::Ne, 1));
    }

    #[test]
    fn labels_resolve_forward() {
        let mut b = ProgramBuilder::new();
        let out = b.label();
        b.push(Insn::CmpImm(Reg(0), 0));
        b.jcc(Cond::Eq, out);
        b.push(Insn::MovImm(Reg(1), 1));
        b.bind(out);
        b.push(Insn::Halt);
        let p = b.finish();
        assert_eq!(p.insns[1], Insn::Jcc(Cond::Eq, 3));
    }

    #[test]
    fn leaders_and_blocks() {
        let p = counting_loop();
        // Leaders: 0 (entry), 1 (branch target), 4 (after Jcc).
        assert_eq!(p.leaders(), vec![0, 1, 4]);
        assert_eq!(p.block_at(0), 0..1); // stops before leader at 1
        assert_eq!(p.block_at(1), 1..4); // loop body through the Jcc
        assert_eq!(p.block_at(4), 4..5); // the halt
    }

    #[test]
    fn block_ends_follow_the_definition_at_every_pc() {
        use crate::kernels::{build_microkernel, MicrokernelVariant};
        assert_eq!(counting_loop().block_ends(), vec![1, 4, 4, 4, 5]);
        for variant in [MicrokernelVariant::KarpSqrt, MicrokernelVariant::MathSqrt] {
            let p = build_microkernel(variant, 16, 2).program;
            let leaders = p.leaders();
            for (pc, &end) in p.block_ends().iter().enumerate() {
                // Just past the first control instruction, or just
                // before the next leader, whichever comes first.
                let by_scan = (pc + 1..=p.len())
                    .find(|&e| p.insns[e - 1].is_control() || e == p.len() || leaders.contains(&e))
                    .unwrap();
                assert_eq!(end, by_scan, "{variant:?} pc {pc}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jmp(l);
        let _ = b.finish();
    }
}
