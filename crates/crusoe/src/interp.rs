//! The CMS interpreter module.
//!
//! "The interpreter module interprets x86 instructions one at a time,
//! filters infrequently executed code from being needlessly optimized, and
//! collects run-time statistical information about the x86 instruction
//! stream to decide if optimizations are necessary" (§2.2).
//!
//! Interpretation is semantically identical to translated execution but
//! costs a fixed number of VLIW cycles per guest instruction (the decode /
//! dispatch / bookkeeping loop of the interpreter itself), which
//! [`crate::cms::Cms`] charges per instruction reported here.

use crate::isa::{Insn, MachineState, MemFault, Step};

/// Result of executing one basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterpResult {
    /// Guest instructions executed.
    pub insns: u64,
    /// Where control goes next (`None` after `Halt`).
    pub next_pc: Option<usize>,
}

/// Execute the straight-line block `insns[start..end]` in order. This is
/// the one block step loop of the crate: the interpreter, translated
/// execution and the hardware models all run it, and each charges its
/// own cycles for the instructions it reports. `MachineState::execute` is
/// inlined here, so this function is the one out-of-line call per block
/// and its loop holds the instruction dispatch itself.
///
/// The block may exit early only through its final control instruction;
/// non-control instructions always fall through. On a fault the state is
/// the precise in-order state at the faulting instruction.
pub fn interpret_block(
    state: &mut MachineState,
    insns: &[Insn],
    start: usize,
    end: usize,
) -> Result<InterpResult, MemFault> {
    for (i, insn) in insns[start..end].iter().enumerate() {
        let next_pc = match state.execute(insn)? {
            Step::Next => continue,
            Step::Jump(t) => Some(t),
            Step::Halted => None,
        };
        return Ok(InterpResult {
            insns: i as u64 + 1,
            next_pc,
        });
    }
    Ok(InterpResult {
        insns: (end - start) as u64,
        next_pc: Some(end),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Reg};

    #[test]
    fn straight_line_block_falls_through() {
        let insns = vec![
            Insn::MovImm(Reg(0), 3),
            Insn::AddImm(Reg(0), 4),
            Insn::MovImm(Reg(1), 1),
        ];
        let mut st = MachineState::new(4);
        let r = interpret_block(&mut st, &insns, 0, 2).unwrap();
        assert_eq!(r.insns, 2);
        assert_eq!(r.next_pc, Some(2));
        assert_eq!(st.regs[0], 7);
        assert_eq!(st.regs[1], 0, "instruction beyond block not executed");
    }

    #[test]
    fn taken_branch_reports_target() {
        let insns = vec![
            Insn::CmpImm(Reg(0), 0),
            Insn::Jcc(Cond::Eq, 5),
            Insn::MovImm(Reg(1), 9),
        ];
        let mut st = MachineState::new(4);
        let r = interpret_block(&mut st, &insns, 0, 2).unwrap();
        assert_eq!(r.next_pc, Some(5));
        assert_eq!(r.insns, 2);
    }

    #[test]
    fn untaken_branch_falls_through() {
        let insns = vec![Insn::CmpImm(Reg(0), 1), Insn::Jcc(Cond::Eq, 5)];
        let mut st = MachineState::new(4);
        let r = interpret_block(&mut st, &insns, 0, 2).unwrap();
        assert_eq!(r.next_pc, Some(2));
    }

    #[test]
    fn halt_ends_execution() {
        let insns = vec![Insn::Halt];
        let mut st = MachineState::new(4);
        let r = interpret_block(&mut st, &insns, 0, 1).unwrap();
        assert_eq!(r.next_pc, None);
        assert!(st.halted);
    }
}
