//! Hardware-CPU comparison models: the paper's five Table-1/Table-3
//! processors (plus the Pentium Pro of Loki and the P4 of Table 5),
//! executing the same guest programs as the CMS simulator.
//!
//! Each model is the shared list scheduler (`crate::schedule`) with that
//! core's issue width, functional-unit mix, latencies and reorder window,
//! plus a small analytic path (`estimate_kernel_seconds`) used for large
//! workloads (the NPB kernels) where instruction-level simulation would be
//! impractical — there the kernel supplies an operation-mix profile and
//! the model bounds execution by its scarcest resource (issue, FP, memory
//! ports, divide/sqrt serialization, or DRAM bandwidth).
//!
//! Parameters are era-accurate microarchitecture figures (issue widths,
//! FP latencies, non-pipelined divide/sqrt latencies, sustainable memory
//! bandwidths) from vendor documentation of the period; EXPERIMENTS.md
//! documents them per CPU.

use crate::atoms::crack_block;
use crate::interp::interpret_block;
use crate::isa::{Insn, MachineState, MemFault};
use crate::program::Program;
use crate::schedule::{schedule_block, CoreParams, Latencies, SlotLimits};

/// Operation-mix profile of a large kernel (supplied by `mb-npb`), used by
/// the analytic timing path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpMix {
    /// FP adds/subtracts.
    pub fadd: u64,
    /// FP multiplies.
    pub fmul: u64,
    /// FP divides.
    pub fdiv: u64,
    /// FP square roots.
    pub fsqrt: u64,
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Branches.
    pub branches: u64,
    /// The benchmark's own "operations" count (what NPB divides by time
    /// to report Mop/s).
    pub useful_ops: u64,
    /// Estimated off-chip traffic in bytes (drives the bandwidth bound).
    pub dram_bytes: u64,
    /// Fraction of mul→add pairs an FMA datapath can fuse (0..1).
    pub fma_fusable: f64,
}

impl OpMix {
    /// Total scheduled operations.
    pub fn total_ops(&self) -> u64 {
        self.fadd
            + self.fmul
            + self.fdiv
            + self.fsqrt
            + self.int_ops
            + self.loads
            + self.stores
            + self.branches
    }

    /// Merge another mix into this one.
    pub fn add(&mut self, other: &OpMix) {
        self.fadd += other.fadd;
        self.fmul += other.fmul;
        self.fdiv += other.fdiv;
        self.fsqrt += other.fsqrt;
        self.int_ops += other.int_ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.branches += other.branches;
        self.useful_ops += other.useful_ops;
        self.dram_bytes += other.dram_bytes;
        // Keep the weighted-average fusable fraction.
        let fp = (self.fadd + self.fmul) as f64;
        if fp > 0.0 {
            let other_fp = (other.fadd + other.fmul) as f64;
            self.fma_fusable =
                (self.fma_fusable * (fp - other_fp) + other.fma_fusable * other_fp) / fp;
        }
    }
}

/// A hardware CPU model.
#[derive(Debug, Clone, Copy)]
pub struct HwCpu {
    /// Core timing parameters (shared scheduler).
    pub params: CoreParams,
    /// Sustainable memory bandwidth, MB/s (drives the analytic DRAM bound).
    pub mem_bw_mbs: f64,
    /// Pipeline-inefficiency factor applied to the analytic bound (branch
    /// mispredictions, TLB, scheduling slack): ≥ 1.
    pub overhead: f64,
}

impl HwCpu {
    /// Execute a guest program by instruction-level simulation, returning
    /// the charged cycles. Blocks are cracked and scheduled once and
    /// memoized by leader pc, as a real core's decoded-µop/trace cache
    /// would.
    pub fn run(&self, program: &Program, state: &mut MachineState) -> Result<u64, MemFault> {
        let ends = program.block_ends();
        let mut per_exec: Vec<Option<f64>> = vec![None; ends.len()];
        let mut cycles = 0f64;
        let mut pc = state.pc;
        loop {
            assert!(pc < ends.len(), "pc {pc} out of range");
            let end = ends[pc];
            cycles +=
                *per_exec[pc].get_or_insert_with(|| self.block_cycles(&program.insns[pc..end], pc));
            match interpret_block(state, &program.insns, pc, end)?.next_pc {
                Some(t) => pc = t,
                None => break,
            }
        }
        state.pc = pc;
        Ok(cycles.ceil() as u64)
    }

    /// Cycles charged per execution of the block `insns` starting at
    /// guest pc `start`.
    ///
    /// Self-looping blocks (tight loops whose back-edge targets their own
    /// leader) are charged at their **steady-state** rate: the scheduler
    /// runs over four concatenated copies of the body and the marginal
    /// cycles per copy are charged per execution. This models an
    /// out-of-order core's cross-iteration overlap — bounded by the
    /// core's own reorder window, since the window constraint applies
    /// inside the concatenated schedule. (In-order cores, `window = 0`,
    /// gain nothing, and the CMS translator intentionally stays
    /// block-at-a-time: CMS 4.x did not software-pipeline.)
    fn block_cycles(&self, insns: &[Insn], start: usize) -> f64 {
        let atoms = crack_block(insns, self.params.crack);
        let once = schedule_block(&atoms, &self.params).cycles;
        let self_loop = insns
            .last()
            .and_then(|i| i.target())
            .is_some_and(|t| t == start);
        if self_loop && self.params.window > 0 && once > 0 {
            const COPIES: usize = 4;
            let unrolled = crack_block(&insns.repeat(COPIES), self.params.crack);
            let total = schedule_block(&unrolled, &self.params).cycles;
            // Marginal steady-state cost per iteration.
            let marginal = (total.saturating_sub(once)) as f64 / (COPIES - 1) as f64;
            marginal.max(1.0)
        } else {
            once.max(1) as f64
        }
    }

    /// Analytic execution-time estimate (seconds) for a kernel described
    /// by an operation mix: the maximum of the issue bound, the FP bound
    /// (with divide/sqrt serialization and optional FMA fusion), the
    /// memory-port bound, the integer bound, and the DRAM-bandwidth bound,
    /// inflated by the core's overhead factor.
    pub fn estimate_kernel_seconds(&self, mix: &OpMix) -> f64 {
        let p = &self.params;
        let clock_hz = p.clock_mhz * 1e6;
        let fused = if p.fma {
            (mix.fadd.min(mix.fmul) as f64 * mix.fma_fusable).floor()
        } else {
            0.0
        };
        let fp_pipe_ops = (mix.fadd + mix.fmul) as f64 - fused;
        let mut fp_cycles = fp_pipe_ops / p.slots.fpu as f64;
        fp_cycles += if p.div_blocking {
            mix.fdiv as f64 * p.lat.fp_div as f64
        } else {
            mix.fdiv as f64 / p.slots.fpu as f64
        };
        // Software-expanded sqrt costs its NR sequence (~16 FP ops serial
        // chain ≈ 12×fp_mul latency); hardware sqrt costs its latency when
        // blocking.
        fp_cycles += if p.crack.hw_sqrt {
            if p.sqrt_blocking {
                mix.fsqrt as f64 * p.lat.fp_sqrt as f64
            } else {
                mix.fsqrt as f64 / p.slots.fpu as f64
            }
        } else {
            mix.fsqrt as f64 * 12.0 * p.lat.fp_mul as f64
        };
        let mem_cycles = (mix.loads + mix.stores) as f64 / p.slots.mem as f64;
        let int_cycles = mix.int_ops as f64 / p.slots.alu as f64;
        let issue_cycles = mix.total_ops() as f64 / p.issue_width as f64;
        let core_cycles = fp_cycles.max(mem_cycles).max(int_cycles).max(issue_cycles);
        let core_seconds = core_cycles * self.overhead / clock_hz;
        let dram_seconds = mix.dram_bytes as f64 / (self.mem_bw_mbs * 1e6);
        core_seconds.max(dram_seconds)
    }

    /// NPB-style Mop/s for a kernel mix: useful operations over estimated
    /// time.
    pub fn estimate_kernel_mops(&self, mix: &OpMix) -> f64 {
        mix.useful_ops as f64 / self.estimate_kernel_seconds(mix) / 1e6
    }
}

/// The 500-MHz Intel Pentium III (Katmai) of Table 1/3/5.
pub fn pentium_iii_500() -> HwCpu {
    HwCpu {
        params: CoreParams {
            name: "500-MHz Intel Pentium III",
            clock_mhz: 500.0,
            issue_width: 3,
            slots: SlotLimits {
                alu: 2,
                fpu: 1,
                mem: 1,
                branch: 1,
            },
            window: 40,
            lat: Latencies {
                int_alu: 1,
                int_mul: 4,
                fp_add: 3,
                fp_mul: 5,
                fp_fma: 5,
                fp_div: 32,
                fp_sqrt: 57,
                fp_mov: 1,
                load: 3,
                store: 1,
                branch: 1,
            },
            crack: crate::atoms::CrackConfig::full_hardware(),
            div_blocking: true,
            sqrt_blocking: true,
            fma: false,
        },
        mem_bw_mbs: 350.0,
        overhead: 1.3,
    }
}

/// The 533-MHz Compaq Alpha 21164A (EV56) of Table 1 — a wide in-order
/// core with two FP pipes but *no hardware square root* (SQRT arrived with
/// EV6x), so `sqrt` runs as a software sequence, exactly the situation
/// Karp's algorithm was invented for.
pub fn alpha_ev56_533() -> HwCpu {
    HwCpu {
        params: CoreParams {
            name: "533-MHz Compaq Alpha EV56",
            clock_mhz: 533.0,
            issue_width: 4,
            slots: SlotLimits {
                alu: 2,
                fpu: 2,
                mem: 1,
                branch: 1,
            },
            window: 0, // in-order
            lat: Latencies {
                int_alu: 1,
                int_mul: 8,
                fp_add: 4,
                fp_mul: 4,
                fp_fma: 4,
                fp_div: 31,
                fp_sqrt: 70, // unused: software sqrt
                fp_mov: 1,
                load: 2,
                store: 1,
                branch: 1,
            },
            crack: crate::atoms::CrackConfig {
                hw_sqrt: false,
                hw_div: true,
            },
            div_blocking: true,
            sqrt_blocking: true,
            fma: false,
        },
        mem_bw_mbs: 500.0,
        overhead: 1.25,
    }
}

/// The 375-MHz IBM Power3 of Table 1/3: two FMA units — four flops per
/// cycle peak — plus hardware divide and square root. This is why the
/// paper's Table 1 shows it (with the Athlon) about 3× the TM5600.
pub fn power3_375() -> HwCpu {
    HwCpu {
        params: CoreParams {
            name: "375-MHz IBM Power3",
            clock_mhz: 375.0,
            issue_width: 4,
            slots: SlotLimits {
                alu: 2,
                fpu: 2,
                mem: 2,
                branch: 1,
            },
            window: 64,
            lat: Latencies {
                int_alu: 1,
                int_mul: 4,
                fp_add: 3,
                fp_mul: 3,
                fp_fma: 4,
                fp_div: 18,
                fp_sqrt: 40, // microcoded on POWER3 (31–56 cycles double)
                fp_mov: 1,
                load: 2,
                store: 1,
                branch: 1,
            },
            crack: crate::atoms::CrackConfig::full_hardware(),
            div_blocking: true,
            sqrt_blocking: true,
            fma: true,
        },
        mem_bw_mbs: 1300.0,
        overhead: 1.2,
    }
}

/// The 1200-MHz AMD Athlon MP of Table 1/3: three decoders, separate
/// fully-pipelined FADD and FMUL pipes, fast divide/sqrt for the era, and
/// a big clock advantage.
pub fn athlon_mp_1200() -> HwCpu {
    HwCpu {
        params: CoreParams {
            name: "1200-MHz AMD Athlon MP",
            clock_mhz: 1200.0,
            issue_width: 3,
            slots: SlotLimits {
                alu: 3,
                fpu: 2,
                mem: 2,
                branch: 1,
            },
            window: 72,
            lat: Latencies {
                int_alu: 1,
                int_mul: 4,
                fp_add: 4,
                fp_mul: 4,
                fp_fma: 4,
                fp_div: 24,
                fp_sqrt: 27,
                fp_mov: 1,
                load: 3,
                store: 1,
                branch: 1,
            },
            crack: crate::atoms::CrackConfig::full_hardware(),
            div_blocking: true,
            sqrt_blocking: true,
            fma: false,
        },
        mem_bw_mbs: 700.0,
        overhead: 1.3,
    }
}

/// The 200-MHz Intel Pentium Pro of the Loki cluster (Table 4): the paper
/// notes the TM5600's treecode performance is "about twice" this CPU's.
pub fn pentium_pro_200() -> HwCpu {
    HwCpu {
        params: CoreParams {
            name: "200-MHz Intel Pentium Pro",
            clock_mhz: 200.0,
            issue_width: 3,
            slots: SlotLimits {
                alu: 2,
                fpu: 1,
                mem: 1,
                branch: 1,
            },
            window: 40,
            lat: Latencies {
                int_alu: 1,
                int_mul: 4,
                fp_add: 3,
                fp_mul: 5,
                fp_fma: 5,
                fp_div: 37,
                fp_sqrt: 53,
                fp_mov: 1,
                load: 3,
                store: 1,
                branch: 1,
            },
            crack: crate::atoms::CrackConfig::full_hardware(),
            div_blocking: true,
            sqrt_blocking: true,
            fma: false,
        },
        mem_bw_mbs: 180.0,
        overhead: 1.3,
    }
}

/// All Table-1 comparison CPUs, in the paper's row order (the TM5600
/// itself is simulated through [`crate::cms::Cms`], not listed here).
pub fn hardware_catalog() -> Vec<HwCpu> {
    vec![
        pentium_iii_500(),
        alpha_ev56_533(),
        power3_375(),
        athlon_mp_1200(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, Insn, Reg};
    use crate::program::ProgramBuilder;

    fn countdown(n: i64) -> Program {
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
    fn hardware_models_compute_correct_values() {
        for cpu in hardware_catalog() {
            let mut st = MachineState::new(4);
            let cycles = cpu.run(&countdown(100), &mut st).unwrap();
            assert_eq!(st.regs[1], 5050, "{}", cpu.params.name);
            assert!(cycles > 100, "{}: {} cycles", cpu.params.name, cycles);
        }
    }

    #[test]
    fn wider_faster_cpu_finishes_in_fewer_seconds() {
        let prog = countdown(10_000);
        let mut st1 = MachineState::new(4);
        let c_ppro = pentium_pro_200().run(&prog, &mut st1).unwrap();
        let mut st2 = MachineState::new(4);
        let c_athlon = athlon_mp_1200().run(&prog, &mut st2).unwrap();
        let t_ppro = c_ppro as f64 / 200e6;
        let t_athlon = c_athlon as f64 / 1200e6;
        assert!(t_athlon < t_ppro);
    }

    #[test]
    fn analytic_fp_bound_dominates_fp_heavy_mix() {
        let cpu = pentium_iii_500();
        let mix = OpMix {
            fadd: 1_000_000,
            fmul: 1_000_000,
            useful_ops: 2_000_000,
            ..Default::default()
        };
        let secs = cpu.estimate_kernel_seconds(&mix);
        // 2M FP ops, 1 FP/cycle at 500 MHz, ×1.3 overhead ⇒ ≈ 5.2 ms.
        assert!((secs - 0.0052).abs() < 0.0005, "secs {secs}");
    }

    #[test]
    fn analytic_bandwidth_bound_kicks_in() {
        let cpu = pentium_iii_500();
        let mix = OpMix {
            fadd: 1000,
            dram_bytes: 350_000_000, // exactly one second at 350 MB/s
            useful_ops: 1000,
            ..Default::default()
        };
        let secs = cpu.estimate_kernel_seconds(&mix);
        assert!((secs - 1.0).abs() < 1e-6, "secs {secs}");
    }

    #[test]
    fn fma_halves_the_fp_bound_on_power3() {
        let p3 = power3_375();
        let mix = OpMix {
            fadd: 1_000_000,
            fmul: 1_000_000,
            useful_ops: 2_000_000,
            fma_fusable: 1.0,
            ..Default::default()
        };
        let with_fma = p3.estimate_kernel_seconds(&mix);
        let mut no_fma = p3;
        no_fma.params.fma = false;
        let without = no_fma.estimate_kernel_seconds(&mix);
        assert!(with_fma < 0.6 * without, "{with_fma} vs {without}");
    }

    #[test]
    fn opmix_add_merges_counts() {
        let mut a = OpMix {
            fadd: 10,
            loads: 5,
            useful_ops: 10,
            dram_bytes: 100,
            ..Default::default()
        };
        let b = OpMix {
            fadd: 5,
            stores: 2,
            useful_ops: 5,
            dram_bytes: 50,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.fadd, 15);
        assert_eq!(a.stores, 2);
        assert_eq!(a.useful_ops, 15);
        assert_eq!(a.dram_bytes, 150);
        assert_eq!(a.total_ops(), 22);
    }
}
