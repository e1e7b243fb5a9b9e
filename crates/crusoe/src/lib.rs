//! Transmeta Crusoe TM5600 simulator and hardware-CPU comparison models —
//! the processor substrate for *"Honey, I Shrunk the Beowulf!"* (§2).
//!
//! The Crusoe is "a software-hardware hybrid": a simple in-order **VLIW
//! engine** (two 7-stage integer units, a 10-stage floating-point unit, a
//! load/store unit and a branch unit) wrapped in the **Code Morphing
//! Software** (CMS) layer that presents an x86 interface. CMS has two
//! modules working in tandem:
//!
//! * the **interpreter**, which executes x86 instructions one at a time,
//!   filters cold code, and collects run-time statistics; and
//! * the **translator**, which recompiles hot x86 sequences into native
//!   VLIW *molecules* (64- or 128-bit bundles of up to four RISC-like
//!   *atoms*), cached in a **translation cache** so the one-time
//!   translation cost is amortized over repeated executions.
//!
//! This crate implements that entire stack over a small x86-like guest ISA:
//!
//! * [`isa`] — guest instruction set, machine state, and exact semantics;
//! * [`program`] — an assembler/builder with labels and loops;
//! * [`atoms`] — CISC-to-atom cracking (including software expansion of
//!   `sqrt` on cores without a hardware square root — the paper's §3.2
//!   motivation for Karp's algorithm);
//! * [`molecule`] — molecule formats and functional-unit classes;
//! * [`schedule`] — the translator's list scheduler (also reused, with
//!   different parameters, as the timing model for hardware CPUs);
//! * [`tcache`] — the translation cache;
//! * [`interp`] — the CMS interpreter with block profiling;
//! * [`cms`] — the combined interpret → profile → translate → execute engine;
//! * [`hardware`] — calibrated pipeline models of the paper's comparison
//!   CPUs (Pentium III, Alpha EV56, Power3, Athlon MP, P4, Pentium Pro…)
//!   executing the *same* guest programs;
//! * [`power`] — per-atom energy accounting and LongRun-style DVFS states;
//! * [`kernels`] — the gravitational microkernel (math-sqrt and Karp-sqrt
//!   variants) as guest programs, used to regenerate Table 1;
//! * [`disasm`] — disassembly and molecule-schedule dumps.
//!
//! # Example
//!
//! ```
//! use mb_crusoe::cms::{Cms, CmsConfig};
//! use mb_crusoe::kernels::{build_microkernel, MicrokernelVariant};
//! use mb_microkernel::MicrokernelInput;
//!
//! // Run the Karp-sqrt gravity microkernel (16 bodies × 4 sweeps) under
//! // the Code Morphing Software: the hot loop gets translated to VLIW
//! // molecules and the repeat sweeps amortize the translation cost.
//! let mk = build_microkernel(MicrokernelVariant::KarpSqrt, 16, 4);
//! let mut state = mk.setup_state(&MicrokernelInput::generate(16));
//! let mut cms = Cms::new(CmsConfig::metablade());
//! let stats = cms.run(&mk.program, &mut state).expect("no mem faults");
//! assert!(stats.translated_insns > 0, "hot loop should be translated");
//! assert!(stats.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::too_many_lines)] // threshold in ../clippy.toml

pub mod atoms;
pub mod cms;
pub mod disasm;
pub mod hardware;
pub mod interp;
pub mod isa;
pub mod kernels;
pub mod molecule;
pub mod power;
pub mod program;
pub mod schedule;
pub mod tcache;

pub use cms::{Cms, CmsConfig, CmsGeneration, CmsRunStats};
pub use hardware::{hardware_catalog, HwCpu};
pub use isa::{Cond, FReg, Insn, MachineState, Reg};
pub use kernels::{build_microkernel, MicrokernelVariant};
pub use program::{Program, ProgramBuilder};
