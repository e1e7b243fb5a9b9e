//! One architected state on every engine. Each program runs on every
//! engine that executes guest code — the CMS with translation on (both
//! generations; a fresh, an evicting and a warm translation cache) and
//! every hardware model — and each must leave exactly the state pure
//! interpretation leaves, or fail with the same `MemFault` in the same
//! state. The oracle is a run, not a stored value: a CMS whose hot
//! threshold is never reached interprets every block.

use mb_crusoe::cms::{Cms, CmsConfig};
use mb_crusoe::hardware::{hardware_catalog, HwCpu};
use mb_crusoe::isa::{Addr, Cond, Insn, MachineState, MemFault, Reg};
use mb_crusoe::kernels::{build_microkernel, MicrokernelVariant};
use mb_crusoe::program::{Program, ProgramBuilder};
use mb_microkernel::MicrokernelInput;

/// Everything architected; FP registers by bit pattern.
#[derive(Debug, PartialEq)]
struct Architected {
    regs: [i64; 16],
    fregs: [u64; 16],
    flags: (bool, bool),
    mem: Vec<u64>,
    pc: usize,
    halted: bool,
}

impl Architected {
    fn of(st: &MachineState) -> Self {
        Architected {
            regs: st.regs,
            fregs: st.fregs.map(f64::to_bits),
            flags: (st.flag_lt, st.flag_eq),
            mem: st.mem.clone(),
            pc: st.pc,
            halted: st.halted,
        }
    }
}

type Outcome = (Result<(), MemFault>, Architected);

/// The `runs`-th run of `program` on one `Cms`, each from a fresh state.
fn on_cms(
    config: CmsConfig,
    runs: usize,
    program: &Program,
    setup: &dyn Fn() -> MachineState,
) -> Outcome {
    let mut cms = Cms::new(config);
    let mut last = None;
    for _ in 0..runs {
        let mut st = setup();
        let result = cms.run(program, &mut st).map(drop);
        last = Some((result, Architected::of(&st)));
    }
    last.expect("at least one run")
}

fn on_hw(cpu: &HwCpu, program: &Program, setup: &dyn Fn() -> MachineState) -> Outcome {
    let mut st = setup();
    let result = cpu.run(program, &mut st).map(drop);
    (result, Architected::of(&st))
}

/// Runs `program` on every engine and asserts each agrees with pure
/// interpretation; returns the interpreted outcome.
fn assert_engines_agree(
    what: &str,
    program: &Program,
    setup: &dyn Fn() -> MachineState,
) -> Outcome {
    let mut interpret_only = CmsConfig::metablade();
    interpret_only.hot_threshold = u64::MAX;
    let oracle = on_cms(interpret_only, 1, program, setup);
    // Holds the Karp inner loop's translation but not the blocks around
    // it, so every later insertion evicts (`cms_pins.rs`).
    let mut evicting = CmsConfig::metablade();
    evicting.tcache_capacity_bits = 7_936;
    let mut engines = vec![
        (
            "metablade".to_string(),
            on_cms(CmsConfig::metablade(), 1, program, setup),
        ),
        (
            "metablade2".to_string(),
            on_cms(CmsConfig::metablade2(), 1, program, setup),
        ),
        (
            "metablade, 7 936-bit t-cache".to_string(),
            on_cms(evicting, 1, program, setup),
        ),
        (
            "metablade, third run".to_string(),
            on_cms(CmsConfig::metablade(), 3, program, setup),
        ),
    ];
    for cpu in hardware_catalog() {
        engines.push((cpu.params.name.to_string(), on_hw(&cpu, program, setup)));
    }
    for (engine, outcome) in engines {
        assert_eq!(
            outcome, oracle,
            "{what}: {engine} differs from interpretation"
        );
    }
    oracle
}

#[test]
fn microkernels_leave_one_state_on_every_engine() {
    for variant in [MicrokernelVariant::KarpSqrt, MicrokernelVariant::MathSqrt] {
        for (n, sweeps) in [(1, 1), (16, 2), (64, 4), (256, 8)] {
            let mk = build_microkernel(variant, n, sweeps);
            let input = MicrokernelInput::generate(n);
            let (result, st) =
                assert_engines_agree(&format!("{variant:?} {n}x{sweeps}"), &mk.program, &|| {
                    mk.setup_state(&input)
                });
            assert_eq!(result, Ok(()));
            assert!(st.halted);
        }
    }
}

#[test]
fn a_countdown_loop_leaves_one_state_on_every_engine() {
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.push(Insn::MovImm(Reg(0), 10_000));
    b.push(Insn::MovImm(Reg(1), 0));
    b.bind(top);
    b.push(Insn::Add(Reg(1), Reg(0)));
    b.push(Insn::AddImm(Reg(0), -1));
    b.push(Insn::CmpImm(Reg(0), 0));
    b.jcc(Cond::Gt, top);
    b.push(Insn::Halt);
    let (result, st) = assert_engines_agree("countdown", &b.finish(), &|| MachineState::new(4));
    assert_eq!(result, Ok(()));
    assert_eq!(st.regs[1], 50_005_000);
}

/// A hot loop summing `mem[r2]` walks off the end of memory.
#[test]
fn a_load_walking_off_memory_faults_alike_on_every_engine() {
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.push(Insn::MovImm(Reg(0), 200)); // loop count > memory size
    b.push(Insn::MovImm(Reg(1), 0)); // sum
    b.push(Insn::MovImm(Reg(2), 0)); // index
    b.bind(top);
    b.push(Insn::Load(Reg(3), Addr::base(Reg(2), 0)));
    b.push(Insn::Add(Reg(1), Reg(3)));
    b.push(Insn::AddImm(Reg(2), 1));
    b.push(Insn::AddImm(Reg(0), -1));
    b.push(Insn::CmpImm(Reg(0), 0));
    b.jcc(Cond::Gt, top);
    b.push(Insn::Halt);
    let setup = || {
        let mut st = MachineState::new(64);
        for (i, cell) in st.mem.iter_mut().enumerate() {
            *cell = i as u64;
        }
        st
    };
    let (result, st) = assert_engines_agree("load walking off memory", &b.finish(), &setup);
    assert_eq!(result, Err(MemFault { addr: 64 }));
    assert_eq!(st.regs[1], (0..64).sum::<i64>());
}

/// The faulting block increments `mem[0]` before the load that walks off
/// the end: an engine that re-ran the block would apply it twice.
#[test]
fn a_read_modify_write_before_the_faulting_load_applies_once_on_every_engine() {
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.push(Insn::MovImm(Reg(0), 200));
    b.push(Insn::MovImm(Reg(2), 0));
    b.push(Insn::MovImm(Reg(4), 1));
    b.bind(top);
    b.push(Insn::Load(Reg(1), Addr::abs(0)));
    b.push(Insn::Add(Reg(1), Reg(4)));
    b.push(Insn::Store(Addr::abs(0), Reg(1)));
    b.push(Insn::Load(Reg(3), Addr::base(Reg(2), 0)));
    b.push(Insn::AddImm(Reg(2), 1));
    b.push(Insn::AddImm(Reg(0), -1));
    b.push(Insn::CmpImm(Reg(0), 0));
    b.jcc(Cond::Gt, top);
    b.push(Insn::Halt);
    let (result, st) = assert_engines_agree("read-modify-write fault", &b.finish(), &|| {
        MachineState::new(64)
    });
    assert_eq!(result, Err(MemFault { addr: 64 }));
    assert_eq!(st.mem[0], 65);
}
