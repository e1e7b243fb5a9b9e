//! Pins of everything a CMS run returns, recorded on the commit before
//! the engine's block table, scheduler and fault path were rewritten
//! (3095701): the data structures under `cms.rs`, `tcache.rs` and
//! `schedule.rs` may change, never a simulated value. Each row is the
//! `Debug` text of the whole [`CmsRunStats`] (so a new field shows up
//! here) plus an FNV-1a hash of the final architected state.

use mb_crusoe::cms::{Cms, CmsConfig, CmsRunStats};
use mb_crusoe::hardware::hardware_catalog;
use mb_crusoe::isa::MachineState;
use mb_crusoe::kernels::{build_microkernel, MicrokernelVariant};
use mb_microkernel::MicrokernelInput;
use mb_telemetry::Fnv;

const VARIANTS: [MicrokernelVariant; 2] =
    [MicrokernelVariant::KarpSqrt, MicrokernelVariant::MathSqrt];

fn state_hash(st: &MachineState) -> u64 {
    let mut h = Fnv::new();
    for &r in &st.regs {
        h.write_u64(r as u64);
    }
    for &f in &st.fregs {
        h.write_f64(f);
    }
    for &w in &st.mem {
        h.write_u64(w);
    }
    h.finish()
}

fn row(stats: &CmsRunStats, st: &MachineState) -> String {
    format!("{stats:?} state={:016x}", state_hash(st))
}

/// The `runs`-th run of the `n` × `sweeps` microkernel on one `Cms`.
fn nth_run(
    variant: MicrokernelVariant,
    config: CmsConfig,
    n: usize,
    sweeps: usize,
    runs: usize,
) -> String {
    let mk = build_microkernel(variant, n, sweeps);
    let input = MicrokernelInput::generate(n);
    let mut cms = Cms::new(config);
    let mut last = String::new();
    for _ in 0..runs {
        let mut st = mk.setup_state(&input);
        let stats = cms.run(&mk.program, &mut st).expect("no faults");
        last = row(&stats, &st);
    }
    last
}

fn check(name: &str, actual: &str, pinned: &str) {
    assert_eq!(actual, pinned, "{name} moved");
}

/// Both kernels × both CMS configurations, pins in that order.
fn check_matrix(n: usize, sweeps: usize, runs: usize, what: &str, pins: [&str; 4]) {
    let mut pins = pins.iter();
    for variant in VARIANTS {
        for (label, config) in [
            ("metablade", CmsConfig::metablade()),
            ("metablade2", CmsConfig::metablade2()),
        ] {
            check(
                &format!("{variant:?} {label} {what}"),
                &nth_run(variant, config, n, sweeps, runs),
                pins.next().unwrap(),
            );
        }
    }
}

#[test]
fn fresh_16x2_runs_are_pinned() {
    check_matrix(
        16,
        2,
        1,
        "fresh 16x2",
        [
            "CmsRunStats { total_cycles: 383407, interp_insns: 2013, interp_cycles: 50325, translated_insns: 664, translated_cycles: 1082, translate_cycles: 332000, translations: 1, block_executions: 38, chained_entries: 7, rollbacks: 0, atom_counts: [176, 0, 136, 168, 0, 0, 0, 144, 88, 0, 8], tcache: TCacheStats { hits: 8, misses: 30, insertions: 1, evictions: 0, flushes: 0 } } state=601cf7add8583fef",
            "CmsRunStats { total_cycles: 373126, interp_insns: 2013, interp_cycles: 40260, translated_insns: 664, translated_cycles: 866, translate_cycles: 332000, translations: 1, block_executions: 38, chained_entries: 7, rollbacks: 0, atom_counts: [176, 0, 136, 168, 0, 0, 0, 144, 88, 0, 8], tcache: TCacheStats { hits: 8, misses: 30, insertions: 1, evictions: 0, flushes: 0 } } state=601cf7add8583fef",
            "CmsRunStats { total_cycles: 162775, interp_insns: 861, interp_cycles: 21525, translated_insns: 280, translated_cycles: 1250, translate_cycles: 140000, translations: 1, block_executions: 38, chained_entries: 7, rollbacks: 0, atom_counts: [32, 0, 120, 232, 0, 8, 0, 88, 64, 0, 8], tcache: TCacheStats { hits: 8, misses: 30, insertions: 1, evictions: 0, flushes: 0 } } state=65e0424b16b67afe",
            "CmsRunStats { total_cycles: 158222, interp_insns: 861, interp_cycles: 17220, translated_insns: 280, translated_cycles: 1002, translate_cycles: 140000, translations: 1, block_executions: 38, chained_entries: 7, rollbacks: 0, atom_counts: [32, 0, 120, 232, 0, 8, 0, 88, 64, 0, 8], tcache: TCacheStats { hits: 8, misses: 30, insertions: 1, evictions: 0, flushes: 0 } } state=65e0424b16b67afe",
        ],
    );
}

#[test]
fn third_256x64_runs_on_one_cms_are_pinned() {
    check_matrix(
        256,
        64,
        3,
        "third 256x64",
        [
            "CmsRunStats { total_cycles: 2212551, interp_insns: 13, interp_cycles: 325, translated_insns: 1360128, translated_cycles: 2212226, translate_cycles: 0, translations: 0, block_executions: 16514, chained_entries: 16511, rollbacks: 0, atom_counts: [360640, 0, 278528, 344064, 0, 0, 0, 294912, 180224, 0, 16448], tcache: TCacheStats { hits: 49464, misses: 78, insertions: 3, evictions: 0, flushes: 0 } } state=86b9756724e1401e",
            "CmsRunStats { total_cycles: 1769990, interp_insns: 13, interp_cycles: 260, translated_insns: 1360128, translated_cycles: 1769730, translate_cycles: 0, translations: 0, block_executions: 16514, chained_entries: 16511, rollbacks: 0, atom_counts: [360640, 0, 278528, 344064, 0, 0, 0, 294912, 180224, 0, 16448], tcache: TCacheStats { hits: 49464, misses: 78, insertions: 3, evictions: 0, flushes: 0 } } state=86b9756724e1401e",
            "CmsRunStats { total_cycles: 2556615, interp_insns: 13, interp_cycles: 325, translated_insns: 573696, translated_cycles: 2556290, translate_cycles: 0, translations: 0, block_executions: 16514, chained_entries: 16511, rollbacks: 0, atom_counts: [65728, 0, 245760, 475136, 0, 16384, 0, 180224, 131072, 0, 16448], tcache: TCacheStats { hits: 49464, misses: 78, insertions: 3, evictions: 0, flushes: 0 } } state=fe8b6d46ce42e925",
            "CmsRunStats { total_cycles: 2048518, interp_insns: 13, interp_cycles: 260, translated_insns: 573696, translated_cycles: 2048258, translate_cycles: 0, translations: 0, block_executions: 16514, chained_entries: 16511, rollbacks: 0, atom_counts: [65728, 0, 245760, 475136, 0, 16384, 0, 180224, 131072, 0, 16448], tcache: TCacheStats { hits: 49464, misses: 78, insertions: 3, evictions: 0, flushes: 0 } } state=fe8b6d46ce42e925",
        ],
    );
}

/// A translation cache that holds the inner loop's translation but not
/// the outer blocks beside it (the regime `ablation_tcache` sweeps
/// through): every later insertion evicts, which pins the LRU order.
#[test]
fn eviction_pressure_runs_are_pinned() {
    let pins = [
        (7_936, "CmsRunStats { total_cycles: 9930425, interp_insns: 4363, interp_cycles: 109075, translated_insns: 261450, translated_cycles: 425350, translate_cycles: 9396000, translations: 81, block_executions: 3302, chained_entries: 3100, rollbacks: 0, atom_counts: [69300, 0, 53550, 66150, 0, 0, 0, 56700, 34650, 0, 3150], tcache: TCacheStats { hits: 3150, misses: 152, insertions: 81, evictions: 80, flushes: 0 } } state=27b64eefac173864"),
        (9_024, "CmsRunStats { total_cycles: 4752575, interp_insns: 1963, interp_cycles: 49075, translated_insns: 110250, translated_cycles: 491500, translate_cycles: 4212000, translations: 81, block_executions: 3302, chained_entries: 3100, rollbacks: 0, atom_counts: [12600, 0, 47250, 91350, 0, 3150, 0, 34650, 25200, 0, 3150], tcache: TCacheStats { hits: 3150, misses: 152, insertions: 81, evictions: 80, flushes: 0 } } state=3993ea4010a2658c"),
    ];
    for (variant, (capacity_bits, pinned)) in VARIANTS.into_iter().zip(pins) {
        let mut config = CmsConfig::metablade();
        config.tcache_capacity_bits = capacity_bits;
        let mk = build_microkernel(variant, 64, 50);
        let mut st = mk.setup_state(&MicrokernelInput::generate(64));
        let stats = Cms::new(config)
            .run(&mk.program, &mut st)
            .expect("no faults");
        assert!(stats.tcache.evictions > 0, "{variant:?}: no pressure");
        check(
            &format!("{variant:?} {capacity_bits}-bit t-cache"),
            &row(&stats, &st),
            pinned,
        );
    }
}

#[test]
fn hardware_model_cycles_are_pinned() {
    let pins: [[u64; 4]; 2] = [[30234, 44062, 19479, 16921], [35098, 52254, 23831, 18799]];
    for (variant, pinned) in VARIANTS.into_iter().zip(pins) {
        let mk = build_microkernel(variant, 64, 4);
        let input = MicrokernelInput::generate(64);
        let cycles: Vec<u64> = hardware_catalog()
            .iter()
            .map(|cpu| {
                let mut st = mk.setup_state(&input);
                cpu.run(&mk.program, &mut st).expect("no faults")
            })
            .collect();
        assert_eq!(cycles, pinned, "{variant:?} HwCpu::run cycles moved");
    }
}
