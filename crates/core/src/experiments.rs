//! One driver per paper artifact. Every function returns plain data;
//! `crate::report` renders the paper layouts and `mb-bench`'s binaries
//! print them.

use mb_cluster::machine::Cluster;
use mb_cluster::spec::{metablade, metablade2};
use mb_crusoe::cms::{Cms, CmsConfig};
use mb_crusoe::hardware::{alpha_ev56_533, athlon_mp_1200, pentium_iii_500, power3_375, HwCpu};
use mb_crusoe::kernels::{build_microkernel, MicrokernelVariant};
use mb_crusoe::schedule::CoreParams;
use mb_microkernel::MicrokernelInput;
use mb_npb::{Class, Kernel};
use mb_treecode::parallel::{
    distributed_step, distributed_step_weighted, DistributedConfig, StepReport,
};
use mb_treecode::render::DensityImage;
use mb_treecode::{cold_disk, plummer};

use crate::history::{historical_records, Provenance, TreecodeRecord};

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Processor name.
    pub cpu: String,
    /// Math-sqrt Mflops.
    pub math_mflops: f64,
    /// Karp-sqrt Mflops.
    pub karp_mflops: f64,
}

/// Microkernel batch geometry for Table 1 (small enough for
/// instruction-level simulation, large enough for steady state).
const T1_SOURCES: usize = 64;
const T1_SWEEPS: usize = 24;

fn mflops_on_hw(cpu: &HwCpu, variant: MicrokernelVariant) -> f64 {
    let mk = build_microkernel(variant, T1_SOURCES, T1_SWEEPS);
    let input = MicrokernelInput::generate(T1_SOURCES);
    let mut st = mk.setup_state(&input);
    let cycles = cpu.run(&mk.program, &mut st).expect("guest program runs");
    let seconds = cycles as f64 / (cpu.params.clock_mhz * 1e6);
    mk.useful_flops() as f64 / seconds / 1e6
}

fn mflops_on_cms(config: CmsConfig, variant: MicrokernelVariant) -> f64 {
    let mk = build_microkernel(variant, T1_SOURCES, T1_SWEEPS);
    let input = MicrokernelInput::generate(T1_SOURCES);
    let mut cms = Cms::new(config);
    // Warm run: pay interpretation + translation.
    let mut warm = mk.setup_state(&input);
    cms.run(&mk.program, &mut warm).expect("warm run");
    // Measured run: steady state out of the translation cache (the
    // 500-sweep benchmark loop spends its life here).
    let mut st = mk.setup_state(&input);
    let stats = cms.run(&mk.program, &mut st).expect("measured run");
    mk.useful_flops() as f64 / stats.seconds(config.core.clock_mhz) / 1e6
}

/// Regenerate Table 1: Mflops of the gravitational microkernel under
/// both reciprocal-square-root implementations on the five CPUs, in the
/// paper's row order.
pub fn table1() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    let hw_rows = [
        ("500-MHz Intel Pentium III", pentium_iii_500()),
        ("533-MHz Compaq Alpha EV56", alpha_ev56_533()),
    ];
    for (name, cpu) in &hw_rows {
        rows.push(Table1Row {
            cpu: name.to_string(),
            math_mflops: mflops_on_hw(cpu, MicrokernelVariant::MathSqrt),
            karp_mflops: mflops_on_hw(cpu, MicrokernelVariant::KarpSqrt),
        });
    }
    rows.push(Table1Row {
        cpu: "633-MHz Transmeta TM5600".to_string(),
        math_mflops: mflops_on_cms(CmsConfig::metablade(), MicrokernelVariant::MathSqrt),
        karp_mflops: mflops_on_cms(CmsConfig::metablade(), MicrokernelVariant::KarpSqrt),
    });
    let tail = [
        ("375-MHz IBM Power3", power3_375()),
        ("1200-MHz AMD Athlon MP", athlon_mp_1200()),
    ];
    for (name, cpu) in &tail {
        rows.push(Table1Row {
            cpu: name.to_string(),
            math_mflops: mflops_on_hw(cpu, MicrokernelVariant::MathSqrt),
            karp_mflops: mflops_on_hw(cpu, MicrokernelVariant::KarpSqrt),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// One Table 2 row.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    /// Processor count.
    pub cpus: usize,
    /// Virtual wall-clock per force evaluation, seconds.
    pub time_s: f64,
    /// Speed-up versus one processor.
    pub speedup: f64,
}

/// Regenerate Table 2: scalability of the N-body simulation on the
/// MetaBlade Bladed Beowulf. `n_bodies` trades fidelity against host
/// runtime (the regenerator binary uses 50k+; tests use less).
pub fn table2(n_bodies: usize) -> Vec<Table2Row> {
    let bodies = plummer(n_bodies, 42);
    let cfg = DistributedConfig::default();
    let mut rows = Vec::new();
    let mut t1 = f64::NAN;
    for &p in &[1usize, 2, 4, 8, 16, 24] {
        let cluster = Cluster::new(metablade().with_nodes(p));
        // Warm decomposition (cost-zone feedback), as the production code
        // carries between steps.
        let warm = distributed_step(&cluster, &bodies, &cfg);
        let r = distributed_step_weighted(&cluster, &bodies, &cfg, Some(&warm.body_cost));
        if p == 1 {
            t1 = r.makespan_s;
        }
        rows.push(Table2Row {
            cpus: p,
            time_s: r.makespan_s,
            speedup: t1 / r.makespan_s,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

/// One Table 3 row: per-CPU Mop/s for one NPB kernel.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name (BT, SP, LU, MG, EP, IS).
    pub code: String,
    /// Mop/s per CPU column, in the paper's order:
    /// [Athlon MP, Pentium III, TM5600, Power3].
    pub mops: [f64; 4],
    /// Kernel self-verification passed.
    pub verified: bool,
}

/// The TM5600 as an analytic kernel-timing model: the VLIW core
/// parameters with CMS steady-state overhead and the blade's modest
/// SDRAM bandwidth.
pub fn tm5600_analytic() -> HwCpu {
    HwCpu {
        params: CoreParams::tm5600_vliw(),
        mem_bw_mbs: 200.0,
        overhead: 1.35, // residual CMS overhead on top of ideal molecules
    }
}

/// Table 3's CPU columns, in the paper's order: Athlon MP, Pentium III,
/// TM5600 ([`tm5600_analytic`]), Power3.
pub fn table3_cpus() -> [HwCpu; 4] {
    [
        athlon_mp_1200(),
        pentium_iii_500(),
        tm5600_analytic(),
        power3_375(),
    ]
}

/// Regenerate Table 3: single-processor NPB Mop/s across the four CPUs.
/// Class W is the paper's configuration; tests use class S.
pub fn table3(class: Class) -> Vec<Table3Row> {
    let cpus = table3_cpus();
    Kernel::ALL
        .into_iter()
        .map(|kernel| {
            let result = kernel.run(class);
            Table3Row {
                code: kernel.name().to_string(),
                mops: cpus
                    .each_ref()
                    .map(|cpu| cpu.estimate_kernel_mops(&result.mix)),
                verified: result.verified,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------

/// Regenerate Table 4: the historical treecode ranking with the
/// MetaBlade rows from this reproduction.
///
/// Table 4 compares *production-scale* sustained rates (the paper's rows
/// come from the 9.75M-particle run, where N/P ≈ 406k bodies per rank
/// makes communication negligible — our own Table 2 model confirms
/// parallel efficiency → 1 in that regime). The MetaBlade rows therefore
/// use the calibrated per-CPU sustained rate (cross-checked against the
/// CMS simulation of the gravity kernel) at full production efficiency;
/// the finite-N efficiency curve is Table 2's subject, not Table 4's.
pub fn table4() -> Vec<TreecodeRecord> {
    let mut rows = historical_records();
    for (name, spec) in [
        ("SC'01 MetaBlade", metablade()),
        ("SC'01 MetaBlade2", metablade2()),
    ] {
        rows.push(TreecodeRecord {
            machine: name.into(),
            cpu: spec.node.cpu.name.clone(),
            nproc: spec.nodes,
            gflops: spec.nodes as f64 * spec.node.cpu.sustained_mflops / 1000.0,
            provenance: Provenance::Simulated,
        });
    }
    rows.sort_by(|a, b| {
        b.mflops_per_proc()
            .partial_cmp(&a.mflops_per_proc())
            .expect("finite rates")
    });
    rows
}

// ---------------------------------------------------------------------
// Tables 5–7 (delegated to mb-metrics with simulator-fed machine rows)
// ---------------------------------------------------------------------

/// The three machines of Tables 6 and 7, with performance/power fed from
/// the specs (Avalon recorded; MetaBlade simulated-sustained ≈ 2.1
/// Gflops; Green Destiny the 240-node scale-up).
pub fn table67_machines() -> Vec<mb_metrics::report::MachineRow> {
    use mb_cluster::spec::{avalon, green_destiny};
    let mk = |spec: &mb_cluster::spec::ClusterSpec, short: &str| mb_metrics::report::MachineRow {
        name: short.to_string(),
        gflops: spec.nodes as f64 * spec.node.cpu.sustained_mflops / 1000.0,
        area_ft2: spec.footprint_ft2,
        power_kw: spec.load_kw(),
    };
    vec![
        mk(&avalon(), "Avalon"),
        mk(&metablade(), "MB"),
        mk(&green_destiny(), "GD"),
    ]
}

// ---------------------------------------------------------------------
// Figure 3 + §3.3 sustained performance
// ---------------------------------------------------------------------

/// Regenerate Figure 3: evolve a self-gravitating disk (the visually
/// structured workload) and project its density. Returns the image; the
/// binary writes PGM/ASCII.
pub fn figure3(n_bodies: usize, steps: usize, px: usize) -> DensityImage {
    let mut bodies = cold_disk(n_bodies, 1);
    let mac = mb_treecode::Mac::standard();
    let eps2 = 1e-4;
    mb_treecode::direct::direct_forces(&mut bodies, eps2);
    for _ in 0..steps {
        mb_treecode::leapfrog_step(&mut bodies, 2e-3, &mac, eps2, 8);
    }
    DensityImage::project(&bodies, px, px, 0.97)
}

/// §3.3 headline: sustained Gflops and fraction of peak for a MetaBlade
/// run (paper: 2.1 Gflops, 14% of 15.2-Gflops peak; MetaBlade2:
/// 3.3 Gflops).
#[derive(Debug, Clone)]
pub struct SustainedReport {
    /// Sustained Gflops.
    pub gflops: f64,
    /// Peak Gflops of the machine.
    pub peak_gflops: f64,
    /// Parallel efficiency of the run.
    pub efficiency: f64,
    /// The measured (cost-balanced) step, with per-rank comm statistics
    /// for run manifests.
    pub step: StepReport,
}

/// Measure sustained application Gflops on a cluster spec.
pub fn sustained_gflops(spec: mb_cluster::spec::ClusterSpec, n_bodies: usize) -> SustainedReport {
    let bodies = plummer(n_bodies, 11);
    let cfg = DistributedConfig::default();
    let cluster = Cluster::new(spec.clone());
    let warm = distributed_step(&cluster, &bodies, &cfg);
    let r = distributed_step_weighted(&cluster, &bodies, &cfg, Some(&warm.body_cost));
    let single = Cluster::new(spec.with_nodes(1));
    let t1 = distributed_step(&single, &bodies, &cfg).makespan_s;
    SustainedReport {
        gflops: r.gflops,
        peak_gflops: cluster.spec().peak_gflops(),
        efficiency: t1 / (cluster.spec().nodes as f64 * r.makespan_s),
        step: r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_the_papers_shape() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        let by = |frag: &str| -> &Table1Row {
            rows.iter()
                .find(|r| r.cpu.contains(frag))
                .unwrap_or_else(|| panic!("row {frag}"))
        };
        let tm = by("TM5600");
        let piii = by("Pentium III");
        let ev56 = by("Alpha");
        let p3w = by("Power3");
        let ath = by("Athlon");
        // Karp beats math sqrt everywhere (that is Karp's whole point on
        // these machines).
        for r in &rows {
            assert!(
                r.karp_mflops > r.math_mflops,
                "{}: karp {} !> math {}",
                r.cpu,
                r.karp_mflops,
                r.math_mflops
            );
        }
        // §3.2: "In the Math sqrt benchmark, the Transmeta performs as
        // well as (if not better than) the Intel and Alpha, relative to
        // clock speed."
        let per_clock = |m: f64, clock: f64| m / clock;
        let tm_pc = per_clock(tm.math_mflops, 633.0);
        let piii_pc = per_clock(piii.math_mflops, 500.0);
        let ev56_pc = per_clock(ev56.math_mflops, 533.0);
        assert!(
            tm_pc > 0.8 * piii_pc,
            "TM/clock {tm_pc} vs PIII/clock {piii_pc}"
        );
        assert!(
            tm_pc > 0.8 * ev56_pc,
            "TM/clock {tm_pc} vs EV56/clock {ev56_pc}"
        );
        // Power3 and Athlon lead (paper: roughly 2.5–3×; our windowed
        // scheduler understates Power3's cross-iteration overlap — the
        // Karp body exceeds its reorder window — so we assert the
        // conservative ordering bounds; see EXPERIMENTS.md).
        assert!(p3w.karp_mflops > tm.karp_mflops);
        assert!(ath.karp_mflops > 2.5 * tm.karp_mflops);
        assert!(ath.karp_mflops > p3w.karp_mflops);
        assert!(ath.math_mflops > p3w.math_mflops);
        // §3.2: "The performance of the Transmeta suffers a bit with the
        // Karp sqrt benchmark" — its Karp/Math gain trails the hardware
        // CPUs' average gain.
        let gain = |r: &Table1Row| r.karp_mflops / r.math_mflops;
        let hw_mean = (gain(piii) + gain(ev56) + gain(p3w) + gain(ath)) / 4.0;
        assert!(
            gain(tm) < hw_mean * 1.2,
            "TM gain {} should not dominate hardware mean {hw_mean}",
            gain(tm)
        );
    }

    #[test]
    fn table2_speedup_shape() {
        let rows = table2(12_000);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].cpus, 1);
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
        for w in rows.windows(2) {
            assert!(w[1].time_s < w[0].time_s, "time must fall with CPUs");
            assert!(w[1].speedup > w[0].speedup);
        }
        // Efficiency drops below 1 — "the communication overhead is
        // enough to cause the drop in efficiency".
        let last = rows.last().unwrap();
        let eff = last.speedup / last.cpus as f64;
        assert!(eff < 0.95, "efficiency {eff} suspiciously perfect");
        assert!(eff > 0.3, "efficiency {eff} collapsed");
    }

    #[test]
    fn table3_matches_the_papers_ratios() {
        let rows = table3(Class::S);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.verified, "{} failed verification", r.code);
            assert!(r.mops.iter().all(|&m| m > 0.0), "{}: {:?}", r.code, r.mops);
        }
        // §3.4: "the 633-MHz Transmeta Crusoe TM5600 performs as well as
        // the 500-MHz Intel Pentium III and about one-third as well as
        // the Athlon and Power3" — geometric-mean check.
        let gm = |ix: usize| -> f64 {
            let p: f64 = rows.iter().map(|r| r.mops[ix].ln()).sum::<f64>() / rows.len() as f64;
            p.exp()
        };
        let (ath, piii, tm, p3) = (gm(0), gm(1), gm(2), gm(3));
        assert!((0.5..2.0).contains(&(tm / piii)), "TM {tm} vs PIII {piii}");
        assert!(
            (0.15..0.75).contains(&(tm / ath)),
            "TM {tm} vs Athlon {ath}"
        );
        assert!((0.15..0.75).contains(&(tm / p3)), "TM {tm} vs Power3 {p3}");
    }

    #[test]
    fn table4_ranks_metablade_like_the_paper() {
        let rows = table4();
        // MetaBlade2 places second behind only the Origin 2000 (§3.5.2).
        let pos = |frag: &str| rows.iter().position(|r| r.machine.contains(frag)).unwrap();
        assert!(pos("Origin") < pos("MetaBlade2"));
        assert_eq!(
            pos("MetaBlade2"),
            1,
            "{:?}",
            rows.iter()
                .map(|r| (&r.machine, r.mflops_per_proc()))
                .collect::<Vec<_>>()
        );
        // MetaBlade lands in the Avalon neighborhood, above Loki.
        assert!(pos("MetaBlade2") < pos("Loki"));
        assert!(pos("SC'01 MetaBlade") < pos("LANL Loki"));
    }

    #[test]
    fn table67_machines_reproduce_the_ratio_claims() {
        use mb_metrics::topper::{perf_power_gflop_per_kw, perf_space_mflop_per_ft2};
        let m = table67_machines();
        let avalon = &m[0];
        let mb = &m[1];
        let gd = &m[2];
        // §4.2: MetaBlade beats the traditional Beowulf "by a factor of
        // two" in perf/space; Green Destiny "over twenty-fold".
        let ps =
            |x: &mb_metrics::report::MachineRow| perf_space_mflop_per_ft2(x.gflops, x.area_ft2);
        assert!((1.5..3.5).contains(&(ps(mb) / ps(avalon))));
        assert!(ps(gd) / ps(avalon) > 20.0);
        // §4.3: "the Bladed Beowulfs outperform the traditional Beowulf
        // by a factor of four" in perf/power.
        let pp = |x: &mb_metrics::report::MachineRow| perf_power_gflop_per_kw(x.gflops, x.power_kw);
        assert!(
            (3.0..5.5).contains(&(pp(mb) / pp(avalon))),
            "{}",
            pp(mb) / pp(avalon)
        );
        assert!((3.0..5.5).contains(&(pp(gd) / pp(avalon))));
    }

    #[test]
    fn sustained_run_lands_near_the_papers_14_percent() {
        let r = sustained_gflops(metablade(), 30_000);
        assert!((r.peak_gflops - 15.19).abs() < 0.05);
        let frac = r.gflops / r.peak_gflops;
        // Paper: 2.1 / 15.2 = 13.8%. Parallel losses put our run in the
        // 8–14% band at this (scaled-down) N.
        assert!((0.07..0.16).contains(&frac), "fraction of peak {frac}");
    }

    #[test]
    fn figure3_disk_has_structure() {
        let img = figure3(4_000, 10, 48);
        let gray = img.to_gray();
        let bright = gray.iter().filter(|&&g| g > 128).count();
        let dark = gray.iter().filter(|&&g| g < 16).count();
        // A structured disk: a bright concentration AND empty sky.
        assert!(bright > 20, "bright pixels {bright}");
        assert!(dark > 48 * 48 / 10, "dark pixels {dark}");
    }
}

#[cfg(test)]
mod diag {
    #[test]
    #[ignore]
    fn print_table1() {
        for r in super::table1() {
            println!(
                "{:<28} math {:>8.1}  karp {:>8.1}",
                r.cpu, r.math_mflops, r.karp_mflops
            );
        }
    }
}
