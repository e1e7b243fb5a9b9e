//! The one-shot studies behind `metablade ablation|extension|claims|trace`:
//! four ablations (A1–A4), four extensions, the §4 claim sweep and the
//! traced force evaluation. Each is a plain function that prints its
//! report on stdout; `metablade` owns the argv and the defaults.

use std::collections::HashMap;

use crate::{artifact_dir, treecode_manifest, write_artifact};
use mb_cluster::checkpoint::{availability, CheckpointModel};
use mb_cluster::machine::Cluster;
use mb_cluster::reliability::FailureLaw;
use mb_cluster::spec::{avalon, green_destiny, metablade, metablade2, CpuSpec};
use mb_cluster::thermal::{f_to_c, ThermalModel};
use mb_crusoe::cms::{Cms, CmsConfig};
use mb_crusoe::kernels::{build_microkernel, MicrokernelVariant};
use mb_crusoe::power::{longrun_power_watts, tm5600_longrun_states};
use mb_metrics::report::{render_table6, render_table7, MachineRow};
use mb_metrics::space::FootprintModel;
use mb_metrics::tco::{CostConstants, DowntimeModel, SysAdminModel, TcoInputs};
use mb_metrics::topper::{perf_power_gflop_per_kw, perf_space_mflop_per_ft2};
use mb_microkernel::MicrokernelInput;
use mb_telemetry::chrome;
use mb_treecode::parallel::{
    distributed_step, distributed_step_traced, distributed_step_weighted, DistributedConfig,
};
use mb_treecode::{build_tree, direct_forces, plummer, tree_forces, BoundingBox, Mac};

fn tcache_run_with(capacity_bits: u64, hot: u64) -> (u64, u64, u64) {
    let mk = build_microkernel(MicrokernelVariant::KarpSqrt, 64, 50);
    let input = MicrokernelInput::generate(64);
    let mut cfg = CmsConfig::metablade();
    cfg.tcache_capacity_bits = capacity_bits;
    cfg.hot_threshold = hot;
    let mut cms = Cms::new(cfg);
    let mut st = mk.setup_state(&input);
    let stats = cms.run(&mk.program, &mut st).expect("run");
    (
        stats.total_cycles,
        stats.translations,
        stats.tcache.evictions,
    )
}

/// Ablation A1: translation-cache capacity and hot-threshold sweep.
///
/// The CMS win rests on amortizing translation over reuse (§2.2). This
/// sweep shows total simulated cycles of the microkernel as the cache
/// shrinks below the working set (forcing retranslation thrash) and as
/// the hot threshold moves.
pub fn ablation_tcache() {
    println!("Ablation A1 — translation cache capacity (hot threshold = 24)");
    println!(
        "{:>14}{:>14}{:>14}{:>12}",
        "capacity", "cycles", "translations", "evictions"
    );
    for &bits in &[256u64, 1024, 4096, 16_384, 2 * 8 * 1024 * 1024] {
        let (cycles, tr, ev) = tcache_run_with(bits, 24);
        println!("{:>12} b{:>14}{:>14}{:>12}", bits, cycles, tr, ev);
    }
    println!("\nAblation A1b — hot threshold (capacity = 2 MB)");
    println!("{:>14}{:>14}{:>14}", "threshold", "cycles", "translations");
    for &hot in &[1u64, 8, 24, 100, 100_000] {
        let (cycles, tr, _) = tcache_run_with(2 * 8 * 1024 * 1024, hot);
        println!("{:>14}{:>14}{:>14}", hot, cycles, tr);
    }
    println!("\n(A threshold beyond the loop count never translates: pure interpretation.)");
}

/// Ablation A2: opening-angle θ sweep — force accuracy vs interaction
/// count (with and without quadrupoles).
pub fn ablation_mac(n: usize) {
    let eps2 = 1e-6;
    let mut reference = plummer(n, 9);
    direct_forces(&mut reference, eps2);
    // Match bodies by position bits (the tree build reorders them).
    let mut by_pos: HashMap<[u64; 3], usize> = HashMap::new();
    for (i, p) in reference.pos.iter().enumerate() {
        by_pos.insert([p[0].to_bits(), p[1].to_bits(), p[2].to_bits()], i);
    }
    println!("Ablation A2 — MAC sweep, N = {n} Plummer");
    println!(
        "{:>6}{:>8}{:>16}{:>18}",
        "theta", "quad", "interactions", "median rel err"
    );
    for &quad in &[true, false] {
        for &theta in &[0.3, 0.5, 0.8, 1.0, 1.2] {
            let mut b = reference.clone();
            b.zero_forces();
            let bb = BoundingBox::containing(&b.pos);
            let tree = build_tree(&mut b, bb, 8);
            let stats = tree_forces(
                &mut b,
                &tree,
                &Mac {
                    theta,
                    quadrupole: quad,
                },
                eps2,
            );
            let mut errs: Vec<f64> = b
                .pos
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let j = by_pos[&[p[0].to_bits(), p[1].to_bits(), p[2].to_bits()]];
                    let (ta, da) = (b.acc[i], reference.acc[j]);
                    let e = ((ta[0] - da[0]).powi(2)
                        + (ta[1] - da[1]).powi(2)
                        + (ta[2] - da[2]).powi(2))
                    .sqrt();
                    let d = (da[0] * da[0] + da[1] * da[1] + da[2] * da[2]).sqrt();
                    e / d.max(1e-30)
                })
                .collect();
            errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            println!(
                "{:>6.2}{:>8}{:>16}{:>18.2e}",
                theta,
                quad,
                stats.interactions.pp + stats.interactions.pc,
                errs[errs.len() / 2]
            );
        }
    }
}

/// Ablation A3: Table 2's sensitivity to the interconnect — parallel
/// efficiency at 24 CPUs as latency and bandwidth sweep around Fast
/// Ethernet (showing the network is the binding constraint).
pub fn ablation_network(n: usize) {
    let bodies = plummer(n, 42);
    let cfg = DistributedConfig::default();
    let t1 = distributed_step(&Cluster::new(metablade().with_nodes(1)), &bodies, &cfg).makespan_s;
    println!("Ablation A3 — network sweep, N = {n}, P = 24 (t1 = {t1:.2}s)");
    println!(
        "{:>14}{:>12}{:>12}{:>12}",
        "bandwidth", "latency", "time (s)", "efficiency"
    );
    for &(mbps, lat_us) in &[
        (10.0, 70.0),
        (100.0, 70.0), // the paper's Fast Ethernet
        (100.0, 500.0),
        (100.0, 10.0),
        (1000.0, 70.0), // GigE
        (1000.0, 10.0), // Myrinet-class
    ] {
        let mut spec = metablade();
        spec.network.bandwidth_mbps = mbps;
        spec.network.latency_s = lat_us * 1e-6;
        let r = distributed_step(&Cluster::new(spec), &bodies, &cfg);
        println!(
            "{:>10} Mb/s{:>9} us{:>12.2}{:>12.2}",
            mbps,
            lat_us,
            r.makespan_s,
            t1 / r.makespan_s / 24.0
        );
    }
}

/// Ablation A4: ambient temperature → failure rate → TCO sensitivity
/// (the paper's 10-degree doubling law driving the SAC/DTC rows).
pub fn ablation_thermal() {
    let law = FailureLaw::paper_default();
    let constants = CostConstants::default();
    println!("Ablation A4 — ambient temperature sweep (traditional P4 tower, 85 W node)");
    println!(
        "{:>12}{:>14}{:>16}{:>14}",
        "ambient F", "comp temp C", "failures/yr/24", "4-yr TCO $K"
    );
    for &ambient_f in &[60.0, 70.0, 75.0, 80.0, 90.0, 100.0] {
        let thermal = ThermalModel {
            ambient_c: f_to_c(ambient_f),
            theta_c_per_w: 0.45,
        };
        let temp = thermal.component_temp_c(75.0);
        let fail_rate = law.expected_failures(24, temp, 1.0);
        // Downtime scales with the failure rate (paper baseline: 6/yr).
        let downtime = DowntimeModel {
            outages_per_year: fail_rate,
            hours_per_outage: 4.0,
            whole_cluster: true,
        };
        let inputs = TcoInputs {
            name: "P4".into(),
            n_nodes: 24,
            hardware_cost: 17_000.0,
            software_cost: 0.0,
            node_watts_load: 85.0,
            active_cooling: true,
            footprint_ft2: 20.0,
            sysadmin: SysAdminModel::traditional(),
            downtime,
        };
        let tco = inputs.evaluate(&constants).total();
        println!(
            "{:>12.0}{:>14.1}{:>16.2}{:>14.1}",
            ambient_f,
            temp,
            fail_rate,
            tco / 1e3
        );
    }
    println!(
        "\nBlade reference: TM5600 at 80F closet → {:.1}C, {:.2} failures/yr/24",
        ThermalModel::blade_closet().component_temp_c(6.0),
        law.expected_failures(24, ThermalModel::blade_closet().component_temp_c(6.0), 1.0)
    );
}

/// Checkpoint/restart availability: what the paper's reliability
/// contrast means for a 30-day production job on each machine.
pub fn extension_checkpoint() {
    let law = FailureLaw::paper_default();
    let cp = CheckpointModel {
        checkpoint_h: 0.1,
        restart_h: 0.25,
    };
    println!("30-day job under optimal (Young) checkpointing, 24 nodes");
    println!(
        "{:<26}{:>10}{:>12}{:>14}{:>12}",
        "machine", "temp C", "MTBF (h)", "tau* (h)", "efficiency"
    );
    let cases = [
        (
            "P4 tower, 75F office",
            ThermalModel::traditional_office().component_temp_c(75.0),
        ),
        (
            "PIII tower, 75F office",
            ThermalModel::traditional_office().component_temp_c(28.0),
        ),
        (
            "TM5600 blade, 80F closet",
            ThermalModel::blade_closet().component_temp_c(6.0),
        ),
    ];
    for (name, temp) in cases {
        let r = availability(&law, 24, temp, &cp);
        println!(
            "{:<26}{:>10.1}{:>12.0}{:>14.1}{:>12.3}",
            name, temp, r.mtbf_h, r.tau_opt_h, r.efficiency
        );
    }
}

/// Run the full 240-node Green Destiny rack (§4.2's "recently-ordered
/// 240-node Bladed Beowulf ... in the same footprint as MetaBlade"):
/// 240 simulated ranks, one rack, six square feet.
pub fn extension_green_destiny(n: usize) {
    let spec = green_destiny();
    eprintln!(
        "spawning {} ranks ({}) for N = {n} ...",
        spec.nodes, spec.node.cpu.name
    );
    let cluster = Cluster::new(spec.clone());
    let bodies = plummer(n, 9);
    let cfg = DistributedConfig::default();
    let warm = distributed_step(&cluster, &bodies, &cfg);
    let r = distributed_step_weighted(&cluster, &bodies, &cfg, Some(&warm.body_cost));
    println!(
        "Green Destiny: {} nodes | peak {:.1} Gflops | sustained {:.2} Gflops at N = {n}",
        spec.nodes,
        spec.peak_gflops(),
        r.gflops
    );
    println!(
        "footprint {} ft^2 -> {:.0} Mflop/ft^2 | {:.2} kW -> {:.1} Gflop/kW",
        spec.footprint_ft2,
        perf_space_mflop_per_ft2(r.gflops, spec.footprint_ft2),
        spec.load_kw(),
        perf_power_gflop_per_kw(r.gflops, spec.load_kw())
    );
    println!(
        "(production-scale projection: {:.1} Gflops sustained, {:.0} Mflop/ft^2 — Table 6's 3500)",
        spec.nodes as f64 * spec.node.cpu.sustained_mflops / 1000.0,
        spec.nodes as f64 * spec.node.cpu.sustained_mflops / spec.footprint_ft2
    );
}

/// LongRun DVFS sweep (§2's power story): run the cluster's treecode
/// workload at each TM5600 operating point and report the
/// energy/performance trade — slower clocks finish later but sip power.
pub fn extension_longrun(n: usize) {
    let bodies = plummer(n, 3);
    let cfg = DistributedConfig::default();
    let states = tm5600_longrun_states();
    let full = *states.last().unwrap();
    println!("LongRun sweep — treecode force evaluation, N = {n}, 24 blades");
    println!(
        "{:>10}{:>8}{:>12}{:>12}{:>14}{:>14}",
        "MHz", "V", "time (s)", "Gflops", "cluster W", "energy (kJ)"
    );
    for s in &states {
        let mut spec = metablade();
        // Sustained rate scales with clock; CPU power with f·V².
        spec.node.cpu.sustained_mflops *= s.mhz / full.mhz;
        let cpu_w = longrun_power_watts(6.0, *s, full);
        spec.node.node_watts_load = spec.node.node_watts_load - 6.0 + cpu_w;
        let r = distributed_step(&Cluster::new(spec.clone()), &bodies, &cfg);
        let watts = spec.nodes as f64 * spec.node.node_watts_load;
        println!(
            "{:>10.0}{:>8.2}{:>12.2}{:>12.2}{:>14.0}{:>14.2}",
            s.mhz,
            s.volts,
            r.makespan_s,
            r.gflops,
            watts,
            watts * r.makespan_s / 1000.0
        );
    }
    println!("\n(Energy-to-solution is nearly flat while power drops ~2.5x — the LongRun pitch.)");
}

/// §5 projection: "The TM6000, expected in volume in the last half of
/// 2002, is expected to improve flop performance over the TM5800 by
/// another factor of two to three while reducing power requirements in
/// half again." Build that projected machine and recompute Tables 6/7
/// and the TCO.
pub fn extension_tm6000() {
    let mb2 = metablade2();
    let mut tm6000 = mb2.clone();
    tm6000.name = "TM6000 projection".into();
    tm6000.node.cpu = CpuSpec {
        name: "1-GHz Transmeta TM6000 (projected)".into(),
        clock_mhz: 1000.0,
        sustained_mflops: mb2.node.cpu.sustained_mflops * 2.5, // "factor of two to three"
        peak_flops_per_cycle: 2.0,
        cpu_watts_load: mb2.node.cpu.cpu_watts_load / 2.0, // "half again"
    };
    tm6000.node.node_watts_load = 15.0;
    let machines = vec![
        MachineRow {
            name: "Avalon".into(),
            gflops: 18.0,
            area_ft2: avalon().footprint_ft2,
            power_kw: 18.0,
        },
        MachineRow {
            name: "MB2".into(),
            gflops: 3.3,
            area_ft2: 6.0,
            power_kw: mb2.load_kw(),
        },
        MachineRow {
            name: "TM6000".into(),
            gflops: tm6000.nodes as f64 * tm6000.node.cpu.sustained_mflops / 1000.0,
            area_ft2: 6.0,
            power_kw: tm6000.load_kw(),
        },
        MachineRow {
            name: "GD6000".into(), // 240-node TM6000 rack
            gflops: 240.0 * tm6000.node.cpu.sustained_mflops / 1000.0,
            area_ft2: 6.0,
            power_kw: 240.0 * tm6000.node.node_watts_load / 1000.0,
        },
    ];
    print!("{}", render_table6(&machines));
    println!();
    print!("{}", render_table7(&machines));
    // Projected TCO (same blade operational profile, pricier silicon).
    let inputs = TcoInputs {
        name: "TM6000".into(),
        n_nodes: 24,
        hardware_cost: 30_000.0,
        software_cost: 0.0,
        node_watts_load: tm6000.node.node_watts_load,
        active_cooling: false,
        footprint_ft2: 6.0,
        sysadmin: SysAdminModel::bladed(),
        downtime: DowntimeModel::bladed(),
    };
    let tco = inputs.evaluate(&CostConstants::default());
    println!(
        "\nprojected 24-node TM6000 TCO: ${:.0}K — ToPPeR {:.1} $/Mflops vs MetaBlade {:.1}",
        tco.total() / 1e3,
        mb_metrics::topper::topper(
            tco.total(),
            24.0 * tm6000.node.cpu.sustained_mflops / 1000.0
        ),
        mb_metrics::topper::topper(35_000.0, 2.1),
    );
}

/// §4 claim sweep: every quantitative prose claim of the metrics section
/// recomputed — TCO ratio, ToPPeR, footnote-5 33x space scale-up,
/// perf/space and perf/power factors, thermal/reliability contrast.
pub fn claims() {
    let constants = CostConstants::default();
    let catalog = mb_metrics::costs::cluster_cost_catalog();
    let blade = catalog.iter().find(|p| p.family.is_bladed()).unwrap();
    let blade_tco = blade.inputs.evaluate(&constants).total();
    let trad_tco: f64 = catalog
        .iter()
        .filter(|p| !p.family.is_bladed())
        .map(|p| p.inputs.evaluate(&constants).total())
        .sum::<f64>()
        / 4.0;
    println!(
        "TCO: traditional mean ${:.0}K vs blade ${:.0}K → {:.1}x  [paper: ~3x]",
        trad_tco / 1e3,
        blade_tco / 1e3,
        trad_tco / blade_tco
    );

    let trad_space = FootprintModel::traditional().space_cost(240, 100.0, 4.0);
    let blade_space = FootprintModel::bladed().space_cost(240, 100.0, 4.0);
    println!(
        "240-node space cost: ${:.0} vs ${:.0} → {:.0}x  [paper footnote 5: 33x]",
        trad_space,
        blade_space,
        trad_space / blade_space
    );

    let m = mb_core::experiments::table67_machines();
    let ps = |x: &MachineRow| perf_space_mflop_per_ft2(x.gflops, x.area_ft2);
    let pp = |x: &MachineRow| perf_power_gflop_per_kw(x.gflops, x.power_kw);
    println!(
        "perf/space: MB/Avalon {:.1}x (paper: ~2x); GD/Avalon {:.1}x (paper: >20x)",
        ps(&m[1]) / ps(&m[0]),
        ps(&m[2]) / ps(&m[0])
    );
    println!(
        "perf/power: MB/Avalon {:.1}x; GD/Avalon {:.1}x  [paper: ~4x]",
        pp(&m[1]) / pp(&m[0]),
        pp(&m[2]) / pp(&m[0])
    );

    let law = FailureLaw::paper_default();
    let hot = ThermalModel::traditional_office().component_temp_c(75.0);
    let cool = ThermalModel::blade_closet().component_temp_c(6.0);
    println!(
        "failure law: P4 tower component at {:.0}C → {:.1} failures/yr/24 nodes; \
         TM5600 blade at {:.0}C → {:.1}/yr  [paper: failure every 2 months vs zero in 9 months]",
        hot,
        law.expected_failures(24, hot, 1.0),
        cool,
        law.expected_failures(24, cool, 1.0)
    );
}

/// Trace one distributed treecode force evaluation on the simulated
/// MetaBlade and leave the full observability artifact set behind:
///
/// * a Chrome `trace_event` JSON (one track per rank — open it in
///   `chrome://tracing` or <https://ui.perfetto.dev>),
/// * a per-rank compute/comm/blocked summary on stdout,
/// * a machine-readable run manifest with power samples and the CMS
///   translation-cache view of the gravity microkernel.
///
/// Artifacts land in `$MB_TELEMETRY_DIR` or `./traces`.
pub fn trace(n: usize, p: usize) {
    let spec = metablade().with_nodes(p);
    let cluster = Cluster::new(spec.clone());
    let bodies = plummer(n, 1999);
    let cfg = DistributedConfig::default();
    println!(
        "tracing one force evaluation: N = {n}, P = {p} ({})\n",
        spec.name
    );
    let (report, trace) = distributed_step_traced(&cluster, &bodies, &cfg, None);

    let mut manifest = treecode_manifest(&format!("treecode-{p}"), &spec, &report);
    // One node's CMS view of the gravity microkernel: translation-cache
    // hit rate and atom counts, recorded next to the cluster metrics.
    let mk = build_microkernel(MicrokernelVariant::KarpSqrt, 64, 24);
    let input = MicrokernelInput::generate(64);
    let mut cms = Cms::new(CmsConfig::metablade());
    let mut st = mk.setup_state(&input);
    let stats = cms
        .run(&mk.program, &mut st)
        .expect("microkernel runs under CMS");
    stats.record_into(&mut manifest.metrics, "kernel=gravity");

    let dir = artifact_dir();
    // The stem embeds rank count + run id, so concurrent sweeps sharing
    // one artifact directory never overwrite each other's traces.
    let stem = mb_telemetry::artifact::artifact_stem("treecode", p);
    let trace_path = write_artifact(&dir, &format!("{stem}.trace.json"), &chrome::export(&trace))
        .expect("write chrome trace");
    let manifest_path = write_artifact(
        &dir,
        &format!("{stem}.manifest.json"),
        &manifest.to_json_string(),
    )
    .expect("write run manifest");

    println!("{}", manifest.summary.render());
    println!(
        "sustained: {:.2} Gflops over {:.3} s makespan; {} spans on {} tracks",
        report.gflops,
        report.makespan_s,
        trace.len(),
        trace.ranks.len(),
    );
    println!("chrome trace: {}", trace_path.display());
    println!("run manifest: {}", manifest_path.display());
}
