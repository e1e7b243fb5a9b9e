//! Cross-crate integration tests: the full pipelines behind the paper's
//! artifacts, exercised end-to-end through the public API.

use metablade::cluster::machine::Cluster;
use metablade::cluster::spec::{metablade, metablade2};
use metablade::crusoe::cms::{Cms, CmsConfig};
use metablade::crusoe::hardware::hardware_catalog;
use metablade::crusoe::kernels::{build_microkernel, MicrokernelVariant};
use metablade::microkernel::{accel_kernel, MicrokernelInput, RsqrtMethod};
use metablade::treecode::parallel::{distributed_step, DistributedConfig};
use metablade::treecode::plummer;

/// The Table 1 pipeline: one algorithm, four execution substrates
/// (native Rust, CMS-simulated Crusoe, simulated hardware CPUs), one
/// answer.
#[test]
fn microkernel_agrees_across_every_substrate() {
    let n = 32;
    let sweeps = 4;
    let input = MicrokernelInput::generate(n);
    let native = accel_kernel(&input, sweeps, RsqrtMethod::KarpSqrt).accel;

    let mk = build_microkernel(MicrokernelVariant::KarpSqrt, n, sweeps);
    // CMS.
    let mut cms = Cms::new(CmsConfig::metablade());
    let mut st = mk.setup_state(&input);
    cms.run(&mk.program, &mut st).expect("cms run");
    let cms_accel = mk.read_accel(&st);
    // Every hardware model.
    let mut all = vec![("cms", cms_accel)];
    for cpu in hardware_catalog() {
        let mut st = mk.setup_state(&input);
        cpu.run(&mk.program, &mut st).expect("hw run");
        all.push((cpu.params.name, mk.read_accel(&st)));
    }
    for (name, accel) in all {
        for d in 0..3 {
            let denom = native[d].abs().max(1.0);
            assert!(
                ((accel[d] - native[d]) / denom).abs() < 1e-12,
                "{name} axis {d}: {} vs native {}",
                accel[d],
                native[d]
            );
        }
    }
}

/// The §3.3 pipeline: treecode on the simulated cluster produces physical
/// forces and plausible machine-level numbers.
#[test]
fn cluster_run_is_physical_and_within_peak() {
    let bodies = plummer(5_000, 3);
    let cluster = Cluster::new(metablade());
    let report = distributed_step(&cluster, &bodies, &DistributedConfig::default());
    // Momentum conservation across the whole distributed computation.
    let mut f = [0.0; 3];
    for (a, &m) in report.acc.iter().zip(&bodies.mass) {
        for d in 0..3 {
            f[d] += m * a[d];
        }
    }
    // Multipole approximation breaks exact pairwise antisymmetry, so
    // momentum is conserved only to the MAC's accuracy level.
    for (d, fd) in f.iter().enumerate() {
        assert!(fd.abs() < 1e-4, "net force {d} = {fd}");
    }
    // Machine-level sanity.
    assert!(report.gflops > 0.0);
    assert!(report.gflops < cluster.spec().peak_gflops());
    assert!(report.makespan_s > 0.0);
}

/// MetaBlade2 (800-MHz TM5800 + CMS 4.3) beats MetaBlade on the same
/// workload — the paper's 3.3 vs 2.1 Gflops contrast.
#[test]
fn metablade2_outruns_metablade() {
    let bodies = plummer(8_000, 4);
    let cfg = DistributedConfig::default();
    let t1 = distributed_step(&Cluster::new(metablade()), &bodies, &cfg).makespan_s;
    let t2 = distributed_step(&Cluster::new(metablade2()), &bodies, &cfg).makespan_s;
    assert!(t2 < t1, "MetaBlade2 ({t2}s) should beat MetaBlade ({t1}s)");
    // Roughly the sustained-rate ratio (3.3/2.1 ≈ 1.57), diluted by
    // communication which does not speed up.
    let ratio = t1 / t2;
    assert!((1.1..1.6).contains(&ratio), "speedup ratio {ratio}");
}

/// The CMS-derived per-CPU rate and the cluster spec's sustained rate
/// tell one consistent story (the calibration the DESIGN doc promises).
#[test]
fn cms_microkernel_rate_brackets_the_cluster_spec_rate() {
    let mk = build_microkernel(MicrokernelVariant::KarpSqrt, 64, 24);
    let input = MicrokernelInput::generate(64);
    let mut cms = Cms::new(CmsConfig::metablade());
    let mut warm = mk.setup_state(&input);
    cms.run(&mk.program, &mut warm).unwrap();
    let mut st = mk.setup_state(&input);
    let stats = cms.run(&mk.program, &mut st).unwrap();
    let kernel_mflops = mk.useful_flops() as f64 / stats.seconds(633.0) / 1e6;
    let spec_mflops = metablade().node.cpu.sustained_mflops;
    // The cache-resident kernel runs faster than the full application
    // (tree walks, memory traffic), but within a small factor.
    assert!(
        kernel_mflops > spec_mflops && kernel_mflops < 4.0 * spec_mflops,
        "kernel {kernel_mflops} vs application {spec_mflops}"
    );
}

/// Run the complete Table 5 + Tables 6/7 economic pipeline and check the
/// paper's three headline ratios in one place.
#[test]
fn economics_pipeline_reproduces_headline_ratios() {
    use metablade::metrics::tco::CostConstants;
    use metablade::metrics::topper::{perf_power_gflop_per_kw, perf_space_mflop_per_ft2};
    let constants = CostConstants::default();
    let catalog = metablade::metrics::costs::cluster_cost_catalog();
    let blade_tco = catalog
        .iter()
        .find(|p| p.family.is_bladed())
        .unwrap()
        .inputs
        .evaluate(&constants)
        .total();
    let alpha_tco = catalog[0].inputs.evaluate(&constants).total();
    assert!((2.5..3.5).contains(&(alpha_tco / blade_tco)));

    let machines = metablade::core::experiments::table67_machines();
    let ps_ratio = perf_space_mflop_per_ft2(machines[1].gflops, machines[1].area_ft2)
        / perf_space_mflop_per_ft2(machines[0].gflops, machines[0].area_ft2);
    let pp_ratio = perf_power_gflop_per_kw(machines[1].gflops, machines[1].power_kw)
        / perf_power_gflop_per_kw(machines[0].gflops, machines[0].power_kw);
    assert!(
        (1.5..3.5).contains(&ps_ratio),
        "perf/space ratio {ps_ratio}"
    );
    assert!(
        (3.0..5.5).contains(&pp_ratio),
        "perf/power ratio {pp_ratio}"
    );
}

fn run_metablade(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_metablade"))
        .args(args)
        .output()
        .expect("spawn metablade")
}

/// The front end is the one regenerator: `table 4` prints the table and
/// the provenance trailer the deleted `table4` bin carried.
#[test]
fn metablade_table_prints_the_table_and_its_trailer() {
    let out = run_metablade(&["table", "4"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let table = metablade::core::report::render_table4(&metablade::core::experiments::table4());
    assert!(stdout.starts_with(&table), "{stdout}");
    assert!(
        stdout.contains("historical rows are the published records"),
        "{stdout}"
    );
}

/// Bad argv is a usage error — status 2, usage on stderr, nothing on
/// stdout — not a silent default, a silent success or a panic.
#[test]
fn metablade_rejects_bad_argv_with_usage_and_status_2() {
    for args in [
        &["bogus"][..],
        &["table", "9"],
        &["figure3", "abc"],
        // A size of zero is a usage error, not an assertion backtrace.
        &["table", "2", "0"],
        &["evolve", "0", "1"],
        &["figure3", "0"],
        &["trace", "100", "0"],
        // An unknown or missing study name, a bad `table all` size.
        &["ablation", "bogus"],
        &["extension"],
        &["table", "all", "x"],
        // `pins` takes no argument: no size, no flag.
        &["pins", "extra"],
        &["pins", "--smoke"],
    ] {
        let out = run_metablade(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: metablade"), "{args:?}: {stderr}");
    }
}

/// Every folded study runs through the front end at a small size and
/// starts with the header line its own binary used to print.
#[test]
fn metablade_studies_run_and_print_their_headers() {
    for (args, header) in [
        (
            &["ablation", "tcache"][..],
            "Ablation A1 — translation cache capacity (hot threshold = 24)\n",
        ),
        (
            &["ablation", "mac", "500"],
            "Ablation A2 — MAC sweep, N = 500 Plummer\n",
        ),
        (
            &["ablation", "network", "1000"],
            "Ablation A3 — network sweep, N = 1000, P = 24 (t1 = ",
        ),
        (
            &["ablation", "thermal"],
            "Ablation A4 — ambient temperature sweep (traditional P4 tower, 85 W node)\n",
        ),
        (
            &["extension", "checkpoint"],
            "30-day job under optimal (Young) checkpointing, 24 nodes\n",
        ),
        (
            &["extension", "green_destiny", "2000"],
            "Green Destiny: 240 nodes | peak ",
        ),
        (
            &["extension", "longrun", "1000"],
            "LongRun sweep — treecode force evaluation, N = 1000, 24 blades\n",
        ),
        (&["extension", "tm6000"], "Table 6. Performance-Space Ratio"),
        (&["claims"], "TCO: traditional mean $"),
    ] {
        let out = run_metablade(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(stdout.starts_with(header), "{args:?}: {stdout}");
    }
}

/// `table all` is tables 1–7 in order through the functions `table N`
/// calls: the deterministic tables appear verbatim, Tables 2 and 3 by
/// their headers at the requested size and class.
#[test]
fn metablade_table_all_prints_the_seven_tables_in_order() {
    use metablade::core::{experiments, report};
    use metablade::metrics::report::{render_table5, render_table6, render_table7};
    let out = run_metablade(&["table", "all", "2000", "S"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let machines = experiments::table67_machines();
    let mut rest = stdout.as_str();
    for part in [
        report::render_table1(&experiments::table1()),
        "Table 2. Scalability of an N-body Simulation".to_string(),
        "Table 3. Single Processor Performance (Mops) for Class S NPB 2.3 Benchmarks".to_string(),
        report::render_table4(&experiments::table4()),
        render_table5(&Default::default()),
        render_table6(&machines),
        render_table7(&machines),
    ] {
        let at = rest
            .find(&part)
            .unwrap_or_else(|| panic!("missing or out of order: {part}\nin: {stdout}"));
        rest = &rest[at + part.len()..];
    }
}

/// `trace` leaves a Chrome trace the validator accepts (one track per
/// rank) and a run manifest, both under `MB_TELEMETRY_DIR`.
#[test]
fn metablade_trace_writes_a_valid_chrome_trace_and_a_manifest() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("metablade_trace");
    let _ = std::fs::remove_dir_all(&dir);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_metablade"))
        .args(["trace", "2000", "8"])
        .env("MB_TELEMETRY_DIR", &dir)
        .output()
        .expect("spawn metablade");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout.starts_with("tracing one force evaluation: N = 2000, P = 8 ("),
        "{stdout}"
    );
    let written = |label: &str| {
        let path = stdout
            .lines()
            .find_map(|l| l.strip_prefix(label))
            .unwrap_or_else(|| panic!("no {label:?} line in: {stdout}"));
        assert!(std::path::Path::new(path).starts_with(&dir), "{path}");
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let summary = metablade::telemetry::chrome::validate(&written("chrome trace: "))
        .expect("a valid Chrome trace");
    assert_eq!(summary.tracks, (0..8).collect::<Vec<_>>());
    let manifest = metablade::telemetry::json::parse(&written("run manifest: "))
        .expect("the manifest is JSON");
    assert_eq!(manifest.get("ranks").and_then(|r| r.as_f64()), Some(8.0));
}

/// A pin that cannot be written ends `metablade pins` with a nonzero
/// status, the path and the OS error — here the first pin it writes,
/// `BENCH_cluster_smoke.json`, is a directory.
#[test]
fn metablade_pins_fails_when_a_pin_cannot_be_written() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("metablade_pins_unwritable");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("BENCH_cluster_smoke.json")).expect("scratch directory");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_metablade"))
        .arg("pins")
        .current_dir(&dir)
        .env("MB_TELEMETRY_DIR", dir.join("traces"))
        .output()
        .expect("spawn metablade");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write BENCH_cluster_smoke.json: ") && stderr.contains("os error"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
