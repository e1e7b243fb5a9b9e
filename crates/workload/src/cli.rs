//! The `stream_sim` driver: drive open-arrival job traffic at user
//! scale through the streaming scheduler on the 24-node MetaBlade.
//! `src/bin/stream_sim.rs` only calls in.
//!
//! The run calibrates the closed-form [`CostModel`] against
//! executor-measured step times (asserting the fitted coefficients are
//! bit-identical under `MB_PARALLEL` widths 1/4/8), verifies
//! closed-batch compatibility (the degenerate single-class stream
//! reproduces `simulate` bit for bit), then pushes Poisson, diurnal
//! and bursty arrival streams — 10⁵ jobs in the `--smoke` CI run, 10⁶
//! in the full run — through the event loop under SLO admission
//! control, validates the Poisson scenario against the Allen–Cunneen
//! M/G/k approximation, and writes `BENCH_stream.json`
//! (`BENCH_stream_smoke.json` under `--smoke`; schema
//! `metablade-stream/2`) plus per-class wait/slowdown histogram
//! artifacts into the artifact directory (`$MB_TELEMETRY_DIR`, default
//! `./traces`).

use mb_cluster::spec::metablade;
use mb_cluster::ExecPolicy;
use mb_sched::stream::Arrival;
use mb_sched::{
    generate, simulate, simulate_stream, AdmitAll, Fcfs, JobSpec, SchedConfig, ServiceOracle,
    StreamReport, VecArrivals, WorkloadConfig,
};
use mb_telemetry::artifact::{artifact_dir, write_artifact};
use mb_telemetry::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    histogram_artifact, mgk, scenario_section, ArrivalVec, CostModel, JobMix, MgkComparison,
    OpenArrivals, SloAdmission, TrafficPattern, STREAM_SCHEMA,
};

const USAGE: &str = "\
stream_sim: streaming open-arrival traffic on the simulated MetaBlade

USAGE:
    stream_sim [--smoke] [--help]

OPTIONS:
    --smoke     CI-sized run: ~1.4x10^5 offered jobs across the Poisson,
                diurnal, bursty and M/G/k scenarios; writes
                BENCH_stream_smoke.json
    -h, --help  Print this help and exit

Without --smoke the full run offers ~1.4x10^6 jobs and writes
BENCH_stream.json. Both runs calibrate the closed-form cost model
against executor-measured step times, check closed-batch
compatibility, and verify every stream fingerprint is bit-identical
under MB_PARALLEL executor widths 1/4/8. Documents land in the
artifact directory ($MB_TELEMETRY_DIR, default ./traces) together
with per-class wait/slowdown histogram artifacts.";

const EXECS: [ExecPolicy; 3] = [
    ExecPolicy::Sequential,
    ExecPolicy::Parallel { workers: 4 },
    ExecPolicy::Parallel { workers: 8 },
];

/// Calibrate one cost model per executor policy and prove the fitted
/// coefficients are bit-identical; returns the reference model.
fn calibrated_model() -> CostModel {
    let patterns = JobMix::standard(metablade().nodes).patterns();
    let mut reference: Option<CostModel> = None;
    let mut ref_fp = 0u64;
    for &exec in &EXECS {
        let mut model = CostModel::new(metablade());
        let report = model.calibrate(&patterns, exec);
        let fp = model.coefficient_fingerprint();
        match &reference {
            None => {
                println!(
                    "calibrated {} step patterns under {exec:?}: max rel err {:.5}, \
                     coeff fingerprint {fp:016x}",
                    patterns.len(),
                    report.max_rel_error()
                );
                ref_fp = fp;
                reference = Some(model);
            }
            Some(_) => {
                assert_eq!(
                    fp, ref_fp,
                    "calibration coefficients diverged under {exec:?}"
                );
            }
        }
    }
    reference.expect("at least one executor")
}

/// Closed-batch compatibility: the degenerate single-class stream must
/// reproduce `simulate` bit for bit on the same oracle.
fn check_closed_batch_compat(cost: &CostModel) {
    let jobs = generate(&WorkloadConfig {
        jobs: 120,
        seed: 5,
        mean_interarrival_s: 200.0,
        max_ranks: 16,
    });
    let cfg = SchedConfig::default();
    let batch = simulate(cost, &Fcfs, &jobs, &cfg);
    let mut src = VecArrivals::new(&jobs);
    let mut adm = AdmitAll;
    let streamed = simulate_stream(cost, &Fcfs, &mut src, &mut adm, &cfg);
    assert_eq!(
        streamed.sim.fingerprint, batch.fingerprint,
        "closed-batch compatibility broken"
    );
    println!(
        "closed-batch compat OK: stream reproduces simulate() fingerprint {:016x}",
        batch.fingerprint
    );
}

/// Mean node-seconds one JobMix job demands, estimated from a seeded
/// sample priced by the cost model — the offered-load knob.
fn mean_demand_node_s(cost: &CostModel, mix: &JobMix) -> f64 {
    let mut rng = StdRng::seed_from_u64(1234);
    let n = 2_000;
    let total: f64 = (0..n)
        .map(|i| {
            let a = mix.draw(&mut rng, i, 0.0);
            a.spec.ranks as f64 * cost.work_s(&a.spec.work, a.spec.ranks)
        })
        .sum();
    total / n as f64
}

struct ScenarioOutcome {
    section: Json,
    hist: Json,
    name: &'static str,
    report: StreamReport,
}

/// Run one open-arrival scenario end to end, including the executor-
/// invariance witness: the same stream priced by a model calibrated
/// under Parallel{8} must fingerprint identically.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    name: &'static str,
    cost: &CostModel,
    cost_alt: &CostModel,
    pattern: TrafficPattern,
    jobs: usize,
    seed: u64,
    mgk_cmp: Option<MgkComparison>,
) -> ScenarioOutcome {
    let nodes = metablade().nodes;
    let mix = JobMix::standard(nodes);
    let cfg = SchedConfig {
        lean: true,
        ..SchedConfig::default()
    };
    let run = |model: &CostModel| {
        let mut src = OpenArrivals::new(pattern, mix, jobs, seed);
        let mut adm = SloAdmission::standard(nodes);
        simulate_stream(model, &Fcfs, &mut src, &mut adm, &cfg)
    };
    let rep = run(cost);
    let alt = run(cost_alt);
    let invariant = alt.stream_fingerprint == rep.stream_fingerprint;
    assert!(
        invariant,
        "{name}: stream fingerprint diverged across executor calibrations"
    );
    println!(
        "{name}: offered {} shed {} completed {} makespan {:.0}s util {:.3} fp {}",
        rep.offered,
        rep.shed,
        rep.sim.jobs.len(),
        rep.sim.makespan_s,
        rep.sim.utilization,
        rep.stream_fingerprint_hex(),
    );
    for c in &rep.classes {
        println!(
            "    {:<10} offered {:>8} admitted {:>8} shed {:>7} wait_p50 {:>8.1}s \
             wait_p99 {:>9.1}s slowdown_p99 {:>7.2}",
            c.label,
            c.offered,
            c.admitted,
            c.shed,
            if c.wait_hist.is_empty() {
                0.0
            } else {
                c.wait_hist.p50()
            },
            if c.wait_hist.is_empty() {
                0.0
            } else {
                c.wait_hist.p99()
            },
            if c.slowdown_hist.is_empty() {
                0.0
            } else {
                c.slowdown_hist.p99()
            },
        );
    }
    let section = scenario_section(
        name,
        pattern.label(),
        "fcfs",
        &metablade().network.topology.label(),
        nodes,
        &rep,
        invariant,
        mgk_cmp,
    );
    let hist = histogram_artifact(name, &rep);
    ScenarioOutcome {
        section,
        hist,
        name,
        report: rep,
    }
}

/// The M/G/k validation scenario: fixed-width deterministic jobs under
/// Poisson arrivals are an M/D/k queue; compare simulated utilization
/// and mean wait against Allen–Cunneen. Tolerances as documented in
/// EXPERIMENTS.md (ρ within 0.05 absolute, mean wait within 25 %).
fn run_mgk_scenario(cost: &CostModel, cost_alt: &CostModel, jobs: usize) -> ScenarioOutcome {
    let spec = metablade();
    let width = 4;
    let k = spec.nodes / width;
    let work = mb_sched::WorkModel::Npb {
        kernel: mb_sched::NpbKernel::Ep,
        iters: 60,
    };
    let service_s = cost.work_s(&work, width);
    let rho = 0.70;
    let lambda = rho * k as f64 / service_s;
    let cfg = SchedConfig {
        lean: true,
        ..SchedConfig::default()
    };
    let run = |model: &CostModel| {
        let mut rng = StdRng::seed_from_u64(99);
        let mut t = 0.0;
        let arrivals: Vec<Arrival> = (0..jobs)
            .map(|id| {
                let u: f64 = rng.random::<f64>().max(1e-300);
                t += -u.ln() / lambda;
                Arrival {
                    spec: JobSpec {
                        id,
                        submit_s: t,
                        ranks: width,
                        work,
                    },
                    class: 0,
                }
            })
            .collect();
        let mut src = ArrivalVec::new(arrivals);
        let mut adm = AdmitAll;
        simulate_stream(model, &Fcfs, &mut src, &mut adm, &cfg)
    };
    let rep = run(cost);
    assert_eq!(
        run(cost_alt).stream_fingerprint,
        rep.stream_fingerprint,
        "mgk scenario fingerprint diverged across executor calibrations"
    );

    let predicted = mgk::predict(lambda, service_s, 0.0, k);
    let sim_wq = rep.sim.jobs.iter().map(|j| j.wait_s()).sum::<f64>() / jobs as f64;
    let cmp = MgkComparison {
        k,
        lambda,
        service_s,
        cs2: 0.0,
        predicted,
        simulated_rho: rep.sim.utilization,
        simulated_wq_s: sim_wq,
    };
    println!(
        "poisson_mgk: M/D/{k} rho predicted {:.3} simulated {:.3}; \
         Wq predicted {:.2}s simulated {:.2}s (rel err {:.3})",
        predicted.rho,
        cmp.simulated_rho,
        predicted.wq_s,
        sim_wq,
        cmp.wq_rel_error()
    );
    assert!(
        cmp.rho_abs_error() < 0.05,
        "utilization {:.3} strayed from offered load {:.3}",
        cmp.simulated_rho,
        predicted.rho
    );
    assert!(
        cmp.wq_rel_error() < 0.25,
        "mean wait {sim_wq:.2}s vs Allen-Cunneen {:.2}s exceeds tolerance",
        predicted.wq_s
    );

    let section = scenario_section(
        "poisson_mgk",
        "poisson",
        "fcfs",
        &spec.network.topology.label(),
        spec.nodes,
        &rep,
        true,
        Some(cmp),
    );
    let hist = histogram_artifact("poisson_mgk", &rep);
    ScenarioOutcome {
        section,
        hist,
        name: "poisson_mgk",
        report: rep,
    }
}

fn run_all(smoke: bool) {
    let scale = if smoke { 1 } else { 10 };
    println!(
        "stream_sim ({} run): MetaBlade {} nodes, streaming traffic at user scale",
        if smoke { "smoke" } else { "full" },
        metablade().nodes
    );

    let cost = calibrated_model();
    // A second model calibrated under the widest executor: the
    // invariance witness every scenario re-runs against.
    let mut cost_alt = CostModel::new(metablade());
    cost_alt.calibrate(
        &JobMix::standard(metablade().nodes).patterns(),
        ExecPolicy::Parallel { workers: 8 },
    );
    check_closed_batch_compat(&cost);

    // Offered-load knob: λ for a target utilization given the mix's
    // mean node-seconds demand.
    let demand = mean_demand_node_s(&cost, &JobMix::standard(metablade().nodes));
    let nodes = metablade().nodes as f64;
    let lambda_for = |rho: f64| rho * nodes / demand;
    println!(
        "job mix demands {demand:.0} node-seconds/job on average \
         (rho 0.8 at {:.4} jobs/s)",
        lambda_for(0.8)
    );

    let mut outcomes = vec![
        // The headline scale scenario: a steady open stream at 80 %
        // offered load.
        run_scenario(
            "poisson_open",
            &cost,
            &cost_alt,
            TrafficPattern::Poisson {
                rate_per_s: lambda_for(0.8),
            },
            100_000 * scale,
            424_242,
            None,
        ),
        // A day/night cycle whose peak oversubscribes the machine —
        // admission sheds at the crest, drains in the trough.
        run_scenario(
            "diurnal_daily",
            &cost,
            &cost_alt,
            TrafficPattern::Diurnal {
                base_rate_per_s: lambda_for(0.3),
                peak_rate_per_s: lambda_for(1.4),
                period_s: 86_400.0,
            },
            20_000 * scale,
            7_777,
            None,
        ),
        // Markov-modulated bursts: long quiet stretches, violent on
        // periods far above capacity.
        run_scenario(
            "bursty_onoff",
            &cost,
            &cost_alt,
            TrafficPattern::Bursty {
                on_rate_per_s: lambda_for(3.0),
                off_rate_per_s: lambda_for(0.1),
                mean_on_s: 1_800.0,
                mean_off_s: 7_200.0,
            },
            20_000 * scale,
            1_337,
            None,
        ),
    ];
    outcomes.push(run_mgk_scenario(&cost, &cost_alt, 8_000 * scale));

    let offered_total: u64 = outcomes.iter().map(|o| o.report.offered).sum();
    assert!(
        offered_total >= 100_000,
        "stream_sim must push at least 1e5 jobs through the event loop, got {offered_total}"
    );
    println!(
        "\ntotal offered {offered_total} jobs; cost-model memo: {} priced steps, \
         {} hits / {} misses",
        cost.memo_len(),
        cost.memo_hits(),
        cost.memo_misses()
    );

    let doc = Json::obj([
        ("schema", Json::str(STREAM_SCHEMA)),
        ("smoke", Json::Bool(smoke)),
        (
            "scenarios",
            Json::Arr(outcomes.iter().map(|o| o.section.clone()).collect()),
        ),
    ]);
    let dir = artifact_dir();
    let bench_name = if smoke {
        "BENCH_stream_smoke.json"
    } else {
        "BENCH_stream.json"
    };
    match write_artifact(&dir, bench_name, &doc.to_string()) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write {bench_name}: {e}"),
    }
    for o in &outcomes {
        let name = format!("stream_hist_{}.json", o.name);
        match write_artifact(&dir, &name, &o.hist.to_string()) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("failed to write {name}: {e}"),
        }
    }
    println!(
        "\n{} OK: calibration executor-invariant, closed-batch compatible, \
         stream fingerprints bit-identical across executor calibrations",
        if smoke { "smoke" } else { "full run" }
    );
}

/// Entry point of `crates/workload/src/bin/stream_sim.rs`: parse argv,
/// run the smoke or full scenario suite.
pub fn stream_main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("stream_sim: unknown argument '{other}'\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    run_all(smoke);
}
