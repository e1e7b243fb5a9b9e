//! The streaming suite of `metablade pins` ([`suite`]): drive
//! open-arrival job traffic at user scale through the streaming
//! scheduler on the 24-node MetaBlade.
//!
//! The run calibrates the closed-form [`CostModel`] once against
//! executor-measured step times (stackless runs, the same under every
//! executor policy, whose invariance is checked on the step body in
//! `tests/determinism.rs`), verifies closed-batch compatibility (the
//! degenerate single-class stream reproduces `simulate` bit for bit),
//! then pushes Poisson, diurnal
//! and bursty arrival streams — 10⁵ jobs at smoke size, 10⁶ at full
//! size — through the event loop under SLO admission control,
//! validates the Poisson scenario against the Allen–Cunneen M/G/k
//! approximation, and returns `BENCH_stream.json`
//! (`BENCH_stream_smoke.json` at smoke size; schema
//! `metablade-stream/2`) plus per-class wait/slowdown histogram
//! artifacts.

use mb_cluster::spec::metablade;
use mb_sched::stream::Arrival;
use mb_sched::{
    generate, simulate, simulate_stream, AdmitAll, Fcfs, JobSpec, SchedConfig, ServiceOracle,
    VecArrivals, WorkloadConfig,
};
use mb_telemetry::artifact::Pins;
use mb_telemetry::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    histogram_artifact, mgk, scenario_section, ArrivalVec, CostModel, JobMix, MgkComparison,
    OpenArrivals, SloAdmission, TrafficPattern, STREAM_SCHEMA,
};

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
    offered: u64,
}

/// Run one open-arrival scenario end to end.
fn run_scenario(
    name: &'static str,
    cost: &CostModel,
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
    let mut src = OpenArrivals::new(pattern, mix, jobs, seed);
    let mut adm = SloAdmission::standard(nodes);
    let rep = simulate_stream(cost, &Fcfs, &mut src, &mut adm, &cfg);
    let section = scenario_section(
        name,
        pattern.label(),
        "fcfs",
        &metablade().network.topology.label(),
        nodes,
        &rep,
        mgk_cmp,
    );
    let hist = histogram_artifact(name, &rep);
    ScenarioOutcome {
        section,
        hist,
        name,
        offered: rep.offered,
    }
}

/// The M/G/k validation scenario: fixed-width deterministic jobs under
/// Poisson arrivals are an M/D/k queue; compare simulated utilization
/// and mean wait against Allen–Cunneen. Tolerances as documented in
/// EXPERIMENTS.md (ρ within 0.05 absolute, mean wait within 25 %).
fn run_mgk_scenario(cost: &CostModel, jobs: usize) -> ScenarioOutcome {
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
    let rep = simulate_stream(cost, &Fcfs, &mut src, &mut adm, &cfg);

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
        Some(cmp),
    );
    let hist = histogram_artifact("poisson_mgk", &rep);
    ScenarioOutcome {
        section,
        hist,
        name: "poisson_mgk",
        offered: rep.offered,
    }
}

/// The streaming suite of `metablade pins`: `BENCH_stream.json`
/// (~1.4×10⁶ offered jobs), or `BENCH_stream_smoke.json` (~1.4×10⁵) at
/// smoke size, plus one `stream_hist_<scenario>.json` per scenario.
pub fn suite(smoke: bool) -> Pins {
    let scale = if smoke { 1 } else { 10 };

    let mut cost = CostModel::new(metablade());
    cost.calibrate(
        &JobMix::standard(metablade().nodes).patterns(),
        Default::default(),
    );
    check_closed_batch_compat(&cost);

    // Offered-load knob: λ for a target utilization given the mix's
    // mean node-seconds demand.
    let demand = mean_demand_node_s(&cost, &JobMix::standard(metablade().nodes));
    let nodes = metablade().nodes as f64;
    let lambda_for = |rho: f64| rho * nodes / demand;

    let mut outcomes = vec![
        // The headline scale scenario: a steady open stream at 80 %
        // offered load.
        run_scenario(
            "poisson_open",
            &cost,
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
    outcomes.push(run_mgk_scenario(&cost, 8_000 * scale));

    let offered_total: u64 = outcomes.iter().map(|o| o.offered).sum();
    assert!(
        offered_total >= 100_000,
        "the stream suite must push at least 1e5 jobs through the event loop, got {offered_total}"
    );

    let doc = Json::obj([
        ("schema", Json::str(STREAM_SCHEMA)),
        ("smoke", Json::Bool(smoke)),
        (
            "scenarios",
            Json::Arr(outcomes.iter().map(|o| o.section.clone()).collect()),
        ),
    ]);
    let name = if smoke {
        "BENCH_stream_smoke.json"
    } else {
        "BENCH_stream.json"
    };
    Pins {
        docs: vec![(name, doc)],
        artifacts: outcomes
            .iter()
            .map(|o| (format!("stream_hist_{}.json", o.name), o.hist.to_string()))
            .collect(),
    }
}
