//! End-to-end streaming tests: cost-model calibration accuracy, pinned
//! stream fingerprints, closed-batch compatibility, SLO shedding, and the
//! M/G/k validation of simulated utilization and wait times.
//!
//! The executor policy argument of `CostModel::calibrate` is not read, so
//! every call passes the default.

use mb_cluster::machine::Cluster;
use mb_cluster::spec::metablade;
use mb_cluster::Topology;
use mb_sched::stream::Arrival;
use mb_sched::{
    generate, simulate, simulate_stream, AdmitAll, ArrivalSource, EasyBackfill, FailureConfig,
    Fcfs, JobSpec, NpbKernel, Placement, SchedConfig, ServiceModel, ServiceOracle, VecArrivals,
    WorkModel, WorkloadConfig,
};
use mb_workload::{mgk, ArrivalVec, CostModel, JobMix, OpenArrivals, SloAdmission, TrafficPattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The documented calibration tolerance: the closed-form model must
/// price every calibrated `(pattern, width)` within 5 % of the
/// executor-measured step time (see DESIGN.md §15; measured worst case
/// is ~0.03 %, so the band is generous without being meaningless).
const CALIBRATION_REL_TOL: f64 = 0.05;

#[test]
fn cost_model_calibration_error_is_bounded() {
    let mut cost = CostModel::new(metablade());
    let report = cost.calibrate(&JobMix::standard(24).patterns(), Default::default());
    assert!(!report.samples.is_empty());
    let (max_err, mean_err) = (report.max_rel_error(), report.mean_rel_error());
    println!("calibration: max rel err {max_err:.4}, mean {mean_err:.4}");
    assert!(
        max_err < CALIBRATION_REL_TOL,
        "worst calibrated step off by {:.1}% (tolerance {:.0}%)",
        max_err * 100.0,
        CALIBRATION_REL_TOL * 100.0
    );
}

#[test]
fn streamed_fingerprints_are_executor_invariant() {
    // The fingerprints every executor policy produced on 470c8b1, when
    // the job step still ran thread-per-rank; the step body's own
    // invariance is checked in `tests/determinism.rs`.
    //
    // ServiceModel-backed: the oracle runs the step on the cluster.
    let cluster = Cluster::new(metablade());
    let service = ServiceModel::new(&cluster);
    let mut src = OpenArrivals::new(
        TrafficPattern::Poisson { rate_per_s: 0.01 },
        JobMix::standard(24),
        300,
        21,
    );
    let mut adm = SloAdmission::standard(24);
    let rep = simulate_stream(&service, &Fcfs, &mut src, &mut adm, &SchedConfig::default());
    assert_eq!(rep.stream_fingerprint_hex(), "6f807a06233dbf65");

    // CostModel-backed: calibration is the only contact with the cluster.
    let mut cost = CostModel::new(metablade());
    cost.calibrate(&JobMix::standard(24).patterns(), Default::default());
    let mut src = OpenArrivals::new(
        TrafficPattern::Bursty {
            on_rate_per_s: 0.1,
            off_rate_per_s: 0.002,
            mean_on_s: 600.0,
            mean_off_s: 1800.0,
        },
        JobMix::standard(24),
        2_000,
        22,
    );
    let mut adm = SloAdmission::standard(24);
    let rep = simulate_stream(&cost, &Fcfs, &mut src, &mut adm, &SchedConfig::default());
    assert_eq!(rep.stream_fingerprint_hex(), "2c8644ecc4191b04");
}

#[test]
fn closed_batch_compatibility_via_class_preserving_source() {
    // A class-0 ArrivalVec behind AdmitAll must reproduce the batch
    // entry point bit for bit — same records, same fingerprint.
    let jobs = generate(&WorkloadConfig {
        jobs: 120,
        seed: 5,
        mean_interarrival_s: 200.0,
        max_ranks: 16,
    });
    let mut cost = CostModel::new(metablade());
    cost.calibrate(&JobMix::standard(24).patterns(), Default::default());
    let cfg = SchedConfig::default();

    let batch = simulate(&cost, &Fcfs, &jobs, &cfg);

    let arrivals: Vec<Arrival> = jobs
        .iter()
        .map(|&spec| Arrival { spec, class: 0 })
        .collect();
    let mut src = ArrivalVec::new(arrivals);
    let mut adm = AdmitAll;
    let streamed = simulate_stream(&cost, &Fcfs, &mut src, &mut adm, &cfg);

    assert_eq!(streamed.sim.fingerprint, batch.fingerprint);
    assert_eq!(
        streamed.sim.makespan_s.to_bits(),
        batch.makespan_s.to_bits()
    );
    assert_eq!(streamed.offered, jobs.len() as u64);
    assert_eq!(streamed.shed, 0);

    // And VecArrivals (the engine's own compat source) agrees too.
    let mut vec_src = VecArrivals::new(&jobs);
    let mut adm2 = AdmitAll;
    let vec_streamed = simulate_stream(&cost, &Fcfs, &mut vec_src, &mut adm2, &cfg);
    assert_eq!(vec_streamed.stream_fingerprint, streamed.stream_fingerprint);
}

#[test]
fn slo_admission_sheds_under_overload_and_prioritizes_latency() {
    // Offered load far above capacity: queues hit their limits and the
    // excess is shed; the latency class must still see shorter waits
    // than the scavenger class.
    let mut cost = CostModel::new(metablade());
    cost.calibrate(&JobMix::standard(24).patterns(), Default::default());
    let mut src = OpenArrivals::new(
        TrafficPattern::Poisson { rate_per_s: 0.5 },
        JobMix::standard(24),
        6_000,
        3,
    );
    let mut adm = SloAdmission::standard(24);
    let cfg = SchedConfig {
        lean: true,
        ..SchedConfig::default()
    };
    let rep = simulate_stream(&cost, &Fcfs, &mut src, &mut adm, &cfg);

    assert_eq!(rep.offered, 6_000);
    assert!(rep.shed > 0, "overload must shed");
    let total: u64 = rep.classes.iter().map(|c| c.offered).sum();
    assert_eq!(total, rep.offered);
    // Offered is counted under the *requested* class, admitted under
    // the *granted* one, so globally admitted + shed = offered — and
    // class 0 (which never demotes in or out) balances on its own.
    let admitted: u64 = rep.classes.iter().map(|c| c.admitted).sum();
    let shed: u64 = rep.classes.iter().map(|c| c.shed).sum();
    assert_eq!(admitted + shed, rep.offered);
    assert_eq!(shed, rep.shed);
    let latency = &rep.classes[0];
    assert_eq!(latency.offered, latency.admitted + latency.shed);
    // Overflowing batch traffic demoted into scavenger: the scavenger
    // class admitted more jobs than were ever offered to it.
    assert!(
        rep.classes[2].admitted + rep.classes[2].shed > rep.classes[2].offered,
        "expected batch->scavenger demotion under overload"
    );
    let scavenger = &rep.classes[2];
    assert!(latency.completed > 0 && scavenger.completed > 0);
    assert!(
        latency.wait_hist.p50() < scavenger.wait_hist.p50(),
        "latency p50 {} vs scavenger p50 {}",
        latency.wait_hist.p50(),
        scavenger.wait_hist.p50()
    );
}

/// The documented M/G/k validation tolerances (EXPERIMENTS.md): fleet
/// utilization within 0.05 absolute, mean queue wait within 25 % of
/// the Allen–Cunneen approximation at moderate load.
const MGK_RHO_ABS_TOL: f64 = 0.05;
const MGK_WQ_REL_TOL: f64 = 0.25;

#[test]
fn mgk_validation_at_moderate_load() {
    // Fixed-width deterministic jobs on 24 nodes = an M/D/6 queue.
    let width = 4;
    let spec = metablade();
    let k = spec.nodes / width;
    let mut cost = CostModel::new(spec.clone());
    cost.calibrate(&JobMix::standard(24).patterns(), Default::default());
    let work = WorkModel::Npb {
        kernel: NpbKernel::Ep,
        iters: 60,
    };
    let service_s = cost.work_s(&work, width);
    let rho = 0.70;
    let lambda = rho * k as f64 / service_s;

    // Poisson arrivals of identical jobs.
    let mut rng = StdRng::seed_from_u64(99);
    let mut t = 0.0;
    let n = 8_000;
    let arrivals: Vec<Arrival> = (0..n)
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
    let cfg = SchedConfig {
        lean: true,
        ..SchedConfig::default()
    };
    let rep = simulate_stream(&cost, &Fcfs, &mut src, &mut adm, &cfg);
    assert_eq!(rep.sim.jobs.len(), n);

    let predicted = mgk::predict(lambda, service_s, 0.0, k);
    let sim_wq = rep.sim.jobs.iter().map(|j| j.wait_s()).sum::<f64>() / n as f64;
    println!(
        "M/D/{k}: rho predicted {:.3} simulated {:.3}; Wq predicted {:.2}s simulated {:.2}s \
         (rel err {:.3})",
        predicted.rho,
        rep.sim.utilization,
        predicted.wq_s,
        sim_wq,
        (sim_wq - predicted.wq_s).abs() / predicted.wq_s
    );
    assert!(
        (rep.sim.utilization - predicted.rho).abs() < MGK_RHO_ABS_TOL,
        "utilization {:.3} vs offered load {:.3}",
        rep.sim.utilization,
        predicted.rho
    );
    assert!(
        (sim_wq - predicted.wq_s).abs() / predicted.wq_s < MGK_WQ_REL_TOL,
        "mean wait {sim_wq:.2}s vs Allen-Cunneen {:.2}s",
        predicted.wq_s
    );
}

#[test]
fn mgk_validation_at_low_load_sees_little_queueing() {
    let width = 4;
    let spec = metablade();
    let k = spec.nodes / width;
    let mut cost = CostModel::new(spec.clone());
    cost.calibrate(&JobMix::standard(24).patterns(), Default::default());
    let work = WorkModel::Npb {
        kernel: NpbKernel::Ep,
        iters: 60,
    };
    let service_s = cost.work_s(&work, width);
    let rho = 0.30;
    let lambda = rho * k as f64 / service_s;
    let mut rng = StdRng::seed_from_u64(17);
    let mut t = 0.0;
    let n = 4_000;
    let arrivals: Vec<Arrival> = (0..n)
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
    let cfg = SchedConfig {
        lean: true,
        ..SchedConfig::default()
    };
    let rep = simulate_stream(&cost, &Fcfs, &mut src, &mut adm, &cfg);
    let predicted = mgk::predict(lambda, service_s, 0.0, k);
    assert!(
        (rep.sim.utilization - predicted.rho).abs() < MGK_RHO_ABS_TOL,
        "utilization {:.3} vs offered load {:.3}",
        rep.sim.utilization,
        predicted.rho
    );
    // At ρ = 0.3 with 6 servers, waits are rare and tiny against
    // service: the simulated mean wait must be under 2 % of E[S]
    // (Erlang-C predicts ≪ 1 %).
    let sim_wq = rep.sim.jobs.iter().map(|j| j.wait_s()).sum::<f64>() / n as f64;
    println!(
        "M/D/{k} low load: Wq predicted {:.3}s simulated {:.3}s",
        predicted.wq_s, sim_wq
    );
    assert!(
        sim_wq < 0.02 * service_s,
        "low-load wait {sim_wq:.3}s too large"
    );
}

#[test]
fn lean_mode_does_not_change_the_stream_fingerprint() {
    let mut cost = CostModel::new(metablade());
    cost.calibrate(&JobMix::standard(24).patterns(), Default::default());
    let run = |lean: bool| {
        let mut src = OpenArrivals::new(
            TrafficPattern::Poisson { rate_per_s: 0.02 },
            JobMix::standard(24),
            500,
            33,
        );
        let mut adm = SloAdmission::standard(24);
        let cfg = SchedConfig {
            lean,
            ..SchedConfig::default()
        };
        simulate_stream(&cost, &Fcfs, &mut src, &mut adm, &cfg).stream_fingerprint
    };
    assert_eq!(run(false), run(true));
}

/// The contended multi-class path in one run — three SLO classes, EASY
/// backfill, node failures with requeues, contention-aware placement
/// and route spreading on the 64-node fat-tree — which no committed
/// `BENCH_*.json` covers. The literals were recorded on the parent of
/// the PR that introduced `WaitQueue`; a change here is a changed
/// simulated outcome.
#[test]
fn contended_three_class_easy_stream_with_failures_is_pinned() {
    let spec = metablade()
        .with_nodes(64)
        .with_topology(Topology::fat_tree(16, 2, 4.0));
    let mix = JobMix::standard(spec.nodes);
    let mut cost = CostModel::new(spec.clone());
    cost.calibrate(&mix.patterns(), Default::default());
    // Mean node-seconds per job over a fixed sample: the ρ = 0.8 rate.
    let mut sample = OpenArrivals::new(TrafficPattern::Poisson { rate_per_s: 1.0 }, mix, 500, 1234);
    let mut demand = 0.0;
    while let Some(a) = sample.next_arrival() {
        demand += a.spec.ranks as f64 * cost.work_s(&a.spec.work, a.spec.ranks);
    }
    let rate_per_s = 0.8 * spec.nodes as f64 / (demand / 500.0);
    let mut src = OpenArrivals::new(TrafficPattern::Poisson { rate_per_s }, mix, 2_000, 2002);
    let mut adm = SloAdmission::standard(spec.nodes);
    let cfg = SchedConfig {
        lean: true,
        placement: Placement::ContentionAware,
        route_spread: true,
        failure: Some(FailureConfig::accelerated(400.0, 2002)),
        ..SchedConfig::default()
    };
    let rep = simulate_stream(&cost, &EasyBackfill, &mut src, &mut adm, &cfg);
    let per_class: Vec<[u64; 4]> = rep
        .classes
        .iter()
        .map(|c| [c.offered, c.admitted, c.shed, c.completed])
        .collect();
    assert_eq!(rep.stream_fingerprint_hex(), "2897f0c41b00625b");
    assert_eq!(rep.sim.fingerprint_hex(), "4031eadcb3e784c2");
    assert_eq!(rep.sim.requeues, 2, "failures must strike running jobs");
    assert_eq!(
        per_class,
        [
            [251, 251, 0, 251],
            [1334, 1334, 0, 1334],
            [415, 415, 0, 415]
        ]
    );
}
