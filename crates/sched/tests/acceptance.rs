//! The scheduler's acceptance criteria, executed: the standard seeded 200-job
//! workload on a 24-node MetaBlade under all three policies, with
//! failure injection, must (a) reproduce the fingerprints every executor
//! policy produced on 470c8b1, when the job step still ran
//! thread-per-rank (the step body's own invariance is checked in
//! `tests/determinism.rs`), and (b) give EASY backfill strictly higher
//! utilization than FCFS.

use mb_cluster::Cluster;
use mb_sched::{
    simulate, workload, EasyBackfill, FailureConfig, Fcfs, SchedConfig, SchedPolicy, ServiceModel,
    Sjf,
};

#[test]
fn standard_workload_is_deterministic_and_easy_beats_fcfs() {
    let jobs = workload::generate(&workload::standard());
    assert_eq!(jobs.len(), 200);
    let cfg = SchedConfig {
        failure: Some(FailureConfig::accelerated(400.0, 2002)),
        ..SchedConfig::default()
    };
    let pinned: [(&dyn SchedPolicy, &str); 3] = [
        (&Fcfs, "b52535aacb4e2904"),
        (&EasyBackfill, "083abd4cc0dd4f58"),
        (&Sjf, "3bd405e2afaee4f8"),
    ];

    let cluster = Cluster::new(mb_cluster::spec::metablade());
    let service = ServiceModel::new(&cluster);
    let mut utils = [0.0f64; 3];
    for (util, (policy, fingerprint)) in utils.iter_mut().zip(pinned) {
        let rep = simulate(&service, policy, &jobs, &cfg);
        assert_eq!(rep.jobs.len(), 200, "{} lost jobs", policy.name());
        assert_eq!(
            rep.fingerprint_hex(),
            fingerprint,
            "'{}' fingerprint moved",
            policy.name()
        );
        *util = rep.utilization;
    }

    let (fcfs_util, easy_util) = (utils[0], utils[1]);
    assert!(
        easy_util > fcfs_util,
        "EASY backfill must strictly beat FCFS utilization: easy={easy_util} fcfs={fcfs_util}"
    );
}
