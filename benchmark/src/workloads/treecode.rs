//! `treecode_evolve24` — the paper's headline experiment (§3.3, Table 2,
//! Fig. 3): a Plummer sphere evolved by the distributed treecode on the
//! 24-node MetaBlade star. `treecode` does almost all the host work;
//! `cluster` carries a few thousand messages per force evaluation.

use std::time::Instant;

use mb_cluster::spec::metablade;
use mb_cluster::Cluster;
use mb_telemetry::fnv::Fnv;
use mb_treecode::decompose::cost_zones;
use mb_treecode::parallel::{distributed_evolve, distributed_step_weighted, DistributedConfig};
use mb_treecode::{build_tree, plummer, tree_forces, Bodies, BoundingBox};

use crate::harness::{median, ratio, Checks, Metrics, Pin, Repeat, Scale, Untraced, Workload};
use crate::trace::Tracer;
use crate::workloads::EXEC;

const DT: f64 = 1e-3;
/// Force evaluations the step probe times.
const PROBE_STEPS: usize = 3;

pub struct TreecodeEvolve {
    bodies: Bodies,
    cluster: Cluster,
    cfg: DistributedConfig,
    steps: usize,
    last_drift: f64,
    last_gflops: f64,
}

/// The innermost `n` bodies of a seeded Plummer sphere of `10 n / 9`.
/// An untruncated sphere's farthest body sets the global key cube, and
/// its radius varies by an order of magnitude between seeds, taking
/// tree depth, imported cells and memory with it; dropping the outer
/// tenth (the usual truncation radius) makes every seed the same size
/// of problem.
fn truncated_plummer(n: usize, seed: u64) -> Bodies {
    let raw = plummer(n * 10 / 9, seed);
    let r2 = |i: usize| raw.pos[i].iter().map(|x| x * x).sum::<f64>();
    let mut by_radius: Vec<usize> = (0..raw.len()).collect();
    by_radius.sort_by(|&a, &b| r2(a).total_cmp(&r2(b)));
    by_radius.truncate(n);
    by_radius.sort_unstable(); // keep the generator's body order
    raw.select(&by_radius)
}

impl TreecodeEvolve {
    pub fn new(seed: u64, scale: Scale) -> Self {
        TreecodeEvolve {
            bodies: truncated_plummer(scale.pick(10_000, 1_500), seed),
            cluster: Cluster::new(metablade()).with_exec(EXEC),
            cfg: DistributedConfig::default(),
            // One leapfrog step is two force evaluations.
            steps: 1,
            last_drift: f64::NAN,
            last_gflops: f64::NAN,
        }
    }
}

impl Workload for TreecodeEvolve {
    fn unit(&self) -> &'static str {
        "body-force evaluations"
    }

    fn repeat(&mut self, tr: &mut Tracer) -> Repeat {
        let bodies = self.bodies.clone();
        let (rep, secs) = tr.timed("treecode.distributed_evolve", |_| {
            distributed_evolve(&self.cluster, bodies, &self.cfg, DT, self.steps)
        });
        self.last_drift = rep.energy_drift;
        self.last_gflops = rep.gflops;
        let mut state = Fnv::new();
        for v in rep.pos.iter().chain(&rep.vel).flatten() {
            state.write_f64(*v);
        }
        let mut out = Repeat::default();
        out.case(
            "evolve",
            secs,
            (self.bodies.len() * (self.steps + 1)) as u64,
        );
        out.float("treecode.sim_gflops", rep.gflops);
        out.float("treecode.sim_energy_drift", rep.energy_drift);
        out.float("treecode.sim_total_time_s", rep.total_time_s);
        out.hash("treecode.final_state", state.finish());
        out
    }

    fn checks(&mut self, checks: &mut Checks) {
        let (drift, gflops) = (self.last_drift, self.last_gflops);
        checks.check(
            "treecode: energy drift is finite and small",
            drift.is_finite() && drift < 1e-2,
            || format!("energy drift {drift}"),
        );
        checks.check(
            "treecode: sustained Gflops is finite and positive",
            gflops.is_finite() && gflops > 0.0,
            || format!("gflops {gflops}"),
        );
    }

    fn layers(&mut self, _untraced: &Untraced, _tr: &Tracer, _pin: &Pin, out: &mut Metrics) {
        // Each force evaluation through the cluster.
        let mut step_s = Vec::new();
        let mut report = None;
        for _ in 0..PROBE_STEPS {
            let t = Instant::now();
            let r = distributed_step_weighted(&self.cluster, &self.bodies, &self.cfg, None);
            step_s.push(t.elapsed().as_secs_f64());
            report = Some(r);
        }
        let report = report.expect("PROBE_STEPS > 0");
        let step = median(&step_s);

        // The same bodies through the serial tree: build, walk, and the
        // decomposition the distributed step does on the host side.
        let n = self.bodies.len() as f64;
        let mut serial = self.bodies.clone();
        let bb = BoundingBox::containing(&serial.pos);
        let t = Instant::now();
        let tree = build_tree(&mut serial, bb, self.cfg.leaf_capacity);
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let walk = tree_forces(&mut serial, &tree, &self.cfg.mac, self.cfg.eps2);
        let walk_s = t.elapsed().as_secs_f64();
        let nranks = self.cluster.spec().nodes;
        let t = Instant::now();
        let zones = cost_zones(&self.bodies, &bb, nranks, None);
        let decompose_s = t.elapsed().as_secs_f64();
        std::hint::black_box(zones);

        let pp: u64 = report.per_rank.iter().map(|r| r.interactions.pp).sum();
        let pc: u64 = report.per_rank.iter().map(|r| r.interactions.pc).sum();
        out.set("treecode.step_s_p50", step);
        out.set("treecode.dist_over_serial", ratio(step, build_s + walk_s));
        out.set("treecode.build_ns_per_body", build_s * 1e9 / n);
        out.set(
            "treecode.walk_ns_per_interaction",
            ratio(
                walk_s * 1e9,
                (walk.interactions.pp + walk.interactions.pc) as f64,
            ),
        );
        out.set("treecode.decompose_ns_per_body", decompose_s * 1e9 / n);
        out.set("treecode.interactions_pp", pp as f64);
        out.set("treecode.interactions_pc", pc as f64);
        out.set(
            "treecode.msgs_per_step",
            report.comm.iter().map(|s| s.sends).sum::<u64>() as f64,
        );
        out.set(
            "treecode.bytes_per_step",
            report.comm.iter().map(|s| s.bytes_sent).sum::<u64>() as f64,
        );
    }
}
