//! Property-style tests on the core data structures and numerical
//! invariants, across crates. Inputs are drawn from a seeded RNG in a
//! fixed-trip loop (the container has no crate registry, so proptest's
//! shrinking machinery is traded for deterministic replay: a failure
//! prints the offending case, which can be pinned as a regression).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use metablade::cluster::checkpoint::CheckpointModel;
use metablade::cluster::machine::Cluster;
use metablade::cluster::spec::metablade;
use metablade::crusoe::isa::{Insn, MachineState, Reg};
use metablade::crusoe::program::ProgramBuilder;
use metablade::microkernel::{rsqrt_karp, rsqrt_math};
use metablade::npb::common::NpbRng;
use metablade::npb::is;
use metablade::treecode::{build_tree, BoundingBox, Key};

const CASES: usize = 64;

/// Karp's algorithm matches the math-library reciprocal square root
/// over the full positive-normal range.
#[test]
fn karp_rsqrt_matches_math() {
    let mut rng = StdRng::seed_from_u64(0xA001);
    for _ in 0..CASES {
        let mantissa = 1.0 + rng.random::<f64>();
        let exp = rng.random_range(0..600u32) as i32 - 300;
        let x = mantissa * 2f64.powi(exp);
        let karp = rsqrt_karp(x);
        let math = rsqrt_math(x);
        let rel = ((karp - math) / math).abs();
        assert!(rel < 1e-14, "x = {x}: {karp} vs {math}");
    }
}

/// Morton keys respect spatial containment: a point's full-depth key
/// descends from the key of any enclosing cell.
#[test]
fn morton_ancestors_contain_points() {
    let mut rng = StdRng::seed_from_u64(0xA002);
    for _ in 0..CASES {
        let (x, y, z) = (
            rng.random::<f64>(),
            rng.random::<f64>(),
            rng.random::<f64>(),
        );
        let level = rng.random_range(0..20u32);
        let bb = BoundingBox {
            min: [0.0; 3],
            size: 1.0,
        };
        let key = bb.key_of([x, y, z]);
        let cell = key.ancestor_at(level);
        assert!(cell.contains(key), "({x},{y},{z}) level {level}");
        // And the cell's geometric box really contains the point.
        let c = bb.cell_center(cell);
        let half = bb.cell_size(level) / 2.0 * (1.0 + 1e-9);
        assert!((x - c[0]).abs() <= half);
        assert!((y - c[1]).abs() <= half);
        assert!((z - c[2]).abs() <= half);
    }
}

/// Key arithmetic: child/parent/daughter are mutually consistent.
#[test]
fn key_child_parent_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA003);
    for _ in 0..CASES {
        let bits = rng.random_range(1..(1u64 << 60));
        let d = rng.random_range(0..8u64) as u8;
        let key = Key(bits);
        let child = key.child(d);
        assert_eq!(child.parent(), key, "bits {bits:#x} d {d}");
        assert_eq!(child.daughter_index(), d);
        assert_eq!(child.level(), key.level() + 1);
    }
}

/// Tree construction conserves mass and center of mass for arbitrary
/// body sets.
#[test]
fn tree_conserves_moments() {
    let mut rng = StdRng::seed_from_u64(0xA004);
    for _ in 0..CASES {
        let seed = rng.random_range(0..1000u64);
        let n = rng.random_range(2..120usize);
        let leaf_cap = rng.random_range(1..16usize);
        let bodies_src = metablade::treecode::uniform_cube(n, 2.0, seed);
        let mut bodies = bodies_src.clone();
        let bb = BoundingBox::containing(&bodies.pos);
        let tree = build_tree(&mut bodies, bb, leaf_cap);
        let root = tree.root();
        assert_eq!(root.count as usize, n, "seed {seed} n {n} cap {leaf_cap}");
        assert!((root.mass - bodies_src.total_mass()).abs() < 1e-12);
        let com = bodies_src.center_of_mass();
        for (rc, c) in root.com.iter().zip(&com) {
            assert!((rc - c).abs() < 1e-10);
        }
    }
}

/// The NPB LCG jump function equals stepping, for any distance.
#[test]
fn npb_rng_jump_equals_stepping() {
    let mut rng = StdRng::seed_from_u64(0xA005);
    for _ in 0..CASES {
        let n = rng.random_range(0..5000u64);
        let seed = rng.random_range(1..(1u64 << 40)) | 1; // odd for full period
        let mut stepped = NpbRng::with_seed(seed);
        for _ in 0..n {
            stepped.next_f64();
        }
        let mut jumped = NpbRng::with_seed(seed);
        jumped.jump(n);
        assert_eq!(stepped.state, jumped.state, "seed {seed} n {n}");
    }
}

/// IS ranking is always a correct stable sort, for arbitrary keys.
#[test]
fn is_ranking_always_sorts() {
    let mut rng = StdRng::seed_from_u64(0xA006);
    for _ in 0..CASES {
        let len = rng.random_range(1..200usize);
        let keys: Vec<u32> = (0..len).map(|_| rng.random_range(0..512u32)).collect();
        let ranks = is::rank(&keys, 512);
        assert!(is::verify(&keys, &ranks), "keys {keys:?}");
    }
}

/// Guest integer arithmetic matches host semantics for arbitrary
/// operands (wrapping).
#[test]
fn guest_alu_matches_host() {
    let mut rng = StdRng::seed_from_u64(0xA007);
    for _ in 0..CASES {
        let a = rng.random::<u64>() as i64;
        let b = rng.random::<u64>() as i64;
        let mut st = MachineState::new(1);
        st.regs[0] = a;
        st.regs[1] = b;
        st.execute(&Insn::Add(Reg(0), Reg(1))).unwrap();
        assert_eq!(st.regs[0], a.wrapping_add(b));
        st.regs[0] = a;
        st.execute(&Insn::IMul(Reg(0), Reg(1))).unwrap();
        assert_eq!(st.regs[0], a.wrapping_mul(b));
        st.regs[0] = a;
        st.execute(&Insn::Xor(Reg(0), Reg(1))).unwrap();
        assert_eq!(st.regs[0], a ^ b);
    }
}

/// Guest loops compute the same sums as host loops for arbitrary
/// trip counts (program semantics don't depend on the engine).
#[test]
fn guest_loop_sums_match_host() {
    let mut rng = StdRng::seed_from_u64(0xA008);
    for _ in 0..CASES {
        let n = rng.random_range(1..500u64) as i64;
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.push(Insn::MovImm(Reg(0), n));
        b.push(Insn::MovImm(Reg(1), 0));
        b.bind(top);
        b.push(Insn::Add(Reg(1), Reg(0)));
        b.push(Insn::AddImm(Reg(0), -1));
        b.push(Insn::CmpImm(Reg(0), 0));
        b.jcc(metablade::crusoe::isa::Cond::Gt, top);
        b.push(Insn::Halt);
        let program = b.finish();
        let mut cms =
            metablade::crusoe::cms::Cms::new(metablade::crusoe::cms::CmsConfig::metablade());
        let mut st = MachineState::new(1);
        cms.run(&program, &mut st).unwrap();
        assert_eq!(st.regs[1], n * (n + 1) / 2, "n {n}");
    }
}

/// Virtual time is deterministic and collective results are exact,
/// for arbitrary small cluster sizes and payload lengths.
#[test]
fn collectives_are_exact_and_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xA009);
    for _ in 0..16 {
        let p = rng.random_range(1..9usize);
        let len = rng.random_range(1..64usize);
        let cluster = Cluster::new(metablade().with_nodes(p));
        let job = move |comm: &mut metablade::cluster::comm::Comm| {
            let vals = vec![(comm.rank() + 1) as f64; len];
            let sum = comm.allreduce_sum(&vals);
            (sum[0], comm.now())
        };
        let a = cluster.run(job);
        let b = cluster.run(job);
        let expect = (p * (p + 1) / 2) as f64;
        for r in 0..p {
            assert_eq!(a.results[r].0, expect, "p {p} len {len}");
            assert_eq!(a.results[r].1, b.results[r].1, "p {p} len {len}");
        }
    }
}

/// The Monte-Carlo checkpoint simulator always pays at least the
/// useful work, gets slower as failures become more frequent, and
/// its seed-averaged walltime tracks the Young/Daly analytic model.
/// Each MTBF level runs at its own optimal interval; sharing seeds
/// across levels gives common random numbers, so the monotonicity
/// comparison is low-variance.
#[test]
fn checkpoint_simulation_tracks_analytic_model() {
    let mut rng = StdRng::seed_from_u64(0xA00A);
    for _ in 0..4 {
        let work = 40.0 + 120.0 * rng.random::<f64>();
        let mtbf = 150.0 + 750.0 * rng.random::<f64>();
        let cp_h = 0.02 + 0.18 * rng.random::<f64>();
        let base_seed = rng.random_range(0..1000u64);
        let cp = CheckpointModel {
            checkpoint_h: cp_h,
            restart_h: 2.0 * cp_h,
        };
        let seeds = 1024u64;
        let mean_at = |mtbf_h: f64| {
            let tau = cp.young_interval_h(mtbf_h);
            let mut total = 0.0;
            for s in 0..seeds {
                let w = cp.simulate_walltime_h(work, tau, mtbf_h, base_seed * seeds + s);
                assert!(w >= work, "walltime {w} below useful work {work}");
                total += w;
            }
            total / seeds as f64
        };
        let flaky = mean_at(mtbf / 8.0);
        let nominal = mean_at(mtbf);
        let solid = mean_at(mtbf * 8.0);
        assert!(
            flaky > nominal,
            "8x the failure rate must cost walltime: {flaky} vs {nominal}"
        );
        assert!(
            nominal > solid,
            "an 8x-more-reliable machine must finish sooner: {nominal} vs {solid}"
        );
        let analytic = cp.expected_walltime_h(work, cp.young_interval_h(mtbf), mtbf);
        let rel = (nominal - analytic).abs() / analytic;
        assert!(
            rel < 0.2,
            "MC mean {nominal} vs analytic {analytic} ({rel:.3} rel)"
        );
    }
}

/// Torus routes are dimension-ordered and minimal: the number of hops
/// equals the sum of per-dimension minimal ring distances, and the
/// path cost profile agrees with that hop count.
#[test]
fn torus_routes_are_minimal_per_dimension() {
    use metablade::cluster::Topology;
    let mut rng = StdRng::seed_from_u64(0xA00B);
    for _ in 0..CASES {
        let dims = [
            rng.random_range(1..6usize),
            rng.random_range(1..6usize),
            rng.random_range(1..6usize),
        ];
        let n = dims[0] * dims[1] * dims[2];
        let topo = Topology::torus(dims);
        let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
        let coord = |node: usize, d: usize| match d {
            0 => node % dims[0],
            1 => (node / dims[0]) % dims[1],
            _ => node / (dims[0] * dims[1]),
        };
        let minimal: usize = (0..3)
            .map(|d| {
                let fwd = (coord(dst, d) + dims[d] - coord(src, d)) % dims[d];
                fwd.min(dims[d] - fwd)
            })
            .sum();
        let route = topo.route(src, dst);
        assert_eq!(
            route.len(),
            minimal,
            "dims {dims:?}: {src}->{dst} took {route:?}"
        );
        let p = topo.path(src, dst);
        assert_eq!(p.latency_hops, minimal.max(1), "dims {dims:?} {src}->{dst}");
        assert_eq!(p.edge_resers, minimal.saturating_sub(1));
        assert_eq!(p.uplink_resers, 0, "a torus has no oversubscribed tier");
    }
}

/// Fat-tree path costs are symmetric — the lowest common ancestor of
/// `(a, b)` is the lowest common ancestor of `(b, a)` — and routes up
/// and down the tree have mirrored lengths.
#[test]
fn fat_tree_costs_are_symmetric() {
    use metablade::cluster::Topology;
    let mut rng = StdRng::seed_from_u64(0xA00C);
    for _ in 0..CASES {
        let radix = rng.random_range(2..9usize);
        let levels = rng.random_range(1..4usize);
        let oversub = 1.0 + 7.0 * rng.random::<f64>();
        let topo = Topology::fat_tree(radix, levels, oversub);
        let n = radix.pow(levels as u32);
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        let fwd = topo.path(a, b);
        let rev = topo.path(b, a);
        assert_eq!(fwd, rev, "radix {radix} levels {levels}: {a}<->{b}");
        assert_eq!(
            topo.route(a, b).len(),
            topo.route(b, a).len(),
            "asymmetric route length for {a}<->{b}"
        );
        // Within one edge switch the route never touches an
        // oversubscribed uplink.
        if a / radix == b / radix {
            assert_eq!(fwd.uplink_resers, 0);
            assert_eq!(fwd.oversub, 1.0);
        } else {
            assert!(fwd.uplink_resers >= 2, "{a}<->{b} crossed no uplinks");
            assert_eq!(fwd.oversub, oversub);
        }
    }
}

/// `PathProfile` is a pure function of `(topology, src, dst)`: repeated
/// evaluation — interleaved with other queries — returns the identical
/// profile and the identical link sequence, with no hidden state.
#[test]
fn path_profiles_are_pure_functions() {
    use metablade::cluster::Topology;
    let mut rng = StdRng::seed_from_u64(0xA00D);
    let topos = [
        Topology::Star,
        Topology::fat_tree(4, 2, 4.0),
        Topology::fat_tree(16, 2, 4.0),
        Topology::torus([4, 4, 2]),
    ];
    for _ in 0..CASES {
        let topo = topos[rng.random_range(0..topos.len())];
        let n = topo.capacity().unwrap_or(32).min(32);
        let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
        let first_path = topo.path(src, dst);
        let first_route = topo.route(src, dst);
        // Interleave unrelated queries to flush out any caching bug.
        let _ = topo.path(dst, src);
        let _ = topo.route((src + 1) % n, dst);
        for _ in 0..3 {
            assert_eq!(topo.path(src, dst), first_path, "{src}->{dst} on {topo:?}");
            assert_eq!(topo.route(src, dst), first_route);
        }
    }
}
