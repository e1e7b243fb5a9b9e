//! A self-gravitating disk ("galaxy") evolved with the treecode:
//! leapfrog integration, energy conservation diagnostics, and an ASCII
//! density rendering at the end (Figure 3's workload at laptop scale).
//!
//! Run with: `cargo run --release --example nbody_galaxy [n] [steps]`

use metablade::treecode::render::DensityImage;
use metablade::treecode::{cold_disk, direct::direct_forces, leapfrog_step, total_energy, Mac};

fn main() {
    let arg = |i: usize, name: &str, d: usize| match std::env::args().nth(i) {
        None => d,
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("nbody_galaxy: {name} must be a number, got {a:?}");
            std::process::exit(2)
        }),
    };
    let (n, steps) = (arg(1, "n", 10_000), arg(2, "steps", 40));
    let eps2 = 1e-4;
    let mac = Mac::standard();
    let mut bodies = cold_disk(n, 7);
    direct_forces(&mut bodies, eps2);
    let e0 = total_energy(&bodies);
    println!(
        "N = {n} disk | E0 = {:.4} (K {:.4}, W {:.4})",
        e0.total(),
        e0.kinetic,
        e0.potential
    );
    let mut interactions = 0u64;
    for step in 0..steps {
        let c = leapfrog_step(&mut bodies, 2e-3, &mac, eps2, 8);
        interactions += c.pp + c.pc;
        if (step + 1) % 10 == 0 {
            let e = total_energy(&bodies);
            println!(
                "step {:>4}: E = {:.4} (drift {:+.2e}), {:.1}M interactions so far",
                step + 1,
                e.total(),
                (e.total() - e0.total()) / e0.total().abs(),
                interactions as f64 / 1e6
            );
        }
    }
    let img = DensityImage::project(&bodies, 72, 36, 0.95);
    println!("\nfinal surface density:\n{}", img.to_ascii());
}
