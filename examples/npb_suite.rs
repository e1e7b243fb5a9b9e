//! Run the full NPB-style kernel suite natively (class S), print
//! verification status, operation mixes, and the projected era-CPU Mop/s
//! — the machinery behind Table 3, visible end to end.
//!
//! Run with: `cargo run --release --example npb_suite [S|W]`

use metablade::core::experiments::tm5600_analytic;
use metablade::crusoe::hardware::{athlon_mp_1200, pentium_iii_500, power3_375};
use metablade::npb::mix::table3_kernels;
use metablade::npb::Class;

fn main() {
    let class = match std::env::args().nth(1).as_deref() {
        None | Some("S") => Class::S,
        Some("W") => Class::W,
        Some(a) => {
            eprintln!("npb_suite: class must be S or W, got {a:?}");
            std::process::exit(2)
        }
    };
    let kernels = table3_kernels(class);
    println!(
        "{:<5}{:>9}{:>16}{:>13}{:>11}{:>11}{:>11}{:>11}",
        "code", "verified", "useful Mops", "fp/mem", "Athlon", "PIII", "TM5600", "Power3"
    );
    let cpus = [
        athlon_mp_1200(),
        pentium_iii_500(),
        tm5600_analytic(),
        power3_375(),
    ];
    for k in &kernels {
        let r = k.run();
        let fp = (r.mix.fadd + r.mix.fmul + r.mix.fdiv + r.mix.fsqrt) as f64;
        let mem = (r.mix.loads + r.mix.stores).max(1) as f64;
        print!(
            "{:<5}{:>9}{:>16.1}{:>13.2}",
            k.name(),
            if r.verified { "yes" } else { "NO" },
            r.mix.useful_ops as f64 / 1e6,
            fp / mem
        );
        for cpu in &cpus {
            print!("{:>11.1}", cpu.estimate_kernel_mops(&r.mix));
        }
        println!();
    }
}
