//! Run the full NPB-style kernel suite natively (class S), print
//! verification status, operation mixes, and the projected era-CPU Mop/s
//! — the machinery behind Table 3, visible end to end.
//!
//! Run with: `cargo run --release --example npb_suite [S|W]`

use metablade::core::experiments::table3_cpus;
use metablade::npb::{Class, Kernel};

fn main() {
    let class = match std::env::args().nth(1).as_deref() {
        None | Some("S") => Class::S,
        Some("W") => Class::W,
        Some(a) => {
            eprintln!("npb_suite: class must be S or W, got {a:?}");
            std::process::exit(2)
        }
    };
    println!(
        "{:<5}{:>9}{:>16}{:>13}{:>11}{:>11}{:>11}{:>11}",
        "code", "verified", "useful Mops", "fp/mem", "Athlon", "PIII", "TM5600", "Power3"
    );
    let cpus = table3_cpus();
    for k in Kernel::ALL {
        let r = k.run(class);
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
