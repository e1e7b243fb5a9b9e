//! The six workloads. Each module says why its workload exists and
//! which layer it stresses; `README.md` has the table.

pub mod cms;
pub mod exec;
pub mod stream;
pub mod treecode;

use mb_cluster::ExecPolicy;

use crate::harness::{Scale, Workload};

/// The executor policy every workload runs under, fixed so that no
/// `MB_PARALLEL` setting of the environment changes what is measured.
pub const EXEC: ExecPolicy = ExecPolicy::Parallel { workers: 2 };

/// Set up the named workload from `seed`: input generation,
/// calibration and program building, everything short of the warm-up
/// repeat.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "treecode_evolve24" => Box::new(treecode::TreecodeEvolve::new(seed, scale)),
        "exec_metablade24" => Box::new(exec::Exec::metablade24(scale)),
        "exec_scale" => Box::new(exec::Exec::scale(scale)),
        "stream_star24" => Box::new(stream::Stream::star24(seed, scale)),
        "stream_ft64" => Box::new(stream::Stream::ft64(seed, scale)),
        "cms_guest" => Box::new(cms::CmsGuest::new(seed, scale)),
        _ => return None,
    })
}
