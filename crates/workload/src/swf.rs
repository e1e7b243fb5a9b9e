//! Standard Workload Format (SWF) trace ingestion.
//!
//! The Parallel Workloads Archive distributes production scheduler
//! logs as SWF: one job per line, 18 whitespace-separated fields,
//! `;`-prefixed header comments. This parser maps each record onto the
//! simulator's job universe: submit time and processor count are taken
//! verbatim (width clamped to the cluster), the recorded runtime is
//! quantized onto a [`mb_sched::WorkModel`] whose step pattern is
//! chosen deterministically from the job number (so a given trace
//! always produces the same stream), and the SWF queue number selects
//! the SLO class. Malformed lines are counted and skipped, never
//! fatal — real archive traces contain them.

use mb_sched::stream::Arrival;
use mb_sched::{JobSpec, NpbKernel, WorkModel};
use mb_telemetry::Fnv;

/// How SWF records map onto simulator jobs.
#[derive(Debug, Clone, Copy)]
pub struct SwfConfig {
    /// Processor counts are clamped to this (the cluster size).
    pub max_ranks: usize,
    /// Seconds of recorded runtime one modeled step stands for (the
    /// step count is `runtime / step_quantum_s`, at least 1).
    pub step_quantum_s: f64,
    /// Class for records whose queue number is absent (`-1`).
    pub default_class: usize,
}

impl SwfConfig {
    /// The standard mapping for a cluster of `max_ranks` nodes:
    /// one-second steps, absent queues land in the batch class.
    pub fn standard(max_ranks: usize) -> Self {
        Self {
            max_ranks,
            step_quantum_s: 1.0,
            default_class: crate::arrival::CLASS_BATCH,
        }
    }
}

/// A parsed trace: the arrivals plus ingestion accounting.
#[derive(Debug, Clone)]
pub struct SwfTrace {
    /// Jobs in `(submit, job number)` order, ids renumbered densely.
    pub arrivals: Vec<Arrival>,
    /// Comment/header lines (`;` or `#`).
    pub comments: usize,
    /// Malformed or unusable data lines skipped.
    pub skipped: usize,
}

/// Deterministic work-model choice for one SWF record: the job number
/// hashes to a step pattern family and its quantized parameters, and
/// the recorded runtime sets the step count.
fn work_for(job_number: u64, run_s: f64, cfg: &SwfConfig) -> WorkModel {
    let mut f = Fnv::new();
    f.write_str("mb-workload/swf/1");
    f.write_u64(job_number);
    let h = f.finish();
    let steps = ((run_s / cfg.step_quantum_s).round() as u32).clamp(1, 100_000);
    match h % 3 {
        0 => WorkModel::Treecode {
            bodies_per_rank: [600, 1200, 2400][(h >> 8) as usize % 3],
            steps,
        },
        1 => WorkModel::Npb {
            kernel: [NpbKernel::Ep, NpbKernel::Is, NpbKernel::Mg][(h >> 8) as usize % 3],
            iters: steps,
        },
        _ => WorkModel::Synthetic {
            flops_per_step: [2.5e7, 5.0e7, 1.0e8][(h >> 8) as usize % 3],
            msg_kib: [1, 4, 16][(h >> 16) as usize % 3],
            rounds: [2, 4][(h >> 24) as usize % 2],
            steps,
        },
    }
}

/// Parse SWF text into a job stream under `cfg` (see module docs for
/// the field mapping). Never fails: unusable lines are counted in
/// [`SwfTrace::skipped`].
pub fn parse_swf(text: &str, cfg: &SwfConfig) -> SwfTrace {
    let mut raw: Vec<(f64, u64, Arrival)> = Vec::new();
    let mut comments = 0;
    let mut skipped = 0;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with(';') || trimmed.starts_with('#') {
            comments += 1;
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        // SWF field indices used: 0 job number, 1 submit time,
        // 3 run time, 4 allocated procs, 7 requested procs,
        // 8 requested time, 14 queue number.
        if fields.len() < 18 {
            skipped += 1;
            continue;
        }
        let int = |i: usize| fields[i].parse::<i64>().ok();
        let num = |i: usize| fields[i].parse::<f64>().ok();
        let (Some(job_number), Some(submit_s)) = (int(0), num(1)) else {
            skipped += 1;
            continue;
        };
        if job_number < 0 || !submit_s.is_finite() || submit_s < 0.0 {
            skipped += 1;
            continue;
        }
        // Requested processors, falling back to the allocation.
        let ranks = match (int(7), int(4)) {
            (Some(r), _) if r > 0 => r as usize,
            (_, Some(a)) if a > 0 => a as usize,
            _ => {
                skipped += 1;
                continue;
            }
        };
        // Recorded runtime, falling back to the request.
        let run_s = match (num(3), num(8)) {
            (Some(r), _) if r > 0.0 => r,
            (_, Some(q)) if q > 0.0 => q,
            _ => {
                skipped += 1;
                continue;
            }
        };
        let class = match int(14) {
            Some(q) if q >= 0 => (q as usize).min(crate::arrival::CLASS_SCAVENGER),
            _ => cfg.default_class,
        };
        let job_number = job_number as u64;
        raw.push((
            submit_s,
            job_number,
            Arrival {
                spec: JobSpec {
                    id: 0, // renumbered below
                    submit_s,
                    ranks: ranks.min(cfg.max_ranks),
                    work: work_for(job_number, run_s, cfg),
                },
                class,
            },
        ));
    }
    raw.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let arrivals = raw
        .into_iter()
        .enumerate()
        .map(|(id, (_, _, mut a))| {
            a.spec.id = id;
            a
        })
        .collect();
    SwfTrace {
        arrivals,
        comments,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(job: u64, submit: f64, run: f64, procs: i64, queue: i64) -> String {
        // 18 fields, unused ones -1.
        format!("{job} {submit} 12 {run} {procs} -1 -1 {procs} -1 -1 1 7 3 -1 {queue} -1 -1 -1")
    }

    #[test]
    fn parses_and_renumbers_in_submit_order() {
        let text = format!(
            "; header comment\n{}\n{}\n",
            line(10, 500.0, 120.0, 4, 1),
            line(4, 30.0, 60.0, 2, 0),
        );
        let trace = parse_swf(&text, &SwfConfig::standard(24));
        assert_eq!(trace.comments, 1);
        assert_eq!(trace.skipped, 0);
        assert_eq!(trace.arrivals.len(), 2);
        // Sorted by submit, ids dense.
        assert_eq!(trace.arrivals[0].spec.submit_s, 30.0);
        assert_eq!(trace.arrivals[0].spec.id, 0);
        assert_eq!(trace.arrivals[0].spec.ranks, 2);
        assert_eq!(trace.arrivals[0].class, 0);
        assert_eq!(trace.arrivals[1].spec.id, 1);
        assert_eq!(trace.arrivals[1].class, 1);
    }

    #[test]
    fn work_mapping_is_deterministic_and_runtime_scaled() {
        let cfg = SwfConfig::standard(24);
        let a = work_for(42, 300.0, &cfg);
        let b = work_for(42, 300.0, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.steps(), 300);
        // Same job number, longer runtime: same pattern, more steps.
        let c = work_for(42, 900.0, &cfg);
        assert_eq!(a.step_key(), c.step_key());
        assert_eq!(c.steps(), 900);
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let text = format!(
            "{}\nnot an swf line\n1 2 3\n{}\n{}\n{}\n",
            line(1, 0.0, 100.0, 4, 1),
            line(2, -5.0, 100.0, 4, 1), // negative submit
            line(3, 10.0, -1.0, 4, 1),  // no usable runtime
            line(4, 20.0, 50.0, -1, 1), // no usable processor count
        );
        let trace = parse_swf(&text, &SwfConfig::standard(24));
        assert_eq!(trace.arrivals.len(), 1);
        assert_eq!(trace.skipped, 5);
    }

    #[test]
    fn queue_numbers_clamp_and_default() {
        let cfg = SwfConfig::standard(24);
        let t = parse_swf(&line(1, 0.0, 10.0, 1, 9), &cfg);
        assert_eq!(t.arrivals[0].class, 2, "deep queues clamp to scavenger");
        let t = parse_swf(&line(1, 0.0, 10.0, 1, -1), &cfg);
        assert_eq!(t.arrivals[0].class, cfg.default_class);
    }
}
