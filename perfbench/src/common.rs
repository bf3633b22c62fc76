//! What every workload shares: the run context, the outcome it reports,
//! correctness checks, the stats digest and the set-up repetition.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ecdp::system::{CompilerArtifacts, SystemBuilder, SystemKind};
use sim_core::{StatsSummary, Trace};

pub use crate::clock::{HostClock, Timing};
use crate::spans::Tracer;
use crate::stats::median;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Drives the generated spec, the request sequence and cell order.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// True for the traced run, which reports per-layer metrics.
    pub traced: bool,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
    /// Worker threads (`std::thread::available_parallelism`).
    pub nproc: usize,
}

/// A correctness check; any failure makes the run exit non-zero.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, printed with the check.
    pub detail: String,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Every untraced round: one repetition of all the work the run
    /// repeats (a pass over the grid, a sweep of every workload, an epoch).
    pub rounds: Vec<Timing>,
    /// Cells one round completes.
    pub cells_per_round: u64,
    /// Simulated instructions one round retires.
    pub retired_per_round: u64,
    /// Jobs one round completes.
    pub jobs_per_round: u64,
    /// Host milliseconds of each job, scaled (see [`HostClock`]).
    pub jobs_ms: Vec<f64>,
    /// Modelled gmean IPC of `stream+ecdp+throttle` over `stream`.
    pub ipc_gain: f64,
    /// Modelled gmean BPKI of `stream+ecdp+throttle` over `stream`.
    pub bus_ratio: f64,
    /// Cells or jobs attempted.
    pub attempted: u64,
    /// Cells or jobs that failed.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Key → compact stats JSON of every distinct simulated result.
    pub digest: BTreeMap<String, String>,
    /// Calibration kernel times of the run (see [`HostClock`]).
    pub calibration_ms: Vec<f64>,
    /// Per-layer metrics measured by the traced run.
    pub layers: BTreeMap<String, f64>,
    /// Lines printed with the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Adds one simulated result to the digest (see [`Outcome::digest_text`]).
    pub fn digest_stats(&mut self, key: String, stats: &StatsSummary) {
        self.digest_text(key, stats.to_json().to_string_compact());
    }

    /// Adds one simulated result, as text, to the digest. A key seen
    /// before must carry identical text; a mismatch fails the
    /// repetition check.
    pub fn digest_text(&mut self, key: String, text: String) {
        match self.digest.get(&key) {
            Some(prev) if *prev != text => {
                self.check(
                    format!("repeatable stats: {key}"),
                    false,
                    "a repetition produced different stats",
                );
            }
            Some(_) => {}
            None => {
                self.digest.insert(key, text);
            }
        }
    }

    /// FNV-1a over every digested result, in key order.
    pub fn digest_value(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in &self.digest {
            for b in k.bytes().chain([0]).chain(v.bytes()).chain([0]) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Digest key of a single-core cell.
pub fn cell_key(workload: &str, input: &str, system: SystemKind) -> String {
    format!("{workload}/{input}/{}", system.label())
}

/// Metric-name form of a system label (`stream+cdp` → `stream-cdp`).
pub fn metric_label(system: SystemKind) -> String {
    system.label().replace('+', "-")
}

/// Runs `setup` [`SETUP_REPS`] times, each from scratch, and returns the
/// last result with the seconds each repetition took, scaled by `clock`.
/// The previous result is dropped before the next repetition starts.
pub fn repeat_setup<T>(clock: &mut HostClock, mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let (value, t) = clock.time(|| setup(rep));
        times.push(t.ms / 1e3);
        last = Some(value);
    }
    (last.expect("at least one set-up repetition"), times)
}

/// Median milliseconds of [`SystemBuilder::run`] on an empty trace: the
/// fixed cost every simulated cell pays.
pub fn run_fixed_ms(tracer: &Tracer) -> f64 {
    let empty = Trace {
        initial_memory: sim_mem::SimMemory::new(),
        ops: Vec::new(),
        instructions: 0,
    };
    let artifacts = CompilerArtifacts::empty();
    let times: Vec<f64> = (0..15)
        .map(|i| {
            let t0 = Instant::now();
            tracer.span("sim_core.run_fixed", i, None, |_| {
                SystemBuilder::new(SystemKind::StreamEcdpThrottled)
                    .artifacts(&artifacts)
                    .run(&empty)
                    .expect("an empty trace runs")
            });
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
