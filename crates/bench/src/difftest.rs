//! Differential snapshot harness: the proof that warm-state fork is
//! bit-identical to cold simulation.
//!
//! For a randomized population of (workload, config, system) triples,
//! [`run_case`] executes the full differential protocol on each:
//!
//! 1. **Cold** — plain run with the observability layer on (interval
//!    time series + Table 3 decision trace).
//! 2. **Capture** — same run with [`SystemBuilder::warm_checkpoint`];
//!    results must equal the cold run exactly, proving the capture is
//!    read-only.
//! 3. **Fork** — a fresh machine restored from the in-memory
//!    [`Snapshot`] resumes at the checkpoint cycle; its end-of-run
//!    statistics, serialized time series and throttle transitions must
//!    be byte-identical to the cold run.
//! 4. **Wire round-trip** — the snapshot is framed with
//!    [`Snapshot::to_bytes`], parsed back with
//!    [`Snapshot::from_bytes`], and forked again; results must again
//!    be byte-identical, proving the wire format is lossless.
//!
//! Mismatches come back as structured [`DiffFailure`]s naming the stage
//! and the first field that diverged, so a CI failure pinpoints the
//! component whose state the snapshot missed. The module is consumed by
//! the `snapshot_difftest` integration test and by the CI
//! `snapshot-difftest` job.

use ecdp::system::{SystemBuilder, SystemKind, SystemRun};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_core::{MachineConfig, ObsConfig, Snapshot};
use workloads::InputSet;

use crate::lab::Lab;

/// Workloads the randomized population draws from: pointer-chasing
/// (`mst`, `health`, `perimeter`) and streaming (`libquantum`) cover
/// every prefetcher family the snapshot serializes.
pub const DIFF_WORKLOADS: [&str; 4] = ["mst", "health", "perimeter", "libquantum"];

/// Systems the randomized population draws from — chosen to exercise
/// every kind of serialized state: stream tables alone, CDP depth
/// state, the full proposal with coordinated throttling, and the
/// hybrid GHB path.
pub const DIFF_SYSTEMS: [SystemKind; 5] = [
    SystemKind::StreamOnly,
    SystemKind::StreamCdp,
    SystemKind::StreamEcdp,
    SystemKind::StreamCdpThrottled,
    SystemKind::StreamEcdpThrottled,
];

/// One randomized differential case: a (workload, config, system)
/// triple plus the fraction of the cold run at which to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffCase {
    /// Workload name (see [`DIFF_WORKLOADS`]).
    pub workload: String,
    /// Input set (always `Test` for the randomized population; the
    /// protocol is input-agnostic).
    pub input: InputSet,
    /// System variant under test.
    pub system: SystemKind,
    /// L2 capacity in bytes (randomized so eviction/pollution state
    /// differs across cases).
    pub l2_bytes: u32,
    /// Throttle sampling-interval length in L2 evictions.
    pub interval_evictions: u64,
    /// Checkpoint position in tenths of the cold run's cycle count
    /// (1..=8, so the fork always has work left to do).
    pub checkpoint_tenths: u64,
}

impl DiffCase {
    /// The machine configuration this case runs under.
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::default();
        cfg.l2.bytes = self.l2_bytes;
        cfg.interval_evictions = self.interval_evictions;
        cfg
    }

    /// Compact human-readable label for logs and failure messages.
    pub fn label(&self) -> String {
        format!(
            "{}:{:?}:{} l2={}K interval={} ckpt={}/10",
            self.workload,
            self.input,
            self.system.label(),
            self.l2_bytes / 1024,
            self.interval_evictions,
            self.checkpoint_tenths
        )
    }
}

/// Draws `n` randomized cases from a deterministic generator, so a CI
/// failure reproduces locally from the same seed.
pub fn random_cases(seed: u64, n: usize) -> Vec<DiffCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let workload = DIFF_WORKLOADS[rng.gen_range(0..DIFF_WORKLOADS.len())].to_string();
            let system = DIFF_SYSTEMS[rng.gen_range(0..DIFF_SYSTEMS.len())];
            DiffCase {
                workload,
                input: InputSet::Test,
                system,
                // 16 KB..256 KB in power-of-two steps.
                l2_bytes: 1024u32 << rng.gen_range(4..=8u32),
                interval_evictions: rng.gen_range(32..=512u64),
                checkpoint_tenths: rng.gen_range(1..=8u64),
            }
        })
        .collect()
}

/// Where in the differential protocol a mismatch was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStage {
    /// The checkpointing run diverged from the cold run: capture
    /// perturbed the simulation.
    Capture,
    /// The run forked from the in-memory snapshot diverged.
    Fork,
    /// The run forked from the wire round-tripped snapshot diverged.
    WireFork,
}

impl std::fmt::Display for DiffStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffStage::Capture => write!(f, "capture"),
            DiffStage::Fork => write!(f, "fork"),
            DiffStage::WireFork => write!(f, "wire-fork"),
        }
    }
}

/// A differential failure: which case, which protocol stage, and what
/// diverged first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffFailure {
    /// The case that failed.
    pub case: DiffCase,
    /// The protocol stage that detected the mismatch (or, for setup
    /// failures, the stage that could not run).
    pub stage: DiffStage,
    /// Human-readable description of the first divergence.
    pub detail: String,
}

impl std::fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} stage: {}",
            self.case.label(),
            self.stage,
            self.detail
        )
    }
}

/// A passed case, with the numbers a log line wants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffOutcome {
    /// The case that passed.
    pub case: DiffCase,
    /// Cold run length in cycles.
    pub cold_cycles: u64,
    /// Cycle at which the snapshot was captured.
    pub checkpoint_cycle: u64,
    /// Size of the framed snapshot on the wire.
    pub snapshot_bytes: usize,
    /// Memory ops waiting, at the capture cycle, on an address producer
    /// whose completion was still unknown. A fork re-parks them from the
    /// trace on its first cycle, so a nonzero count means the case
    /// exercised that rebuild (see [`Snapshot::parked_ops`]).
    pub parked_at_capture: usize,
    /// Memory ops ready at the capture cycle whose block missed the L1.
    /// Those the capturing core had looked up were marked as L1 misses;
    /// a fork starts with no marks, so a nonzero count means the case
    /// exercised forking over them (see [`Snapshot::l1_missing_ops`]).
    pub l1_missing_at_capture: usize,
    /// Memory ops ready at the capture cycle that would be refused an
    /// MSHR or a request-buffer slot. Those the capturing core had looked
    /// up were marked as refused; a fork starts with no marks, so a
    /// nonzero count means the case exercised forking over them (see
    /// [`Snapshot::refused_ops`]).
    pub refused_at_capture: usize,
}

/// Compares two runs field by field, returning the first divergence.
///
/// "Byte-identical" is taken literally: statistics must compare equal
/// *and* the serialized forms (the interval time series JSON text and
/// the Table 3 transition list) must match as strings, so a float that
/// survives `==` but prints differently still fails.
pub fn compare_runs(cold: &SystemRun, other: &SystemRun) -> Result<(), String> {
    if cold.stats != other.stats {
        return Err(format!(
            "RunStats diverged: cold cycles={} ipc={:.9} bpki={:.9}, got cycles={} ipc={:.9} bpki={:.9}",
            cold.stats.cycles,
            cold.stats.ipc(),
            cold.stats.bpki(),
            other.stats.cycles,
            other.stats.ipc(),
            other.stats.bpki()
        ));
    }
    let (Some(ct), Some(ot)) = (&cold.trace, &other.trace) else {
        return Err(format!(
            "observability trace missing: cold={} other={}",
            cold.trace.is_some(),
            other.trace.is_some()
        ));
    };
    let cold_ts = ct.timeseries_json().to_string_pretty();
    let other_ts = ot.timeseries_json().to_string_pretty();
    if cold_ts != other_ts {
        let at = cold_ts
            .bytes()
            .zip(other_ts.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| cold_ts.len().min(other_ts.len()));
        return Err(format!(
            "interval time series diverged at byte {at} (cold {} bytes, got {} bytes)",
            cold_ts.len(),
            other_ts.len()
        ));
    }
    if ct.transitions != ot.transitions {
        let at = ct
            .transitions
            .iter()
            .zip(&ot.transitions)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| ct.transitions.len().min(ot.transitions.len()));
        return Err(format!(
            "Table 3 decision trace diverged at transition {at} (cold {}, got {})",
            ct.transitions.len(),
            ot.transitions.len()
        ));
    }
    Ok(())
}

/// Runs the full differential protocol for one case.
///
/// # Errors
///
/// Returns the first [`DiffFailure`]: a stage whose results diverged
/// from the cold run, or a stage that failed to execute at all.
pub fn run_case(lab: &Lab, case: &DiffCase) -> Result<DiffOutcome, DiffFailure> {
    let art = lab.artifacts(&case.workload);
    let trace = lab.trace(&case.workload, case.input);
    let cfg = case.config();
    let obs = ObsConfig {
        timeseries: true,
        decisions: true,
        ..ObsConfig::default()
    };
    let build = || {
        SystemBuilder::new(case.system)
            .artifacts(&art)
            .config(cfg.clone())
            .observe(obs)
    };
    let fail = |stage: DiffStage, detail: String| DiffFailure {
        case: case.clone(),
        stage,
        detail,
    };

    let cold = build()
        .run(&trace)
        .map_err(|e| fail(DiffStage::Capture, format!("cold run failed: {e}")))?;

    // Stage 2: checkpoint capture must be read-only.
    let checkpoint = (cold.stats.cycles * case.checkpoint_tenths / 10).max(1);
    let warm = build()
        .warm_checkpoint(checkpoint)
        .run(&trace)
        .map_err(|e| fail(DiffStage::Capture, format!("checkpointing run failed: {e}")))?;
    compare_runs(&cold, &warm).map_err(|d| fail(DiffStage::Capture, d))?;
    let snapshot = warm.snapshot.ok_or_else(|| {
        fail(
            DiffStage::Capture,
            format!(
                "no snapshot captured at cycle {checkpoint} of {}",
                cold.stats.cycles
            ),
        )
    })?;
    let restore_err = |e| {
        fail(
            DiffStage::Capture,
            format!("snapshot does not restore: {e}"),
        )
    };
    let parked_at_capture = snapshot
        .parked_ops(0, &cfg, &trace)
        .map_err(restore_err)?
        .len();
    let l1_missing_at_capture = snapshot
        .l1_missing_ops(0, &cfg, &trace)
        .map_err(restore_err)?
        .len();
    let refused_at_capture = snapshot
        .refused_ops(0, &cfg, &trace)
        .map_err(restore_err)?
        .len();

    // Stage 3: fork from the in-memory snapshot.
    let forked = build()
        .fork_from(&snapshot)
        .run(&trace)
        .map_err(|e| fail(DiffStage::Fork, format!("forked run failed: {e}")))?;
    compare_runs(&cold, &forked).map_err(|d| fail(DiffStage::Fork, d))?;

    // Stage 4: fork from the wire round-trip.
    let bytes = snapshot.to_bytes();
    let restored = Snapshot::from_bytes(&bytes)
        .map_err(|e| fail(DiffStage::WireFork, format!("round-trip parse failed: {e}")))?;
    let reforked = build()
        .fork_from(&restored)
        .run(&trace)
        .map_err(|e| fail(DiffStage::WireFork, format!("wire-forked run failed: {e}")))?;
    compare_runs(&cold, &reforked).map_err(|d| fail(DiffStage::WireFork, d))?;

    Ok(DiffOutcome {
        case: case.clone(),
        cold_cycles: cold.stats.cycles,
        checkpoint_cycle: snapshot.cycle(),
        snapshot_bytes: bytes.len(),
        parked_at_capture,
        l1_missing_at_capture,
        refused_at_capture,
    })
}

/// Runs every case, collecting all failures instead of stopping at the
/// first, so one CI run reports the full damage.
///
/// # Errors
///
/// Returns every [`DiffFailure`] across the population.
pub fn run_suite(lab: &Lab, cases: &[DiffCase]) -> Result<Vec<DiffOutcome>, Vec<DiffFailure>> {
    let mut outcomes = Vec::new();
    let mut failures = Vec::new();
    for case in cases {
        match run_case(lab, case) {
            Ok(o) => outcomes.push(o),
            Err(f) => failures.push(f),
        }
    }
    if failures.is_empty() {
        Ok(outcomes)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_are_deterministic_per_seed() {
        let a = random_cases(42, 8);
        let b = random_cases(42, 8);
        assert_eq!(a, b, "same seed, same population");
        let c = random_cases(43, 8);
        assert_ne!(a, c, "different seed, different population");
        for case in &a {
            assert!(DIFF_WORKLOADS.contains(&case.workload.as_str()));
            assert!(DIFF_SYSTEMS.contains(&case.system));
            assert!((16 * 1024..=256 * 1024).contains(&case.l2_bytes));
            assert!((32..=512).contains(&case.interval_evictions));
            assert!((1..=8).contains(&case.checkpoint_tenths));
        }
    }

    #[test]
    fn compare_runs_reports_stats_divergence() {
        let cold = SystemRun::default();
        let mut other = SystemRun::default();
        other.stats.cycles = 7;
        let err = compare_runs(&cold, &other).unwrap_err();
        assert!(err.contains("RunStats diverged"), "{err}");
    }

    #[test]
    fn compare_runs_requires_the_observability_trace() {
        let cold = SystemRun::default();
        let err = compare_runs(&cold, &cold.clone()).unwrap_err();
        assert!(err.contains("trace missing"), "{err}");
    }
}
