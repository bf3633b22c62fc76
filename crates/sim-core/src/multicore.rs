//! Multi-core simulation: private L1/L2/prefetchers per core, shared memory
//! request buffer, DRAM banks and data bus — and the one cycle loop that
//! every run goes through, [`crate::Machine`] being its one-core case.
//!
//! Methodology follows the paper's multi-core experiments: every core runs
//! its own workload; when a core finishes its trace its statistics are
//! snapshotted and the core *restarts* the trace (with warm caches) so that
//! memory-system contention persists until the slowest core completes.

use crate::dram::Dram;
use crate::engine::{CoreSim, WALL_DEADLINE_POLL_ITERS};
use crate::error::{DiagnosticSnapshot, SimError};
use crate::obs::{ObsCollector, ObsConfig, RunTrace};
use crate::prefetcher::{Aggressiveness, NullObserver, PrefetchObserver, Prefetcher};
use crate::snapshot::{
    config_fingerprint, CoreState, PrefetcherState, SnapReader, SnapWriter, Snapshot, SnapshotError,
};
use crate::stats::RunStats;
use crate::throttling::{NoThrottle, ThrottlePolicy};
use crate::trace::{OpSource, ResidentOps, Trace};
use crate::MachineConfig;
use sim_mem::SimMemory;
use std::sync::Arc;

/// Per-core prefetcher + throttling configuration for [`MultiMachine`].
pub struct CoreSetup {
    /// Prefetchers, registration order = [`crate::PrefetcherId`].
    pub prefetchers: Vec<Box<dyn Prefetcher>>,
    /// Throttling policy for this core.
    pub throttle: Box<dyn ThrottlePolicy>,
}

impl CoreSetup {
    /// A core with no prefetching and no throttling.
    pub fn bare() -> Self {
        CoreSetup {
            prefetchers: Vec::new(),
            throttle: Box::new(NoThrottle),
        }
    }
}

impl std::fmt::Debug for CoreSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreSetup")
            .field("prefetchers", &self.prefetchers.len())
            .finish()
    }
}

/// Results of a multi-core run.
#[derive(Debug, Clone)]
pub struct MultiRunStats {
    /// Per-core statistics, snapshotted when each core first completed its
    /// trace.
    pub per_core: Vec<RunStats>,
    /// Total bus transfers across all cores during the measured region.
    pub total_bus_transfers: u64,
    /// Per-core observability traces (empty unless enabled with
    /// [`MultiMachine::set_obs`]; one entry per core otherwise).
    pub traces: Vec<RunTrace>,
}

impl MultiRunStats {
    /// Weighted speedup against per-core alone IPCs (Snavely & Tullsen):
    /// `sum_i IPC_shared_i / IPC_alone_i`.
    pub fn weighted_speedup(&self, alone_ipc: &[f64]) -> f64 {
        self.per_core
            .iter()
            .zip(alone_ipc)
            .map(|(s, &a)| s.ipc() / a)
            .sum()
    }

    /// Harmonic-mean speedup (Luo et al.): `n / sum_i (IPC_alone_i /
    /// IPC_shared_i)`.
    pub fn hmean_speedup(&self, alone_ipc: &[f64]) -> f64 {
        let n = self.per_core.len() as f64;
        let denom: f64 = self
            .per_core
            .iter()
            .zip(alone_ipc)
            .map(|(s, &a)| a / s.ipc())
            .sum();
        n / denom
    }

    /// Unfairness: the maximum per-core slowdown (`IPC_alone / IPC_shared`)
    /// divided by the minimum — 1.0 means perfectly even degradation.
    pub fn unfairness(&self, alone_ipc: &[f64]) -> f64 {
        let slowdowns: Vec<f64> = self
            .per_core
            .iter()
            .zip(alone_ipc)
            .map(|(s, &a)| a / s.ipc().max(1e-12))
            .collect();
        let max = slowdowns.iter().cloned().fold(f64::MIN, f64::max);
        let min = slowdowns.iter().cloned().fold(f64::MAX, f64::min);
        max / min.max(1e-12)
    }
}

/// How a run ends — the one part of the chip loop that depends on the
/// caller, because the paper measures one core and a mix differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EndOfRun {
    /// Single-core: the run is over once the trace retires; the caller
    /// drains the memory system and reads the statistics off the core.
    Retire,
    /// Multi-core: each core's statistics are snapshotted when it first
    /// finishes, and the core is rewound until every core has finished.
    Rewind,
}

/// Run controls shared by [`crate::Machine`] and [`MultiMachine`]: what
/// to collect, when to give up, and the warm checkpoint to capture or
/// resume from.
#[derive(Default)]
pub(crate) struct RunControls {
    pub(crate) obs_config: Option<ObsConfig>,
    pub(crate) validate_config: Option<crate::validate::ValidateConfig>,
    pub(crate) cycle_budget: Option<u64>,
    pub(crate) wall_deadline: Option<std::time::Duration>,
    /// Reference stepper: crawl idle regions one cycle at a time.
    pub(crate) no_skip: bool,
    pub(crate) warm_cycles: Option<u64>,
    pub(crate) captured: Option<Snapshot>,
    pub(crate) resume: Option<Snapshot>,
}

impl RunControls {
    /// Arms the next run to resume from `snapshot` once it is known to
    /// fit: the same core count and end-of-run policy (single-core
    /// snapshots carry no per-core finish records), the same configuration
    /// fingerprint, and the same prefetcher/throttle registration on every
    /// core.
    pub(crate) fn arm_fork(
        &mut self,
        snapshot: &Snapshot,
        config: &MachineConfig,
        cores: &[CoreSetup],
        end: EndOfRun,
    ) -> Result<(), SimError> {
        let reject = |msg: String| Err(SimError::SnapshotRejected(msg));
        let n = cores.len();
        let records = if end == EndOfRun::Rewind { n } else { 0 };
        let shape = |s: &Snapshot| (s.cores.len(), s.finished.len(), s.bus_at_start.len());
        if shape(snapshot) != (n, records, records) {
            let (cores, finished, _) = shape(snapshot);
            return reject(format!(
                "{n}-core machine ({records} finish records) cannot fork a {cores}-core \
                 snapshot ({finished} finish records)"
            ));
        }
        let fp = config_fingerprint(config);
        if snapshot.config_fp != fp {
            return reject(format!(
                "configuration fingerprint {fp:#018x} != snapshot {:#018x}",
                snapshot.config_fp
            ));
        }
        for (c, (cs, setup)) in snapshot.cores.iter().zip(cores).enumerate() {
            // Prefetcher names in registration order, then the throttle's.
            let saved = cs.prefetchers.iter().chain([&cs.throttle]);
            let saved: Vec<&str> = saved.map(|p| &*p.name).collect();
            let ours = setup.prefetchers.iter().map(|p| p.name());
            let ours: Vec<&str> = ours.chain([setup.throttle.name()]).collect();
            if saved != ours {
                return reject(format!(
                    "core {c}: snapshot has {saved:?}, machine has {ours:?}"
                ));
            }
        }
        self.resume = Some(snapshot.clone());
        Ok(())
    }
}

/// The simulated chip mid-run: one [`CoreSim`] per core, the shared DRAM
/// system and the clock.
pub(crate) struct Chip {
    pub(crate) sims: Vec<CoreSim>,
    pub(crate) dram: Dram,
    pub(crate) now: u64,
    /// Under [`EndOfRun::Rewind`], each core's statistics from its first
    /// finish; empty under [`EndOfRun::Retire`].
    finished: Vec<Option<RunStats>>,
    /// Per-core bus-transfer baselines, shaped like `finished`.
    bus_at_start: Vec<u64>,
}

impl Chip {
    /// Whether the run goes on under `end`.
    fn running(&self, end: EndOfRun) -> bool {
        match end {
            EndOfRun::Retire => !self.sims[0].finished(),
            EndOfRun::Rewind => self.finished.iter().any(Option::is_none),
        }
    }

    /// The state attached to an error: that of the first core that has
    /// not finished its trace (rewound cores count as finished), which is
    /// core 0 on a single-core chip.
    #[cold]
    #[inline(never)]
    fn diagnose(&self) -> DiagnosticSnapshot {
        let unfinished = self.finished.iter().position(Option::is_none);
        self.sims[unfinished.unwrap_or_default()].snapshot(self.now, &self.dram)
    }

    /// Core `c`'s statistics as a run reports them: its counters at
    /// `cycles`, its share of the bus, and its prefetchers' names.
    pub(crate) fn core_stats(
        &self,
        c: usize,
        mut stats: RunStats,
        cycles: u64,
        setup: &CoreSetup,
        bus_transfer_cycles: u64,
    ) -> RunStats {
        stats.cycles = cycles.max(1);
        stats.bus_transfers = self.dram.bus_transfers_for(c as u8)
            - self.bus_at_start.get(c).copied().unwrap_or_default();
        stats.bus_busy_cycles = stats.bus_transfers * bus_transfer_cycles;
        for (s, p) in stats.prefetchers.iter_mut().zip(&setup.prefetchers) {
            s.name = p.name().to_string();
        }
        stats
    }

    /// Reads the complete chip state into a [`Snapshot`]. Pure read:
    /// simulation state is untouched (memory pages are CoW-shared). Each
    /// prefetcher's level is captured here, generically, so stateless
    /// prefetchers need no [`Prefetcher::save_state`] override; throttles
    /// store a fixed placeholder level.
    #[cold]
    #[inline(never)]
    fn capture(&self, config: &MachineConfig, cores: &[CoreSetup]) -> Snapshot {
        let saved = |name: &str, level, save: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            save(&mut w);
            let (name, data) = (name.to_string(), w.into_bytes());
            PrefetcherState { name, level, data }
        };
        let cores = self.sims.iter().zip(cores).map(|(sim, setup)| CoreState {
            mem: Arc::new(sim.mem.clone()),
            core: sim.save_warm(self.now),
            prefetchers: (setup.prefetchers.iter())
                .map(|p| saved(p.name(), p.aggressiveness(), &|w| p.save_state(w)))
                .collect(),
            throttle: saved(setup.throttle.name(), Aggressiveness::Aggressive, &|w| {
                setup.throttle.save_state(w);
            }),
        });
        Snapshot {
            cycle: self.now,
            config_fp: config_fingerprint(config),
            cores: cores.collect(),
            dram: self.dram.save_state(),
            finished: self.finished.clone(),
            bus_at_start: self.bus_at_start.clone(),
        }
    }

    /// Applies a snapshot armed by [`RunControls::arm_fork`] (which has
    /// checked the registration, so every zip below is length-matched) to
    /// the freshly built chip.
    #[inline(never)]
    fn restore(&mut self, snap: &Snapshot, cores: &mut [CoreSetup]) -> Result<(), SnapshotError> {
        for ((sim, setup), cs) in self.sims.iter_mut().zip(cores).zip(&snap.cores) {
            sim.restore_warm(cs)?;
            for (p, st) in setup.prefetchers.iter_mut().zip(&cs.prefetchers) {
                p.set_aggressiveness(st.level);
                let mut r = SnapReader::new(&st.data);
                p.load_state(&mut r)?;
                r.finish()?;
            }
            let mut r = SnapReader::new(&cs.throttle.data);
            setup.throttle.load_state(&mut r)?;
            r.finish()?;
        }
        self.dram.restore_state(&snap.dram)?;
        self.finished.clone_from(&snap.finished);
        self.bus_at_start.clone_from(&snap.bus_at_start);
        self.now = snap.cycle;
        Ok(())
    }

    /// The next cycle to visit after an idle one: the very next cycle if
    /// any core could act on it (or under the reference stepper), else
    /// the earliest pending event. A chip with nothing in flight anywhere
    /// can never change state again, so it is reported as deadlocked at
    /// once instead of idling through the whole watchdog budget.
    fn next_visit<O: OpSource>(&self, ops: &mut [O], no_skip: bool) -> Result<u64, SimError> {
        let now = self.now;
        let dram_full = self.dram.is_full();
        let mut cores = self.sims.iter().zip(ops.iter_mut());
        if cores.any(|(s, o)| s.has_immediate_work(o, now, dram_full)) {
            return Ok(now + 1);
        }
        let local = self.sims.iter().filter_map(|s| s.next_local_event(now));
        match local.chain(self.dram.next_event(now)).min() {
            Some(e) => Ok(if no_skip { now + 1 } else { e }),
            None => Err(SimError::Deadlock(self.diagnose())),
        }
    }
}

/// The one cycle loop behind [`crate::Machine::run`],
/// [`crate::Machine::run_streamed`] and [`MultiMachine::run`]: builds a
/// chip of `cores.len()` cores (resuming an armed fork), then advances it
/// until `end` says the run is over and hands it back for the caller to
/// finish the run.
///
/// Each visited cycle captures an armed warm checkpoint, applies DRAM
/// completions, steps every core in an order rotated for fairness, then
/// checks the watchdog, the cycle budget and the wall-clock deadline
/// before moving the clock to the next cycle or event. Always inlined, so
/// each caller's copy is specialised to its policy and core count (one
/// for [`crate::Machine`]); once-per-run and error paths stay out of line.
#[inline(always)]
pub(crate) fn run_chip<O: OpSource>(
    config: &Arc<MachineConfig>,
    ctl: &mut RunControls,
    cores: &mut [CoreSetup],
    initial_memory: &[&SimMemory],
    ops: &mut [O],
    observer: &mut dyn PrefetchObserver,
    end: EndOfRun,
) -> Result<Chip, SimError> {
    let n = cores.len();
    let sims = (0..n)
        .map(|c| {
            let mut sim = CoreSim::new(
                c as u8,
                Arc::clone(config),
                initial_memory[c],
                ops[c].total_ops(),
                cores[c].prefetchers.len(),
                ctl.resume.is_some(),
            );
            sim.obs = ctl.obs_config.map(|cfg| Box::new(ObsCollector::new(cfg)));
            if ctl.validate_config.is_some() {
                sim.validate = crate::validate::runtime_validator_for(ctl.validate_config.as_ref());
            }
            sim
        })
        .collect();
    let records = if end == EndOfRun::Rewind { n } else { 0 };
    let mut chip = Chip {
        sims,
        dram: Dram::new(config.dram.clone(), n as u32),
        now: 0,
        finished: vec![None; records],
        bus_at_start: vec![0; records],
    };
    ctl.captured = None;
    if let Some(snap) = ctl.resume.take() {
        let rejected = |e: SnapshotError| SimError::SnapshotRejected(e.to_string());
        chip.restore(&snap, cores).map_err(rejected)?;
    }
    let mut capture_at = ctl.warm_cycles.unwrap_or(u64::MAX);
    let wall = ctl
        .wall_deadline
        .map(|limit| (std::time::Instant::now(), limit));
    let mut wall_poll: u32 = 0;

    while chip.running(end) {
        let now = chip.now;
        // Warm-state capture: a pure read of chip state at the top of the
        // loop, before this cycle's DRAM tick, so an armed checkpoint never
        // perturbs the run and a forked chip re-enters the loop at exactly
        // this point.
        if now >= capture_at {
            capture_at = u64::MAX;
            ctl.captured = Some(chip.capture(config, cores));
        }
        let mut activity = false;
        let completions = chip.dram.tick(now);
        if !completions.is_empty() {
            // Each completion frees an MSHR or a request-buffer slot.
            chip.sims.iter_mut().for_each(CoreSim::miss_slot_freed);
        }
        for completion in completions {
            let c = completion.request.core as usize;
            chip.sims[c].apply_completion(completion, now, &mut cores[c].prefetchers, observer);
            activity = true;
        }
        // Rotate core service order for fairness.
        let first = if n == 1 { 0 } else { (now % n as u64) as usize };
        for c in (first..n).chain(0..first) {
            let (sim, setup) = (&mut chip.sims[c], &mut cores[c]);
            activity |= sim.step(
                &mut ops[c],
                now,
                &mut chip.dram,
                &mut setup.prefetchers,
                observer,
            );
            activity |= sim.issue_to_dram(&mut chip.dram, now, observer);
            sim.maybe_end_interval(
                &mut setup.prefetchers,
                setup.throttle.as_mut(),
                now,
                chip.dram.bus_transfers_for(c as u8),
                chip.dram.bus_busy_slack(),
            );
            if end == EndOfRun::Rewind && sim.finished() {
                if chip.finished[c].is_none() {
                    let stats = sim.stats.clone();
                    let stats =
                        chip.core_stats(c, stats, now, setup, config.dram.bus_transfer_cycles);
                    chip.finished[c] = Some(stats);
                }
                // Restart the trace to keep generating contention (unless
                // everyone is done).
                if chip.running(end) {
                    chip.sims[c].rewind(initial_memory[c]);
                }
            }
        }

        // Watchdog: if *no* core retired or drained an MSHR within the
        // deadlock budget, the chip is livelocked even if "activity"
        // (e.g. prefetch churn) never ceases.
        let newest_progress = chip.sims.iter().map(CoreSim::last_progress).max();
        if now.saturating_sub(newest_progress.unwrap_or(0)) >= config.deadlock_cycles {
            return Err(SimError::Deadlock(chip.diagnose()));
        }
        if let Some(budget) = ctl.cycle_budget {
            if now >= budget {
                return Err(SimError::CycleBudgetExceeded {
                    budget,
                    snapshot: chip.diagnose(),
                });
            }
        }
        // Wall-clock deadline, polled coarsely so `Instant::now` stays off
        // the hot path: on overrun the run dies with a diagnostic snapshot.
        if let Some((started, limit)) = wall {
            wall_poll += 1;
            if wall_poll >= WALL_DEADLINE_POLL_ITERS {
                wall_poll = 0;
                if started.elapsed() >= limit {
                    return Err(SimError::DeadlineExceeded {
                        deadline_ms: limit.as_millis() as u64,
                        snapshot: chip.diagnose(),
                    });
                }
            }
        }

        chip.now = if activity {
            now + 1
        } else {
            // Never past an armed budget, so it trips on the cycle the
            // reference stepper reports.
            let next = chip.next_visit(ops, ctl.no_skip)?;
            ctl.cycle_budget.map_or(next, |budget| next.min(budget))
        };
    }
    Ok(chip)
}

/// A chip multiprocessor: N cores with private cache hierarchies sharing the
/// DRAM system.
pub struct MultiMachine {
    config: Arc<MachineConfig>,
    cores: Vec<CoreSetup>,
    ctl: RunControls,
}

impl MultiMachine {
    /// Creates a multi-core machine from per-core setups. The configuration
    /// is shared (not cloned) across all cores.
    pub fn new(config: impl Into<Arc<MachineConfig>>, cores: Vec<CoreSetup>) -> Self {
        MultiMachine {
            config: config.into(),
            cores,
            ctl: RunControls::default(),
        }
    }

    /// Caps the wall-clock time of a run, mirroring
    /// [`crate::Machine::set_wall_deadline`]: on overrun the run fails
    /// with [`SimError::DeadlineExceeded`] carrying a diagnostic
    /// snapshot of the first unfinished core. `None` disarms.
    pub fn set_wall_deadline(&mut self, deadline: Option<std::time::Duration>) -> &mut Self {
        self.ctl.wall_deadline = deadline;
        self
    }

    /// Enables observability collection on every core for subsequent runs.
    pub fn set_obs(&mut self, cfg: ObsConfig) -> &mut Self {
        self.ctl.obs_config = cfg.any().then_some(cfg);
        self
    }

    /// Opts every core into (or out of) the paper-conformance runtime
    /// invariants, mirroring [`crate::Machine::set_validate`]. Only the
    /// interval-boundary checks run here: per-core statistics are
    /// snapshotted mid-flight while rewound cores keep generating
    /// contention, so the end-of-run exact decomposition does not apply.
    pub fn set_validate(&mut self, cfg: crate::validate::ValidateConfig) -> &mut Self {
        self.ctl.validate_config = Some(cfg);
        self
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Arms warm-state capture, mirroring
    /// [`crate::Machine::set_warm_checkpoint`]: the next
    /// [`MultiMachine::run`] records a [`Snapshot`] of every core plus the
    /// shared DRAM system at the first visited cycle at or past `cycles`.
    /// Capture is a pure read; `None` disarms.
    pub fn set_warm_checkpoint(&mut self, cycles: Option<u64>) -> &mut Self {
        self.ctl.warm_cycles = cycles;
        self
    }

    /// Removes and returns the snapshot captured by the most recent run.
    pub fn take_snapshot(&mut self) -> Option<Snapshot> {
        self.ctl.captured.take()
    }

    /// Arms the next [`MultiMachine::run`] to resume from `snapshot`.
    /// Single-shot, and the forked run must replay the **same traces** the
    /// snapshot was captured on (see [`crate::Machine::fork_from`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotRejected`] when the snapshot's core
    /// count differs from this machine's, was captured under a different
    /// configuration (fingerprint mismatch), or any core's
    /// prefetcher/throttle registration does not match.
    pub fn fork_from(&mut self, snapshot: &Snapshot) -> Result<&mut Self, SimError> {
        self.ctl
            .arm_fork(snapshot, &self.config, &self.cores, EndOfRun::Rewind)?;
        Ok(self)
    }

    /// Runs one trace per core until every core has completed its trace at
    /// least once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] (with a diagnostic snapshot of the
    /// first unfinished core) when no core makes forward progress for the
    /// configured `deadlock_cycles`, or when the whole chip goes
    /// quiescent with unfinished work.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the core count.
    pub fn run(&mut self, traces: &[Trace]) -> Result<MultiRunStats, SimError> {
        assert_eq!(traces.len(), self.cores.len(), "one trace per core");
        let memories: Vec<&SimMemory> = traces.iter().map(|t| &t.initial_memory).collect();
        let mut ops: Vec<ResidentOps<'_>> = traces.iter().map(|t| ResidentOps(&t.ops)).collect();
        let mut chip = run_chip(
            &self.config,
            &mut self.ctl,
            &mut self.cores,
            &memories,
            &mut ops,
            &mut NullObserver,
            EndOfRun::Rewind,
        )?;
        for sim in &mut chip.sims {
            if let Some(v) = sim.validate.take() {
                v.into_error()?;
            }
        }
        // Every core collects under `set_obs`, none otherwise.
        let traces = chip.sims.iter_mut().filter_map(|s| s.obs.take());
        let traces = traces.map(|o| o.into_trace()).collect();
        Ok(MultiRunStats {
            per_core: chip.finished.into_iter().flatten().collect(),
            total_bus_transfers: chip.dram.bus_transfers(),
            traces,
        })
    }
}

impl std::fmt::Debug for MultiMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiMachine")
            .field("cores", &self.cores.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::StreakPrefetcher;
    use crate::trace::TraceBuilder;
    use proptest::prelude::*;
    use sim_mem::layout;

    fn stream_trace(len: u32, base_off: u32) -> Trace {
        let mut tb = TraceBuilder::new(SimMemory::new());
        for i in 0..len {
            tb.load(0x400, layout::HEAP_BASE + base_off + i * 64, None);
            tb.compute(4);
        }
        tb.finish()
    }

    #[test]
    fn two_cores_complete() {
        let cfg = MachineConfig::default();
        let mut mm = MultiMachine::new(cfg, vec![CoreSetup::bare(), CoreSetup::bare()]);
        let t0 = stream_trace(500, 0);
        let t1 = stream_trace(500, 0x100_0000);
        let r = mm.run(&[t0, t1]).expect("run");
        assert_eq!(r.per_core.len(), 2);
        for s in &r.per_core {
            assert_eq!(s.retired_instructions, 500 * 5);
            assert!(s.cycles > 0);
        }
        assert!(r.total_bus_transfers >= 1000);
    }

    #[test]
    fn contention_slows_cores_down() {
        let cfg = MachineConfig::default();
        let alone = {
            let mut m = crate::Machine::new(cfg.clone());
            m.run(&stream_trace(500, 0)).expect("run")
        };
        let mut mm = MultiMachine::new(
            cfg,
            vec![
                CoreSetup::bare(),
                CoreSetup::bare(),
                CoreSetup::bare(),
                CoreSetup::bare(),
            ],
        );
        let traces: Vec<Trace> = (0..4).map(|i| stream_trace(500, i * 0x100_0000)).collect();
        let r = mm.run(&traces).expect("run");
        // With four cores sharing the bus, at least one core must be slower
        // than running alone.
        assert!(
            r.per_core.iter().any(|s| s.cycles > alone.cycles),
            "expected shared-resource contention"
        );
    }

    #[test]
    fn forked_multicore_run_matches_cold_run() {
        let cfg = MachineConfig::default();
        let traces: Vec<Trace> = (0..2).map(|i| stream_trace(400, i * 0x100_0000)).collect();
        let mut cold = MultiMachine::new(cfg.clone(), vec![CoreSetup::bare(), CoreSetup::bare()]);
        cold.set_obs(ObsConfig::enabled());
        let base = cold.run(&traces).expect("run");

        let mut warm = MultiMachine::new(cfg.clone(), vec![CoreSetup::bare(), CoreSetup::bare()]);
        warm.set_obs(ObsConfig::enabled());
        let warm_at = base.per_core.iter().map(|s| s.cycles).max().expect("cores") / 2;
        warm.set_warm_checkpoint(Some(warm_at));
        let unperturbed = warm.run(&traces).expect("run");
        assert_eq!(
            base.per_core, unperturbed.per_core,
            "capture is a pure read"
        );
        assert_eq!(base.total_bus_transfers, unperturbed.total_bus_transfers);
        let snap = warm.take_snapshot().expect("snapshot");
        // Round-trip through the wire format, then fork a fresh machine.
        let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("decode");

        let mut fork = MultiMachine::new(cfg.clone(), vec![CoreSetup::bare(), CoreSetup::bare()]);
        fork.set_obs(ObsConfig::enabled());
        fork.fork_from(&snap).expect("fork");
        let stats = fork.run(&traces).expect("forked run");
        assert_eq!(base.per_core, stats.per_core, "forked run is bit-identical");
        assert_eq!(base.total_bus_transfers, stats.total_bus_transfers);
        assert_eq!(base.traces, stats.traces);

        // Core-count mismatch is rejected eagerly.
        let mut wrong = MultiMachine::new(cfg, vec![CoreSetup::bare()]);
        let err = wrong.fork_from(&snap).expect_err("core count mismatch");
        assert_eq!(err.kind(), "snapshot-rejected");
        // And a multi-core snapshot cannot fork a single-core machine.
        let err = crate::Machine::new(MachineConfig::default())
            .fork_from(&snap)
            .expect_err("multi snapshot into single-core machine");
        assert_eq!(err.kind(), "snapshot-rejected");
    }

    /// Random loads (half of them address-dependent on the previous load),
    /// stores and compute bursts over 2,000 blocks from `base` up.
    fn random_trace(spec: &[(u32, u8, u32)], base: u32) -> Trace {
        let mut tb = TraceBuilder::new(SimMemory::new());
        let mut last_load = None;
        for &(block, kind, count) in spec {
            let addr = layout::HEAP_BASE + base + block * 64;
            match kind {
                0..=4 => {
                    let dep = if kind % 2 == 0 { last_load } else { None };
                    last_load = Some(tb.load(0x10 + u32::from(kind), addr, dep).1);
                }
                5..=6 => tb.store(0x20, addr, count, None),
                _ => tb.compute(count),
            }
        }
        tb.finish()
    }

    // The event-skipping clock must be invisible on a shared chip too: the
    // cycle-by-cycle reference stepper reproduces every core's statistics,
    // interval time series and prefetch lifecycle byte for byte. A few
    // cases starve one core of request-buffer slots for as long as the
    // others keep rewinding; those end at a cycle budget well past every
    // finishing case (~130k cycles), where both clocks must report the
    // same diagnostic snapshot.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn skip_ahead_matches_reference_stepper_on_random_chips(
            specs in proptest::collection::vec(
                proptest::collection::vec((0u32..2000, 0u8..10, 1u32..20), 1..150),
                2..5,
            ),
            prefetching in 0u8..16,
            request_buffer_per_core in 2u32..17,
            l2_mshrs in 2u32..33,
            window_size in 8u32..257,
        ) {
            // Tiny caches (1 KB L1, 4 KB L2) and 16-eviction intervals, so
            // short traces evict, pollute and cross interval boundaries.
            let cache = |bytes, ways, hit_latency| crate::cache::CacheConfig {
                bytes,
                ways,
                hit_latency,
            };
            let mut cfg = MachineConfig {
                l1: cache(1024, 2, 2),
                l2: cache(4096, 8, 15),
                interval_evictions: 16,
                l2_mshrs,
                ..MachineConfig::default()
            };
            cfg.dram.request_buffer_per_core = request_buffer_per_core;
            cfg.core.window_size = window_size;
            let cfg = Arc::new(cfg);
            let traces: Vec<Trace> = (specs.iter().enumerate())
                .map(|(c, spec)| random_trace(spec, c as u32 * 0x10_0000))
                .collect();
            let run = |no_skip: bool| {
                let cores = (0..traces.len()).map(|c| {
                    let mut setup = CoreSetup::bare();
                    if prefetching & (1 << c) != 0 {
                        setup.prefetchers.push(Box::new(StreakPrefetcher::new()));
                    }
                    setup
                });
                let mut mm = MultiMachine::new(Arc::clone(&cfg), cores.collect());
                mm.set_obs(ObsConfig {
                    lifecycle: true,
                    ..ObsConfig::enabled()
                });
                mm.ctl.no_skip = no_skip;
                mm.ctl.cycle_budget = Some(200_000);
                format!("{:?}", mm.run(&traces))
            };
            prop_assert_eq!(run(false), run(true));
        }
    }

    #[test]
    fn speedup_metrics_are_sane() {
        let stats = MultiRunStats {
            per_core: vec![
                RunStats {
                    cycles: 100,
                    retired_instructions: 100,
                    ..Default::default()
                },
                RunStats {
                    cycles: 100,
                    retired_instructions: 50,
                    ..Default::default()
                },
            ],
            total_bus_transfers: 0,
            traces: Vec::new(),
        };
        // Alone IPCs of 1.0 and 1.0: weighted speedup = 1.0 + 0.5.
        let ws = stats.weighted_speedup(&[1.0, 1.0]);
        assert!((ws - 1.5).abs() < 1e-12);
        // Slowdowns are 1.0 and 2.0: unfairness = 2.0.
        assert!((stats.unfairness(&[1.0, 1.0]) - 2.0).abs() < 1e-9);
        // denom = 1/1 + 1/0.5 = 3, hmean speedup = 2/3.
        let hs = stats.hmean_speedup(&[1.0, 1.0]);
        assert!((hs - 2.0 / 3.0).abs() < 1e-9);
    }
}
