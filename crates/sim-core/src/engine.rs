//! The single-core timing engine.
//!
//! [`Machine`] replays a [`Trace`] through an out-of-order instruction
//! window attached to an L1/L2/DRAM hierarchy with pluggable prefetchers
//! and a throttling policy. See the crate docs for the modelling approach.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use sim_mem::{block_of, Addr, SimMemory};

use crate::cache::{Cache, LineState};
use crate::config::MachineConfig;
use crate::dram::{Dram, DramCompletion, DramRequest};
use crate::error::{DiagnosticSnapshot, SimError};
use crate::issue_queue::{IssueQueue, NOT_DONE};
use crate::mshr::MshrFile;
use crate::multicore::{run_chip, CoreSetup, EndOfRun, RunControls};
use crate::obs::{
    IntervalObservation, LifecycleEvent, LifecycleStage, ObsCollector, ObsConfig, PrefetcherSample,
    RunTrace, ThrottleTransition,
};
use crate::prefetcher::{
    AccessKind, Aggressiveness, DemandAccess, FillEvent, NullObserver, PrefetchCtx,
    PrefetchObserver, PrefetchRequest, Prefetcher, PrefetcherId,
};
use crate::snapshot::{CoreState, SnapReader, SnapWriter, Snapshot, SnapshotError};
use crate::stats::{PrefetcherStats, RunStats};
use crate::throttling::{FeedbackCounters, IntervalFeedback, ThrottleDecision, ThrottlePolicy};
use crate::trace::{OpKind, OpSource, ResidentOps, Trace, TraceOp};

/// Size of the direct-mapped pollution filter (blocks evicted by
/// prefetches, consulted on demand misses — FDP-style accounting).
const POLLUTION_FILTER_ENTRIES: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct WinEntry {
    op_idx: u32,
    instrs: u32,
    retired: u32,
    issued: bool,
    counted_l1: bool,
    counted_l2: bool,
    value: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PollutionSlot {
    block_addr: Addr,
    by: PrefetcherId,
}

/// Per-core microarchitectural state (shared between the single-core
/// [`Machine`] and the multi-core engine).
pub(crate) struct CoreSim {
    pub(crate) core_id: u8,
    cfg: Arc<MachineConfig>,
    pub(crate) mem: SimMemory,
    /// Number of ops in the trace this core replays (the op stream itself
    /// is handed to [`CoreSim::step`] each cycle, so a streamed source
    /// never has to be fully resident).
    total_ops: usize,
    next_dispatch: usize,
    window: VecDeque<WinEntry>,
    window_instrs: u32,
    /// Completion cycles of in-window ops and the pending memory ops,
    /// indexed by readiness.
    iq: IssueQueue,
    /// Set by a warm restore, which has no op source to read
    /// dependences from: the next [`CoreSim::step`] rebuilds `iq`.
    iq_stale: bool,
    /// Issued memory ops still occupying LSQ slots.
    lsq_used: u32,
    /// Completion wheel: min-heap of `(completion cycle, op)` for issued
    /// memory ops. Replaces the per-cycle `outstanding.retain` scan —
    /// expired entries pop from the top, and the top entry doubles as the
    /// core's earliest wake-up event for idle-cycle skipping.
    inflight: BinaryHeap<Reverse<(u64, u32)>>,
    l1: Cache,
    pub(crate) l2: Cache,
    pub(crate) mshrs: MshrFile,
    pf_queue: VecDeque<PrefetchRequest>,
    /// Reused staging buffer for prefetcher request generation, so the
    /// steady state allocates no per-event `Vec`s.
    pf_scratch: Vec<PrefetchRequest>,
    pollution: Vec<Option<PollutionSlot>>,
    pending_writebacks: VecDeque<Addr>,
    pub(crate) counters: Vec<FeedbackCounters>,
    misses_smoothed: f64,
    cur_misses: u64,
    last_interval_evictions: u64,
    pub(crate) stats: RunStats,
    /// Observability collector; `None` (the default) keeps every hook on
    /// the hot path down to a pointer null-check.
    pub(crate) obs: Option<Box<ObsCollector>>,
    /// Paper-conformance validator; `None` (the default without the
    /// `validate` feature) keeps the hook down to a pointer null-check,
    /// mirroring `obs`.
    pub(crate) validate: Option<Box<crate::validate::RuntimeValidator>>,
    pub(crate) retired_ops: usize,
    /// Last cycle with *forward progress*: an instruction retired or an
    /// MSHR drained. Activity without progress (e.g. a prefetcher
    /// spinning against a full queue) does not move this, which is what
    /// lets the watchdog catch livelocks that the quiescence check
    /// cannot see.
    last_progress: u64,
}

impl CoreSim {
    pub(crate) fn new(
        core_id: u8,
        cfg: Arc<MachineConfig>,
        initial_memory: &SimMemory,
        total_ops: usize,
        num_prefetchers: usize,
        warm_resume: bool,
    ) -> Self {
        let l1 = Cache::new(cfg.l1);
        let l2 = Cache::new(cfg.l2);
        let mshrs = MshrFile::new(cfg.l2_mshrs);
        let stats = RunStats {
            prefetchers: (0..num_prefetchers)
                .map(|_| PrefetcherStats::default())
                .collect(),
            ..Default::default()
        };
        let mut sim = CoreSim {
            core_id,
            cfg,
            // Copy-on-write snapshot: shares pages with the trace. A
            // machine about to resume from a warm snapshot skips the
            // clone — `restore_warm` overwrites the image anyway.
            mem: if warm_resume {
                SimMemory::new()
            } else {
                initial_memory.clone()
            },
            total_ops,
            next_dispatch: 0,
            window: VecDeque::new(),
            window_instrs: 0,
            iq: IssueQueue::new(),
            iq_stale: false,
            lsq_used: 0,
            inflight: BinaryHeap::new(),
            l1,
            l2,
            mshrs,
            pf_queue: VecDeque::new(),
            pf_scratch: Vec::new(),
            pollution: vec![None; POLLUTION_FILTER_ENTRIES],
            pending_writebacks: VecDeque::new(),
            counters: (0..num_prefetchers)
                .map(|_| FeedbackCounters::default())
                .collect(),
            misses_smoothed: 0.0,
            cur_misses: 0,
            last_interval_evictions: 0,
            stats,
            obs: None,
            validate: crate::validate::default_runtime_validator(),
            retired_ops: 0,
            last_progress: 0,
        };
        sim.reset_replay();
        sim
    }

    /// Records a prefetch lifecycle event if lifecycle tracing is on.
    fn obs_lifecycle(
        &mut self,
        cycle: u64,
        stage: LifecycleStage,
        pid: PrefetcherId,
        addr: Addr,
        late: bool,
    ) {
        if let Some(o) = self.obs.as_deref_mut() {
            if o.lifecycle_enabled() {
                o.record_lifecycle(LifecycleEvent {
                    cycle,
                    stage,
                    prefetcher: pid.0,
                    addr,
                    late,
                });
            }
        }
    }

    /// Rewinds replay state for another pass over the trace (multi-core
    /// restart), keeping caches, prefetcher state and counters warm.
    pub(crate) fn rewind(&mut self, initial_memory: &SimMemory) {
        // Restore from the shared copy-on-write snapshot, reusing this
        // core's page-table allocation (no page data is copied).
        self.mem.clone_from(initial_memory);
        self.reset_replay();
    }

    /// Replay-cursor reset shared by [`CoreSim::new`] and
    /// [`CoreSim::rewind`].
    fn reset_replay(&mut self) {
        self.next_dispatch = 0;
        self.window.clear();
        self.window_instrs = 0;
        self.iq.reset(self.cfg.core.window_size, self.cfg.l1.sets());
        // Outstanding ops and MSHR waiters refer to the finished pass; the
        // multi-core driver only rewinds once the window has drained, so
        // these are empty by construction.
        self.lsq_used = 0;
        self.inflight.clear();
        self.retired_ops = 0;
    }

    /// Dispatched memory ops not yet issued, in program order: exactly the
    /// window entries that are unissued and have no completion cycle
    /// (compute ops get theirs at dispatch).
    fn pending_mem(&self) -> Vec<u32> {
        self.window
            .iter()
            .filter(|e| !e.issued && self.iq.done(e.op_idx as usize) == NOT_DONE)
            .map(|e| e.op_idx)
            .collect()
    }

    /// Re-enqueues every pending memory op after a warm restore.
    fn rebuild_issue_queue<O: OpSource>(&mut self, ops: &mut O, now: u64) {
        for op_idx in self.pending_mem() {
            let dep = ops.op(op_idx as usize).dep;
            self.iq.insert(op_idx as usize, dep, now);
        }
        self.iq_stale = false;
    }

    /// Restores `cs` at cycle `now` and rebuilds the issue queue from
    /// `ops`, as a fork's first step does.
    pub(crate) fn restore_rebuilt<O: OpSource>(
        &mut self,
        cs: &CoreState,
        ops: &mut O,
        now: u64,
    ) -> Result<(), SnapshotError> {
        self.restore_warm(cs)?;
        self.rebuild_issue_queue(ops, now);
        Ok(())
    }

    /// Pending memory ops parked on a producer whose completion is still
    /// unknown (see [`Snapshot::parked_ops`]).
    pub(crate) fn parked(&self) -> Vec<u32> {
        self.iq.parked()
    }

    /// Ready memory ops whose block is not in the L1, in program order
    /// (see [`Snapshot::l1_missing_ops`]).
    pub(crate) fn ready_l1_misses<O: OpSource>(&self, ops: &mut O) -> Vec<u32> {
        self.ready_where(ops, |op| self.l1.probe(op.addr).is_none())
    }

    /// Ready memory ops that would be refused a miss slot against `dram`,
    /// in program order (see [`Snapshot::refused_ops`]).
    pub(crate) fn ready_refused<O: OpSource>(&self, ops: &mut O, dram: &Dram) -> Vec<u32> {
        self.ready_where(ops, |op| self.refused_a_miss_slot(op, dram))
    }

    /// Ready memory ops for which `pred` holds, in program order.
    fn ready_where<O: OpSource>(&self, ops: &mut O, pred: impl Fn(&TraceOp) -> bool) -> Vec<u32> {
        let mut out = Vec::new();
        let mut from = self.iq.base();
        while let Some(idx) = self.iq.next_ready(from, self.next_dispatch, false) {
            if pred(&ops.op(idx)) {
                out.push(idx as u32);
            }
            from = idx + 1;
        }
        out
    }

    pub(crate) fn finished(&self) -> bool {
        self.retired_ops == self.total_ops
    }

    pub(crate) fn has_pending_writebacks(&self) -> bool {
        !self.pending_writebacks.is_empty()
    }

    fn entry_mut(&mut self, op_idx: u32) -> &mut WinEntry {
        let front = self.window.front().expect("window empty").op_idx;
        &mut self.window[(op_idx - front) as usize]
    }

    fn pollution_slot(block_addr: Addr) -> usize {
        ((block_addr / sim_mem::BLOCK_BYTES) as usize) % POLLUTION_FILTER_ENTRIES
    }

    /// Handles an L2 victim: writeback bookkeeping, unused-prefetch
    /// accounting, and pollution tracking. `filled_by` names the prefetcher
    /// whose fill caused this eviction (None for demand fills): a later
    /// demand miss to the victim is a *pollution* event charged to it.
    fn handle_l2_eviction(
        &mut self,
        victim: crate::cache::Evicted,
        filled_by: Option<PrefetcherId>,
        now: u64,
        prefetchers: &mut [Box<dyn Prefetcher>],
        observer: &mut dyn PrefetchObserver,
    ) {
        if victim.state.dirty {
            self.stats.writebacks += 1;
            self.pending_writebacks.push_back(victim.block_addr);
        }
        if let Some(pid) = victim.state.prefetched_by {
            // Evicted before any demand use.
            self.stats.prefetchers[pid.0 as usize].unused_evicted += 1;
            observer.prefetch_unused(victim.block_addr, pid, victim.state.pg_tag);
            self.obs_lifecycle(now, LifecycleStage::Evicted, pid, victim.block_addr, false);
            prefetchers[pid.0 as usize].on_prefetch_outcome(
                victim.block_addr,
                victim.state.pg_tag,
                false,
            );
        }
        if let Some(pid) = filled_by {
            // The victim was displaced by a prefetch: remember it so a
            // demand re-miss can be attributed as cache pollution.
            let slot = Self::pollution_slot(victim.block_addr);
            self.pollution[slot] = Some(PollutionSlot {
                block_addr: victim.block_addr,
                by: pid,
            });
        }
    }

    /// Fills a block into the L2. A refused op may now hit it, so every
    /// refused mark is cleared.
    fn fill_l2(&mut self, block: Addr, state: LineState) -> Option<crate::cache::Evicted> {
        self.iq.clear_refused();
        self.l2.fill(block, state)
    }

    /// A DRAM completion freed an MSHR or a request-buffer slot, on this
    /// core or another: any op refused one may now find it free.
    #[inline]
    pub(crate) fn miss_slot_freed(&mut self) {
        self.iq.clear_refused();
    }

    /// True if ready op `op` would be refused a miss slot were it looked
    /// up now: its block misses the L1 and the L2 (and is no oracle hit),
    /// no MSHR holds it, and the MSHRs or the request buffer are full.
    fn refused_a_miss_slot(&self, op: &TraceOp, dram: &Dram) -> bool {
        let block = block_of(op.addr);
        self.l1.probe(op.addr).is_none()
            && self.l2.probe(block).is_none()
            && !(self.cfg.oracle_lds && op.lds)
            && self.mshrs.find(block).is_none()
            && (self.mshrs.is_full() || dram.is_full())
    }

    /// Fills a block into the L1, folding a dirty victim into the L2.
    fn fill_l1(&mut self, addr: Addr, dirty: bool) {
        self.iq.l1_filled(self.l1.set_index(addr));
        if let Some(victim) = self.l1.fill(
            addr,
            LineState {
                dirty,
                ..Default::default()
            },
        ) {
            if victim.state.dirty {
                if let Some(line) = self.l2.access(victim.block_addr) {
                    line.dirty = true;
                }
                // If the block is no longer in L2 the writeback is silently
                // dropped — an accepted simplification (see DESIGN.md).
            }
        }
    }

    /// A demand access used a prefetched block: update statistics,
    /// profiling and the feedback counters. Late uses count toward feedback
    /// *accuracy* (the bandwidth was not wasted) but not toward *coverage*
    /// (the demand still missed; the merge path charges the miss counter) —
    /// otherwise a flood of barely-late junk prefetches reads as high
    /// coverage and can never be throttled down.
    #[allow(clippy::too_many_arguments)]
    fn credit_prefetch_use(
        &mut self,
        block_addr: Addr,
        pid: PrefetcherId,
        pg: Option<crate::prefetcher::PgTag>,
        late: bool,
        now: u64,
        prefetchers: &mut [Box<dyn Prefetcher>],
        observer: &mut dyn PrefetchObserver,
    ) {
        self.counters[pid.0 as usize].record_used(late);
        let s = &mut self.stats.prefetchers[pid.0 as usize];
        s.used += 1;
        if late {
            s.late += 1;
        }
        observer.prefetch_used(block_addr, pid, pg);
        self.obs_lifecycle(now, LifecycleStage::Used, pid, block_addr, late);
        prefetchers[pid.0 as usize].on_prefetch_outcome(block_addr, pg, true);
    }

    /// Processes DRAM read completions routed to this core.
    pub(crate) fn apply_completion(
        &mut self,
        completion: &DramCompletion,
        now: u64,
        prefetchers: &mut [Box<dyn Prefetcher>],
        observer: &mut dyn PrefetchObserver,
    ) {
        let req = completion.request;
        if req.is_write {
            return;
        }
        let entry = self.mshrs.free(req.mshr_slot as usize);
        let block = entry.block_addr;
        self.last_progress = now;

        // Memory service latency, split demand vs prefetch (§4's contention
        // measurement).
        let latency = completion.finish_cycle.saturating_sub(req.enqueue_cycle);
        match entry.kind {
            AccessKind::Prefetch(_) => self.stats.prefetch_service.record(latency),
            _ => self.stats.demand_service.record(latency),
        }

        // Determine line metadata.
        let mut state = LineState {
            dirty: matches!(entry.kind, AccessKind::DemandStore) || entry.store_merged,
            ..Default::default()
        };
        match entry.kind {
            AccessKind::Prefetch(pid) => {
                self.obs_lifecycle(now, LifecycleStage::Filled, pid, block, false);
                if entry.demand_merged {
                    // Late prefetch: consumed at arrival.
                    self.credit_prefetch_use(
                        block,
                        pid,
                        entry.pg,
                        true,
                        now,
                        prefetchers,
                        observer,
                    );
                    state.used = true;
                } else {
                    state.prefetched_by = Some(pid);
                    state.pg_tag = entry.pg;
                }
            }
            AccessKind::DemandLoad | AccessKind::DemandStore => {
                state.used = true;
            }
        }

        if let Some(victim) = self.fill_l2(block, state) {
            let filled_by = match entry.kind {
                AccessKind::Prefetch(pid) => Some(pid),
                _ => None,
            };
            self.handle_l2_eviction(victim, filled_by, now, prefetchers, observer);
        }

        // Wake waiting loads (their completion-wheel entries are created
        // here — a waiter's completion cycle is unknown until its fill).
        let wake_at = now + self.cfg.l1.hit_latency;
        if !entry.waiters.is_empty() {
            self.fill_l1(entry.trigger_addr, false);
        }
        for &w in &entry.waiters {
            self.complete_issued(w, wake_at);
        }

        // Notify prefetchers of the fill (content-directed scans happen
        // here). Store-triggered fills are visible too; prefetchers decide.
        let ev = FillEvent {
            block_addr: block,
            kind: entry.kind,
            trigger_pc: entry.trigger_pc,
            trigger_addr: entry.trigger_addr,
            depth: entry.depth,
            pg: entry.pg,
            cycle: now,
        };
        self.mshrs.recycle_waiters(entry.waiters);
        let mut buf = std::mem::take(&mut self.pf_scratch);
        let mut ctx = PrefetchCtx::with_buffer(&self.mem, now, buf);
        for p in prefetchers.iter_mut() {
            p.on_fill(&mut ctx, &ev);
        }
        buf = ctx.into_buffer();
        self.stage_prefetches(&mut buf);
        self.pf_scratch = buf;
    }

    fn stage_prefetches(&mut self, reqs: &mut Vec<PrefetchRequest>) {
        for r in reqs.drain(..) {
            if self.pf_queue.len() >= self.cfg.prefetch_queue_size as usize {
                // Queue full: drop the oldest request.
                self.pf_queue.pop_front();
            }
            self.pf_queue.push_back(r);
        }
    }

    /// Retires completed instructions from the window head. Returns retired
    /// instruction count.
    fn retire(&mut self, now: u64) -> u32 {
        let mut budget = self.cfg.core.retire_width;
        let mut retired = 0;
        while budget > 0 {
            let Some(head) = self.window.front_mut() else {
                break;
            };
            if self.iq.done(head.op_idx as usize) > now {
                break;
            }
            let take = (head.instrs - head.retired).min(budget);
            head.retired += take;
            budget -= take;
            retired += take;
            self.window_instrs -= take;
            if head.retired == head.instrs {
                self.window.pop_front();
                self.retired_ops += 1;
            }
        }
        self.stats.retired_instructions += u64::from(retired);
        if retired > 0 {
            self.last_progress = now;
            // Everything below the (new) window head has retired: advance
            // the settled frontier so the completion ring can recycle
            // those slots.
            let new_base = self
                .window
                .front()
                .map_or(self.next_dispatch, |h| h.op_idx as usize);
            self.iq.settle_below(new_base);
        }
        retired
    }

    /// Dispatches ops into the window. Returns dispatched instruction count.
    fn dispatch<O: OpSource>(&mut self, ops: &mut O, now: u64) -> u32 {
        let mut budget = self.cfg.core.dispatch_width;
        let mut dispatched = 0;
        while budget > 0 && self.next_dispatch < self.total_ops {
            let op = ops.op(self.next_dispatch);
            let instrs = match op.kind {
                OpKind::Compute => op.value,
                _ => 1,
            };
            if self.window_instrs + instrs > self.cfg.core.window_size && self.window_instrs > 0 {
                break;
            }
            let op_idx = self.next_dispatch as u32;
            let mut value = op.value;
            match op.kind {
                OpKind::Load => value = self.mem.read_u32(op.addr),
                OpKind::Store => self.mem.write_u32(op.addr, op.value),
                OpKind::Compute => self.iq.set_done(self.next_dispatch, now + 1),
            }
            self.window.push_back(WinEntry {
                op_idx,
                instrs,
                retired: 0,
                issued: false,
                counted_l1: false,
                counted_l2: false,
                value,
            });
            if op.kind != OpKind::Compute {
                self.iq.insert(self.next_dispatch, op.dep, now);
            }
            self.window_instrs += instrs;
            self.next_dispatch += 1;
            budget = budget.saturating_sub(instrs);
            dispatched += instrs;
        }
        dispatched
    }

    /// Issues ready memory ops to the hierarchy. Returns issued op count.
    #[allow(clippy::too_many_lines)]
    fn issue<O: OpSource>(
        &mut self,
        ops: &mut O,
        now: u64,
        dram: &mut Dram,
        prefetchers: &mut [Box<dyn Prefetcher>],
        observer: &mut dyn PrefetchObserver,
        l2_port: &mut u32,
    ) -> u32 {
        // Free LSQ slots for completed ops: pop expired completion-wheel
        // entries instead of scanning the whole LSQ every cycle.
        while let Some(&Reverse((c, _))) = self.inflight.peek() {
            if c > now {
                break;
            }
            self.inflight.pop();
            self.lsq_used -= 1;
        }

        // Visit only the ops whose address producer has completed, oldest
        // first: a dependence-stalled op has no side effects, so this is
        // exactly the set and order an in-order scan of every pending op
        // would try. Pass over the ops marked as refused a miss slot, and
        // once the L2 port is spent over every op marked as an L1 miss:
        // each would be refused again, whose only effect is an LRU tick on
        // a miss, which reorders no lines.
        let mut issued = 0;
        let mut budget = self.cfg.core.issue_width;
        let mut from = self.iq.base();
        while budget > 0 && self.lsq_used < self.cfg.core.lsq_size {
            // Inside the loop: a zero-latency completion earlier in this
            // pass readies younger ops this cycle, as the scan would see.
            self.iq.promote(now);
            let Some(idx) = self.iq.next_ready(from, self.next_dispatch, *l2_port == 0) else {
                break;
            };
            let op_idx = idx as u32;
            let op = ops.op(idx);
            if let IssueOutcome::Issued =
                self.try_issue_one(op_idx, &op, now, dram, prefetchers, observer, l2_port)
            {
                self.entry_mut(op_idx).issued = true;
                self.lsq_used += 1;
                self.iq.take(idx);
                issued += 1;
                budget -= 1;
            }
            from = idx + 1;
        }
        #[cfg(debug_assertions)]
        {
            let mut from = self.iq.base();
            while let Some(idx) = self.iq.next_marked(from, self.next_dispatch, false) {
                let addr = ops.op(idx).addr;
                assert!(
                    self.l1.probe(addr).is_none(),
                    "op {idx} is marked as an L1 miss but {addr:#x} is resident"
                );
                from = idx + 1;
            }
            let mut from = self.iq.base();
            while let Some(idx) = self.iq.next_marked(from, self.next_dispatch, true) {
                let op = ops.op(idx);
                assert!(
                    self.refused_a_miss_slot(&op, dram),
                    "op {idx} is marked as refused a miss slot but {:#x} could issue",
                    op.addr
                );
                from = idx + 1;
            }
        }
        issued
    }

    /// Records an issued memory op's completion cycle and its
    /// completion-wheel entry (which later frees the LSQ slot and feeds
    /// [`CoreSim::next_local_event`]).
    #[inline]
    fn complete_issued(&mut self, op_idx: u32, at: u64) {
        self.iq.set_done(op_idx as usize, at);
        self.inflight.push(Reverse((at, op_idx)));
    }

    #[allow(clippy::too_many_arguments)]
    fn try_issue_one(
        &mut self,
        op_idx: u32,
        op: &TraceOp,
        now: u64,
        dram: &mut Dram,
        prefetchers: &mut [Box<dyn Prefetcher>],
        observer: &mut dyn PrefetchObserver,
        l2_port: &mut u32,
    ) -> IssueOutcome {
        let is_store = op.kind == OpKind::Store;
        let value = {
            let front = self
                .window
                .front()
                .expect("issuing op is in the window")
                .op_idx;
            self.window[(op_idx - front) as usize].value
        };

        // L1 access.
        let l1_hit = self.l1.access(op.addr).is_some();
        {
            let e = self.entry_mut(op_idx);
            if !e.counted_l1 {
                e.counted_l1 = true;
                if l1_hit {
                    self.stats.l1_hits += 1;
                } else {
                    self.stats.l1_misses += 1;
                }
            }
        }
        if l1_hit {
            if is_store {
                self.l1
                    .access(op.addr)
                    .expect("L1 hit implies a resident line")
                    .dirty = true;
                self.complete_issued(op_idx, now + 1);
            } else {
                self.complete_issued(op_idx, now + self.cfg.l1.hit_latency);
            }
            return IssueOutcome::Issued;
        }

        // L1 miss: needs the L2 port this cycle. The op stays marked as a
        // miss until a fill lands in its L1 set or it issues.
        let set = self.l1.set_index(op.addr);
        self.iq.mark_l1_miss(op_idx as usize, set);
        if *l2_port == 0 {
            return IssueOutcome::Stalled;
        }

        let l2_hit = self.l2.access(op.addr).is_some();
        let block = block_of(op.addr);

        if l2_hit {
            *l2_port -= 1;
            {
                let e = self.entry_mut(op_idx);
                if !e.counted_l2 {
                    e.counted_l2 = true;
                    self.stats.l2_demand_accesses += 1;
                }
            }
            // Feedback: first demand touch of a prefetched line.
            let line = self
                .l2
                .access(op.addr)
                .expect("L2 hit implies a resident line");
            let pf = line.prefetched_by.take();
            let pg = line.pg_tag.take();
            line.used = true;
            if is_store {
                line.dirty = true;
            }
            if let Some(pid) = pf {
                self.credit_prefetch_use(block, pid, pg, false, now, prefetchers, observer);
            }
            self.fill_l1(op.addr, is_store);
            let done_at = if is_store {
                now + 1
            } else {
                now + self.cfg.l2.hit_latency
            };
            self.complete_issued(op_idx, done_at);
            let ev = DemandAccess {
                pc: op.pc,
                addr: op.addr,
                value,
                hit: true,
                is_store,
                cycle: now,
            };
            self.notify_demand(&ev, now, prefetchers);
            return IssueOutcome::Issued;
        }

        // L2 miss. Oracle mode converts LDS misses into hits.
        if self.cfg.oracle_lds && op.lds {
            *l2_port -= 1;
            {
                let e = self.entry_mut(op_idx);
                if !e.counted_l2 {
                    e.counted_l2 = true;
                    self.stats.l2_demand_accesses += 1;
                }
            }
            if let Some(victim) = self.fill_l2(
                block,
                LineState {
                    dirty: is_store,
                    used: true,
                    ..Default::default()
                },
            ) {
                self.handle_l2_eviction(victim, None, now, prefetchers, observer);
            }
            self.fill_l1(op.addr, is_store);
            let done_at = if is_store {
                now + 1
            } else {
                now + self.cfg.l2.hit_latency
            };
            self.complete_issued(op_idx, done_at);
            return IssueOutcome::Issued;
        }

        // MSHR merge?
        if let Some(slot) = self.mshrs.find(block) {
            *l2_port -= 1;
            {
                let e = self.entry_mut(op_idx);
                if !e.counted_l2 {
                    e.counted_l2 = true;
                    self.stats.l2_demand_accesses += 1;
                }
            }
            let entry = self.mshrs.get_mut(slot);
            if matches!(entry.kind, AccessKind::Prefetch(_)) && !entry.demand_merged {
                entry.demand_merged = true;
                self.stats.l2_merged_into_prefetch += 1;
                // Feedback accounting: the demand missed (the data was not
                // yet in the cache); see credit_prefetch_use.
                self.cur_misses += 1;
            }
            if is_store {
                entry.store_merged = true;
                self.complete_issued(op_idx, now + 1);
            } else {
                entry.waiters.push(op_idx);
            }
            // The L2 saw this access (it hit in the MSHRs): prefetchers
            // train on it like a hit — without this, a stream prefetcher
            // whose fills are all in flight never advances its frontier.
            let ev = DemandAccess {
                pc: op.pc,
                addr: op.addr,
                value,
                hit: true,
                is_store,
                cycle: now,
            };
            self.notify_demand(&ev, now, prefetchers);
            return IssueOutcome::Issued;
        }

        // Full L2 miss: need an MSHR and request-buffer space. Refused, the
        // op stays marked until a DRAM completion or an L2 fill.
        if self.mshrs.is_full() || dram.is_full() {
            self.iq.mark_refused(op_idx as usize);
            return IssueOutcome::Stalled;
        }
        *l2_port -= 1;
        {
            let e = self.entry_mut(op_idx);
            if !e.counted_l2 {
                e.counted_l2 = true;
                self.stats.l2_demand_accesses += 1;
            }
        }
        let kind = if is_store {
            AccessKind::DemandStore
        } else {
            AccessKind::DemandLoad
        };
        let slot = self
            .mshrs
            .alloc(block, kind, op.pc, op.addr)
            .expect("checked not full");
        let ok = dram.try_enqueue(DramRequest {
            block_addr: block,
            is_write: false,
            is_demand: true,
            core: self.core_id,
            mshr_slot: slot as u32,
            enqueue_cycle: now,
        });
        debug_assert!(ok, "buffer checked above");
        self.stats.l2_demand_misses += 1;
        self.cur_misses += 1;
        if op.lds {
            self.stats.l2_lds_misses += 1;
        }
        // Pollution check.
        let pslot = Self::pollution_slot(block);
        if let Some(p) = self.pollution[pslot] {
            if p.block_addr == block {
                self.counters[p.by.0 as usize].record_pollution();
                self.stats.prefetchers[p.by.0 as usize].pollution += 1;
                self.pollution[pslot] = None;
            }
        }
        if is_store {
            self.complete_issued(op_idx, now + 1);
        } else {
            self.mshrs.get_mut(slot).waiters.push(op_idx);
        }
        let ev = DemandAccess {
            pc: op.pc,
            addr: op.addr,
            value,
            hit: false,
            is_store,
            cycle: now,
        };
        self.notify_demand(&ev, now, prefetchers);
        IssueOutcome::Issued
    }

    fn notify_demand(
        &mut self,
        ev: &DemandAccess,
        now: u64,
        prefetchers: &mut [Box<dyn Prefetcher>],
    ) {
        let mut buf = std::mem::take(&mut self.pf_scratch);
        let mut ctx = PrefetchCtx::with_buffer(&self.mem, now, buf);
        for p in prefetchers.iter_mut() {
            p.on_demand_access(&mut ctx, ev);
        }
        buf = ctx.into_buffer();
        self.stage_prefetches(&mut buf);
        self.pf_scratch = buf;
    }

    /// Sends queued memory requests (demand misses wait in the MSHRs; this
    /// pushes them plus writebacks and prefetches into the DRAM buffer).
    /// Returns true if anything was sent.
    pub(crate) fn issue_to_dram(
        &mut self,
        dram: &mut Dram,
        now: u64,
        observer: &mut dyn PrefetchObserver,
    ) -> bool {
        let mut any = false;

        // Writebacks first (they hold no MSHR, only buffer space).
        while let Some(addr) = self.pending_writebacks.front().copied() {
            let ok = dram.try_enqueue(DramRequest {
                block_addr: addr,
                is_write: true,
                is_demand: false,
                core: self.core_id,
                mshr_slot: 0,
                enqueue_cycle: now,
            });
            if !ok {
                break;
            }
            self.pending_writebacks.pop_front();
            any = true;
        }

        // Prefetch queue: one L2 probe per cycle.
        if let Some(req) = self.pf_queue.front().copied() {
            let block = block_of(req.addr);
            if self.l2.probe(block).is_some() || self.mshrs.find(block).is_some() {
                self.pf_queue.pop_front();
                any = true;
            } else if !self.mshrs.is_full() && !dram.is_full() {
                self.pf_queue.pop_front();
                let slot = self
                    .mshrs
                    .alloc(block, AccessKind::Prefetch(req.id), req.root_pc, req.addr)
                    .expect("checked not full");
                {
                    let e = self.mshrs.get_mut(slot);
                    e.depth = req.depth;
                    e.pg = req.pg;
                }
                let ok = dram.try_enqueue(DramRequest {
                    block_addr: block,
                    is_write: false,
                    is_demand: false,
                    core: self.core_id,
                    mshr_slot: slot as u32,
                    enqueue_cycle: now,
                });
                debug_assert!(ok, "buffer checked above");
                self.counters[req.id.0 as usize].record_issued();
                self.stats.prefetchers[req.id.0 as usize].issued += 1;
                observer.prefetch_issued(&req);
                self.obs_lifecycle(now, LifecycleStage::Issued, req.id, block, false);
                any = true;
            }
        }
        any
    }

    /// Ends a feedback interval if enough L2 evictions have accumulated,
    /// consulting the throttling policy. `now` and `bus_transfers` (this
    /// core's cumulative transfer count) feed the observability sampler.
    pub(crate) fn maybe_end_interval(
        &mut self,
        prefetchers: &mut [Box<dyn Prefetcher>],
        policy: &mut dyn ThrottlePolicy,
        now: u64,
        bus_transfers: u64,
        bus_busy_slack: u64,
    ) {
        if self.l2.evictions() - self.last_interval_evictions < self.cfg.interval_evictions {
            return;
        }
        self.last_interval_evictions = self.l2.evictions();
        self.stats.intervals += 1;

        // Raw per-interval counts, captured before Equation 3 zeroes them.
        let raw: Option<Vec<(u64, u64, u64)>> = self.obs.as_ref().map(|_| {
            self.counters
                .iter()
                .map(|c| (c.cur_prefetched, c.cur_used, c.cur_late))
                .collect()
        });

        for c in &mut self.counters {
            c.end_interval();
        }
        self.misses_smoothed = 0.5 * self.misses_smoothed + 0.5 * self.cur_misses as f64;
        self.cur_misses = 0;

        let feedback: Vec<IntervalFeedback> = self
            .counters
            .iter()
            .zip(prefetchers.iter())
            .map(|(c, p)| {
                let accuracy = if c.prefetched > 0.0 {
                    c.used / c.prefetched
                } else {
                    1.0
                };
                let cov_denom = c.timely + self.misses_smoothed;
                let coverage = if cov_denom > 0.0 {
                    c.timely / cov_denom
                } else {
                    0.0
                };
                let lateness = if c.used > 0.0 { c.late / c.used } else { 0.0 };
                let pollution = if self.misses_smoothed > 0.0 {
                    c.pollution / self.misses_smoothed
                } else {
                    0.0
                };
                IntervalFeedback {
                    accuracy,
                    coverage,
                    lateness,
                    pollution,
                    level: p.aggressiveness(),
                }
            })
            .collect();

        let decisions = policy.adjust(&feedback);
        debug_assert_eq!(decisions.len(), prefetchers.len());
        let interval = self.stats.intervals - 1;
        let rationale = (self.obs.is_some() || self.validate.is_some())
            .then(|| {
                policy
                    .decision_trace()
                    .map(<[crate::throttling::DecisionTrace]>::to_vec)
            })
            .flatten();
        let mut validate_transitions: Vec<ThrottleTransition> = Vec::new();
        for (i, (p, d)) in prefetchers.iter_mut().zip(&decisions).enumerate() {
            let level = p.aggressiveness();
            match d {
                ThrottleDecision::Up => p.set_aggressiveness(level.up()),
                ThrottleDecision::Down => p.set_aggressiveness(level.down()),
                ThrottleDecision::Keep => {}
            }
            if self.obs.is_some() || self.validate.is_some() {
                let why = rationale.as_ref().and_then(|r| r.get(i));
                let transition = ThrottleTransition {
                    interval,
                    prefetcher: i as u8,
                    case: why.map_or(0, |w| w.case),
                    accuracy: feedback[i].accuracy,
                    coverage: feedback[i].coverage,
                    rival_coverage: why.map_or(0.0, |w| w.rival_coverage),
                    decision: *d,
                    from_level: level,
                    to_level: p.aggressiveness(),
                };
                if self.validate.is_some() {
                    validate_transitions.push(transition.clone());
                }
                if let Some(o) = self.obs.as_deref_mut() {
                    o.record_transition(transition);
                }
            }
        }
        if let Some(mut v) = self.validate.take() {
            v.check_interval(&crate::validate::IntervalCheck {
                interval,
                cycle: now,
                counters: &self.counters,
                stats: &self.stats,
                mshr_occupied: self.mshrs.occupied(),
                mshr_capacity: self.cfg.l2_mshrs,
                bus_transfers,
                bus_transfer_cycles: self.cfg.dram.bus_transfer_cycles,
                bus_busy_slack,
                transitions: &validate_transitions,
            });
            self.validate = Some(v);
        }

        if let Some(mut o) = self.obs.take() {
            if o.timeseries_enabled() {
                let pf_samples: Vec<PrefetcherSample> = raw
                    .unwrap_or_default()
                    .iter()
                    .zip(feedback.iter())
                    .zip(prefetchers.iter())
                    .map(|(((issued, used, late), fb), p)| PrefetcherSample {
                        issued: *issued,
                        used: *used,
                        late: *late,
                        accuracy: fb.accuracy,
                        coverage: fb.coverage,
                        level: p.aggressiveness(),
                    })
                    .collect();
                o.record_interval(
                    interval,
                    &IntervalObservation {
                        cycle: now,
                        retired: self.stats.retired_instructions,
                        l2_demand_accesses: self.stats.l2_demand_accesses,
                        l2_demand_misses: self.stats.l2_demand_misses,
                        l2_lds_misses: self.stats.l2_lds_misses,
                        bus_transfers,
                        bus_transfer_cycles: self.cfg.dram.bus_transfer_cycles,
                        mshr_occupancy: self.mshrs.occupied(),
                        prefetchers: &pf_samples,
                    },
                );
            }
            self.obs = Some(o);
        }
    }

    /// Runs one cycle of the core pipeline (after DRAM completions have been
    /// applied). Returns true if any forward progress was made.
    pub(crate) fn step<O: OpSource>(
        &mut self,
        ops: &mut O,
        now: u64,
        dram: &mut Dram,
        prefetchers: &mut [Box<dyn Prefetcher>],
        observer: &mut dyn PrefetchObserver,
    ) -> bool {
        if self.iq_stale {
            self.rebuild_issue_queue(ops, now);
        }
        let mut l2_port = 1u32;
        let retired = self.retire(now);
        let dispatched = self.dispatch(ops, now);
        let issued = self.issue(ops, now, dram, prefetchers, observer, &mut l2_port);
        retired > 0 || dispatched > 0 || issued > 0
    }

    /// Earliest future cycle at which this core can make progress, ignoring
    /// DRAM (the caller merges in `dram.next_event`). `None` when nothing is
    /// pending outside DRAM.
    pub(crate) fn next_local_event(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |c: u64| {
            if c != NOT_DONE && c > now {
                next = Some(next.map_or(c, |n: u64| n.min(c)));
            }
        };
        if let Some(head) = self.window.front() {
            consider(self.iq.done(head.op_idx as usize));
        }
        // The completion wheel is a min-heap, so its top is the earliest
        // outstanding completion — no scan needed.
        if let Some(&Reverse((c, _))) = self.inflight.peek() {
            consider(c);
        }
        next
    }

    /// True if the core has work it could perform on the very next cycle
    /// (used for idle-skip decisions). `dram_full` tells the core whether
    /// the shared request buffer can accept anything.
    pub(crate) fn has_immediate_work<O: OpSource>(
        &self,
        ops: &mut O,
        now: u64,
        dram_full: bool,
    ) -> bool {
        if let Some(req) = self.pf_queue.front() {
            let block = block_of(req.addr);
            // A resident target would simply be dropped (progress), and a
            // missing one can issue if the MSHRs and buffer have room.
            if self.l2.probe(block).is_some() || self.mshrs.find(block).is_some() {
                return true;
            }
            if !self.mshrs.is_full() && !dram_full {
                return true;
            }
        }
        if !self.pending_writebacks.is_empty() && !dram_full {
            return true;
        }
        if self.next_dispatch < self.total_ops {
            let op = ops.op(self.next_dispatch);
            let instrs = match op.kind {
                OpKind::Compute => op.value,
                _ => 1,
            };
            if self.window_instrs + instrs <= self.cfg.core.window_size || self.window_instrs == 0 {
                return true;
            }
        }
        self.lsq_used < self.cfg.core.lsq_size && self.iq.has_ready(now)
    }

    /// Captures the state attached to watchdog and deadlock reports.
    pub(crate) fn snapshot(&self, now: u64, dram: &Dram) -> DiagnosticSnapshot {
        DiagnosticSnapshot {
            cycle: now,
            core: self.core_id,
            retired_ops: self.retired_ops,
            total_ops: self.total_ops,
            window_instrs: self.window_instrs,
            rob_head: self.window.front().map(|h| {
                let done = self.iq.done(h.op_idx as usize);
                (h.op_idx, h.issued, (done != NOT_DONE).then_some(done))
            }),
            mshr_occupancy: self.mshrs.occupied(),
            mshr_capacity: self.cfg.l2_mshrs,
            pf_queue_len: self.pf_queue.len(),
            pending_writebacks: self.pending_writebacks.len(),
            dram_queue_depth: dram.occupancy(),
            dram_full: dram.is_full(),
        }
    }

    /// Last cycle at which an instruction retired or an MSHR drained.
    pub(crate) fn last_progress(&self) -> u64 {
        self.last_progress
    }

    // ---- warm-state capture / restore (see [`crate::snapshot`]) ----

    /// Serializes this core's complete replay state into a blob (the
    /// memory image travels separately as a CoW clone in
    /// [`CoreState::mem`]).
    ///
    /// Capture happens at the top of the run loop, so every completion
    /// cycle at or before `now` is *settled*: the only property the
    /// engine ever observes of a settled entry is "already done"
    /// (`done(i) <= now` in retire, issue and dependence checks).
    /// The completion cycles are therefore stored sparsely — the dispatch
    /// cursor plus the entries still in the future — and settled entries
    /// restore as 0, which is behaviorally identical.
    pub(crate) fn save_warm(&self, now: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.next_dispatch as u64);
        w.u32(self.window.len() as u32);
        for e in &self.window {
            w.u32(e.op_idx);
            w.u32(e.instrs);
            w.u32(e.retired);
            w.bool(e.issued);
            w.bool(e.counted_l1);
            w.bool(e.counted_l2);
            w.u32(e.value);
        }
        w.u32(self.window_instrs);
        w.u64(self.total_ops as u64);
        // Indices below the ring base have retired (and are settled by the
        // retire-time argument above), so scanning the live range alone
        // yields exactly the dense array's unsettled set.
        let unsettled: Vec<(u32, u64)> = (self.iq.base()..self.next_dispatch)
            .map(|i| (i as u32, self.iq.done(i)))
            .filter(|&(_, c)| c == NOT_DONE || c > now)
            .collect();
        w.u32(unsettled.len() as u32);
        for (i, c) in unsettled {
            w.u32(i);
            w.u64(c);
        }
        let pending = self.pending_mem();
        w.u32(pending.len() as u32);
        for op in pending {
            w.u32(op);
        }
        w.u32(self.lsq_used);
        // The completion wheel is a heap with unique keys, so the sorted
        // entry list reproduces the exact pop order. Stale entries (at or
        // before `now`) are kept: they still hold LSQ slots until issue()
        // pops them.
        let mut wheel: Vec<(u64, u32)> = self.inflight.iter().map(|&Reverse(p)| p).collect();
        wheel.sort_unstable();
        w.u32(wheel.len() as u32);
        for (c, op) in wheel {
            w.u64(c);
            w.u32(op);
        }
        self.l1.save_state(&mut w);
        self.l2.save_state(&mut w);
        self.mshrs.save_state(&mut w);
        w.u32(self.pf_queue.len() as u32);
        for req in &self.pf_queue {
            write_pf_request(&mut w, req);
        }
        let filled: Vec<(u32, PollutionSlot)> = self
            .pollution
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i as u32, s)))
            .collect();
        w.u32(filled.len() as u32);
        for (i, s) in filled {
            w.u32(i);
            w.u32(s.block_addr);
            w.u8(s.by.0);
        }
        w.u32(self.pending_writebacks.len() as u32);
        for &a in &self.pending_writebacks {
            w.u32(a);
        }
        w.u32(self.counters.len() as u32);
        for c in &self.counters {
            write_feedback_counters(&mut w, c);
        }
        w.f64(self.misses_smoothed);
        w.u64(self.cur_misses);
        w.u64(self.last_interval_evictions);
        crate::snapshot::write_run_stats(&mut w, &self.stats);
        w.u64(self.retired_ops as u64);
        w.u64(self.last_progress);
        // Obs and validator ride along as optional nested blobs so a
        // forked run's timeseries and conformance checks continue
        // seamlessly from the capture point.
        match &self.obs {
            None => w.bool(false),
            Some(o) => {
                w.bool(true);
                let mut ow = SnapWriter::new();
                o.save_state(&mut ow);
                w.bytes(&ow.into_bytes());
            }
        }
        match &self.validate {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                let mut vw = SnapWriter::new();
                v.save_state(&mut vw);
                w.bytes(&vw.into_bytes());
            }
        }
        w.into_bytes()
    }

    /// Restores state saved by [`CoreSim::save_warm`] into a freshly
    /// constructed core for the same trace and configuration.
    ///
    /// The obs collector / validator blobs are applied only when the
    /// forked machine has the facility installed; a facility enabled on
    /// the fork but absent at capture starts fresh from the fork point.
    pub(crate) fn restore_warm(&mut self, cs: &CoreState) -> Result<(), SnapshotError> {
        // Reuse this core's page-table allocation; pages stay CoW-shared
        // with the snapshot.
        self.mem.clone_from(&cs.mem);
        let mut r = SnapReader::new(&cs.core);
        let next_dispatch = r.u64()? as usize;
        if next_dispatch > self.total_ops {
            return Err(SnapshotError::Malformed(format!(
                "dispatch cursor {next_dispatch} past trace end {}",
                self.total_ops
            )));
        }
        self.next_dispatch = next_dispatch;
        let n = r.u32()? as usize;
        self.window.clear();
        for _ in 0..n {
            self.window.push_back(WinEntry {
                op_idx: r.u32()?,
                instrs: r.u32()?,
                retired: r.u32()?,
                issued: r.bool()?,
                counted_l1: r.bool()?,
                counted_l2: r.bool()?,
                value: r.u32()?,
            });
        }
        self.window_instrs = r.u32()?;
        let total = r.u64()? as usize;
        if total != self.total_ops {
            return Err(SnapshotError::Malformed(format!(
                "snapshot trace has {total} ops, this trace has {}",
                self.total_ops
            )));
        }
        // Rebuild the completion ring: indices below the window head are
        // settled by construction (they read as 0); dispatched-but-
        // unretired ops default to settled and the unsettled list below
        // overrides the ones still in flight. This reproduces exactly the
        // dense array the wire format describes.
        self.iq.reset(self.cfg.core.window_size, self.cfg.l1.sets());
        let base = self
            .window
            .front()
            .map_or(next_dispatch, |h| h.op_idx as usize);
        self.iq.settle_below(base);
        for i in base..next_dispatch {
            self.iq.set_done(i, 0);
        }
        let n = r.u32()? as usize;
        for _ in 0..n {
            let idx = r.u32()? as usize;
            let val = r.u64()?;
            if idx >= next_dispatch {
                return Err(SnapshotError::Malformed(format!(
                    "unsettled completion index {idx} past dispatch cursor"
                )));
            }
            if idx < base {
                return Err(SnapshotError::Malformed(format!(
                    "unsettled completion index {idx} below the window head {base}"
                )));
            }
            self.iq.set_done(idx, val);
        }
        // The pending list is implied by the window and the completion
        // cycles; the readiness index over it is rebuilt on the first step.
        let n = r.u32()? as usize;
        let mut pending = Vec::with_capacity(n.min(self.window.len()));
        for _ in 0..n {
            pending.push(r.u32()?);
        }
        if pending != self.pending_mem() {
            return Err(SnapshotError::Malformed(
                "pending memory ops disagree with the window".to_string(),
            ));
        }
        self.iq_stale = true;
        self.lsq_used = r.u32()?;
        let n = r.u32()? as usize;
        self.inflight.clear();
        for _ in 0..n {
            let c = r.u64()?;
            let op = r.u32()?;
            self.inflight.push(Reverse((c, op)));
        }
        self.l1.restore_state(&mut r)?;
        self.l2.restore_state(&mut r)?;
        self.mshrs.restore_state(&mut r)?;
        let n = r.u32()? as usize;
        self.pf_queue.clear();
        for _ in 0..n {
            self.pf_queue.push_back(read_pf_request(&mut r)?);
        }
        self.pollution.clear();
        self.pollution.resize(POLLUTION_FILTER_ENTRIES, None);
        let n = r.u32()? as usize;
        for _ in 0..n {
            let slot = r.u32()? as usize;
            let block_addr = r.u32()?;
            let by = PrefetcherId(r.u8()?);
            if slot >= POLLUTION_FILTER_ENTRIES {
                return Err(SnapshotError::Malformed(format!("pollution slot {slot}")));
            }
            self.pollution[slot] = Some(PollutionSlot { block_addr, by });
        }
        let n = r.u32()? as usize;
        self.pending_writebacks.clear();
        for _ in 0..n {
            self.pending_writebacks.push_back(r.u32()?);
        }
        let n = r.u32()? as usize;
        if n != self.counters.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {n} feedback counters, machine has {}",
                self.counters.len()
            )));
        }
        for c in &mut self.counters {
            *c = read_feedback_counters(&mut r)?;
        }
        self.misses_smoothed = r.f64()?;
        self.cur_misses = r.u64()?;
        self.last_interval_evictions = r.u64()?;
        let stats = crate::snapshot::read_run_stats(&mut r)?;
        if stats.prefetchers.len() != self.counters.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot stats cover {} prefetchers, machine has {}",
                stats.prefetchers.len(),
                self.counters.len()
            )));
        }
        self.stats = stats;
        self.retired_ops = r.u64()? as usize;
        self.last_progress = r.u64()?;
        if r.bool()? {
            let blob = r.bytes()?;
            if let Some(o) = self.obs.as_deref_mut() {
                let mut or = SnapReader::new(&blob);
                o.restore_state(&mut or)?;
                or.finish()?;
            }
        }
        if r.bool()? {
            let blob = r.bytes()?;
            if let Some(v) = self.validate.as_deref_mut() {
                let mut vr = SnapReader::new(&blob);
                v.restore_state(&mut vr)?;
                vr.finish()?;
            }
        }
        r.finish()
    }
}

fn write_pf_request(w: &mut SnapWriter, req: &PrefetchRequest) {
    w.u32(req.addr);
    w.u8(req.id.0);
    w.u8(req.depth);
    match req.pg {
        None => w.bool(false),
        Some(pg) => {
            w.bool(true);
            w.u32(pg.pc);
            w.i16(pg.offset);
        }
    }
    w.u32(req.root_pc);
}

fn read_pf_request(r: &mut SnapReader<'_>) -> Result<PrefetchRequest, SnapshotError> {
    let addr = r.u32()?;
    let id = PrefetcherId(r.u8()?);
    let depth = r.u8()?;
    let pg = if r.bool()? {
        let pc = r.u32()?;
        let offset = r.i16()?;
        Some(crate::prefetcher::PgTag { pc, offset })
    } else {
        None
    };
    let root_pc = r.u32()?;
    Ok(PrefetchRequest {
        addr,
        id,
        depth,
        pg,
        root_pc,
    })
}

fn write_feedback_counters(w: &mut SnapWriter, c: &FeedbackCounters) {
    w.f64(c.prefetched);
    w.f64(c.used);
    w.f64(c.timely);
    w.f64(c.late);
    w.f64(c.pollution);
    w.u64(c.cur_prefetched);
    w.u64(c.cur_used);
    w.u64(c.cur_timely);
    w.u64(c.cur_late);
    w.u64(c.cur_pollution);
    w.u64(c.total_prefetched);
    w.u64(c.total_used);
    w.u64(c.total_late);
    w.u64(c.total_pollution);
}

fn read_feedback_counters(r: &mut SnapReader<'_>) -> Result<FeedbackCounters, SnapshotError> {
    Ok(FeedbackCounters {
        prefetched: r.f64()?,
        used: r.f64()?,
        timely: r.f64()?,
        late: r.f64()?,
        pollution: r.f64()?,
        cur_prefetched: r.u64()?,
        cur_used: r.u64()?,
        cur_timely: r.u64()?,
        cur_late: r.u64()?,
        cur_pollution: r.u64()?,
        total_prefetched: r.u64()?,
        total_used: r.u64()?,
        total_late: r.u64()?,
        total_pollution: r.u64()?,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueOutcome {
    Issued,
    Stalled,
}

/// Engine loop iterations between wall-clock deadline polls (see
/// [`Machine::set_wall_deadline`]): frequent enough that an overrun is
/// caught within a few milliseconds on any realistic configuration,
/// coarse enough that `Instant::now` never shows up in a profile.
pub const WALL_DEADLINE_POLL_ITERS: u32 = 1 << 14;

/// A single-core machine: configuration plus registered prefetchers,
/// throttling policy and observer.
///
/// Construct with [`Machine::new`], register prefetchers with
/// [`Machine::add_prefetcher`] (registration order defines
/// [`PrefetcherId`]s), then call [`Machine::run`].
pub struct Machine {
    config: Arc<MachineConfig>,
    setup: CoreSetup,
    observer: Option<Box<dyn PrefetchObserver>>,
    ctl: RunControls,
    run_trace: Option<RunTrace>,
}

impl Machine {
    /// Creates a machine with no prefetchers and no throttling.
    ///
    /// Accepts a plain [`MachineConfig`] or an `Arc<MachineConfig>`;
    /// passing the `Arc` lets sweeps share one config allocation across
    /// every machine they build.
    pub fn new(config: impl Into<Arc<MachineConfig>>) -> Self {
        Machine {
            config: config.into(),
            setup: CoreSetup::bare(),
            observer: None,
            ctl: RunControls::default(),
            run_trace: None,
        }
    }

    /// Disables event skip-ahead: the clock advances one cycle at a time
    /// through idle regions instead of jumping to the next event. This is
    /// the *reference stepper* — results are bit-identical to the default
    /// skipping mode (the equivalence property tests pin this down), it
    /// is just slower. Useful for debugging the skip logic itself.
    pub fn set_reference_stepping(&mut self, on: bool) -> &mut Self {
        self.ctl.no_skip = on;
        self
    }

    /// Caps the simulated cycle count: a run that passes `budget` cycles
    /// fails with [`SimError::CycleBudgetExceeded`] instead of running
    /// on. `None` (the default) means unlimited.
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) -> &mut Self {
        self.ctl.cycle_budget = budget;
        self
    }

    /// Caps the *wall-clock* time of a run: once `deadline` has elapsed
    /// since [`Machine::run`] started, the run fails with
    /// [`SimError::DeadlineExceeded`] carrying a diagnostic snapshot of
    /// the machine at the kill point. `None` (the default) means
    /// unlimited.
    ///
    /// The clock is polled at a coarse cadence (every
    /// [`WALL_DEADLINE_POLL_ITERS`] engine iterations), so the check
    /// costs nothing on the hot path and a deadlined run is killed
    /// shortly *after* the deadline, never before. Successful runs are
    /// bit-identical with or without a deadline installed — the check is
    /// a pure read.
    pub fn set_wall_deadline(&mut self, deadline: Option<std::time::Duration>) -> &mut Self {
        self.ctl.wall_deadline = deadline;
        self
    }

    /// Registers a prefetcher; returns its id (registration index).
    pub fn add_prefetcher(&mut self, p: Box<dyn Prefetcher>) -> PrefetcherId {
        let id = PrefetcherId(self.setup.prefetchers.len() as u8);
        self.setup.prefetchers.push(p);
        id
    }

    /// Installs a throttling policy (default: none).
    pub fn set_throttle(&mut self, t: Box<dyn ThrottlePolicy>) -> &mut Self {
        self.setup.throttle = t;
        self
    }

    /// Installs a prefetch observer (e.g. the ECDP profiling collector).
    pub fn set_observer(&mut self, o: Box<dyn PrefetchObserver>) -> &mut Self {
        self.observer = Some(o);
        self
    }

    /// Removes and returns the observer (to read profiling results back).
    pub fn take_observer(&mut self) -> Option<Box<dyn PrefetchObserver>> {
        self.observer.take()
    }

    /// Enables observability collection for subsequent runs. Pass a
    /// config with no classes enabled (the default) to turn it back off.
    pub fn set_obs(&mut self, cfg: ObsConfig) -> &mut Self {
        self.ctl.obs_config = cfg.any().then_some(cfg);
        self
    }

    /// Opts subsequent runs into (or, with
    /// [`ValidateConfig::disabled`](crate::validate::ValidateConfig::disabled),
    /// out of) the paper-conformance runtime invariants. Without an
    /// explicit opt-in, runs are validated only when the `validate` cargo
    /// feature is enabled. Violations fail the run with
    /// [`SimError::InvariantViolation`] after it completes; the checks
    /// themselves never perturb simulation state, so a validated run's
    /// statistics are bit-identical to an unvalidated one's.
    pub fn set_validate(&mut self, cfg: crate::validate::ValidateConfig) -> &mut Self {
        self.ctl.validate_config = Some(cfg);
        self
    }

    /// Sets every registered prefetcher's aggressiveness level (e.g. to
    /// pin a static level for differential experiments; the default is
    /// each prefetcher's own initial level).
    pub fn set_initial_aggressiveness(&mut self, level: Aggressiveness) -> &mut Self {
        for p in &mut self.setup.prefetchers {
            p.set_aggressiveness(level);
        }
        self
    }

    /// Sets one prefetcher's aggressiveness level by registration index
    /// (for differential experiments over mixed static-level corners).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the registered prefetchers.
    pub fn set_prefetcher_aggressiveness(
        &mut self,
        index: usize,
        level: Aggressiveness,
    ) -> &mut Self {
        self.setup.prefetchers[index].set_aggressiveness(level);
        self
    }

    /// Removes and returns the trace recorded by the most recent
    /// successful [`Machine::run`] with observability enabled.
    pub fn take_run_trace(&mut self) -> Option<RunTrace> {
        self.run_trace.take()
    }

    /// Arms warm-state capture: the next [`Machine::run`] records a
    /// [`Snapshot`] at the first *visited* cycle at or past `cycles`
    /// (retrieve it with [`Machine::take_snapshot`]). Capture is a pure
    /// read of machine state, so a run with a checkpoint armed is
    /// bit-identical to one without. `None` disarms.
    pub fn set_warm_checkpoint(&mut self, cycles: Option<u64>) -> &mut Self {
        self.ctl.warm_cycles = cycles;
        self
    }

    /// Removes and returns the snapshot captured by the most recent run,
    /// if a checkpoint was armed with [`Machine::set_warm_checkpoint`]
    /// and the run reached the capture cycle.
    pub fn take_snapshot(&mut self) -> Option<Snapshot> {
        self.ctl.captured.take()
    }

    /// Arms the next [`Machine::run`] to resume from `snapshot` instead
    /// of simulating warmup cold. Single-shot: the run consumes the armed
    /// snapshot; fork again to replay from it once more. The forked run
    /// must replay the **same trace** the snapshot was captured on (the
    /// checkpoint is keyed per (workload, input) upstream; a different
    /// trace of the same length silently diverges).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SnapshotRejected`] when the snapshot is not
    /// single-core, was captured under a different configuration
    /// (fingerprint mismatch), or its prefetcher/throttle registration
    /// does not match this machine's.
    pub fn fork_from(&mut self, snapshot: &Snapshot) -> Result<&mut Self, SimError> {
        let setup = std::slice::from_ref(&self.setup);
        self.ctl
            .arm_fork(snapshot, &self.config, setup, EndOfRun::Retire)?;
        Ok(self)
    }

    /// The machine configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Access to a registered prefetcher (for post-run inspection).
    pub fn prefetcher(&self, id: PrefetcherId) -> &dyn Prefetcher {
        self.setup.prefetchers[id.0 as usize].as_ref()
    }

    /// Replays `trace` to completion and returns the run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when the watchdog sees no forward
    /// progress (no retirement, no MSHR drain) for the configured
    /// `deadlock_cycles`, or when the machine goes fully quiescent with
    /// unfinished work — both are simulator/trace bugs, never properties
    /// of a slow workload. Returns [`SimError::CycleBudgetExceeded`] when
    /// a budget installed with [`Machine::set_cycle_budget`] runs out,
    /// and [`SimError::InvariantViolation`] if the post-run drain loop
    /// fails to converge. The error carries a [`DiagnosticSnapshot`] of
    /// the stuck core where applicable.
    pub fn run(&mut self, trace: &Trace) -> Result<RunStats, SimError> {
        self.run_inner(&trace.initial_memory, &mut ResidentOps(&trace.ops))
    }

    /// Replays an externally recorded trace streamed from disk in bounded
    /// windows (see [`crate::stream`]) and returns the run statistics.
    ///
    /// The engine's working set stays proportional to the instruction
    /// window, never to the trace length: ops are pulled through the
    /// [`OpSource`] in chunks and dropped once the window has moved past
    /// them. Statistics are bit-identical to materializing the same ops
    /// in a resident [`Trace`] and calling [`Machine::run`].
    ///
    /// # Errors
    ///
    /// Fails exactly like [`Machine::run`]. Mid-stream I/O errors on the
    /// already-validated trace file panic with the file context (the open
    /// path validates framing up front, so this only happens when the
    /// file changes or vanishes underneath a run).
    pub fn run_streamed(
        &mut self,
        trace: &mut crate::stream::ExternalTrace,
    ) -> Result<RunStats, SimError> {
        let (initial_memory, ops) = trace.replay_parts();
        self.run_inner(initial_memory, ops)
    }

    /// Runs the one-core chip until the trace retires, then ends the run
    /// the single-core way: drain, settle resident prefetches, and check
    /// the exact end-of-run invariants.
    fn run_inner<O: OpSource>(
        &mut self,
        initial_memory: &SimMemory,
        ops: &mut O,
    ) -> Result<RunStats, SimError> {
        self.run_trace = None;
        let mut null = NullObserver;
        let observer = self.observer.as_deref_mut().unwrap_or(&mut null);
        let mut chip = run_chip(
            &self.config,
            &mut self.ctl,
            std::slice::from_mut(&mut self.setup),
            &[initial_memory],
            std::slice::from_mut(ops),
            observer,
            EndOfRun::Retire,
        )?;
        let prefetchers = &mut self.setup.prefetchers;
        let (core, dram) = (&mut chip.sims[0], &mut chip.dram);
        let mut now = chip.now;

        // Drain in-flight misses and writebacks so bandwidth counters see
        // the traffic the workload generated (stores retire before their
        // RFO fills arrive). IPC uses the pre-drain cycle count.
        let end_cycles = now;
        let drain_deadline = now + self.config.deadlock_cycles;
        while core.mshrs.occupied() > 0 || core.has_pending_writebacks() || dram.occupancy() > 0 {
            for completion in dram.tick(now) {
                core.apply_completion(completion, now, prefetchers, observer);
            }
            core.issue_to_dram(dram, now, observer);
            now = if self.ctl.no_skip {
                now + 1
            } else {
                dram.next_event(now).unwrap_or(now + 1)
            };
            if now >= drain_deadline {
                return Err(SimError::InvariantViolation(format!(
                    "post-run drain did not converge: {}",
                    core.snapshot(now, dram)
                )));
            }
        }

        // Resolve prefetched lines still resident at run end as unused —
        // they were never demanded, so profiling must not leave them in
        // limbo (accuracy statistics count used/issued and are unaffected).
        let mut resident: Vec<(Addr, PrefetcherId)> = Vec::new();
        for (block_addr, state) in core.l2.iter_valid() {
            if let Some(pid) = state.prefetched_by {
                core.stats.prefetchers[pid.0 as usize].unused_evicted += 1;
                observer.prefetch_unused(block_addr, pid, state.pg_tag);
                resident.push((block_addr, pid));
            }
        }
        for (block_addr, pid) in resident {
            core.obs_lifecycle(now, LifecycleStage::Evicted, pid, block_addr, false);
        }

        let bus_transfer_cycles = self.config.dram.bus_transfer_cycles;
        if let Some(v) = core.validate.take() {
            v.finish(&core.stats, now, dram.bus_transfers(), bus_transfer_cycles)?;
        }
        self.run_trace = core.obs.take().map(|o| o.into_trace());
        let stats = std::mem::take(&mut core.stats);
        let mut stats = chip.core_stats(0, stats, end_cycles, &self.setup, bus_transfer_cycles);
        (stats.dram_row_hits, stats.dram_row_conflicts) = chip.dram.row_stats();
        Ok(stats)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("prefetchers", &self.setup.prefetchers.len())
            .field("throttle", &self.setup.throttle.name())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use sim_mem::layout;

    fn chase_trace(n: usize) -> Trace {
        // A pointer chase over n nodes laid out far apart (always L2 miss).
        let mut tb = TraceBuilder::new(SimMemory::new());
        let base = layout::HEAP_BASE;
        let stride = 64 * 1024; // distinct sets, rows
        tb.setup(|m| {
            for i in 0..n as u32 {
                let node = base + i * stride;
                let next = if (i as usize) < n - 1 {
                    base + (i + 1) * stride
                } else {
                    0
                };
                m.write_u32(node, next);
            }
        });
        let mut cur = base;
        let mut dep = None;
        while cur != 0 {
            let (next, id) = tb.load(0x400, cur, dep);
            cur = next;
            dep = Some(id);
        }
        let t = tb.finish();
        assert_eq!(t.ops.len(), n);
        t
    }

    /// With a zero-cycle L1, a load completes in the cycle it issues, so a
    /// chain of dependent L1 hits issues back to back within one pass of
    /// the issue stage — as an in-order scan of the pending ops finds each
    /// consumer ready right after its producer issues.
    #[test]
    fn zero_latency_hits_ready_their_consumers_in_the_same_pass() {
        let chain = |len: usize| {
            let mut tb = TraceBuilder::new(SimMemory::new());
            let (_, mut id) = tb.load(0x400, layout::HEAP_BASE, None);
            for _ in 0..len {
                id = tb.load(0x404, layout::HEAP_BASE, Some(id)).1;
            }
            tb.finish()
        };
        let mut cfg = MachineConfig::default();
        cfg.l1.hit_latency = 0;
        cfg.core.dispatch_width = 8;
        cfg.core.retire_width = 8;
        let cycles = |len| {
            Machine::new(cfg.clone())
                .run(&chain(len))
                .expect("run")
                .cycles
        };
        // The head misses to DRAM; its seven consumers then cost one
        // cycle in total, not one each.
        assert_eq!((cycles(0), cycles(7)), (451, 452));
    }

    /// An op refused the spent L2 port is marked as an L1 miss and passed
    /// over by later passes — until a fill lands in its L1 set. Here that
    /// fill comes from an older op's L2 hit earlier in the same pass, and
    /// the marked op must then issue as an L1 hit in that very cycle.
    #[test]
    fn an_older_ops_l1_fill_wakes_a_marked_op_in_the_same_pass() {
        let line = |i: u32| layout::HEAP_BASE + i * 64;
        let (x, z, w, v) = (line(0), line(1), line(2), line(3));
        let mut tb = TraceBuilder::new(SimMemory::new());
        // Bring x and z into the L2; w's fill, last, leaves only w in the
        // one-line L1.
        tb.load(0x400, x, None);
        tb.load(0x404, z, None);
        let (_, wl) = tb.load(0x408, w, None);
        // The cycle w completes, p hits w in L1, c takes the port with an
        // L2 hit on z, and b misses x, is refused the port and is marked.
        // The next cycle, a (p's consumer) takes the port with an L2 hit
        // on x and fills it, so b hits x later in the same pass. d misses
        // to DRAM as soon as b completes, so b's issue cycle sets the
        // run's length.
        let (_, p) = tb.load(0x40c, w, Some(wl));
        tb.load(0x410, x, Some(p)); // a
        tb.load(0x414, z, Some(wl)); // c
        let (_, b) = tb.load(0x418, x, Some(wl));
        tb.load(0x41c, v, Some(b)); // d
        let trace = tb.finish();
        let cfg = MachineConfig {
            l1: crate::cache::CacheConfig {
                bytes: 64,
                ways: 1,
                hit_latency: 1,
            },
            ..MachineConfig::default()
        };
        let stats = Machine::new(cfg).run(&trace).expect("run");
        // Pinned before the issue pass skipped marked ops; b issuing a
        // cycle late (a fill that does not wake it) adds one cycle.
        assert_eq!((stats.cycles, stats.l1_hits, stats.l1_misses), (985, 1, 7));
    }

    #[test]
    fn pointer_chase_serialises_at_memory_latency() {
        let n = 50;
        let trace = chase_trace(n);
        let mut m = Machine::new(MachineConfig::default());
        let stats = m.run(&trace).expect("run");
        assert_eq!(stats.retired_instructions, n as u64);
        // Each load must wait for the previous: cycles >= n * min-latency.
        let min = MachineConfig::default().min_memory_latency();
        assert!(
            stats.cycles >= (n as u64 - 1) * min,
            "cycles {} should reflect serialised misses (min {})",
            stats.cycles,
            (n as u64 - 1) * min
        );
        assert_eq!(stats.l2_demand_misses, n as u64);
        assert_eq!(stats.bus_transfers, n as u64);
    }

    #[test]
    fn independent_loads_overlap() {
        // n independent far-apart loads: MLP means far fewer cycles than
        // serialised.
        let n = 50u32;
        let mut tb = TraceBuilder::new(SimMemory::new());
        // Stride chosen to spread accesses across DRAM banks.
        for i in 0..n {
            tb.load(0x400, layout::HEAP_BASE + i * (8 * 1024 + 64), None);
        }
        let trace = tb.finish();
        let mut m = Machine::new(MachineConfig::default());
        let stats = m.run(&trace).expect("run");
        let serial = (n as u64) * MachineConfig::default().min_memory_latency();
        assert!(
            stats.cycles < serial / 2,
            "independent misses should overlap: {} vs serial {}",
            stats.cycles,
            serial
        );
    }

    #[test]
    fn cache_hits_are_fast() {
        let mut tb = TraceBuilder::new(SimMemory::new());
        // Access the same block 1000 times.
        for _ in 0..1000 {
            tb.load(0x400, layout::HEAP_BASE, None);
        }
        let trace = tb.finish();
        let mut m = Machine::new(MachineConfig::default());
        let stats = m.run(&trace).expect("run");
        assert_eq!(stats.l2_demand_misses, 1);
        assert!(
            stats.ipc() > 0.5,
            "hit-dominated IPC too low: {}",
            stats.ipc()
        );
        // Early loads issue before the first fill arrives and merge in the
        // MSHRs; the steady state is all L1 hits.
        assert!(stats.l1_hits > 800, "l1 hits {}", stats.l1_hits);
    }

    #[test]
    fn compute_instructions_retire_at_width() {
        let mut tb = TraceBuilder::new(SimMemory::new());
        for _ in 0..100 {
            tb.compute(40);
        }
        let trace = tb.finish();
        let mut m = Machine::new(MachineConfig::default());
        let stats = m.run(&trace).expect("run");
        assert_eq!(stats.retired_instructions, 4000);
        // Retire width 4 bounds IPC at 4.
        assert!(stats.ipc() <= 4.0 + 1e-9);
        assert!(
            stats.ipc() > 3.0,
            "compute IPC {} should near retire width",
            stats.ipc()
        );
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let mut tb = TraceBuilder::new(SimMemory::new());
        for i in 0..100u32 {
            tb.store(0x500, layout::HEAP_BASE + i * (8 * 1024 + 64), i, None);
        }
        let trace = tb.finish();
        let mut m = Machine::new(MachineConfig::default());
        let stats = m.run(&trace).expect("run");
        assert_eq!(stats.retired_instructions, 100);
        // Store misses fetch blocks (RFO) but complete immediately; the run
        // should be far faster than serialised misses.
        let serial = 100 * MachineConfig::default().min_memory_latency();
        assert!(stats.cycles < serial / 2);
        assert!(stats.bus_transfers >= 100, "RFO traffic expected");
    }

    #[test]
    fn oracle_lds_removes_misses() {
        let trace = chase_trace(50);
        let cfg = MachineConfig {
            oracle_lds: true,
            ..Default::default()
        };
        let mut m = Machine::new(cfg);
        let stats = m.run(&trace).expect("run");
        // First load of a chase has no dep and is not LDS-marked; the rest
        // are converted to hits.
        assert!(stats.l2_demand_misses <= 1);
        assert_eq!(stats.bus_transfers, stats.l2_demand_misses);
    }

    #[test]
    fn oracle_speeds_up_pointer_chase() {
        let trace = chase_trace(50);
        let base = Machine::new(MachineConfig::default())
            .run(&trace)
            .expect("run");
        let cfg = MachineConfig {
            oracle_lds: true,
            ..Default::default()
        };
        let oracle = Machine::new(cfg).run(&trace).expect("run");
        assert!(
            oracle.cycles * 4 < base.cycles,
            "oracle {} vs base {}",
            oracle.cycles,
            base.cycles
        );
    }

    #[test]
    fn same_block_misses_merge_in_mshr() {
        let mut tb = TraceBuilder::new(SimMemory::new());
        // Two loads to the same (missing) block, independent.
        tb.load(0x400, layout::HEAP_BASE, None);
        tb.load(0x404, layout::HEAP_BASE + 4, None);
        let trace = tb.finish();
        let mut m = Machine::new(MachineConfig::default());
        let stats = m.run(&trace).expect("run");
        assert_eq!(stats.l2_demand_misses, 1, "secondary miss must merge");
        assert_eq!(stats.bus_transfers, 1);
    }

    /// A trace with a circular address dependence (op 0 waits on op 1,
    /// op 1 waits on op 0): both dispatch, neither can ever issue.
    fn livelock_trace() -> Trace {
        let op = |dep: u32| TraceOp {
            pc: 0x400,
            addr: layout::HEAP_BASE,
            value: 0,
            dep,
            kind: OpKind::Load,
            lds: false,
        };
        Trace {
            initial_memory: SimMemory::new(),
            ops: vec![op(1), op(0)],
            instructions: 2,
        }
    }

    #[test]
    fn livelocked_engine_returns_deadlock_with_snapshot() {
        let trace = livelock_trace();
        let cfg = MachineConfig::default();
        let budget = cfg.deadlock_cycles;
        let mut m = Machine::new(cfg);
        let err = m.run(&trace).expect_err("circular deps must deadlock");
        let SimError::Deadlock(snap) = &err else {
            panic!("expected Deadlock, got {err:?}");
        };
        // The quiescence check fires long before the full watchdog budget.
        assert!(snap.cycle < budget, "detected at cycle {}", snap.cycle);
        assert_eq!(snap.retired_ops, 0);
        assert_eq!(snap.total_ops, 2);
        assert_eq!(snap.mshr_capacity, MachineConfig::default().l2_mshrs);
        assert_eq!(snap.mshr_occupancy, 0);
        let (op, issued, done) = snap.rob_head.expect("window holds the stuck head");
        assert_eq!(op, 0);
        assert!(!issued, "the head can never issue");
        assert_eq!(done, None, "no completion is scheduled");
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn cycle_budget_exceeded_is_reported() {
        let trace = chase_trace(50);
        let mut m = Machine::new(MachineConfig::default());
        m.set_cycle_budget(Some(1_000));
        let err = m.run(&trace).expect_err("budget far below the chase time");
        match err {
            SimError::CycleBudgetExceeded { budget, snapshot } => {
                assert_eq!(budget, 1_000);
                // An idle skip stops at the budget, as the reference
                // stepper does.
                assert_eq!(snapshot.cycle, 1_000);
                assert!(snapshot.retired_ops < 50);
                assert_eq!(snapshot.total_ops, 50);
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
        // The same machine still completes the run without the budget.
        m.set_cycle_budget(None);
        let stats = m.run(&trace).expect("run");
        assert_eq!(stats.retired_instructions, 50);
    }

    /// Independent loads in runs of four consecutive blocks: far more
    /// misses than two MSHRs and a two-entry request buffer hold, with the
    /// streak prefetcher's requests competing for both, so most loads are
    /// refused a miss slot for many cycles.
    fn mshr_starved_trace() -> Trace {
        let mut tb = TraceBuilder::new(SimMemory::new());
        for i in 0..300u32 {
            let block = (i / 4) * 37 + i % 4;
            tb.load(0x400 + (i % 3) * 4, layout::HEAP_BASE + block * 64, None);
        }
        tb.finish()
    }

    /// Ready loads refused an MSHR or a request-buffer slot are passed
    /// over until a DRAM completion or an L2 fill. Pinned from the engine
    /// that looked each of them up again every cycle: skipping them moves
    /// no statistic.
    #[test]
    fn loads_refused_a_miss_slot_keep_the_pinned_stats() {
        let mut cfg = MachineConfig {
            l2_mshrs: 2,
            ..MachineConfig::default()
        };
        cfg.dram.request_buffer_per_core = 2;
        let mut m = Machine::new(cfg);
        m.add_prefetcher(Box::new(StreakPrefetcher::new()));
        let stats = m.run(&mshr_starved_trace()).expect("run");
        let latency = |count, total_cycles, max_cycles| crate::stats::LatencyStats {
            count,
            total_cycles,
            max_cycles,
        };
        let expected = RunStats {
            cycles: 59_753,
            retired_instructions: 300,
            l2_demand_accesses: 300,
            l2_demand_misses: 299,
            l2_lds_misses: 0,
            l2_merged_into_prefetch: 1,
            l1_hits: 0,
            l1_misses: 300,
            bus_transfers: 305,
            bus_busy_cycles: 12_200,
            writebacks: 0,
            dram_row_hits: 125,
            dram_row_conflicts: 180,
            intervals: 0,
            prefetchers: vec![PrefetcherStats {
                name: "test-streak".to_string(),
                issued: 6,
                used: 1,
                late: 1,
                pollution: 0,
                unused_evicted: 5,
            }],
            useful_prefetch_wait_cycles: 0,
            demand_service: latency(299, 118_970, 450),
            prefetch_service: latency(6, 2_779, 490),
        };
        assert_eq!(stats, expected);
    }

    /// With no MSHRs every L2 miss is refused for good. Once the window is
    /// full and every ready load is marked as refused, nothing is in
    /// flight anywhere, so both steppers report the deadlock at once. An
    /// engine that kept looking the loads up counted them as ready work
    /// and stepped through the whole watchdog budget (cycle 20,000,000).
    #[test]
    fn zero_mshrs_deadlock_as_soon_as_every_ready_load_is_refused() {
        for reference in [false, true] {
            let mut m = Machine::new(MachineConfig {
                l2_mshrs: 0,
                ..MachineConfig::default()
            });
            m.set_reference_stepping(reference);
            let err = m.run(&mshr_starved_trace()).expect_err("no load can miss");
            let SimError::Deadlock(snap) = &err else {
                panic!("expected Deadlock, got {err:?}");
            };
            assert_eq!(snap.cycle, 64, "reference stepper: {reference}");
            assert_eq!((snap.retired_ops, snap.window_instrs), (0, 256));
            assert_eq!((snap.mshr_capacity, snap.mshr_occupancy), (0, 0));
        }
    }

    #[test]
    fn dirty_evictions_produce_writebacks() {
        // Write a large region, then read another large region mapping to
        // the same sets to force dirty evictions.
        let mut tb = TraceBuilder::new(SimMemory::new());
        let blocks = 3 * 16384; // 3x the L2 line count
        for i in 0..blocks as u32 {
            tb.store(0x500, layout::HEAP_BASE + i * 64, 1, None);
        }
        let trace = tb.finish();
        let mut m = Machine::new(MachineConfig::default());
        let stats = m.run(&trace).expect("run");
        assert!(stats.writebacks > 0, "dirty evictions expected");
        assert!(
            stats.bus_transfers > blocks as u64,
            "writebacks add bus traffic"
        );
    }

    /// A store sweep over `blocks` distinct blocks (drives L2 evictions —
    /// the interval clock).
    fn sweep_trace(blocks: u32) -> Trace {
        let mut tb = TraceBuilder::new(SimMemory::new());
        for i in 0..blocks {
            tb.store(0x500, layout::HEAP_BASE + i * 64, 1, None);
        }
        tb.finish()
    }

    /// A small-L2 config so a short store sweep crosses many interval
    /// boundaries cheaply (1024 lines, 128-eviction intervals).
    fn obs_test_config() -> MachineConfig {
        MachineConfig {
            l2: crate::cache::CacheConfig {
                bytes: 64 * 1024,
                ways: 8,
                hit_latency: 15,
            },
            interval_evictions: 128,
            ..Default::default()
        }
    }

    #[test]
    fn obs_disabled_is_the_default_and_enabling_changes_no_stats() {
        // 4x the shrunken L2 line count: ~3k evictions = ~24 intervals.
        let trace = sweep_trace(4 * 1024);
        let cfg = obs_test_config();
        let mut plain = Machine::new(cfg.clone());
        let base = plain.run(&trace).expect("run");
        assert!(plain.take_run_trace().is_none(), "no obs requested");

        let mut observed = Machine::new(cfg);
        observed.set_obs(ObsConfig {
            lifecycle: true,
            ..ObsConfig::enabled()
        });
        let stats = observed.run(&trace).expect("run");
        // The collector must be a pure observer: timing and counters are
        // bit-identical with and without it.
        assert_eq!(base.cycles, stats.cycles);
        assert_eq!(base.summary(), stats.summary());
        assert_eq!(
            base.bus_transfers * MachineConfig::default().dram.bus_transfer_cycles,
            stats.bus_busy_cycles
        );
        let t = observed.take_run_trace().expect("trace recorded");
        assert_eq!(t.samples.len() as u64, stats.intervals);
        assert!(!t.samples.is_empty(), "sweep crosses interval boundaries");
        // Interval indices and sample cycles are monotonic.
        for (i, s) in t.samples.iter().enumerate() {
            assert_eq!(s.interval, i as u64);
        }
        assert!(t.samples.windows(2).all(|w| w[0].cycle < w[1].cycle));
        // A second run of the same machine replaces the previous trace
        // deterministically.
        let again = observed.run(&trace).expect("run");
        assert_eq!(again.cycles, stats.cycles);
        let t2 = observed.take_run_trace().expect("trace recorded");
        assert_eq!(t, t2, "traces are deterministic across runs");
    }

    #[test]
    fn run_shorter_than_one_interval_yields_an_empty_trace() {
        // 50 evictions-worth of traffic against the default 8192-eviction
        // interval: the boundary is never reached.
        let trace = chase_trace(50);
        let mut m = Machine::new(MachineConfig::default());
        m.set_obs(ObsConfig::enabled());
        let stats = m.run(&trace).expect("run");
        assert_eq!(stats.intervals, 0);
        let t = m.take_run_trace().expect("collector still attached");
        assert!(t.samples.is_empty());
        assert!(t.transitions.is_empty());
    }

    #[test]
    fn interval_sample_deltas_sum_to_run_totals_prefix() {
        let trace = sweep_trace(4 * 1024);
        let mut m = Machine::new(obs_test_config());
        m.set_obs(ObsConfig::enabled());
        let stats = m.run(&trace).expect("run");
        let t = m.take_run_trace().expect("trace");
        // Every sample is a delta; their sum cannot exceed the run totals
        // (the tail after the last boundary is not sampled).
        let retired: u64 = t.samples.iter().map(|s| s.retired).sum();
        let misses: u64 = t.samples.iter().map(|s| s.l2_demand_misses).sum();
        assert!(retired <= stats.retired_instructions);
        assert!(misses <= stats.l2_demand_misses);
        assert!(retired > 0, "intervals saw retirement");
        // The last sampled boundary lies within the run.
        let last = t.samples.last().expect("non-empty");
        assert!(last.cycle <= stats.cycles + MachineConfig::default().deadlock_cycles);
    }

    /// A tiny stateful prefetcher for the fork tests: tracks a sequential
    /// streak and prefetches ahead proportionally, so a fork that failed to
    /// restore learned state or the aggressiveness level would issue
    /// different requests and visibly diverge from the cold run.
    pub(crate) struct StreakPrefetcher {
        level: Aggressiveness,
        last_block: Addr,
        streak: u32,
    }

    impl StreakPrefetcher {
        pub(crate) fn new() -> Self {
            StreakPrefetcher {
                level: Aggressiveness::Moderate,
                last_block: 0,
                streak: 0,
            }
        }
    }

    impl Prefetcher for StreakPrefetcher {
        fn name(&self) -> &'static str {
            "test-streak"
        }

        fn kind(&self) -> crate::prefetcher::PrefetcherKind {
            crate::prefetcher::PrefetcherKind::Other
        }

        fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
            let block = ev.addr & !63;
            if block == self.last_block + 64 {
                self.streak = (self.streak + 1).min(8);
            } else if block != self.last_block {
                self.streak = 1;
            }
            self.last_block = block;
            let degree = self.streak.min(1 + self.level.index() as u32);
            for d in 1..=degree {
                ctx.request(PrefetchRequest {
                    addr: block + d * 64,
                    id: PrefetcherId(0),
                    depth: 0,
                    pg: None,
                    root_pc: ev.pc,
                });
            }
        }

        fn set_aggressiveness(&mut self, level: Aggressiveness) {
            self.level = level;
        }

        fn aggressiveness(&self) -> Aggressiveness {
            self.level
        }

        fn save_state(&self, w: &mut SnapWriter) {
            w.u32(self.last_block);
            w.u32(self.streak);
        }

        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
            self.last_block = r.u32()?;
            self.streak = r.u32()?;
            Ok(())
        }
    }

    fn fork_test_machine() -> Machine {
        let mut m = Machine::new(obs_test_config());
        m.add_prefetcher(Box::new(StreakPrefetcher::new()));
        m.set_obs(ObsConfig {
            lifecycle: true,
            ..ObsConfig::enabled()
        });
        m
    }

    #[test]
    fn warm_checkpoint_capture_does_not_perturb_the_run() {
        let trace = sweep_trace(4 * 1024);
        let mut cold = fork_test_machine();
        let base = cold.run(&trace).expect("run");
        let base_trace = cold.take_run_trace().expect("trace");

        let mut observed = fork_test_machine();
        observed.set_warm_checkpoint(Some(base.cycles / 2));
        let stats = observed.run(&trace).expect("run");
        assert_eq!(base, stats, "capture must be a pure read");
        let t = observed.take_run_trace().expect("trace");
        assert_eq!(base_trace, t);
        let snap = observed.take_snapshot().expect("snapshot captured");
        assert!(snap.cycle >= base.cycles / 2);
        assert!(snap.cycle < base.cycles);

        // A checkpoint beyond the run end never fires.
        let mut late = fork_test_machine();
        late.set_warm_checkpoint(Some(base.cycles * 2));
        assert_eq!(late.run(&trace).expect("run"), base);
        assert!(late.take_snapshot().is_none());
    }

    #[test]
    fn forked_run_matches_cold_run() {
        let trace = sweep_trace(4 * 1024);
        let mut cold = fork_test_machine();
        let base = cold.run(&trace).expect("run");
        let base_trace = cold.take_run_trace().expect("trace");

        let mut warm = fork_test_machine();
        warm.set_warm_checkpoint(Some(base.cycles / 2));
        warm.run(&trace).expect("run");
        let snap = warm.take_snapshot().expect("snapshot");

        // Fork on a freshly built machine.
        let mut fork = fork_test_machine();
        fork.fork_from(&snap).expect("fork");
        let stats = fork.run(&trace).expect("forked run");
        assert_eq!(base, stats, "forked run must be bit-identical");
        let t = fork.take_run_trace().expect("trace");
        assert_eq!(base_trace, t, "forked obs trace must be bit-identical");

        // The fork is single-shot: the same machine re-run cold afterwards
        // still reproduces the cold result.
        let again = fork.run(&trace).expect("cold re-run");
        assert_eq!(base, again);

        // Forking the machine that produced the snapshot works too.
        warm.set_warm_checkpoint(None);
        warm.fork_from(&snap).expect("fork self");
        assert_eq!(base, warm.run(&trace).expect("run"));
    }

    #[test]
    fn wire_round_tripped_snapshot_forks_identically() {
        let trace = sweep_trace(4 * 1024);
        let mut cold = fork_test_machine();
        let base = cold.run(&trace).expect("run");
        let base_trace = cold.take_run_trace().expect("trace");

        let mut warm = fork_test_machine();
        warm.set_warm_checkpoint(Some(base.cycles / 2));
        warm.run(&trace).expect("run");
        let snap = warm.take_snapshot().expect("snapshot");
        let bytes = snap.to_bytes();
        let restored = Snapshot::from_bytes(&bytes).expect("decode");

        let mut fork = fork_test_machine();
        fork.fork_from(&restored).expect("fork");
        let stats = fork.run(&trace).expect("forked run");
        assert_eq!(base, stats);
        assert_eq!(base_trace, fork.take_run_trace().expect("trace"));
    }

    #[test]
    fn fork_rejects_mismatched_machines() {
        let trace = sweep_trace(4 * 1024);
        let mut warm = fork_test_machine();
        warm.set_warm_checkpoint(Some(10_000));
        warm.run(&trace).expect("run");
        let snap = warm.take_snapshot().expect("snapshot");

        // Different configuration.
        let mut other_cfg = Machine::new(MachineConfig::default());
        other_cfg.add_prefetcher(Box::new(StreakPrefetcher::new()));
        let err = other_cfg.fork_from(&snap).expect_err("config mismatch");
        assert_eq!(err.kind(), "snapshot-rejected");

        // Different prefetcher registration.
        let mut no_pf = Machine::new(obs_test_config());
        let err = no_pf.fork_from(&snap).expect_err("registration mismatch");
        assert_eq!(err.kind(), "snapshot-rejected");

        // A matching machine still accepts it afterwards.
        let mut ok = fork_test_machine();
        ok.fork_from(&snap).expect("fork");
    }

    #[test]
    fn forked_run_with_validation_matches_cold_run() {
        let trace = sweep_trace(4 * 1024);
        let mut cold = fork_test_machine();
        cold.set_validate(crate::validate::ValidateConfig::paper());
        let base = cold.run(&trace).expect("run");

        let mut warm = fork_test_machine();
        warm.set_validate(crate::validate::ValidateConfig::paper());
        warm.set_warm_checkpoint(Some(base.cycles / 2));
        warm.run(&trace).expect("run");
        let snap = warm.take_snapshot().expect("snapshot");

        let mut fork = fork_test_machine();
        fork.set_validate(crate::validate::ValidateConfig::paper());
        fork.fork_from(&snap).expect("fork");
        assert_eq!(base, fork.run(&trace).expect("forked run"));
    }
}
