//! The core's completion store and its issue queue, indexed by readiness.
//!
//! A memory op may issue once the op that produces its address has
//! completed. Instead of rescanning every pending op each cycle to find
//! the few whose producer is done, each pending op sits in exactly one of
//! three places:
//!
//! * the **ready set** — a bitset over the completion ring — once its
//!   producer's completion cycle has passed;
//! * the **due heap**, keyed by the producer's completion cycle, while
//!   that cycle is known but still in the future;
//! * a **wait list** hanging off its producer while the producer's
//!   completion is still unknown (a load waiting in an MSHR, or an op not
//!   yet issued). [`IssueQueue::set_done`] moves the list onto the heap.
//!
//! Completion cycles are written once per op, always through
//! [`IssueQueue::set_done`], and a valid trace's producer precedes its
//! consumer. Visiting the ready set in op-index order therefore visits
//! exactly the ops an in-order scan of all pending ops would find issuable,
//! in the same order.
//!
//! A ready op whose L1 lookup missed is also **marked**, and recorded
//! under its L1 set, until a fill lands in that set
//! ([`IssueQueue::l1_filled`]). Only a fill turns an L1 miss into a hit,
//! so a marked op still misses; once the cycle's L2 port is spent it could
//! only be refused, and the issue pass skips it.
//!
//! A marked op whose L2 lookup also missed, with no MSHR holding its block,
//! and that was refused because the MSHRs or the DRAM request buffer were
//! full is further marked **refused** ([`IssueQueue::mark_refused`]). Only
//! a DRAM completion frees an MSHR or a buffer slot, and only an L2 fill
//! turns its L2 miss into a hit, so until one of those clears the mark
//! ([`IssueQueue::clear_refused`]) or an L1 fill in its set clears its L1
//! mark, the op could only be refused again: the issue pass skips it even
//! with the port free, and [`IssueQueue::has_ready`] ignores it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::trace::NO_DEP;

/// Completion cycle of an op that has not completed (or been scheduled to).
pub(crate) const NOT_DONE: u64 = u64::MAX;

/// End-of-list marker for the intrusive wait lists.
const NIL: u32 = u32::MAX;

/// Completion cycles of in-window ops plus the readiness index of the
/// pending memory ops, all over one ring of op slots.
///
/// The ring replaces a `Vec<u64>` indexed by absolute op index, which grew
/// with the trace. The live range is bounded: completion cycles are only
/// written for ops between the window head and the dispatch cursor, and
/// the window holds at most `window_size` ops (every op is ≥ 1
/// instruction). Everything below the window head has retired, and the
/// only property the engine ever observes of a retired op's completion is
/// "already done" (`<= now`), so settled indices read as 0.
pub(crate) struct IssueQueue {
    /// Completion cycle per ring slot.
    done: Vec<u64>,
    mask: usize,
    /// Lowest live index: everything below has retired (settled).
    base: usize,
    /// One bit per ring slot: a pending op whose producer has completed.
    ready: Vec<u64>,
    /// `(producer completion cycle, op)` for pending ops whose producer
    /// completes at a known future cycle.
    due: BinaryHeap<Reverse<(u64, u32)>>,
    /// Pending ops whose producer's completion is unknown:
    /// `wait_head[producer slot]` starts a list linked through
    /// `wait_next[op slot]`.
    wait_head: Vec<u32>,
    wait_next: Vec<u32>,
    /// One bit per ring slot: a ready op whose last L1 lookup missed, with
    /// no L1 fill into its set since.
    l1_miss: Vec<u64>,
    /// Per L1 set, one bit per ring slot marked in that set
    /// (`set_members[set * words..][..words]`). Bits of ops since issued
    /// linger until the set's next fill; they can only clear a mark early,
    /// which costs one extra lookup.
    set_members: Vec<u64>,
    /// One bit per ring slot: a ready op last refused an MSHR or a
    /// request-buffer slot, with no DRAM completion or L2 fill since. It
    /// skips the op only together with its `l1_miss` bit.
    refused: Vec<u64>,
}

impl IssueQueue {
    pub(crate) fn new() -> Self {
        IssueQueue {
            done: Vec::new(),
            mask: 0,
            base: 0,
            ready: Vec::new(),
            due: BinaryHeap::new(),
            wait_head: Vec::new(),
            wait_next: Vec::new(),
            l1_miss: Vec::new(),
            set_members: Vec::new(),
            refused: Vec::new(),
        }
    }

    /// Resets for a fresh replay pass over a core with `l1_sets` L1 sets.
    /// Capacity covers twice the maximum number of in-window ops so the
    /// live range never wraps onto itself, and at least one bitset word.
    /// No op starts marked.
    pub(crate) fn reset(&mut self, window_size: u32, l1_sets: u32) {
        let cap = (2 * window_size.max(1) as usize)
            .next_power_of_two()
            .max(64);
        self.done.clear();
        self.done.resize(cap, NOT_DONE);
        self.mask = cap - 1;
        self.base = 0;
        self.ready.clear();
        self.ready.resize(cap / 64, 0);
        self.due.clear();
        self.wait_head.clear();
        self.wait_head.resize(cap, NIL);
        self.wait_next.clear();
        self.wait_next.resize(cap, NIL);
        self.l1_miss.clear();
        self.l1_miss.resize(cap / 64, 0);
        self.set_members.clear();
        self.set_members.resize(l1_sets as usize * (cap / 64), 0);
        self.refused.clear();
        self.refused.resize(cap / 64, 0);
    }

    /// Completion cycle of op `idx` ([`NOT_DONE`] if unknown; 0 once
    /// retired).
    #[inline]
    pub(crate) fn done(&self, idx: usize) -> u64 {
        if idx < self.base {
            // Retired before the window head: settled, observed only as
            // "already done".
            0
        } else {
            self.done[idx & self.mask]
        }
    }

    /// Records op `idx`'s completion cycle — the only completion write —
    /// and schedules the ops parked on it to become ready at `at`.
    #[inline]
    pub(crate) fn set_done(&mut self, idx: usize, at: u64) {
        debug_assert!(
            idx >= self.base && idx - self.base <= self.mask,
            "completion write outside the live range"
        );
        let slot = idx & self.mask;
        self.done[slot] = at;
        let mut op = std::mem::replace(&mut self.wait_head[slot], NIL);
        while op != NIL {
            self.due.push(Reverse((at, op)));
            op = self.wait_next[op as usize & self.mask];
        }
    }

    /// Advances the settled frontier to `new_base` (the window head after
    /// retirement), resetting the passed slots to [`NOT_DONE`] so a later
    /// op aliasing onto them starts un-completed. A retired op completed
    /// before it retired, so no wait list hangs off a passed slot.
    pub(crate) fn settle_below(&mut self, new_base: usize) {
        if new_base - self.base > self.mask {
            // A jump past the whole ring (warm restore deep into a trace)
            // touches every slot exactly once.
            self.done.fill(NOT_DONE);
        } else {
            for i in self.base..new_base {
                self.done[i & self.mask] = NOT_DONE;
            }
        }
        self.base = new_base;
    }

    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Enqueues pending memory op `op`, whose address comes from op `dep`
    /// (or [`NO_DEP`]).
    ///
    /// A forward dependence further ahead than the ring reaches can never
    /// resolve; every trace frontend rejects forward dependences, and the
    /// op is simply never made ready, so the run reports a deadlock.
    pub(crate) fn insert(&mut self, op: usize, dep: u32, now: u64) {
        if dep == NO_DEP {
            self.mark_ready(op);
            return;
        }
        let dep = dep as usize;
        if dep >= self.base && dep - self.base > self.mask {
            return;
        }
        match self.done(dep) {
            NOT_DONE => {
                let slot = dep & self.mask;
                self.wait_next[op & self.mask] = self.wait_head[slot];
                self.wait_head[slot] = op as u32;
            }
            at if at <= now => self.mark_ready(op),
            at => self.due.push(Reverse((at, op as u32))),
        }
    }

    #[inline]
    fn mark_ready(&mut self, op: usize) {
        let slot = op & self.mask;
        self.ready[slot / 64] |= 1 << (slot % 64);
    }

    /// Removes issued op `op` from the ready set and clears its marks.
    #[inline]
    pub(crate) fn take(&mut self, op: usize) {
        let slot = op & self.mask;
        let keep = !(1 << (slot % 64));
        self.ready[slot / 64] &= keep;
        self.l1_miss[slot / 64] &= keep;
        self.refused[slot / 64] &= keep;
    }

    /// Marks ready op `op`, whose L1 lookup just missed in set `set`.
    #[inline]
    pub(crate) fn mark_l1_miss(&mut self, op: usize, set: u32) {
        let slot = op & self.mask;
        let bit = 1 << (slot % 64);
        self.l1_miss[slot / 64] |= bit;
        self.set_members[set as usize * self.l1_miss.len() + slot / 64] |= bit;
    }

    /// Marks ready op `op`, already marked as an L1 miss, as refused an
    /// MSHR or a request-buffer slot.
    #[inline]
    pub(crate) fn mark_refused(&mut self, op: usize) {
        let slot = op & self.mask;
        self.refused[slot / 64] |= 1 << (slot % 64);
    }

    /// A DRAM completion or an L2 fill: clears every refused mark, since
    /// any refused op may now find a free miss slot or hit in the L2.
    #[inline]
    pub(crate) fn clear_refused(&mut self) {
        self.refused.fill(0);
    }

    /// A block is about to fill L1 set `set`: clears the marks of every
    /// op recorded in it, since any of them may now hit.
    #[inline]
    pub(crate) fn l1_filled(&mut self, set: u32) {
        let words = self.l1_miss.len();
        let members = &mut self.set_members[set as usize * words..][..words];
        for (miss, member) in self.l1_miss.iter_mut().zip(members) {
            *miss &= !std::mem::take(member);
        }
    }

    /// Moves every op whose producer has completed by `now` into the
    /// ready set.
    #[inline]
    pub(crate) fn promote(&mut self, now: u64) {
        while let Some(&Reverse((at, op))) = self.due.peek() {
            if at > now {
                break;
            }
            self.due.pop();
            self.mark_ready(op as usize);
        }
    }

    /// The oldest ready op with index in `from..to` (`to` at most one
    /// ring length past the window head), passing over ops marked both as
    /// L1 misses and as refused, and over every op marked as an L1 miss if
    /// `skip_marked`.
    #[inline]
    pub(crate) fn next_ready(&self, from: usize, to: usize, skip_marked: bool) -> Option<usize> {
        let skip = if skip_marked { u64::MAX } else { 0 };
        self.next_in(from, to, |w| {
            self.ready[w] & !(self.l1_miss[w] & (self.refused[w] | skip))
        })
    }

    /// The oldest ready op in `from..to` marked as an L1 miss (and also as
    /// refused, if `refused`).
    #[cfg(debug_assertions)]
    pub(crate) fn next_marked(&self, from: usize, to: usize, refused: bool) -> Option<usize> {
        let only = if refused { 0 } else { u64::MAX };
        self.next_in(from, to, |w| {
            self.ready[w] & self.l1_miss[w] & (self.refused[w] | only)
        })
    }

    /// The lowest index in `from..to` whose slot bit is set in the bitset
    /// whose `w`-th word is `word_at(w)`.
    #[inline]
    fn next_in(&self, from: usize, to: usize, word_at: impl Fn(usize) -> u64) -> Option<usize> {
        let mut i = from;
        while i < to {
            let slot = i & self.mask;
            // A word never straddles the ring's wrap point, so its bits
            // from `slot` up are consecutive op indices from `i` up.
            let word = word_at(slot / 64) >> (slot % 64);
            if word != 0 {
                let hit = i + word.trailing_zeros() as usize;
                return (hit < to).then_some(hit);
            }
            i += 64 - slot % 64;
        }
        None
    }

    /// Ops parked on a producer whose completion is unknown, in index
    /// order.
    pub(crate) fn parked(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for &head in &self.wait_head {
            let mut op = head;
            while op != NIL {
                out.push(op);
                op = self.wait_next[op as usize & self.mask];
            }
        }
        out.sort_unstable();
        out
    }

    /// True if some pending op could issue at `now` (ready and not
    /// refused a miss slot, or its producer completes by `now`).
    pub(crate) fn has_ready(&self, now: u64) -> bool {
        let mut words = self.ready.iter().zip(&self.l1_miss).zip(&self.refused);
        words.any(|((&r, &m), &f)| r & !(m & f) != 0)
            || self.due.peek().is_some_and(|&Reverse((at, _))| at <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parked_op_becomes_ready_when_its_producer_completes() {
        let mut q = IssueQueue::new();
        q.reset(8, 1);
        q.insert(1, 0, 0);
        q.insert(2, 0, 0);
        assert!(!q.has_ready(100), "producer 0 has no completion yet");
        assert_eq!(q.parked(), [1, 2]);
        q.set_done(0, 10);
        assert!(q.parked().is_empty());
        assert!(!q.has_ready(9));
        assert!(q.has_ready(10));
        q.promote(10);
        assert_eq!(q.next_ready(0, 3, false), Some(1));
        q.take(1);
        assert_eq!(q.next_ready(0, 3, false), Some(2));
        assert_eq!(q.next_ready(3, 3, false), None);
    }

    #[test]
    fn ready_ops_are_visited_in_index_order_across_the_ring_wrap() {
        let mut q = IssueQueue::new();
        q.reset(32, 1); // 64 slots
        q.settle_below(60);
        for op in [70, 61, 64, 63] {
            q.insert(op, NO_DEP, 0);
        }
        assert_eq!(visit(&q, 60, 80, false), [61, 63, 64, 70]);
    }

    #[test]
    fn retired_and_completed_producers_need_no_wait() {
        let mut q = IssueQueue::new();
        q.reset(8, 1);
        q.set_done(0, 5);
        q.settle_below(1);
        q.set_done(1, 7);
        q.insert(2, 0, 3); // retired producer: ready at once
        q.insert(3, 1, 3); // producer completes at 7
        assert_eq!(q.next_ready(1, 4, false), Some(2));
        q.take(2);
        q.promote(6);
        assert_eq!(q.next_ready(1, 4, false), None);
        q.promote(7);
        assert_eq!(q.next_ready(1, 4, false), Some(3));
    }

    #[test]
    fn unreachable_forward_dependence_is_never_ready() {
        let mut q = IssueQueue::new();
        q.reset(8, 1);
        q.insert(0, 1000, 0);
        q.set_done(0, 1);
        q.promote(u64::MAX - 1);
        assert!(!q.has_ready(u64::MAX - 1));
    }

    /// Ready ops `from..to` in visiting order, passing over marked ops if
    /// `skip_marked`.
    fn visit(q: &IssueQueue, from: usize, to: usize, skip_marked: bool) -> Vec<usize> {
        let mut seen = Vec::new();
        let mut from = from;
        while let Some(op) = q.next_ready(from, to, skip_marked) {
            seen.push(op);
            from = op + 1;
        }
        seen
    }

    #[test]
    fn a_fill_clears_only_the_marks_recorded_in_its_set() {
        let mut q = IssueQueue::new();
        q.reset(8, 4);
        for op in 0..4 {
            q.insert(op, NO_DEP, 0);
        }
        q.mark_l1_miss(0, 1);
        q.mark_l1_miss(1, 2);
        q.mark_l1_miss(2, 1);
        assert_eq!(visit(&q, 0, 4, false), [0, 1, 2, 3]);
        assert_eq!(visit(&q, 0, 4, true), [3]);
        q.l1_filled(3);
        assert_eq!(visit(&q, 0, 4, true), [3]);
        q.l1_filled(1);
        assert_eq!(visit(&q, 0, 4, true), [0, 2, 3]);
        q.l1_filled(2);
        assert_eq!(visit(&q, 0, 4, true), [0, 1, 2, 3]);
    }

    #[test]
    fn take_clears_a_mark() {
        let mut q = IssueQueue::new();
        q.reset(8, 2);
        q.insert(0, NO_DEP, 0);
        q.mark_l1_miss(0, 1);
        q.take(0);
        // Same slot, next lap of a 64-slot ring.
        q.settle_below(1);
        q.insert(64, NO_DEP, 0);
        assert_eq!(visit(&q, 1, 65, true), [64]);
    }

    #[test]
    fn marks_survive_the_ring_wrap() {
        let mut q = IssueQueue::new();
        q.reset(32, 2); // 64 slots
        q.settle_below(60);
        for op in [61, 63, 64, 70] {
            q.insert(op, NO_DEP, 0);
        }
        q.mark_l1_miss(63, 0);
        q.mark_l1_miss(64, 0);
        q.mark_l1_miss(70, 1);
        assert_eq!(visit(&q, 60, 80, true), [61]);
        assert_eq!(visit(&q, 60, 80, false), [61, 63, 64, 70]);
        q.l1_filled(0);
        assert_eq!(visit(&q, 60, 80, true), [61, 63, 64]);
        q.l1_filled(1);
        assert_eq!(visit(&q, 60, 80, true), [61, 63, 64, 70]);
    }

    #[test]
    fn a_reused_slot_inherits_no_mark_and_a_stale_membership_only_unmarks() {
        let mut q = IssueQueue::new();
        q.reset(32, 2); // 64 slots
        q.insert(3, NO_DEP, 0);
        q.mark_l1_miss(3, 0);
        q.take(3); // issued; its membership of set 0 lingers
        q.settle_below(10);
        // Op 67 reuses slot 3 and is ready but unmarked: never skipped.
        q.insert(67, NO_DEP, 0);
        assert_eq!(visit(&q, 10, 70, true), [67]);
        // Marked in set 1, it is skipped until a fill: the stale set-0
        // membership clears the mark early (one extra lookup, no skip)...
        q.mark_l1_miss(67, 1);
        assert_eq!(visit(&q, 10, 70, true), Vec::<usize>::new());
        q.l1_filled(0);
        assert_eq!(visit(&q, 10, 70, true), [67]);
        // ...and its own set still wakes it after a re-mark.
        q.mark_l1_miss(67, 1);
        q.l1_filled(1);
        assert_eq!(visit(&q, 10, 70, true), [67]);
        // Reset drops every mark.
        q.mark_l1_miss(67, 1);
        q.reset(32, 2);
        q.insert(0, NO_DEP, 0);
        assert_eq!(visit(&q, 0, 10, true), [0]);
    }

    /// Ready ops 0..4 over four L1 sets (op `i` in set `i`), each marked
    /// as an L1 miss and ops 0..3 also as refused a miss slot.
    fn refused_queue() -> IssueQueue {
        let mut q = IssueQueue::new();
        q.reset(8, 4);
        for op in 0..4 {
            q.insert(op, NO_DEP, 0);
            q.mark_l1_miss(op, op as u32);
        }
        for op in 0..3 {
            q.mark_refused(op);
        }
        q
    }

    #[test]
    fn refused_ops_are_skipped_with_the_port_free_and_do_not_count_as_ready() {
        let mut q = refused_queue();
        assert_eq!(visit(&q, 0, 4, false), [3]);
        assert_eq!(visit(&q, 0, 4, true), Vec::<usize>::new());
        assert!(q.has_ready(0), "op 3 was only refused the port");
        q.take(3);
        assert!(!q.has_ready(0), "every ready op waits for a miss slot");
        q.insert(5, NO_DEP, 0);
        assert!(q.has_ready(0));
    }

    #[test]
    fn an_l1_fill_in_its_set_unskips_a_refused_op() {
        let mut q = refused_queue();
        q.l1_filled(1);
        assert_eq!(visit(&q, 0, 4, false), [1, 3]);
        assert_eq!(visit(&q, 0, 4, true), [1]);
        // Looked up again and still refused: skipped again.
        q.mark_l1_miss(1, 1);
        assert_eq!(visit(&q, 0, 4, false), [3]);
    }

    #[test]
    fn clear_refused_unskips_every_refused_op() {
        let mut q = refused_queue();
        q.clear_refused();
        assert_eq!(visit(&q, 0, 4, false), [0, 1, 2, 3]);
        // Their L1 marks stand: a spent port still passes over them.
        assert_eq!(visit(&q, 0, 4, true), Vec::<usize>::new());
    }

    /// `take` clears an issued op's refused mark, so the op reusing its
    /// ring slot inherits none; `reset` drops every mark.
    #[test]
    fn a_reused_slot_inherits_no_refused_mark() {
        let mut q = IssueQueue::new();
        q.reset(32, 2); // 64 slots
        q.insert(3, NO_DEP, 0);
        q.mark_l1_miss(3, 0);
        q.mark_refused(3);
        q.take(3);
        q.settle_below(10);
        // Op 67 reuses slot 3; a port refusal marks it as an L1 miss only.
        q.insert(67, NO_DEP, 0);
        q.mark_l1_miss(67, 1);
        assert_eq!(visit(&q, 10, 70, false), [67]);
        assert!(q.has_ready(0));
        q.mark_refused(67);
        q.reset(32, 2);
        q.insert(3, NO_DEP, 0);
        q.mark_l1_miss(3, 1);
        assert_eq!(visit(&q, 0, 10, false), [3]);
    }
}
