//! The out-of-order-lite core model.
//!
//! The core dispatches up to `width` instructions per cycle into a
//! reorder buffer and retires up to `width` completed instructions per
//! cycle from its head, in order. A load's completion cycle is resolved
//! through the cache hierarchy at dispatch; a long-latency miss at the
//! ROB head therefore stalls retirement while younger independent loads
//! keep issuing — exposing exactly the memory-level parallelism that
//! prefetching converts into performance.
//!
//! Loads flagged [`pmp_types::TraceOp::dep_on_prev_load`] issue only
//! after the previous load completes, which serialises pointer chases.

use crate::config::CoreConfig;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// An in-flight load and the non-load instructions dispatched between
/// it and the next older load (or the ROB head).
#[derive(Debug, Clone, Copy)]
struct RobLoad {
    /// Non-memory instructions and stores ahead of this load.
    gap: usize,
    /// Cycle at which the load's access completes.
    complete: u64,
}

/// The core's dispatch/retire engine. The memory system is external:
/// the driver calls [`Cpu::begin_mem_op`] to learn the issue cycle,
/// resolves the latency through the hierarchy, and completes the
/// instruction with [`Cpu::dispatch_load`] / [`Cpu::dispatch_store`].
///
/// The ROB is a FIFO of in-flight loads, each with a count of the
/// instructions dispatched ahead of it, plus a count of the instructions
/// after the youngest load. Non-memory instructions and stores complete
/// the cycle after they dispatch and retirement runs only after the
/// clock has moved past their dispatch cycle, so they retire as soon as
/// they reach the head; only loads carry a completion cycle. The cost of
/// the model therefore grows with in-flight loads, and
/// [`Cpu::dispatch_nonmem`] steps through runs of full-width cycles in
/// one batch instead of one cycle at a time.
#[derive(Debug)]
pub struct Cpu {
    width: usize,
    rob_size: usize,
    lq_size: usize,
    sq_size: usize,
    /// In-flight loads in program order.
    loads: VecDeque<RobLoad>,
    /// Non-load instructions dispatched after the youngest load.
    tail: usize,
    /// Instructions in the ROB (every load plus every gap and `tail`).
    rob_len: usize,
    /// Completion cycles of stores that may still hold an SQ entry, as a
    /// min-heap. Entries that have completed are purged only when the
    /// heap reaches `sq_size`: each push completes after `now`, so the
    /// set left after a purge does not depend on when earlier purges ran.
    stores: BinaryHeap<Reverse<u64>>,
    now: u64,
    dispatched_this_cycle: usize,
    retired: u64,
    last_load_complete: u64,
}

impl Cpu {
    /// Build a core from its configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        assert!(cfg.width > 0 && cfg.rob_entries > 0, "degenerate core config");
        Cpu {
            width: cfg.width,
            rob_size: cfg.rob_entries,
            lq_size: cfg.lq_entries,
            sq_size: cfg.sq_entries,
            loads: VecDeque::with_capacity(cfg.rob_entries),
            tail: 0,
            rob_len: 0,
            stores: BinaryHeap::with_capacity(cfg.sq_entries),
            now: 0,
            dispatched_this_cycle: 0,
            retired: 0,
            last_load_complete: 0,
        }
    }

    /// Current cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Retired instructions so far.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Advance one cycle (or skip ahead when stalled on the ROB head),
    /// retiring completed instructions.
    fn advance_cycle(&mut self) {
        // If the ROB is full and the head has not completed, nothing can
        // retire until it does — skip straight there. A non-load head
        // completes the cycle after its dispatch, which is later than
        // `now` only when the whole ROB was dispatched this cycle.
        if self.rob_len == self.rob_size {
            match self.loads.front() {
                Some(head) if head.gap == 0 => self.now = self.now.max(head.complete),
                _ if self.rob_len <= self.dispatched_this_cycle => self.now += 1,
                _ => {}
            }
        }
        self.now += 1;
        self.dispatched_this_cycle = 0;
        let mut slots = self.width;
        while slots > 0 {
            let Some(head) = self.loads.front_mut() else {
                let k = slots.min(self.tail);
                self.tail -= k;
                self.retire(k);
                return;
            };
            if head.gap > 0 {
                let k = slots.min(head.gap);
                head.gap -= k;
                slots -= k;
                self.retire(k);
            } else if head.complete <= self.now {
                self.loads.pop_front();
                slots -= 1;
                self.retire(1);
            } else {
                return;
            }
        }
    }

    #[inline]
    fn retire(&mut self, k: usize) {
        self.rob_len -= k;
        self.retired += k as u64;
    }

    /// Block until an instruction slot (ROB + width) is available.
    fn wait_dispatch_slot(&mut self) {
        while self.dispatched_this_cycle == self.width || self.rob_len == self.rob_size {
            self.advance_cycle();
        }
    }

    /// Append `count` non-load instructions to the ROB tail.
    fn push_nonload(&mut self, count: usize) {
        self.tail += count;
        self.rob_len += count;
        self.dispatched_this_cycle += count;
    }

    /// Run the cycles that each retire and then dispatch exactly
    /// `width` of the `n` non-memory instructions, as many in a row as
    /// possible, and return how many instructions they dispatched.
    ///
    /// Call only when the next dispatch must advance the clock (the ROB
    /// is full, or this cycle's width is used up) and, if the ROB is
    /// full, it holds more than `width` instructions. Then the ROB length
    /// stays the same across the batch, cycle `j` (from 1) retires the
    /// instructions at head positions `(j-1)·width..j·width`, and the
    /// non-loads among them, including the ones dispatched in the batch,
    /// have completed by then. Only loads can end the batch early. A load
    /// at position `pos` that completes `d > 0` cycles from now retires
    /// in cycle `pos / width + 1` and must have completed by then, or by
    /// the cycle before if it is the first of its cycle and the ROB is
    /// full (or the full-ROB skip would fire): `(d-1)·width + full ≤ pos`.
    /// The cost is the number of loads crossed.
    fn whole_cycles(&mut self, n: usize) -> usize {
        let w = self.width;
        let full = u64::from(self.rob_len == self.rob_size);
        let now = self.now;
        // Head positions the batch may retire: below `n` and below the
        // first load that is late for its cycle.
        let mut end = n;
        let mut pos = 0;
        for load in &self.loads {
            pos += load.gap;
            if pos >= end {
                break;
            }
            if load.complete > now && (load.complete - now - 1) * w as u64 + full > pos as u64 {
                end = pos;
                break;
            }
            pos += 1;
        }
        let m = end / w;
        let k = m * w;
        self.tail += k;
        let mut left = k;
        while left > 0 {
            match self.loads.front_mut() {
                Some(head) if head.gap < left => {
                    left -= head.gap + 1;
                    self.loads.pop_front();
                }
                Some(head) => {
                    head.gap -= left;
                    left = 0;
                }
                None => {
                    self.tail -= left;
                    left = 0;
                }
            }
        }
        self.now += m as u64;
        self.retired += k as u64;
        if m > 0 {
            self.dispatched_this_cycle = w;
        }
        k
    }

    /// Dispatch `n` non-memory instructions (1-cycle execute), as many
    /// per cycle as the dispatch width and the free ROB entries allow.
    pub fn dispatch_nonmem(&mut self, mut n: usize) {
        let w = self.width;
        while n > 0 {
            // A cycle's dispatches stay in the ROB until the next cycle,
            // so a used-up width means at least `width` instructions.
            let batchable = if self.rob_len == self.rob_size {
                self.rob_size > w
            } else {
                self.dispatched_this_cycle == w
            };
            if n >= w && batchable {
                n -= self.whole_cycles(n);
                if n == 0 {
                    break;
                }
            }
            self.wait_dispatch_slot();
            let k = n.min(w - self.dispatched_this_cycle).min(self.rob_size - self.rob_len);
            self.push_nonload(k);
            n -= k;
        }
    }

    /// Whether every LQ entry is held. An entry is held by each ROB load
    /// that has not yet completed (a retired load always has), so there
    /// is nothing to count while the ROB holds fewer than `lq_size` loads.
    fn lq_full(&self) -> bool {
        self.loads.len() >= self.lq_size
            && self.loads.iter().filter(|l| l.complete > self.now).count() >= self.lq_size
    }

    /// Whether every SQ entry is held by a store that has not completed.
    fn sq_full(&mut self) -> bool {
        if self.stores.len() < self.sq_size {
            return false;
        }
        let now = self.now;
        while self.stores.peek().is_some_and(|&Reverse(c)| c <= now) {
            self.stores.pop();
        }
        self.stores.len() >= self.sq_size
    }

    /// Reserve a dispatch slot for a memory instruction and return the
    /// cycle at which it issues to the memory system.
    ///
    /// For a dependent load (`dep = true`) the issue cycle is delayed to
    /// the previous load's completion.
    pub fn begin_mem_op(&mut self, is_load: bool, dep: bool) -> u64 {
        self.wait_dispatch_slot();
        if is_load {
            while self.lq_full() {
                self.advance_cycle();
            }
        } else {
            while self.sq_full() {
                self.advance_cycle();
            }
        }
        if dep && is_load {
            self.last_load_complete.max(self.now)
        } else {
            self.now
        }
    }

    /// Complete a load dispatched at `issue` with the given `latency`.
    pub fn dispatch_load(&mut self, issue: u64, latency: u64) {
        let complete = issue + latency.max(1);
        self.loads.push_back(RobLoad { gap: self.tail, complete });
        self.tail = 0;
        self.rob_len += 1;
        self.dispatched_this_cycle += 1;
        self.last_load_complete = complete;
    }

    /// Complete a store: it retires quickly (commits from the SQ after
    /// retirement), but occupies an SQ entry until the write completes.
    pub fn dispatch_store(&mut self, issue: u64, latency: u64) {
        self.push_nonload(1);
        let complete = issue + latency.max(1);
        self.stores.push(Reverse(complete));
    }

    /// Drain the ROB; returns the cycle at which the last instruction
    /// retired.
    pub fn drain(&mut self) -> u64 {
        while self.rob_len > 0 {
            self.advance_cycle();
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Cpu {
        Cpu::new(&CoreConfig::default())
    }

    #[test]
    fn nonmem_ipc_approaches_width() {
        let mut c = core();
        c.dispatch_nonmem(4000);
        let cycles = c.drain();
        let ipc = 4000.0 / cycles as f64;
        assert!(ipc > 3.5, "ipc = {ipc}");
    }

    #[test]
    fn l1_hit_loads_sustain_high_ipc() {
        let mut c = core();
        for _ in 0..4000 {
            let issue = c.begin_mem_op(true, false);
            c.dispatch_load(issue, 5);
        }
        let cycles = c.drain();
        let ipc = 4000.0 / cycles as f64;
        assert!(ipc > 3.0, "ipc = {ipc}");
    }

    #[test]
    fn independent_misses_overlap() {
        // 64 independent 200-cycle misses: with a 352-entry ROB they all
        // overlap, so total time is ~200 cycles, not 64*200.
        let mut c = core();
        for _ in 0..64 {
            let issue = c.begin_mem_op(true, false);
            c.dispatch_load(issue, 200);
        }
        let cycles = c.drain();
        assert!(cycles < 400, "cycles = {cycles}");
    }

    #[test]
    fn dependent_misses_serialize() {
        let mut c = core();
        for _ in 0..16 {
            let issue = c.begin_mem_op(true, true);
            c.dispatch_load(issue, 200);
        }
        let cycles = c.drain();
        assert!(cycles >= 16 * 200, "cycles = {cycles}");
    }

    #[test]
    fn rob_limits_mlp() {
        // A tiny ROB forces misses to serialise in waves.
        let cfg = CoreConfig { rob_entries: 8, ..CoreConfig::default() };
        let mut c = Cpu::new(&cfg);
        for _ in 0..64 {
            let issue = c.begin_mem_op(true, false);
            c.dispatch_load(issue, 200);
        }
        let cycles = c.drain();
        // 64 misses / 8-deep window ≈ 8 waves of ~200 cycles.
        assert!(cycles > 1200, "cycles = {cycles}");
    }

    #[test]
    fn retired_counts_everything() {
        let mut c = core();
        c.dispatch_nonmem(1);
        let issue = c.begin_mem_op(true, false);
        c.dispatch_load(issue, 5);
        let issue = c.begin_mem_op(false, false);
        c.dispatch_store(issue, 5);
        c.drain();
        assert_eq!(c.retired(), 3);
    }
}
