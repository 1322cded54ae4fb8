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

/// The core's dispatch/retire engine. The memory system is external:
/// the driver calls [`Cpu::begin_mem_op`] to learn the issue cycle,
/// resolves the latency through the hierarchy, and completes the
/// instruction with [`Cpu::dispatch_load`] / [`Cpu::dispatch_store`].
///
/// The ROB is run-length encoded: consecutive in-flight instructions
/// with the same completion cycle share one `(completion, count)` run.
/// Retirement is in order and only compares completion cycles, so
/// retiring `k` instructions from the head run is exactly `k`
/// single-instruction retirements; the non-memory instructions
/// dispatched in one cycle, which all complete the next cycle, land in
/// one run.
#[derive(Debug)]
pub struct Cpu {
    width: usize,
    rob_size: usize,
    lq_size: usize,
    sq_size: usize,
    /// In-flight instructions in program order, as runs of equal
    /// completion cycles.
    rob: VecDeque<(u64, usize)>,
    /// Instructions in the ROB (the sum of the run counts).
    rob_len: usize,
    /// Completion cycles of in-flight loads (bounds the LQ), as a
    /// min-heap: freeing an entry is a pop of the earliest completion
    /// instead of a full-queue scan, which the per-cycle reclaim would
    /// otherwise pay on every load-heavy cycle.
    loads: BinaryHeap<Reverse<u64>>,
    /// Completion cycles of in-flight stores (bounds the SQ).
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
            rob: VecDeque::with_capacity(cfg.rob_entries),
            rob_len: 0,
            loads: BinaryHeap::with_capacity(cfg.lq_entries),
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
        // happen until it does — skip straight there.
        if self.rob_len == self.rob_size {
            if let Some(&(head, _)) = self.rob.front() {
                if head > self.now {
                    self.now = head;
                }
            }
        }
        self.now += 1;
        self.dispatched_this_cycle = 0;
        let mut slots = self.width;
        while slots > 0 {
            match self.rob.front_mut() {
                Some((c, count)) if *c <= self.now => {
                    let k = slots.min(*count);
                    *count -= k;
                    if *count == 0 {
                        self.rob.pop_front();
                    }
                    slots -= k;
                    self.rob_len -= k;
                    self.retired += k as u64;
                }
                _ => break,
            }
        }
        // Free LQ/SQ entries whose access has completed: pop the heap
        // head while it has been reached (one peek when nothing has).
        let now = self.now;
        while self.loads.peek().is_some_and(|&Reverse(c)| c <= now) {
            self.loads.pop();
        }
        while self.stores.peek().is_some_and(|&Reverse(c)| c <= now) {
            self.stores.pop();
        }
    }

    /// Block until an instruction slot (ROB + width) is available.
    fn wait_dispatch_slot(&mut self) {
        while self.dispatched_this_cycle == self.width || self.rob_len == self.rob_size {
            self.advance_cycle();
        }
    }

    /// Append `count` instructions completing at `complete` to the ROB
    /// tail, extending the tail run when it completes then too.
    fn rob_push(&mut self, complete: u64, count: usize) {
        match self.rob.back_mut() {
            Some((c, n)) if *c == complete => *n += count,
            _ => self.rob.push_back((complete, count)),
        }
        self.rob_len += count;
        self.dispatched_this_cycle += count;
    }

    /// Dispatch `n` non-memory instructions (1-cycle execute), as many
    /// per cycle as the dispatch width and the free ROB entries allow.
    pub fn dispatch_nonmem(&mut self, mut n: usize) {
        while n > 0 {
            self.wait_dispatch_slot();
            let k = n
                .min(self.width - self.dispatched_this_cycle)
                .min(self.rob_size - self.rob_len);
            self.rob_push(self.now + 1, k);
            n -= k;
        }
    }

    /// Reserve a dispatch slot for a memory instruction and return the
    /// cycle at which it issues to the memory system.
    ///
    /// For a dependent load (`dep = true`) the issue cycle is delayed to
    /// the previous load's completion.
    pub fn begin_mem_op(&mut self, is_load: bool, dep: bool) -> u64 {
        self.wait_dispatch_slot();
        if is_load {
            while self.loads.len() >= self.lq_size {
                self.advance_cycle();
            }
        } else {
            while self.stores.len() >= self.sq_size {
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
        self.rob_push(complete, 1);
        self.loads.push(Reverse(complete));
        self.last_load_complete = complete;
    }

    /// Complete a store: it retires quickly (commits from the SQ after
    /// retirement), but occupies an SQ entry until the write completes.
    pub fn dispatch_store(&mut self, issue: u64, latency: u64) {
        self.rob_push(self.now + 1, 1);
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
