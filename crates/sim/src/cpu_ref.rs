//! Reference model for the load-FIFO ROB (test-only).
//!
//! This module preserves the per-instruction core model the run-length
//! and load-FIFO ROBs replaced: one ROB slot per instruction, one
//! dispatch call per non-memory instruction, one clock step per cycle
//! and an LQ min-heap. The equivalence tests drive both cores through
//! identical streams of non-memory runs, loads and stores, over random
//! shapes and over every small shape, and check the issue cycle of every
//! memory op, the cycle and the retired count after every op, and the
//! drain cycle.

use crate::config::CoreConfig;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The pre-rework core: one ROB entry per in-flight instruction.
struct RefCpu {
    width: usize,
    rob_size: usize,
    lq_size: usize,
    sq_size: usize,
    rob: VecDeque<u64>,
    loads: BinaryHeap<Reverse<u64>>,
    stores: BinaryHeap<Reverse<u64>>,
    now: u64,
    dispatched_this_cycle: usize,
    retired: u64,
    last_load_complete: u64,
}

impl RefCpu {
    fn new(cfg: &CoreConfig) -> Self {
        RefCpu {
            width: cfg.width,
            rob_size: cfg.rob_entries,
            lq_size: cfg.lq_entries,
            sq_size: cfg.sq_entries,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            loads: BinaryHeap::with_capacity(cfg.lq_entries),
            stores: BinaryHeap::with_capacity(cfg.sq_entries),
            now: 0,
            dispatched_this_cycle: 0,
            retired: 0,
            last_load_complete: 0,
        }
    }

    fn advance_cycle(&mut self) {
        if self.rob.len() == self.rob_size {
            if let Some(&head) = self.rob.front() {
                if head > self.now {
                    self.now = head;
                }
            }
        }
        self.now += 1;
        self.dispatched_this_cycle = 0;
        for _ in 0..self.width {
            match self.rob.front() {
                Some(&c) if c <= self.now => {
                    self.rob.pop_front();
                    self.retired += 1;
                }
                _ => break,
            }
        }
        let now = self.now;
        while self.loads.peek().is_some_and(|&Reverse(c)| c <= now) {
            self.loads.pop();
        }
        while self.stores.peek().is_some_and(|&Reverse(c)| c <= now) {
            self.stores.pop();
        }
    }

    fn wait_dispatch_slot(&mut self) {
        while self.dispatched_this_cycle == self.width || self.rob.len() == self.rob_size {
            self.advance_cycle();
        }
    }

    fn dispatch_nonmem(&mut self) {
        self.wait_dispatch_slot();
        self.rob.push_back(self.now + 1);
        self.dispatched_this_cycle += 1;
    }

    fn begin_mem_op(&mut self, is_load: bool, dep: bool) -> u64 {
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

    fn dispatch_load(&mut self, issue: u64, latency: u64) {
        let complete = issue + latency.max(1);
        self.rob.push_back(complete);
        self.loads.push(Reverse(complete));
        self.last_load_complete = complete;
        self.dispatched_this_cycle += 1;
    }

    fn dispatch_store(&mut self, issue: u64, latency: u64) {
        self.rob.push_back(self.now + 1);
        let complete = issue + latency.max(1);
        self.stores.push(Reverse(complete));
        self.dispatched_this_cycle += 1;
    }

    fn drain(&mut self) -> u64 {
        while !self.rob.is_empty() {
            self.advance_cycle();
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Cpu;
    use pmp_types::Rng64;

    /// One trace op as the core sees it.
    #[derive(Clone, Copy)]
    struct Op {
        nonmem: usize,
        is_load: bool,
        dep: bool,
        latency: u64,
    }

    fn random_ops(rng: &mut Rng64, len: usize, max_nonmem: usize, max_latency: u64) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let nonmem = rng.gen_range(0..=max_nonmem);
                let is_load = rng.gen_range(0..4u32) != 0;
                let dep = rng.gen_bool(0.2);
                let latency = if rng.gen_bool(0.7) {
                    rng.gen_range(1..=12u64)
                } else {
                    rng.gen_range(1..=max_latency)
                };
                Op { nonmem, is_load, dep, latency }
            })
            .collect()
    }

    /// Run `ops` through both cores, assert they agree after every op
    /// and after the drain, and return the issue cycle of every op.
    fn run_both(cfg: &CoreConfig, ops: &[Op]) -> Vec<u64> {
        let mut new = Cpu::new(cfg);
        let mut old = RefCpu::new(cfg);
        let mut issues = Vec::with_capacity(ops.len());
        for (step, op) in ops.iter().enumerate() {
            new.dispatch_nonmem(op.nonmem);
            for _ in 0..op.nonmem {
                old.dispatch_nonmem();
            }
            let issue = new.begin_mem_op(op.is_load, op.dep);
            assert_eq!(issue, old.begin_mem_op(op.is_load, op.dep), "issue: {cfg:?} step={step}");
            if op.is_load {
                new.dispatch_load(issue, op.latency);
                old.dispatch_load(issue, op.latency);
            } else {
                new.dispatch_store(issue, op.latency);
                old.dispatch_store(issue, op.latency);
            }
            assert_eq!(new.now(), old.now, "now: {cfg:?} step={step}");
            assert_eq!(new.retired(), old.retired, "retired: {cfg:?} step={step}");
            issues.push(issue);
        }
        assert_eq!(new.drain(), old.drain(), "drain: {cfg:?}");
        assert_eq!(new.retired(), old.retired, "retired after drain: {cfg:?}");
        issues
    }

    #[test]
    fn run_length_rob_matches_per_instruction_reference() {
        let mut rng = Rng64::seed_from_u64(0x0C0B_5EED);
        let mut shapes = vec![CoreConfig::default()];
        for _ in 0..40 {
            shapes.push(CoreConfig {
                width: rng.gen_range(1..=6usize),
                rob_entries: rng.gen_range(1..=48usize),
                lq_entries: rng.gen_range(1..=12usize),
                sq_entries: rng.gen_range(1..=8usize),
            });
        }
        for cfg in &shapes {
            let ops = random_ops(&mut rng, 2000, 40, 400);
            run_both(cfg, &ops);
        }
    }

    /// Every width 1..=6 × ROB 1..=24 × LQ 1..=4 × SQ 1..=4, each on the
    /// same fixed streams. Covers the ROBs no wider than the core, where
    /// a full ROB can hold only this cycle's dispatches and the skip
    /// must move to a non-load head's completion, `now + 1`.
    #[test]
    fn every_small_shape_matches_per_instruction_reference() {
        let mut rng = Rng64::seed_from_u64(0x5A11_5EED);
        let streams = [random_ops(&mut rng, 300, 30, 60), random_ops(&mut rng, 300, 8, 300)];
        for width in 1..=6 {
            for rob_entries in 1..=24 {
                for lq_entries in 1..=4 {
                    for sq_entries in 1..=4 {
                        let cfg = CoreConfig { width, rob_entries, lq_entries, sq_entries };
                        for ops in &streams {
                            run_both(&cfg, ops);
                        }
                    }
                }
            }
        }
    }

    /// Pins an off-by-one that both cores share, to be fixed together
    /// with a regeneration of `results/` since it moves every IPC. The
    /// full-ROB skip sets `now` to the head's completion cycle and the
    /// cycle step then adds one, so a full ROB retires its head one cycle
    /// after the head completes. A full LQ, which is waited out cycle by
    /// cycle, frees the same load's entry on time.
    #[test]
    fn full_rob_skip_retires_the_head_a_cycle_late() {
        let miss = Op { nonmem: 0, is_load: true, dep: false, latency: 100 };
        let next = |nonmem| Op { nonmem, is_load: true, dep: false, latency: 1 };
        // A 4-entry ROB fills behind the miss (which completes at 100).
        let rob4 = CoreConfig { rob_entries: 4, ..CoreConfig::default() };
        assert_eq!(run_both(&rob4, &[miss, next(3)]), [0, 101]);
        // A 1-entry LQ holds the miss, and the ROB has room.
        let lq1 = CoreConfig { lq_entries: 1, ..CoreConfig::default() };
        assert_eq!(run_both(&lq1, &[miss, next(3)]), [0, 100]);
    }
}
