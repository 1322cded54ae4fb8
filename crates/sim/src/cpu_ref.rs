//! Reference model for the run-length ROB (test-only).
//!
//! This module preserves, verbatim, the core model the run-length ROB
//! replaced: one ROB slot per instruction and one dispatch call per
//! non-memory instruction. The randomized equivalence test drives both
//! cores through identical streams of non-memory runs, loads and
//! stores across small ROB/LQ/SQ shapes and checks the issue cycle of
//! every memory op, the cycle and the retired count after every op,
//! and the drain cycle.

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
            let mut new = Cpu::new(cfg);
            let mut old = RefCpu::new(cfg);
            for step in 0..2000 {
                let n = rng.gen_range(0..=40usize);
                new.dispatch_nonmem(n);
                for _ in 0..n {
                    old.dispatch_nonmem();
                }
                let is_load = rng.gen_range(0..4u32) != 0;
                let dep = rng.gen_bool(0.2);
                let latency = if rng.gen_bool(0.7) {
                    rng.gen_range(1..=12u64)
                } else {
                    rng.gen_range(1..=400u64)
                };
                let issue = new.begin_mem_op(is_load, dep);
                assert_eq!(issue, old.begin_mem_op(is_load, dep), "issue: {cfg:?} step={step}");
                if is_load {
                    new.dispatch_load(issue, latency);
                    old.dispatch_load(issue, latency);
                } else {
                    new.dispatch_store(issue, latency);
                    old.dispatch_store(issue, latency);
                }
                assert_eq!(new.now(), old.now, "now: {cfg:?} step={step}");
                assert_eq!(new.retired(), old.retired, "retired: {cfg:?} step={step}");
            }
            assert_eq!(new.drain(), old.drain(), "drain: {cfg:?}");
            assert_eq!(new.retired(), old.retired, "retired after drain: {cfg:?}");
        }
    }
}
