//! Minimal timing harness for the `core_kernels` microbenchmark bin.
//!
//! The workspace carries no external bench framework; this module
//! provides the small slice the bins need: a calibrated measurement
//! window, a warmup implied by calibration, and a one-line
//! mean-ns/iter report.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-benchmark measurement state handed to the closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f` over the calibrated iteration count.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Result of one benchmark: mean wall time per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Mean nanoseconds per iteration over the final window.
    pub ns_per_iter: f64,
    /// Iterations in the final window.
    pub iters: u64,
}

/// Run one benchmark: grow the iteration count until the measurement
/// window reaches ~80ms (the earlier, shorter windows double as
/// warmup), then report the mean time per iteration.
pub fn bench_function(name: &str, mut f: impl FnMut(&mut Bencher)) -> Measurement {
    const TARGET: Duration = Duration::from_millis(80);
    let mut iters = 1u64;
    loop {
        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        f(&mut b);
        if b.elapsed >= TARGET || iters >= 1 << 30 {
            let ns = b.elapsed.as_nanos() as f64 / iters as f64;
            println!("{name:<44} {ns:>14.1} ns/iter  ({iters} iters)");
            return Measurement { ns_per_iter: ns, iters };
        }
        let scale =
            (TARGET.as_nanos() as f64 / b.elapsed.as_nanos().max(1) as f64).clamp(2.0, 100.0);
        iters = ((iters as f64) * scale).ceil() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let m = bench_function("noop", |b| b.iter(|| 1u64 + 1));
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters >= 1);
    }
}
