//! What the benchmark asks of the host: one measured CPU, a memory
//! probe on another, and CPU-time clocks.
//!
//! On a shared virtual machine the simulator's speed moves by tens of
//! percent from one minute to the next: other tenants contend for the
//! shared last-level cache and memory, while a register-only loop keeps
//! its speed. [`Host::claim`] pins the calling thread to one CPU before
//! any grid thread starts, so `available_parallelism()` and with it
//! `run_grid` use one worker, and starts a [`Probe`] thread on another
//! CPU that does random read-modify-writes over a table larger than a
//! core's caches for as long as the host lives. The probe's speed over
//! an interval measures the contention the program met in that same
//! interval, and [`Reading::norm_cpu_s_to`] rescales the program's CPU
//! time by it. CPU time leaves out time a thread waited for its CPU:
//! other processes, and the steal time the guest kernel accounts.

use std::mem::size_of_val;
use std::os::unix::thread::JoinHandleExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Probe speed, in ns per access, that [`Reading::norm_cpu_s_to`]
/// rescales to: a unit, near the probe's speed on the 2-vCPU machine
/// the benchmark was tuned on.
pub const PROBE_REF_NS: f64 = 4.0;

/// The probe's table: 16 MiB of `u64`.
const PROBE_ENTRIES: usize = 1 << 21;

/// Probe accesses between two published counts (about 0.25 ms).
const PROBE_CHUNK: u64 = 1 << 16;

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

// From the C library the standard library already links.
extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: u64, clock: *mut i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Seconds on `clock`.
///
/// # Panics
///
/// Panics if the clock cannot be read, which Linux never does for a
/// CPU-time clock of this process.
fn seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has used since it started, over every
/// thread, including threads that have ended.
fn process_cpu_s() -> f64 {
    seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// The CPUs the calling thread may run on, in increasing order.
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable mask of the size passed.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), &mut mask) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    Ok((0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to `cpu`.
fn pin_to(cpu: usize) -> Result<(), String> {
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable mask of the size passed.
    if unsafe { sched_setaffinity(0, size_of_val(&one), &one) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(())
}

/// The measured CPU and the probe. Dropping it stops the probe and
/// waits for its thread to end.
pub struct Host {
    /// The CPU the calling thread and the threads it starts run on.
    pub cpu: usize,
    /// The CPU the probe runs on.
    pub probe_cpu: usize,
    probe: Probe,
}

/// The memory probe thread and what it publishes.
struct Probe {
    stop: Arc<AtomicBool>,
    /// (accesses, probe thread CPU seconds) after the last whole chunk.
    done: Arc<Mutex<(u64, f64)>>,
    /// The probe thread's CPU-time clock.
    clock: i32,
    thread: Option<JoinHandle<()>>,
}

/// The program's and the probe's counters at one moment.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// CPU seconds of every thread but the probe since process start.
    pub program_cpu_s: f64,
    probe_accesses: u64,
    probe_cpu_s: f64,
}

impl Host {
    /// Pin the calling thread to the highest-numbered CPU it may run on
    /// (the lowest usually takes the device interrupts) and start the
    /// probe on the next lower one. Fails on a single-CPU machine.
    pub fn claim() -> Result<Host, String> {
        let allowed = allowed_cpus()?;
        let [.., probe_cpu, cpu] = allowed[..] else {
            return Err(format!(
                "the benchmark needs two CPUs for the program and its probe; it may use {allowed:?}"
            ));
        };
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(Mutex::new((0u64, 0.0f64)));
        let (ready, is_ready) = mpsc::channel();
        let thread = {
            let (stop, done) = (Arc::clone(&stop), Arc::clone(&done));
            std::thread::spawn(move || {
                if let Err(e) = pin_to(probe_cpu) {
                    let _ = ready.send(Err(e));
                    return;
                }
                let table = (0..PROBE_ENTRIES as u64).collect();
                let _ = ready.send(Ok(()));
                probe(table, &stop, &done);
            })
        };
        let mut clock = 0i32;
        // SAFETY: the thread has not been joined, so its pthread_t is
        // valid, and `clock` is writable.
        let rc = unsafe { pthread_getcpuclockid(thread.as_pthread_t(), &mut clock) };
        let probe = Probe {
            stop,
            done,
            clock,
            thread: Some(thread),
        };
        if rc != 0 {
            return Err("pthread_getcpuclockid failed".into());
        }
        is_ready
            .recv()
            .map_err(|_| "the probe thread ended early".to_string())??;
        pin_to(cpu)?;
        Ok(Host {
            cpu,
            probe_cpu,
            probe,
        })
    }

    /// The counters now.
    pub fn read(&self) -> Reading {
        let (probe_accesses, probe_cpu_s) =
            *self.probe.done.lock().unwrap_or_else(|e| e.into_inner());
        Reading {
            program_cpu_s: process_cpu_s() - seconds(self.probe.clock),
            probe_accesses,
            probe_cpu_s,
        }
    }
}

impl Reading {
    /// The program's CPU seconds from `self` to `later`.
    pub fn cpu_s_to(&self, later: &Reading) -> f64 {
        later.program_cpu_s - self.program_cpu_s
    }

    /// The probe's ns per access from `self` to `later` (not finite if
    /// the probe finished no chunk in between).
    pub fn probe_ns_to(&self, later: &Reading) -> f64 {
        let accesses = later.probe_accesses - self.probe_accesses;
        (later.probe_cpu_s - self.probe_cpu_s) * 1e9 / accesses as f64
    }

    /// The program's CPU seconds from `self` to `later`, rescaled to a
    /// machine on which the probe took [`PROBE_REF_NS`] per access over
    /// the same interval.
    pub fn norm_cpu_s_to(&self, later: &Reading) -> f64 {
        self.cpu_s_to(later) * PROBE_REF_NS / self.probe_ns_to(later)
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Random read-modify-writes over `table` until `stop`, publishing
/// the count and the thread's CPU time after every chunk.
fn probe(mut table: Vec<u64>, stop: &AtomicBool, done: &Mutex<(u64, f64)>) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut accesses = 0u64;
    let start = seconds(CLOCK_THREAD_CPUTIME_ID);
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..PROBE_CHUNK {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize % table.len();
            table[i] = table[i].wrapping_add(x);
        }
        accesses += PROBE_CHUNK;
        let cpu = seconds(CLOCK_THREAD_CPUTIME_ID) - start;
        *done.lock().unwrap_or_else(|e| e.into_inner()) = (accesses, cpu);
    }
    std::hint::black_box(&table);
}
