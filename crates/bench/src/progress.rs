//! Live sweep progress: a TTY-aware reporter polling the sweep's
//! [`pmp_obs::SweepObserver`].
//!
//! On an interactive terminal the reporter redraws a single status
//! line (cells done/total, throughput, EWMA ETA, slowest in-flight
//! cell) a few times a second; when stderr is not a TTY — CI logs,
//! piped runs — it degrades to one plain-text line every
//! `PLAIN_PERIOD` (10 s) so logs stay grep-able and append-only. Progress
//! is opt-out: `--no-progress` (or `PMP_NO_PROGRESS=1`) switches it
//! off entirely.
//!
//! Output goes to **stderr**: every experiment binary writes its
//! report to stdout/`results/`, and a progress line must never
//! corrupt a piped report.

use crate::telemetry;
use pmp_obs::SweepObserver;
use std::io::{IsTerminal, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Redraw period on a TTY.
const TTY_PERIOD: Duration = Duration::from_millis(250);
/// Line period when stderr is piped (CI logs).
const PLAIN_PERIOD: Duration = Duration::from_secs(10);

/// How progress should behave, resolved from flags + environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// Live redraw on a TTY, periodic plain lines otherwise.
    Auto,
    /// No progress output at all.
    Off,
}

impl ProgressMode {
    /// Resolve the mode from CLI args (`--no-progress`) and the
    /// `PMP_NO_PROGRESS` environment variable.
    pub fn from_env(args: &[String]) -> ProgressMode {
        let env_off = std::env::var("PMP_NO_PROGRESS").is_ok_and(|v| v != "0" && !v.is_empty());
        if env_off || args.iter().any(|a| a == "--no-progress") {
            ProgressMode::Off
        } else {
            ProgressMode::Auto
        }
    }
}

/// A background thread rendering a sweep's observer until stopped or
/// dropped.
pub struct ProgressReporter {
    observer: Arc<SweepObserver>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressReporter {
    /// Start reporting on `observer`. Returns `None` when progress is
    /// off (or the thread cannot start) — callers can unconditionally
    /// hold the result.
    pub fn start(mode: ProgressMode, observer: Arc<SweepObserver>) -> Option<ProgressReporter> {
        if mode == ProgressMode::Off {
            return None;
        }
        let polled = observer.clone();
        let tty = std::io::stderr().is_terminal();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("sweep-progress".into())
            .spawn(move || {
                let period = if tty { TTY_PERIOD } else { PLAIN_PERIOD };
                let mut last_done = usize::MAX;
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let snap = polled.snapshot();
                    let line = telemetry::summary_line(&snap);
                    let mut err = std::io::stderr().lock();
                    if tty {
                        // \r redraw; \x1b[K clears the previous line's
                        // tail when the new one is shorter.
                        let _ = write!(err, "\r\x1b[K{line}");
                        let _ = err.flush();
                    } else if snap.done != last_done {
                        // Plain mode only logs when something moved —
                        // an idle 10s tick would just pad CI logs.
                        let _ = writeln!(err, "{line}");
                    }
                    last_done = snap.done;
                }
                if tty {
                    // Leave the terminal on a fresh line.
                    let _ = writeln!(std::io::stderr());
                }
            })
            .ok()?;
        Some(ProgressReporter { observer, stop, handle: Some(handle) })
    }

    /// Stop the reporter and print one final summary line.
    pub fn finish(mut self) {
        self.shutdown();
        eprintln!("{}", telemetry::summary_line(&self.observer.snapshot()));
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_progress_flag_and_env_disable() {
        let args = vec!["--resume".to_string(), "--no-progress".to_string()];
        assert_eq!(ProgressMode::from_env(&args), ProgressMode::Off);
        // Off mode starts no reporter thread.
        let observer = Arc::new(SweepObserver::new());
        assert!(ProgressReporter::start(ProgressMode::Off, observer).is_none());
    }
}
