//! `trace_tool` exit codes, checked on the built binary: a usage error
//! exits 2 like every other bin, an I/O failure exits 1, and a valid
//! command exits 0.

use std::process::Command;

#[test]
fn trace_tool_usage_errors_exit_2_and_io_failures_exit_1() {
    for (args, code) in [
        (&[][..], 2),
        (&["bogus"][..], 2),
        (&["export", "x"][..], 2),
        (&["info", "/nonexistent.pmpt"][..], 1),
        (&["list"][..], 0),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
            .args(args)
            .output()
            .expect("spawn trace_tool");
        assert_eq!(
            out.status.code(),
            Some(code),
            "trace_tool {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
