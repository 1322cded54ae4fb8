//! Trace utility: list the catalog, export traces to the binary PMPT
//! format, and inspect trace files.
//!
//! ```sh
//! trace_tool list
//! trace_tool export spec06.mcf_2 /tmp/mcf2.pmpt [tiny|small|standard|large]
//! trace_tool info /tmp/mcf2.pmpt
//! ```
//!
//! A usage error (no or unknown subcommand, missing arguments, an
//! unknown trace or scale) exits 2; a failed read or write exits 1.

use pmp_bench::{scale_or_exit, trace_or_exit};
use pmp_traces::io::{read_trace, write_trace};
use pmp_traces::{catalog, TraceScale};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for spec in catalog() {
                println!("{:8} {}", spec.suite.to_string(), spec.name);
            }
            ExitCode::SUCCESS
        }
        Some("export") if args.len() >= 3 => {
            let spec = trace_or_exit("trace", &args[1]);
            let scale = scale_or_exit("scale", args.get(3).map(String::as_str), TraceScale::Small);
            let trace = spec.build(scale);
            let file = match File::create(&args[2]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {}: {e}", args[2]);
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = write_trace(&trace, BufWriter::new(file)) {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} ({} ops) to {}", trace.name, trace.mem_ops(), args[2]);
            ExitCode::SUCCESS
        }
        Some("info") if args.len() >= 2 => {
            let file = match File::open(&args[1]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {}: {e}", args[1]);
                    return ExitCode::FAILURE;
                }
            };
            match read_trace(BufReader::new(file)) {
                Ok(t) => {
                    let loads = t.ops.iter().filter(|o| o.access.kind.is_load()).count();
                    let deps = t.ops.iter().filter(|o| o.dep_on_prev_load).count();
                    println!("name:         {}", t.name);
                    println!("suite:        {}", t.suite);
                    println!("memory ops:   {} ({} loads, {} stores)", t.mem_ops(), loads, t.mem_ops() - loads);
                    println!("instructions: {}", t.instruction_count());
                    println!("dep chains:   {deps} dependent loads");
                    println!("footprint:    {:.1} MB", t.footprint_lines() as f64 * 64.0 / 1e6);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("read failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("usage: trace_tool list | export <name> <file> [scale] | info <file>");
            ExitCode::from(2)
        }
    }
}
