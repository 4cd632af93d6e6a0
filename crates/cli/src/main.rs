//! The `anr` binary: see `anr help`.

use anr_cli::{parse_invocation, run_command, Command};
use anr_trace::Tracer;

fn main() {
    let invocation = match parse_invocation(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            let _ = run_command(Command::Help, &Tracer::disabled());
            std::process::exit(2);
        }
    };
    let tracer = match &invocation.trace {
        Some(path) => match Tracer::jsonl_file(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot open trace file {}: {e}", path.display());
                std::process::exit(1);
            }
        },
        None => Tracer::disabled(),
    };
    let result = run_command(invocation.command, &tracer);
    if let Err(e) = tracer.flush() {
        eprintln!("error: flushing trace: {e}");
        std::process::exit(1);
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
