//! `anr_benchmark` — the seeded benchmark of record for `anr scenario`
//! (march), `anr serve` and the offline tools. `README.md` next to this
//! package describes the workloads and metrics; `run.sh` builds and runs
//! it.
//!
//! ```text
//! anr_benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--spans <file.jsonl>]
//! ```
//!
//! Standard output carries two JSON lines: the run record (provenance,
//! every raw timing, per-operation summaries), then the summary the
//! driver reads — `correct`, `attempted`, `failed` and the metrics
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`).

mod march;
mod measure;
mod outputs;
mod report;
mod seeded;
mod serve;
mod tools;

use anr_trace::TraceEvent;
use march::MarchSpec;
use measure::{highest_tail, median};
use report::{json_num, json_str, summary_line, Run, END_TO_END, PER_LAYER};
use seeded::ServeSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tools::ToolsSpec;

const USAGE: &str = "usage: anr_benchmark --workload <march-paper|march-large|serve-zipf|tools> \
                     --seed <u64> --seconds <n> --trace <0|1> [--spans <file.jsonl>]";

/// Where the program under test lives.
pub(crate) struct Env {
    /// The `anr` CLI.
    pub(crate) anr: PathBuf,
    /// The repository root (what `anr lint` scans).
    pub(crate) root: PathBuf,
}

fn repo_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
    root.canonicalize().unwrap_or(root)
}

impl Env {
    /// `anr` next to this executable, as `run.sh` builds it.
    fn locate() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let anr = exe.with_file_name("anr");
        if !anr.is_file() {
            return Err(format!("{} not found; build it with run.sh", anr.display()));
        }
        Ok(Env {
            anr,
            root: repo_root(),
        })
    }

    /// `anr` from the release build of the target directory the tests
    /// run from (`cargo build --release -p anr-cli` first).
    #[cfg(test)]
    pub(crate) fn for_tests() -> Env {
        let exe = std::env::current_exe().expect("test executable path");
        let profile_dir = exe.parent().and_then(Path::parent).expect("target layout");
        let anr = [
            profile_dir.join("anr"),
            profile_dir.with_file_name("release").join("anr"),
        ]
        .into_iter()
        .find(|p| p.is_file())
        .expect("build `anr` into the same target directory first");
        Env {
            anr,
            root: repo_root(),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// Runs the selected workload; traced runs also return their spans.
fn run_workload(args: &Args) -> Result<(Run, Vec<TraceEvent>), String> {
    let env = Env::locate()?;
    let golden = outputs::Golden::committed()?;
    let mut spans = Vec::new();
    let (seed, seconds) = (args.seed, args.seconds);
    let run = match (args.workload.as_str(), args.trace) {
        ("march-paper", false) => {
            march::run_e2e(&env, &MarchSpec::paper(), seed, seconds, &golden)?
        }
        ("march-large", false) => {
            march::run_e2e(&env, &MarchSpec::large(), seed, seconds, &golden)?
        }
        ("serve-zipf", false) => serve::run_e2e(&env, &ServeSpec::full(), seed, seconds)?,
        ("tools", false) => tools::run_e2e(&env, &ToolsSpec::full(), seed, seconds)?,
        ("march-paper", true) => march::run_traced(&MarchSpec::paper(), seed, &golden, &mut spans)?,
        ("march-large", true) => march::run_traced(&MarchSpec::large(), seed, &golden, &mut spans)?,
        ("serve-zipf", true) => serve::run_traced(&env, &ServeSpec::full(), seed, &mut spans)?,
        ("tools", true) => tools::run_traced(&env, &ToolsSpec::full(), seed, &mut spans)?,
        (other, _) => return Err(format!("unknown workload {other:?}")),
    };
    Ok((run, spans))
}

/// Where and how the numbers were taken.
fn provenance(args: &Args, root: &Path) -> String {
    let commit = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success() && root.join(".git").exists())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    let available = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = String::from("{\"commit\": ");
    let opt_str = |out: &mut String, v: Option<&str>| match v {
        Some(s) => json_str(out, s),
        None => out.push_str("null"),
    };
    opt_str(&mut out, commit.as_deref());
    out.push_str(", \"cpu\": ");
    opt_str(&mut out, cpu.as_deref());
    let _ = write!(
        out,
        ", \"available_parallelism\": {available}, \"default_workers\": {}, \"anr_workers_env\": ",
        anr_par::default_workers()
    );
    opt_str(&mut out, std::env::var("ANR_WORKERS").ok().as_deref());
    out.push_str(", \"profile\": ");
    json_str(
        &mut out,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    out.push_str(", \"workload\": ");
    json_str(&mut out, &args.workload);
    let _ = write!(
        out,
        ", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        args.seed, args.seconds, args.trace
    );
    out
}

/// The run record: provenance, failures, per-operation summaries (the
/// median and the highest percentile with ten samples beyond it, with
/// the sample count), every raw timing, and the metrics.
fn run_record(args: &Args, run: &Run) -> String {
    let mut out = String::from("{\"schema\": \"anr-benchmark-run/1\", \"provenance\": ");
    out.push_str(&provenance(args, &repo_root()));
    let _ = write!(
        out,
        ", \"attempted\": {}, \"failed\": {}, \"failures\": [",
        run.attempted,
        run.failures.len()
    );
    for (i, f) in run.failures.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, f);
    }
    out.push_str("], \"setup_ms\": [");
    for (i, ms) in run.setup_ms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_num(&mut out, *ms);
    }
    out.push_str("], \"summaries\": [");
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &run.samples {
        let kind = s.op.split(':').next().unwrap_or(&s.op);
        by_kind.entry(kind).or_default().push(s.ms);
    }
    for (i, (kind, ms)) in by_kind.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"op\": ");
        json_str(&mut out, kind);
        let _ = write!(out, ", \"n\": {}, \"p50_ms\": ", ms.len());
        json_num(&mut out, median(ms));
        match highest_tail(ms) {
            Some((p, v)) => {
                let _ = write!(out, ", \"tail_p\": {p}, \"tail_ms\": ");
                json_num(&mut out, v);
            }
            None => out.push_str(", \"tail_p\": null, \"tail_ms\": null"),
        }
        out.push('}');
    }
    out.push_str("], \"samples\": [");
    for (i, s) in run.samples.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"op\": ");
        json_str(&mut out, &s.op);
        out.push_str(", \"ms\": ");
        json_num(&mut out, s.ms);
        out.push('}');
    }
    out.push_str("], \"metrics\": {");
    for (i, (name, v)) in run.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, name);
        out.push_str(": ");
        json_num(&mut out, *v);
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (run, spans) = match run_workload(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let summary = match summary_line(&run, declared) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.spans {
        let jsonl: String = spans.iter().map(anr_trace::jsonl_line).collect();
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    for f in &run.failures {
        eprintln!("failed: {f}");
    }
    for (name, unit) in declared {
        eprintln!("{name:>28} {:>14.4} {unit}", run.metrics[name]);
    }
    println!("{}", run_record(&args, &run));
    println!("{summary}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload tools --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, "tools");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(args("--workload tools --seed 7 --seconds 20").is_err());
        assert!(args("--workload tools --seed x --seconds 20 --trace 0").is_err());
        assert!(args("--workload tools --seed 1 --seconds 20 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
