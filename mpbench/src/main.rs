//! One benchmark for the whole MPTCP stack.
//!
//! ```text
//! mpbench --workload <sim_bulk|sim_http|wire_rr> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `name value unit` line per metric and, as the last line of
//! standard output, a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics of untraced
//! runs; `--trace 1` runs the same workload and seed untraced and traced
//! and reports per-layer metrics. Exits non-zero, printing no result, when
//! the arguments are invalid or the run could not be measured. See
//! NOTES.md for why each workload exists.

mod kernels;
mod report;
mod sim;
mod spans;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

pub const WORKLOADS: &[&str] = &["sim_bulk", "sim_http", "wire_rr"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where a traced run writes its spans: inside the working directory.
fn spans_path(a: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("spans-{}-{}.jsonl", a.workload, a.seed))
}

fn run(a: &Args) -> Result<Outcome, String> {
    use sim::SimWorkload;
    let spans = spans_path(a);
    Ok(match (a.workload.as_str(), a.trace) {
        ("sim_bulk", false) => sim::run(SimWorkload::Bulk, a.seed, a.seconds),
        ("sim_bulk", true) => sim::run_traced(SimWorkload::Bulk, a.seed, &spans),
        ("sim_http", false) => sim::run(SimWorkload::Http, a.seed, a.seconds),
        ("sim_http", true) => sim::run_traced(SimWorkload::Http, a.seed, &spans),
        ("wire_rr", false) => wire::rr(a.seed, a.seconds)?,
        ("wire_rr", true) => wire::rr_traced(a.seed, a.seconds, &spans)?,
        (w, _) => return Err(format!("unknown workload {w}")),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mpbench: {e}");
            eprintln!(
                "usage: mpbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let steal0 = report::cpu_steal_ticks();
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mpbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match outcome.json(args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mpbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for p in &outcome.problems {
        eprintln!("mpbench: check failed: {p}");
    }
    let steal1 = report::cpu_steal_ticks();
    eprintln!(
        "mpbench: hypervisor steal took {:.1}% of machine CPU time during the run",
        100.0 * report::ratio((steal1.0 - steal0.0) as f64, (steal1.1 - steal0.1) as f64)
    );
    print!("{}", outcome.table(args.trace));
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
