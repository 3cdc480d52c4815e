//! amtlc benchmark: runs one named workload for a fixed number of host
//! seconds, in whole rounds of set-up, execution and output checks, and
//! prints one JSON object as its last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_wide_lci|sim_deep_mpi|real_tlr|real_fine_dag> \
//!     --seed <n> --seconds <s> --trace <0|1> [--threads <n>] [--nodes <n>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics (`setup_s`, `run_s`,
//! `peak_rss_mib`); with `--trace 1` it turns on the program's metrics and
//! prints every per-layer metric, and writes the benchmark's phase spans to
//! standard error as Chrome-trace JSON. `--threads` and `--nodes` override
//! the real workloads' pool width and node count for reference figures.

mod check;
mod layers;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Spans, PER_LAYER};
use workload::{run_round, Inputs, Prepared, Round, Workload};

/// Rounds every run makes at least, so that each time is a median.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: Option<usize>,
    nodes: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = None;
    let mut nodes = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--threads" => threads = Some(number()?.clamp(1, 64) as usize),
            "--nodes" => nodes = Some(number()?.clamp(1, 64) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        nodes,
    })
}

/// A resident-set line (`VmRSS:` now, `VmHWM:` peak) of this process, MiB.
fn rss_mib(line: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(line))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {line} line in the process status"))?;
    Ok(kib / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut inputs = Inputs::new(args.workload, args.seed);
    if let Some(t) = args.threads {
        inputs.threads = t;
    }
    if let Some(n) = args.nodes {
        inputs.nodes = n;
    }
    eprintln!(
        "perfbench: {} seed {} on {} nodes, {} pool threads, {} cores available",
        inputs.workload.name(),
        inputs.seed,
        inputs.nodes,
        inputs.threads,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut spans = Spans::new();
    let mut prep = Prepared::new(&inputs, &mut spans);

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_mib = 0.0;
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let r = run_round(&inputs, args.trace, &mut prep, &mut spans, rounds.len());
        eprintln!(
            "{} round {}: setup {:.4} s  run {:.4} s  rss {:.1} MiB",
            inputs.workload.name(),
            rounds.len(),
            r.setup_s,
            r.run_s,
            rss_mib("VmRSS:")?
        );
        rounds.push(r);
        if rounds.len() == MIN_ROUNDS {
            // The peak over a fixed amount of work, not over however many
            // rounds fit in the time.
            peak_mib = rss_mib("VmHWM:")?;
        }
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut correct = true;
    for (i, r) in rounds.iter().enumerate() {
        attempted += r.tasks_attempted + r.verdicts.len() as u64;
        failed += r.tasks_not_completed;
        for v in &r.verdicts {
            if !v.ok {
                failed += 1;
                correct = false;
                eprintln!("round {i}: check {} FAILED: {}", v.name, v.detail);
            }
        }
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for &(name, unit, _) in PER_LAYER {
            let value = match name {
                "phase.setup_s" => median(rounds.iter().map(|r| r.setup_s).collect()),
                "phase.run_s" => median(rounds.iter().map(|r| r.run_s).collect()),
                _ => median(rounds.iter().map(|r| r.layers.get(name)).collect()),
            };
            metrics.push((name, value, unit));
        }
        eprintln!("spans: {}", spans.to_chrome_json());
    } else {
        metrics.push((
            "setup_s",
            median(rounds.iter().map(|r| r.setup_s).collect()),
            "s",
        ));
        metrics.push((
            "run_s",
            median(rounds.iter().map(|r| r.run_s).collect()),
            "s",
        ));
        metrics.push(("peak_rss_mib", peak_mib, "MiB"));
    }

    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
