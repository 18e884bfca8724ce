//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit and how it was measured, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero without a result line on bad arguments or
//! when a run errors.

use std::path::Path;
use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::measure::{execute, Options};
use perfbench::workload::{Size, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::WarmApps,
        seed: perfbench::gen::TUNING_SEED,
        seconds: 15.0,
        trace: false,
        size: Size::Full,
        setups: SETUPS,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a finite, non-negative number, not {}",
            opts.seconds
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match execute(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {} ({}):",
        opts.workload.name(),
        opts.seed,
        if opts.trace {
            "traced, per layer"
        } else {
            "end to end"
        }
    );
    for m in &outcome.metrics {
        println!("  {:<38} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.how);
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("per-job digest {:016x}", outcome.digest);
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
