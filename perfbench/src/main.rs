//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <reach|pointsto|ivm_pointsto> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload end to end with tracing off;
//! `--trace 1` measures every layer and takes work counts from one
//! traced run. The last line of standard output is the JSON result;
//! the lines above it print every metric by name with its unit. See
//! `README.md` beside this crate for the metrics and workloads.

mod alloc;
mod calib;
mod e2e;
mod layers;
mod oracle;
mod report;
mod stats;
mod workload;

use report::Report;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: perfbench --workload <reach|pointsto|ivm_pointsto> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.note(format!(
        "workload={} seed={} seconds={} trace={} threads={} available_parallelism={} profile={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    ));
    if args.trace {
        layers::run(args.workload, args.seed, &mut report);
    } else {
        e2e::run(args.workload, args.seed, args.seconds, &mut report);
    }
    report.print();
}
