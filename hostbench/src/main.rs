//! Host-normalised benchmark of the EyeCoD pipeline.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <stream_dense|stream_delta|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-stage
//! and per-layer metrics from a separate traced run. The last line of
//! standard output is the result object; the lines before it print every
//! normalised value beside its raw value and host factor. See README.md.

mod fleet;
mod host;
mod report;
mod setup;
mod stream;
mod trace;

use report::Report;
use setup::Motion;
use stream::StreamMode;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Every `EYECOD_*` variable alters what the program does (backend, delta
/// mode, fault plan, serve mode, pool size, SIMD, telemetry), so a run
/// refuses to start under any of them.
fn refuse_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("EYECOD_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with workload-altering variables set: {}",
            set.join(", ")
        ))
    }
}

fn stream_mode(workload: &str) -> Option<StreamMode> {
    match workload {
        "stream_dense" => Some(StreamMode {
            delta: false,
            motion: Motion::Saccadic,
            window: 50,
            open_utilisation: 0.3,
        }),
        "stream_delta" => Some(StreamMode {
            delta: true,
            motion: Motion::Fixation,
            window: 100,
            open_utilisation: 0.2,
        }),
        // the fleet's traced run drives its single trackers densely on the
        // fleet's own traffic
        "fleet" => Some(StreamMode {
            delta: false,
            motion: Motion::Saccadic,
            window: 50,
            open_utilisation: 0.3,
        }),
        _ => None,
    }
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mode = stream_mode(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (want stream_dense | stream_delta | fleet)",
            args.workload
        )
    })?;
    let fleet = args.workload == "fleet";
    match (args.trace, fleet) {
        (true, _) => trace::run(args.seed, args.seconds, mode, fleet, report),
        (false, true) => fleet::run(args.seed, args.seconds, SETUP_REPS, report),
        (false, false) => stream::run(args.seed, args.seconds, mode, SETUP_REPS, report),
    }
}

fn main() {
    let args = match parse_args().and_then(|a| refuse_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    println!("host {}", host::fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("hostbench: {e}");
        std::process::exit(1);
    }
    if report.attempted == 0 {
        report.errors.push("no frames were measured".into());
    }
    report.print();
}
