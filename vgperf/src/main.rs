//! `vgperf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` of host time and prints, as the last
//! line of stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics from untraced
//! drives; `--trace 1` reports the per-layer metrics from a separate
//! traced drive and writes the harness spans to `out/` in this crate.

use std::fmt::Write as _;
use std::process::ExitCode;
use vgperf::run::{end_to_end, Outcome};
use vgperf::workloads::Workload;

const USAGE: &str = "usage: vgperf --workload <postmark|ghostkv_c10k|sshd_transfer|procmix_smp> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
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

/// The result line. Values print in Rust's shortest round-trip form, so
/// every measured digit is kept.
fn result_json(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct, o.attempted, o.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vgperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        vgperf::layers::per_layer(args.workload, args.seed, args.seconds).and_then(|(o, spans)| {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/spans_{}.jsonl", args.workload.name());
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, spans.to_json_lines()))
                .map_err(|e| format!("writing {path}: {e}"))?;
            Ok(o)
        })
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(o) => {
            for note in &o.notes {
                println!("# {note}");
            }
            for m in &o.metrics {
                println!("# {:<40} {:>18.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vgperf: {e}");
            ExitCode::FAILURE
        }
    }
}
