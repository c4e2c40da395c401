//! End-to-end benchmark of the gsm stack.
//!
//! ```text
//! e2ebench --workload <hh_ingest|quantile_serve|durable_recover> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as its last line: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced pipeline with `--trace 1`. Exits 1 when
//! any correctness check fails, 2 on bad arguments.

mod client;
mod common;
mod durable;
mod gen;
mod hh;
mod mirror;
mod oracle;
mod serve;
mod stats;

use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match (args.workload.as_str(), args.trace) {
        ("hh_ingest", false) => hh::timed,
        ("hh_ingest", true) => hh::traced,
        ("quantile_serve", false) => serve::timed,
        ("quantile_serve", true) => serve::traced,
        ("durable_recover", false) => durable::timed,
        ("durable_recover", true) => durable::traced,
        (other, _) => {
            eprintln!("e2ebench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} host_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let report = run(&args);
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
