//! Measuring half of the DBRE benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! perfbench prepare --workload W --seed N --dir D
//! perfbench run     --workload W --dir D
//! perfbench trace   --workload W --dir D [--spans FILE]
//! perfbench calibrate --workload W
//! ```
//!
//! `prepare` generates the workload's inputs (CSV extensions, DDL,
//! program sources), checks that they load back equal to the generated
//! database, and records the answers of an untimed reference-backend
//! run. `run` and `trace` are each one fresh process that loads those
//! inputs through the public loaders and prints one JSON line of raw
//! samples; `run.py` aggregates them. Fresh processes keep peak RSS
//! free of the generator and of earlier runs. `calibrate` times a
//! fixed kernel that gauges the host's current speed.

#![forbid(unsafe_code)]

mod calibrate;
mod measure;
mod trace;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    dir: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing subcommand")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 42,
        dir: PathBuf::new(),
        spans: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--dir" => args.dir = PathBuf::from(value),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.dir.as_os_str().is_empty() && args.command != "calibrate" {
        return Err("--dir is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let w = workload::Workload::named(&args.workload)
            .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
        match args.command.as_str() {
            "calibrate" => calibrate::run(w.sessions),
            "prepare" => workload::prepare(&w, args.seed, &args.dir),
            "run" => measure::run(&w, &args.dir),
            "trace" => trace::run(&w, &args.dir, args.spans.as_deref()),
            other => Err(format!("unknown subcommand `{other}`")),
        }
    });
    match result {
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
