//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a few human-readable lines, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). Exits non-zero if any reply disagreed with the
//! serial oracle or any check failed.

use servebench::run::{self, Config};
use servebench::script::Kind;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("servebench: {msg}");
    eprintln!(
        "usage: servebench --workload edit-session|report|ingest-follow --seed N \
         --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), val) {
            ("--workload", Some(v)) => {
                kind = match v {
                    "edit-session" => Some(Kind::EditSession),
                    "report" => Some(Kind::Report),
                    "ingest-follow" => Some(Kind::IngestFollow),
                    _ => return usage(&format!("unknown workload {v:?}")),
                }
            }
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => trace = matches!(v, "0" | "1").then(|| v == "1"),
            (a, _) => return usage(&format!("bad argument {a:?}")),
        }
        i += 2;
    }
    let (Some(kind), Some(seed), Some(seconds), Some(trace)) = (kind, seed, seconds, trace) else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let cfg = Config {
        kind,
        seed,
        seconds,
        trace,
        tiny: false,
    };
    let out = match run::run(cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("servebench: {} failed: {e}", run::name(kind));
            return ExitCode::FAILURE;
        }
    };
    for n in &out.notes {
        println!("# {n}");
    }
    for p in out.problems.iter().take(20) {
        eprintln!("servebench: CHECK FAILED: {p}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(name),
                if v.is_finite() { *v } else { 0.0 },
                unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
