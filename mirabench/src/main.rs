//! The mira-ops benchmark: one seeded workload per process, measured
//! for a fixed time, with its outputs checked.
//!
//! ```text
//! cargo run --release --manifest-path mirabench/Cargo.toml -- \
//!     --workload reproduce|serve-live|predict --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object. With
//! `--trace 0` it carries the end-to-end metrics; with `--trace 1` the
//! per-layer metrics of a traced run. Every run also writes its record
//! (fingerprint, all metrics) and, when traced, its spans under
//! `.bench_out/` in the checkout. See README.md.

mod alloc;
mod common;
mod fingerprint;
mod outcome;
mod pacing;
mod predict;
mod reproduce;
mod serve_live;
mod stats;
mod trace;
mod wrappers;

use std::fmt::Write as _;
use std::process::ExitCode;

use outcome::{num, result_line, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const WORKLOADS: &[&str] = &["reproduce", "serve-live", "predict"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(15);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(common::DEFAULT_SEED),
        seconds,
        trace,
    })
}

/// The record written beside the result: fingerprint, every metric the
/// run measured, and the failures.
fn record(args: &Args, fp: &[(&str, String)], outcome: &Outcome) -> String {
    let mut s = String::from("{\"fingerprint\":{");
    for (i, (k, v)) in fp.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(s, "{sep}\"{k}\":\"{}\"", v.replace(['"', '\\'], "'"));
    }
    s.push_str("},\"metrics\":{");
    for (i, (name, value, unit)) in outcome.reported(args.trace).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            s,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(*value)
        );
    }
    let _ = write!(
        s,
        "}},\"attempted\":{},\"failed\":{},\"failures\":[",
        outcome.attempted, outcome.failed
    );
    for (i, f) in outcome.failures.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(s, "{sep}\"{}\"", f.replace(['"', '\\'], "'"));
    }
    s.push(']');
    if !outcome.spans.is_empty() {
        // Per-layer busy time, derived from the spans: total, and self
        // time (span minus the part its children cover).
        s.push_str(",\"spans\":{");
        for (i, (name, t)) in trace::totals(&outcome.spans).iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                t.count,
                num(t.total_ns as f64 / 1e6),
                num(t.self_ns as f64 / 1e6)
            );
        }
        s.push('}');
    }
    s.push('}');
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mirabench: {e}");
            return ExitCode::from(2);
        }
    };
    let fp = fingerprint::collect(&args.workload, args.seed, args.seconds, args.trace);
    let mut outcome = match args.workload.as_str() {
        "reproduce" => reproduce::run(args.seed, args.seconds, args.trace),
        "serve-live" => serve_live::run(args.seed, args.seconds, args.trace),
        _ => predict::run(args.seed, args.seconds, args.trace),
    };
    outcome
        .values
        .entry("peak_rss_mb")
        .or_insert_with(common::peak_rss_mb);

    for (name, value, unit) in outcome.reported(args.trace) {
        println!("{:<40} {:>16} {unit}", name, format!("{value:.6}"));
    }
    for f in &outcome.failures {
        eprintln!("mirabench: failed: {f}");
    }
    let rec = record(&args, &fp, &outcome);
    println!("{rec}");
    let dir = fingerprint::checkout_root().join(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), &rec))
        .and_then(|()| {
            if outcome.spans.is_empty() {
                Ok(())
            } else {
                std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    trace::to_jsonl(&outcome.spans),
                )
            }
        });
    if let Err(e) = written {
        eprintln!(
            "mirabench: cannot write the record under {}: {e}",
            dir.display()
        );
    }
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}
