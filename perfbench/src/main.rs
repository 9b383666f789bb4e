//! The FEM-2 benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plate_crossbar --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Workloads: `plate_crossbar`, `plate_1024`,
//! `console_solve`, `serve_mix`. With `--trace 0` the last line of
//! standard output reports the end-to-end metrics of `BENCHMARK.json`;
//! with `--trace 1` it reports the per-layer metrics of a traced run.
//! Spans are written to `.bench_run/spans-<workload>-<seed>.jsonl`.
//! `perfbench/METRICS.md` says what each metric means and which
//! end-to-end metric each layer metric should move.

mod console;
mod plates;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

use crate::trace::Tracer;
use crate::util::Outcome;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Host facts every output records.
pub fn host_line(args: &Args, rounds: u64) {
    println!(
        "# host nproc={} generator_threads={} server_workers={} FEM2_PAR_THREADS={} commit={} rounds={rounds} workload={} seed={} seconds={} trace={}",
        util::nproc(),
        serve::GENERATOR_THREADS,
        serve::server_workers(),
        std::env::var("FEM2_PAR_THREADS").unwrap_or_else(|_| "unset".into()),
        util::commit(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

/// Shared end of a traced run: check that child spans cover the replica
/// runs (root spans called `root`), write the spans, and report coverage
/// and the traced-versus-untraced wall difference, both walls taken at
/// the reference host speed.
pub fn finish_trace(
    args: &Args,
    t: &Tracer,
    root: &str,
    out: &mut Outcome,
    traced_ms: f64,
    untraced_ms: f64,
) {
    let coverage = t.coverage(root);
    if coverage < trace::MIN_COVERAGE {
        out.problem(format!(
            "spans cover {:.1}% of {root}, below {:.0}%",
            coverage * 100.0,
            trace::MIN_COVERAGE * 100.0
        ));
    }
    let overhead = (traced_ms / untraced_ms.max(1e-9) - 1.0) * 100.0;
    out.metrics.put("trace.overhead_pct", overhead);
    out.metrics.put("trace.coverage_pct", coverage * 100.0);
    out.metrics.put("trace.spans", t.recorded as f64);
    let path =
        PathBuf::from(".bench_run").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match t.write(&path) {
        Ok(()) => println!(
            "# spans {} recorded, {} written to {} (traced {traced_ms:.1} ms, untraced {untraced_ms:.1} ms at the reference host speed, overhead {overhead:.2}%, coverage {:.2}%)",
            t.recorded,
            t.spans.len(),
            path.display(),
            coverage * 100.0
        ),
        Err(e) => out.problem(format!("writing {}: {e}", path.display())),
    }
    for (name, a) in t.aggregate() {
        println!(
            "# span {name:<22} calls {:>8} total {:>12.3} ms self {:>12.3} ms",
            a.calls,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        );
    }
    host_line(args, 1);
}

/// `(name, unit)` of the metrics `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Ok(Value::Arr(items)) = doc.get_field(key) else {
        return Err(format!("BENCHMARK.json: no `{key}` list"));
    };
    items
        .iter()
        .map(|m| match (m.get_field("name"), m.get_field("unit")) {
            (Ok(Value::Str(n)), Ok(Value::Str(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("BENCHMARK.json: malformed `{key}` entry")),
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let (e2e, layers) = match (listed("end_to_end"), listed("per_layer")) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "plate_crossbar" => plates::run(&args, plates::gen_crossbar, "plate_crossbar"),
        "plate_1024" => plates::run(&args, plates::gen_1024, "plate_1024"),
        "console_solve" => console::run(&args),
        "serve_mix" => serve::run(&args),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    // Report exactly the listed metrics: a listed end-to-end metric the
    // workload did not measure is a bug; a per-layer metric of a layer the
    // workload never enters reads 0.
    let wanted = if args.trace { &layers } else { &e2e };
    for name in out.metrics.0.keys() {
        if !wanted.iter().any(|(n, _)| n == name) {
            out.problems
                .push(format!("metric {name} is not listed in BENCHMARK.json"));
        }
    }
    let mut report = Vec::new();
    for (name, unit) in wanted {
        match out.metrics.0.get(name) {
            Some(v) => report.push((name.clone(), *v, unit.clone())),
            None if args.trace => report.push((name.clone(), 0.0, unit.clone())),
            None => out
                .problems
                .push(format!("end-to-end metric {name} was not measured")),
        }
    }
    for (name, v, _) in &report {
        if !v.is_finite() {
            out.problems
                .push(format!("metric {name} is not a finite number ({v})"));
        }
    }
    for p in &out.problems {
        eprintln!("problem: {p}");
    }
    let correct = out.attempted > 0 && out.failed == 0 && out.problems.is_empty();
    println!(
        "{}",
        util::result_line(correct, out.attempted.max(1), out.failed, &report)
    );
    ExitCode::SUCCESS
}
