//! `perfbench` — one benchmark run of one workload, timed or traced.
//!
//! ```text
//! perfbench run   --workload NAME --seed S [--threads K] [--tiny]
//! perfbench trace --workload NAME --seed S --out DIR [--tiny]
//! ```
//!
//! `run` makes one `run_with_telemetry` call with `Telemetry::disabled()`
//! (the call `fleet_sim --cluster` makes), then repeats its set-up (a
//! fresh pool and the rack's deploy) on its own to time that part's CPU.
//! It prints one JSON line: the call's wall and CPU seconds, the set-up's
//! wall and CPU seconds, the peak RSS after the call, the node-tick slots
//! served (nodes × ticks), the summary's accounting fields and the digest
//! of its `summary_to_json` rendering. `--threads` overrides the
//! workload's worker count (the cross-thread check).
//!
//! `trace` runs the traced sources (see `traced.rs`), writes the spans,
//! per-name span totals and the event trace under `--out`, and prints the
//! per-layer metrics as one JSON line.
//!
//! `perfbench/run.py` drives both; it is the benchmark's entry point.

mod host;
mod span;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use uniserver_bench::cluster::summary_to_json;
use uniserver_cloudmgr::pool::{resolve_workers, ShardPool};
use uniserver_orchestrator::deploy::deploy_cluster_on;
use uniserver_orchestrator::{run_with_telemetry, ClusterSummary, Telemetry};

use crate::workload::Workload;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    threads: Option<usize>,
    tiny: bool,
    out: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mode = argv.first().cloned().ok_or("missing mode: run or trace")?;
    if mode != "run" && mode != "trace" {
        return Err(format!("unknown mode '{mode}'"));
    }
    let (mut workload, mut seed, mut threads, mut tiny, mut out) = (None, None, None, false, None);
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--threads" => threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?),
            "--out" => out = Some(value()?),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if mode == "trace" && out.is_none() {
        return Err("trace requires --out".into());
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        threads,
        tiny,
        out,
    })
}

/// FNV-1a (64-bit) of the summary's full JSON rendering, per-tick series
/// included: equal digests mean byte-identical `fleet_sim`-style output.
fn digest(summary: &ClusterSummary) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in summary_to_json(summary, true).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The summary fields the accounting identities are checked on.
fn accounting(out: &mut String, s: &ClusterSummary) {
    let _ = write!(
        out,
        "\"offered\":{},\"placed\":{},\"abandoned\":{},\"completed\":{},\"evicted\":{},\"live_at_end\":{}",
        s.offered, s.placed, s.abandoned, s.completed, s.evicted, s.live_at_end
    );
}

fn timed(args: &Args) -> Result<String, String> {
    let mut config = args.workload.config(args.seed, args.tiny);
    if let Some(threads) = args.threads {
        config.threads = threads;
    }
    let cpu_start = host::process_cpu_s();
    let (summary, timing) = run_with_telemetry(&config, &mut Telemetry::disabled());
    let cpu_s = host::process_cpu_s() - cpu_start;
    let peak_rss_mb = host::peak_rss_mb()?;

    // Set-up again on its own, for its CPU time: what `run_with_telemetry`
    // does before the first tick (a fresh pool, then the rack's deploy).
    let setup_start = host::process_cpu_s();
    {
        let pool = ShardPool::new(resolve_workers(config.threads, config.cluster.nodes));
        drop(deploy_cluster_on(&config, &pool));
    }
    let setup_cpu_s = host::process_cpu_s() - setup_start;

    let mut out = format!(
        "{{\"digest\":\"{}\",\"wall_s\":{},\"setup_wall_s\":{},\"cpu_s\":{cpu_s},\"setup_cpu_s\":{setup_cpu_s},\"peak_rss_mb\":{peak_rss_mb},\"workers\":{},\"node_tick_slots\":{},",
        digest(&summary),
        timing.wall_ms / 1e3,
        (timing.wall_ms - timing.serve_ms) / 1e3,
        timing.workers,
        summary.nodes as u64 * summary.ticks,
    );
    accounting(&mut out, &summary);
    out.push('}');
    Ok(out)
}

fn trace(args: &Args) -> Result<String, String> {
    let dir = std::path::Path::new(args.out.as_deref().unwrap_or("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let config = args.workload.config(args.seed, args.tiny);
    let events = dir.join("events.ndjson");
    let run = traced::traced_run(&config, &events.to_string_lossy())
        .map_err(|e| format!("cannot write {}: {e}", events.display()))?;

    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("spans.ndjson", run.tracer.to_ndjson())?;
    let mut totals = String::from("{");
    for (i, (name, s)) in run.tracer.stats().iter().enumerate() {
        let _ = write!(
            totals,
            "{}\"{name}\":{{\"count\":{},\"total_ms\":{},\"self_ms\":{},\"p50_us\":{},\"p99_us\":{}}}",
            if i == 0 { "" } else { "," },
            s.count,
            s.total_ms(),
            s.self_ns as f64 / 1e6,
            s.percentile_ns(50.0) as f64 / 1e3,
            s.percentile_ns(99.0) as f64 / 1e3
        );
    }
    totals.push('}');
    write("span_totals.json", totals)?;

    let replica = run.replica_matches.map_or("null", |m| if m { "true" } else { "false" });
    let mut out = format!(
        "{{\"digest\":\"{}\",\"cpu_s\":{},\"replica_matches\":{replica},",
        digest(&run.summary),
        run.cpu_s
    );
    accounting(&mut out, &run.summary);
    out.push_str(",\"metrics\":{");
    for (i, m) in run.metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"source\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            m.name,
            m.value,
            m.unit,
            m.source
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: perfbench run --workload NAME --seed S [--threads K] [--tiny]\n\
                 \x20      perfbench trace --workload NAME --seed S --out DIR [--tiny]"
            );
            return ExitCode::FAILURE;
        }
    };
    let result = if args.mode == "run" { timed(&args) } else { trace(&args) };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_requires_workload_seed_and_trace_output() {
        assert!(parse(&argv("run --workload flat-1k --seed 7")).is_ok());
        assert!(parse(&argv("run --seed 7")).is_err());
        assert!(parse(&argv("run --workload flat-1k")).is_err());
        assert!(parse(&argv("run --workload nope --seed 7")).is_err());
        assert!(parse(&argv("trace --workload flat-1k --seed 7")).is_err());
        assert!(parse(&argv("bench --workload flat-1k --seed 7")).is_err());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let config = workload::find("flat-1k").unwrap().config(2018, true);
        let (a, _) = uniserver_orchestrator::run_timed(&config);
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        b.energy_j += 1e-9;
        assert_ne!(digest(&a), digest(&b));
    }
}
