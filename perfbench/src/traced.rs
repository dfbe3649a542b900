//! The traced run: per-layer numbers measured from outside the simulator.
//!
//! Four sources, each named next to the metric it feeds:
//!
//! * **summary / stages / registry / trace-sink**: one
//!   `run_with_telemetry` call with the metrics registry and the event
//!   trace switched on. Its summary must equal the timed runs' summary.
//!   Orchestrator-private phases come from `OrchestratorTiming.stages`.
//! * **replay**: deploy split by repeating its public calls on one
//!   thread: `AdvisorCache::get_or_train` once per part,
//!   `provision_node` once per node, and `rejoin_node` once per
//!   re-characterization the run made (at least once, as a probe).
//! * **replica**: the serving loop driven through `Cluster`'s public API
//!   (`submit`, `terminate_by_id`, `manage`, `tick_pooled` with a stage
//!   profiler attached, `recover_from_crash`), one parent span per tick.
//!   On the flat profile it is the orchestrator's loop step for step,
//!   and its counters are checked against the summary. On the gray
//!   profile it omits gray faults, the watchdog, re-offers and the
//!   power cap, so there it times the cluster calls of a similar but
//!   not identical run.
//! * **end-of-run**: `HealthLog::logfile`, `HealthLog::vectors` and
//!   `Hypervisor::masked_corrected_total` read on the replica's cluster.
//!
//! `OrchestratorTiming.deploy_ms`, `stages.hypervisor_tick_ms` and
//! `stages.predictor_ms` add up time over worker threads: they are never
//! reported as wall time here, and the profiler's `NodeTick` and
//! `Predictor` stages appear only inside `cloudmgr.pool_efficiency` and
//! as worker-summed `cloudmgr.node_tick_ms` / `cloudmgr.predictor_ms`.

use std::sync::Arc;

use uniserver_cloudmgr::cluster::Cluster;
use uniserver_cloudmgr::pool::{resolve_workers, ShardPool};
use uniserver_core::ecosystem::{provision_node, DeploymentConfig};
use uniserver_core::training::AdvisorCache;
use uniserver_orchestrator::deploy::{deploy_cluster_on, node_deployment};
use uniserver_orchestrator::{
    rejoin_node, run_with_telemetry, ClusterSummary, Event, EventQueue, MarginPolicy,
    MetricsRegistry, OrchestratorConfig, Telemetry, TraceSink,
};
use uniserver_silicon::rng::indexed_seed;
use uniserver_telemetry::{Stage, StageProfiler};
use uniserver_units::Seconds;

use crate::span::Tracer;

/// Re-characterization replays are capped so a run with many
/// readmissions keeps the traced run short; the figure is per call.
const MAX_RECHARACTERIZE_REPLAYS: usize = 64;

/// One per-layer number and where it came from.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Metric name, `layer.metric`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` declares it.
    pub unit: &'static str,
    /// Which source measured it.
    pub source: &'static str,
}

/// Everything the traced run produces.
#[derive(Debug)]
pub struct TracedRun {
    /// Per-layer metrics, in declaration order.
    pub metrics: Vec<LayerMetric>,
    /// The traced orchestrator run's summary.
    pub summary: ClusterSummary,
    /// CPU seconds of that `run_with_telemetry` call.
    pub cpu_s: f64,
    /// `Some(matches)` when the replica is step-for-step the
    /// orchestrator's loop (flat profile), `None` otherwise.
    pub replica_matches: Option<bool>,
    /// The recorder, for the span output.
    pub tracer: Tracer,
}

const SUMMARY: &str = "summary";
const STAGES: &str = "stages";
const REGISTRY: &str = "registry";
const TRACE_SINK: &str = "trace-sink";
const REPLAY: &str = "replay";
const REPLICA: &str = "replica";
const END_OF_RUN: &str = "end-of-run";

/// What the replica counted, for the summary cross-check.
#[derive(Debug, Default, PartialEq)]
struct ReplicaCounts {
    offered: u64,
    placed: u64,
    completed: u64,
    evicted: u64,
    live_at_end: u64,
    crashes: u64,
    crash_migrations: u64,
    settled: u64,
    energy_j: f64,
    /// Node-ticks the replica's own registry counted (not compared: the
    /// summary has no such field).
    node_ticks: u64,
}

/// Runs every traced source for `config`. The event trace is written to
/// `events_path`.
///
/// # Errors
///
/// Returns an error when the event trace cannot be written.
pub fn traced_run(config: &OrchestratorConfig, events_path: &str) -> std::io::Result<TracedRun> {
    let mut tracer = Tracer::new();

    // --- The orchestrator itself, telemetry on.
    let mut tel = Telemetry::disabled();
    tel.metrics = Some(MetricsRegistry::new());
    tel.trace = Some(TraceSink::create(events_path)?);
    let cpu_start = crate::host::process_cpu_s();
    let (summary, timing) =
        tracer.span("orchestrator.run_with_telemetry", || run_with_telemetry(config, &mut tel));
    let cpu_s = crate::host::process_cpu_s() - cpu_start;
    let registry = tel.metrics.take().unwrap_or_default();
    let trace_events = tel.trace.take().map(TraceSink::finish).transpose()?.unwrap_or(0);

    // --- Deploy replay.
    let recharacterizations = summary.chaos.as_ref().map_or(0, |c| c.rejoins)
        + summary.gray.as_ref().map_or(0, |g| g.readmissions);
    replay_deploy(config, &mut tracer, recharacterizations);

    // --- Serving-loop replica and the end-of-run reads.
    let (cluster, counts, profiler, workers) = serve_replica(config, &mut tracer);
    let end = tracer.span("healthlog.read_end_of_run", || end_of_run(&cluster));
    let exact = config.chaos.is_none()
        && !config.lifecycle.enabled
        && !config.watchdog.enabled
        && config.admission.retry_budget == [0; 3];
    let replica_matches = exact
        .then(|| ReplicaCounts { node_ticks: counts.node_ticks, ..counts_of(&summary) } == counts);

    let stats = tracer.stats();
    let stat = |name: &str| stats.get(name).cloned().unwrap_or_default();
    let (tick, submit, manage) =
        (stat("cloudmgr.tick_pooled"), stat("cloudmgr.submit"), stat("cloudmgr.manage"));
    let (train, provision, rechar) =
        (stat("core.get_or_train"), stat("core.provision_node"), stat("core.rejoin_node"));
    let node_tick_ms = profiler.ms(Stage::NodeTick);
    let predictor_ms = profiler.ms(Stage::Predictor);
    let pool_efficiency = (node_tick_ms + predictor_ms) / (workers as f64 * tick.total_ms());
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let skipped = registry.counter("node_ticks_skipped_offline")
        + registry.counter("node_ticks_skipped_asleep");
    let (parks, wakes) = summary.power.as_ref().map_or((0, 0), |p| (p.parks, p.wakes));
    let (quarantines, readmissions) =
        summary.gray.as_ref().map_or((0, 0), |g| (g.quarantines, g.readmissions));
    let stages = timing.stages;

    let by_source = [
        (
            REPLAY,
            vec![
                ("core.train_ms", train.total_ms(), "ms"),
                ("core.provision_ms", provision.total_ms(), "ms"),
                ("core.provision_ms_p50", ms(provision.percentile_ns(50.0)), "ms"),
                ("core.provision_ms_p99", ms(provision.percentile_ns(99.0)), "ms"),
                ("core.provisions", provision.count as f64, "count"),
                ("core.recharacterize_ms", rechar.total_ms() / rechar.count.max(1) as f64, "ms"),
            ],
        ),
        (
            REPLICA,
            vec![
                ("cloudmgr.tick_ms_p50", ms(tick.percentile_ns(50.0)), "ms"),
                ("cloudmgr.tick_ms_p99", ms(tick.percentile_ns(99.0)), "ms"),
                ("cloudmgr.tick_calls", tick.count as f64, "count"),
                ("cloudmgr.node_tick_ms", node_tick_ms, "ms"),
                (
                    "cloudmgr.us_per_node_tick",
                    node_tick_ms * 1e3 / counts.node_ticks.max(1) as f64,
                    "us",
                ),
                ("cloudmgr.pool_efficiency", pool_efficiency, "ratio"),
                ("cloudmgr.predictor_ms", predictor_ms, "ms"),
                ("cloudmgr.submit_us_p50", us(submit.percentile_ns(50.0)), "us"),
                ("cloudmgr.submit_us_p99", us(submit.percentile_ns(99.0)), "us"),
                ("cloudmgr.manage_ms", manage.total_ms(), "ms"),
            ],
        ),
        (
            SUMMARY,
            vec![
                ("core.recharacterizations", recharacterizations as f64, "count"),
                (
                    "cloudmgr.placed_per_offered",
                    summary.placed as f64 / summary.offered.max(1) as f64,
                    "ratio",
                ),
                ("cloudmgr.parks", parks as f64, "count"),
                ("cloudmgr.wakes", wakes as f64, "count"),
                ("cloudmgr.proactive_migrations", summary.proactive_migrations as f64, "count"),
                ("orchestrator.reoffered", summary.retried as f64, "count"),
                ("orchestrator.quarantines", quarantines as f64, "count"),
                ("orchestrator.readmissions", readmissions as f64, "count"),
            ],
        ),
        (
            STAGES,
            vec![
                ("orchestrator.events_ms", stages.events_ms, "ms"),
                ("orchestrator.retry_ms", stages.retry_ms, "ms"),
                ("orchestrator.placement_ms", stages.placement_ms, "ms"),
                ("orchestrator.recovery_ms", stages.recovery_ms, "ms"),
                ("orchestrator.rejoin_ms", stages.rejoin_ms, "ms"),
            ],
        ),
        (
            REGISTRY,
            vec![
                (
                    "cloudmgr.predictor_rescores",
                    registry.counter("predictor_rescores") as f64,
                    "count",
                ),
                ("platform.node_ticks", registry.counter("node_ticks") as f64, "count"),
                ("platform.node_ticks_skipped", skipped as f64, "count"),
            ],
        ),
        (
            END_OF_RUN,
            vec![
                ("healthlog.log_lines", end.log_lines as f64, "count"),
                ("healthlog.log_bytes", end.log_bytes as f64, "bytes"),
                ("healthlog.vectors", end.vectors as f64, "count"),
                (
                    "healthlog.bytes_per_node",
                    end.retained_bytes as f64 / cluster.nodes().len() as f64,
                    "bytes",
                ),
                ("hypervisor.ce_total", end.ce_total as f64, "count"),
            ],
        ),
        (TRACE_SINK, vec![("telemetry.trace_events", trace_events as f64, "count")]),
    ];
    let metrics = by_source
        .into_iter()
        .flat_map(|(source, rows)| {
            rows.into_iter().map(move |(name, value, unit)| LayerMetric {
                name,
                value,
                unit,
                source,
            })
        })
        .collect();
    Ok(TracedRun { metrics, summary, cpu_s, replica_matches, tracer })
}

/// Repeats deploy's public calls on one thread: training once per part on
/// a fresh cache, `provision_node` per node, then `rejoin_node` on
/// provisioned nodes once per re-characterization the run made.
fn replay_deploy(config: &OrchestratorConfig, tracer: &mut Tracer, recharacterizations: u64) {
    tracer.enter("core.deploy_replay");
    let cache = AdvisorCache::new();
    if config.margins == MarginPolicy::Extended {
        for part in &config.cluster.part_mix {
            let dep = DeploymentConfig { spec: part.spec.clone(), ..config.deployment.clone() };
            tracer.span("core.get_or_train", || {
                let _ = cache.get_or_train(&dep);
            });
        }
    }
    let nodes = config.cluster.nodes;
    #[allow(clippy::cast_possible_truncation)]
    let replays = (recharacterizations as usize).clamp(1, MAX_RECHARACTERIZE_REPLAYS).min(nodes);
    let mut kept = Vec::with_capacity(replays);
    for node in 0..nodes {
        let dep = node_deployment(config, node);
        let advisor = cache.get_or_train(&dep).advisor;
        let seed = indexed_seed(config.seed, node);
        let (server, _) =
            tracer.span("core.provision_node", || provision_node(&dep, seed, &advisor));
        if kept.len() < replays {
            kept.push((node, server));
        }
    }
    for (node, server) in &mut kept {
        let _ = tracer.span("core.rejoin_node", || rejoin_node(config, &cache, *node, server));
    }
    tracer.exit();
}

/// Drives the serving loop through `Cluster`'s public API. Returns the
/// cluster at the horizon, the replica's counters, the stage profiler it
/// attached, and the worker count.
fn serve_replica(
    config: &OrchestratorConfig,
    tracer: &mut Tracer,
) -> (Cluster, ReplicaCounts, Arc<StageProfiler>, usize) {
    let workers = resolve_workers(config.threads, config.cluster.nodes);
    let pool = ShardPool::new(workers);
    let (mut cluster, records, _, cache) =
        tracer.span("orchestrator.deploy_cluster_on", || deploy_cluster_on(config, &pool));
    let profiler = Arc::new(StageProfiler::new());
    cluster.set_profiler(Arc::clone(&profiler));
    cluster.enable_metrics();
    let mut points: Vec<_> = records.iter().map(|r| r.point.clone()).collect();
    let mut queue = EventQueue::new();
    let mut c = ReplicaCounts::default();
    let dt = config.tick.as_secs();
    let horizon = config.horizon.as_secs();
    let ticks = config.ticks();

    tracer.enter("orchestrator.serve_replica");
    for tick in 0..ticks {
        tracer.enter("orchestrator.tick");
        let now = Seconds::new(tick as f64 * dt);
        let step = Seconds::new(dt.min(horizon - now.as_secs()));

        if config.lifecycle.enabled {
            for id in tracer.span("cloudmgr.tick_repairs", || cluster.tick_repairs()) {
                let idx = id.0 as usize;
                let server = cluster.nodes_mut()[idx].hypervisor.node_mut();
                points[idx] =
                    tracer.span("core.rejoin_node", || rejoin_node(config, &cache, idx, server));
                cluster.complete_rejoin(id);
            }
        }
        c.completed += drain_due(&mut queue, &mut cluster, now, &mut c.settled, tracer);
        tracer.span("cloudmgr.manage", || cluster.manage(tick, config.seed));
        for arrival in
            config.stream.tick_arrivals_scaled(config.seed, tick, step, config.cluster.nodes)
        {
            c.offered += 1;
            let lifetime = arrival.lifetime;
            let placed =
                tracer.span("cloudmgr.submit", || cluster.submit(arrival.config, arrival.class));
            if let Some(p) = placed {
                c.placed += 1;
                queue.schedule(now + lifetime, Event::Departure(p.id));
            }
        }
        let report = tracer.span("cloudmgr.tick_pooled", || cluster.tick_pooled(step, &pool));
        c.energy_j += report.energy.as_joules();
        c.evicted += report.evicted.len() as u64;
        let tick_end = now + step;

        let mut crashed = Vec::new();
        for (id, _) in &report.crashes {
            c.crashes += 1;
            if !crashed.contains(id) {
                crashed.push(*id);
            }
        }
        for id in crashed {
            if config.lifecycle.enabled {
                cluster.mark_crashed(id);
            }
            let recovery =
                tracer.span("cloudmgr.recover_from_crash", || cluster.recover_from_crash(id));
            for (moved, cost) in &recovery.migrated {
                c.crash_migrations += 1;
                queue.schedule(cost.completes_at(tick_end), Event::MigrationSettled(moved.id));
            }
            c.evicted += recovery.evicted.len() as u64;
            let idx = id.0 as usize;
            if config.lifecycle.enabled {
                cluster.begin_repair(id, config.lifecycle.draw_mttr(config.seed, id, tick));
            } else if config.margins == MarginPolicy::Extended {
                points[idx] = points[idx].backed_off(config.crash_backoff);
                points[idx].apply_to(cluster.nodes_mut()[idx].hypervisor.node_mut());
            }
        }
        tracer.exit();
    }
    c.completed += drain_due(&mut queue, &mut cluster, config.horizon, &mut c.settled, tracer);
    tracer.exit();
    c.live_at_end = cluster.placements().len() as u64;
    c.node_ticks = cluster.take_metrics().map_or(0, |m| m.counter("node_ticks"));
    (cluster, c, profiler, workers)
}

/// Fires due departures (`terminate_by_id`) and settlements; returns the
/// completions.
fn drain_due(
    queue: &mut EventQueue,
    cluster: &mut Cluster,
    until: Seconds,
    settled: &mut u64,
    tracer: &mut Tracer,
) -> u64 {
    let mut completed = 0;
    while let Some((_, event)) = queue.pop_due(until) {
        match event {
            Event::Departure(id) => {
                if tracer.span("cloudmgr.terminate_by_id", || cluster.terminate_by_id(id)) {
                    completed += 1;
                }
            }
            Event::MigrationSettled(_) => *settled += 1,
        }
    }
    completed
}

fn counts_of(s: &ClusterSummary) -> ReplicaCounts {
    ReplicaCounts {
        offered: s.offered,
        placed: s.placed,
        completed: s.completed,
        evicted: s.evicted,
        live_at_end: s.live_at_end,
        crashes: s.crashes,
        crash_migrations: s.crash_migrations,
        settled: s.migrations_settled,
        energy_j: s.energy_j,
        node_ticks: 0,
    }
}

/// What the node state holds at the horizon.
#[derive(Debug, Default)]
struct EndOfRun {
    log_lines: u64,
    log_bytes: u64,
    vectors: u64,
    /// Log text plus the retained vectors' inline and heap-held records.
    retained_bytes: u64,
    ce_total: u64,
}

fn end_of_run(cluster: &Cluster) -> EndOfRun {
    let mut end = EndOfRun::default();
    for node in cluster.nodes() {
        let health = node.hypervisor.health();
        let log = health.logfile();
        let text: u64 = log.iter().map(|l| l.len() as u64).sum();
        end.log_lines += log.len() as u64;
        end.log_bytes += text;
        end.vectors += health.vectors().len() as u64;
        end.retained_bytes += text
            + health
                .vectors()
                .iter()
                .map(|v| {
                    (std::mem::size_of_val(v)
                        + std::mem::size_of_val(v.errors.as_slice())
                        + std::mem::size_of_val(v.counters.as_slice())) as u64
                })
                .sum::<u64>();
        end.ce_total += node.hypervisor.masked_corrected_total();
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn traced_run_covers_every_source_at_a_tiny_size() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_out/unit-tests");
        std::fs::create_dir_all(&dir).unwrap();
        for w in WORKLOADS {
            let config = w.config(2018, true);
            let path = dir.join(format!("perfbench-test-{}-events.ndjson", w.name));
            let run = traced_run(&config, path.to_str().unwrap()).unwrap();
            let _ = std::fs::remove_file(&path);
            let names: Vec<_> = run.metrics.iter().map(|m| m.name).collect();
            let mut unique = names.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "duplicate metric in {names:?}");
            let get = |n: &str| run.metrics.iter().find(|m| m.name == n).unwrap().value;
            assert_eq!(get("core.provisions"), 8.0);
            assert_eq!(get("cloudmgr.tick_calls"), 12.0);
            assert!(get("platform.node_ticks") > 0.0);
            assert!(get("telemetry.trace_events") > 0.0);
            assert_eq!(run.summary, uniserver_orchestrator::run(&config), "{}", w.name);
            if w.name == "gray-consolidate" {
                assert_eq!(run.replica_matches, None);
            } else {
                assert_eq!(run.replica_matches, Some(true), "{}", w.name);
            }
        }
    }
}
