//! The serving loop's run state and its phases.
//!
//! [`Run`] owns everything one run mutates — the deployed cluster, the
//! worker pool, the event and retry queues, the per-node operating
//! points, the watchdog and the counters. Each phase of a tick is one
//! method that charges its own profiler stage, called in this order by
//! `run_with_telemetry`:
//!
//! 1. `rejoin` — repairs tick down; nodes whose MTTR window closed
//!    rejoin through a re-characterization pass;
//! 2. `gray_round` — gray faults expire, new onsets land, and the
//!    watchdog probes, quarantines, drains and readmits;
//! 3. `events` — due departures and migration settlements fire;
//! 4. `manage` — a consolidating policy parks and drains nodes;
//! 5. `reoffer` — queued rejections re-offer, gold first;
//! 6. `arrivals` — this tick's arrival batch is offered;
//! 7. `ambient` — cooling-failure campaigns step the fleet's ambient;
//! 8. `advance` — every node's hypervisor ticks, sharded across the
//!    run's workers (`Cluster::tick_pooled`);
//! 9. `brownout` — under a power cap, empty nodes park and load sheds
//!    bronze-first;
//! 10. `chaos_crashes` — the chaos plan injects synthetic crashes;
//! 11. `recover` — failure-driven recovery, once per crashed node;
//! 12. `accrue` — downtime, sleep and degraded dwell accrue and the
//!     tick's row joins the series.
//!
//! `finish` closes the horizon and builds the summary. Everything here
//! runs sequentially on the orchestrator's thread — only `advance` fans
//! out — so a run is a pure function of its configuration.
//!
//! Three accounting rules live here and are locked by tests:
//!
//! * **count once** — admission outcomes are counted per class only
//!   (the summary's totals are sums over `per_class`), and lifecycle,
//!   power and gray outcomes accumulate straight into the summary's
//!   outcome structs;
//! * **crash events vs. crashed nodes** — `crashes` / `part_crashes`
//!   count *events* (one per platform-surfaced [`CrashEvent`]), but a
//!   node surfacing several events in one tick recovers — and backs off
//!   its operating point — exactly **once**; compounding the 25 % EOP
//!   backoff per event would overdrive healthy margins back to nominal;
//! * **end-of-horizon drain** — the in-loop drain fires events due at
//!   each tick *start*, so departures and settlements due in the final
//!   `(last tick start, horizon]` window are drained once more after
//!   the loop; without it `completed` / `migrations_settled`
//!   undercount and the `placed = completed + evicted + live_at_end`
//!   tie-out only balances through `live_at_end`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use uniserver_cloudmgr::cluster::{Cluster, ClusterTickReport, Placement};
use uniserver_cloudmgr::lifecycle::{GrayState, NodePhase};
use uniserver_cloudmgr::node::NodeId;
use uniserver_cloudmgr::policy::PolicyKind;
use uniserver_cloudmgr::pool::{resolve_workers, ShardPool};
use uniserver_cloudmgr::sla::SlaClass;
use uniserver_cloudmgr::stream::Arrival;
use uniserver_core::eop::OperatingPoint;
use uniserver_core::training::AdvisorCache;
use uniserver_faultinject::chaos::ChaosPlan;
use uniserver_platform::node::CrashEvent;
use uniserver_telemetry::{Stage, StageProfiler, Telemetry, TraceEvent};
use uniserver_units::{Celsius, Seconds, Volts};

use crate::config::{AdmissionPolicy, MarginPolicy, OrchestratorConfig};
use crate::deploy::{deploy_cluster_on, rejoin_node, DeployedNode};
use crate::events::{Event, EventQueue};
use crate::summary::{
    ChaosOutcome, ClassStats, ClusterSummary, GrayOutcome, OrchestratorTiming, PartUsage,
    PowerOutcome, StageBreakdown, TickMetrics,
};
use crate::watchdog::{probe_fails, Verdict, Watchdog};

/// Index of a class in the gold/silver/bronze accounting arrays.
pub(crate) fn class_idx(class: SlaClass) -> usize {
    match class {
        SlaClass::Gold => 0,
        SlaClass::Silver => 1,
        SlaClass::Bronze => 2,
    }
}

/// Class labels in accounting-array order, for telemetry payloads.
pub(crate) const CLASS_NAMES: [&str; 3] = ["gold", "silver", "bronze"];

/// Per-class time-to-abandon histogram names (telemetry keys are
/// `&'static str`, so the class rides in the name).
const ABANDON_WAIT: [&str; 3] =
    ["abandon_wait_ticks_gold", "abandon_wait_ticks_silver", "abandon_wait_ticks_bronze"];

/// One rejected arrival waiting in the re-admission queue.
#[derive(Debug)]
struct PendingArrival {
    arrival: Arrival,
    /// Re-offer attempts remaining before it is abandoned.
    retries_left: u32,
    /// Tick the original offer was rejected on — queue-wait and
    /// time-to-abandon telemetry measure from here.
    offered_tick: u64,
}

/// The bounded per-class re-admission queue behind an
/// [`AdmissionPolicy`]. Rejections whose class has a non-zero retry
/// budget wait here and are re-offered at the start of each subsequent
/// tick, gold first; the legacy `drop_all` policy keeps every queue
/// permanently empty.
#[derive(Debug)]
struct RetryQueue {
    policy: AdmissionPolicy,
    pending: [VecDeque<PendingArrival>; 3],
}

impl RetryQueue {
    fn new(policy: AdmissionPolicy) -> Self {
        RetryQueue { policy, pending: [VecDeque::new(), VecDeque::new(), VecDeque::new()] }
    }

    /// Rejections currently waiting, across all classes.
    fn pending_len(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }
}

/// The run's outcome counters, each outcome counted in one place.
#[derive(Debug, Default)]
struct ServeCounters {
    completed: u64,
    evicted: u64,
    /// Platform-surfaced crash *events* (a node can surface several in
    /// one tick; recovery still runs once per node).
    crashes: u64,
    crash_migrations: u64,
    settled: u64,
    energy_j: f64,
    per_class: [ClassStats; 3],
    /// Crash events attributed per part-mix entry.
    part_crashes: Vec<u64>,
    /// Lifecycle and chaos outcomes; the derived fields (node-hours,
    /// availability, `shed`) are filled in at the horizon.
    chaos: ChaosOutcome,
    /// Sleep dwell; the cluster's power stats join it at the horizon.
    power: PowerOutcome,
    /// Gray and power-cap outcomes; node-hours are filled in at the
    /// horizon.
    gray: GrayOutcome,
}

impl ServeCounters {
    /// One [`ClassStats`] column summed over gold, silver and bronze.
    fn total(&self, column: fn(&ClassStats) -> u64) -> u64 {
        self.per_class.iter().map(column).sum()
    }
}

/// One run's state. The phases of a tick are its methods.
pub(crate) struct Run<'a> {
    config: &'a OrchestratorConfig,
    tel: &'a mut Telemetry,
    /// Wall-clock stage attribution: machine-local, it feeds the timing
    /// report, never the summary or the metrics.
    profiler: &'a StageProfiler,
    /// One pool for the whole run: the parallel deploy and every
    /// sharded tick split across the same workers.
    pool: ShardPool,
    cluster: Cluster,
    records: Vec<DeployedNode>,
    cache: Arc<AdvisorCache>,
    /// Each node's current operating point.
    points: Vec<OperatingPoint>,
    /// Part-mix index per node, resolved once for crash attribution.
    node_parts: Vec<Option<usize>>,
    /// The node count as the width of the chaos plan's draws.
    fleet_width: u32,
    queue: EventQueue,
    retry: RetryQueue,
    watchdog: Watchdog,
    // Scenario gates, each decided once at deploy; each also decides
    // whether its outcome block appears in the summary.
    /// The failure lifecycle or a chaos plan is active.
    chaos_on: bool,
    /// The placement policy manages node power (parks and wakes).
    manages: bool,
    /// The chaos plan carries a gray or power-cap campaign; every other
    /// run never touches the gray phase or the watchdog.
    gray_on: bool,
    /// The cooling-failure ambient step currently programmed into the
    /// fleet (0 = the deploy-time baseline).
    ambient_applied: f64,
    tick: u64,
    /// Start of the current tick.
    now: Seconds,
    /// Length of the current tick: the last tick of a non-dividing
    /// horizon is clamped so the run never simulates past `horizon`.
    step: Seconds,
    /// The current tick's row of the time series, filled phase by phase.
    row: TickMetrics,
    per_tick: Vec<TickMetrics>,
    counts: ServeCounters,
    started: Instant,
    deploy_secs: f64,
    serve_started: Instant,
}

impl<'a> Run<'a> {
    /// Deploys the rack on a fresh pool and returns the run, ready for
    /// its first tick.
    pub fn deploy(
        config: &'a OrchestratorConfig,
        tel: &'a mut Telemetry,
        profiler: &'a Arc<StageProfiler>,
    ) -> Self {
        let started = Instant::now();
        let pool = ShardPool::new(resolve_workers(config.threads, config.cluster.nodes));
        let (mut cluster, records, deploy_secs, cache) = deploy_cluster_on(config, &pool);
        profiler.add_nanos(Stage::Deploy, (deploy_secs * 1e9) as u64);
        cluster.set_profiler(Arc::clone(profiler));
        if tel.metrics.is_some() {
            cluster.enable_metrics();
        }
        tel.begin_run(config.tick.as_secs());
        let parts = &config.cluster.part_mix;
        Run {
            config,
            tel,
            profiler,
            pool,
            points: records.iter().map(|r| r.point.clone()).collect(),
            node_parts: records
                .iter()
                .map(|r| parts.iter().position(|p| p.spec.name == r.part))
                .collect(),
            fleet_width: u32::try_from(config.cluster.nodes).expect("node ids are u32"),
            queue: EventQueue::new(),
            retry: RetryQueue::new(config.admission),
            watchdog: Watchdog::new(config.watchdog),
            chaos_on: config.lifecycle.enabled || config.chaos.is_some(),
            manages: cluster.policy().manages(),
            gray_on: config.chaos.as_ref().is_some_and(ChaosPlan::has_gray),
            ambient_applied: 0.0,
            tick: 0,
            now: Seconds::ZERO,
            step: config.tick,
            row: TickMetrics::default(),
            per_tick: Vec::with_capacity(config.ticks() as usize),
            counts: ServeCounters { part_crashes: vec![0; parts.len()], ..ServeCounters::default() },
            cluster,
            records,
            cache,
            started,
            deploy_secs,
            serve_started: Instant::now(),
        }
    }

    /// Opens tick `tick`: its start, its (clamped) length, an empty row.
    pub fn begin_tick(&mut self, tick: u64) {
        let dt = self.config.tick.as_secs();
        self.tick = tick;
        self.now = Seconds::new(tick as f64 * dt);
        self.step = Seconds::new(dt.min(self.config.horizon.as_secs() - self.now.as_secs()));
        self.row = TickMetrics { tick, ..TickMetrics::default() };
        self.tel.begin_tick(tick, self.now.as_secs());
    }

    /// Repairs tick down; nodes whose MTTR window just closed rejoin
    /// through a re-characterization pass — extended racks re-shmoo the
    /// silicon *as it is now* (aged, at its live ambient) instead of
    /// applying a geometric backoff.
    pub fn rejoin(&mut self) {
        let _span = self.profiler.scoped(Stage::Rejoin);
        for id in self.cluster.tick_repairs() {
            self.recharacterize(id.0 as usize);
            self.cluster.complete_rejoin(id);
            self.counts.chaos.rejoins += 1;
            self.tel.inc("rejoins");
            self.tel.emit(&TraceEvent::Rejoin { node: u64::from(id.0) });
        }
    }

    /// Re-derives node `idx`'s operating point from its silicon as it is
    /// now: the repair rejoin and the watchdog readmission.
    fn recharacterize(&mut self, idx: usize) {
        let server = self.cluster.nodes_mut()[idx].hypervisor.node_mut();
        self.points[idx] = rejoin_node(self.config, &self.cache, idx, server);
    }

    /// Gray failures: expired faults clear, new onsets land, and the
    /// watchdog probes every watched node — quarantining, draining and
    /// readmitting on its K-of-N hysteresis. Sequential in node-index
    /// order, so worker count can never reorder a probe draw.
    pub fn gray_round(&mut self) {
        if !self.gray_on {
            return;
        }
        let _span = self.profiler.scoped(Stage::Recovery);
        self.expire_gray();
        self.gray_onsets();
        self.probe_round();
    }

    /// Faults expire on their own clock — but only while the node is
    /// *not* quarantined: once the watchdog distrusts a node, only a
    /// full probation run brings it back, however long the underlying
    /// fault has been gone (flap-proofing).
    fn expire_gray(&mut self) {
        for node in 0..self.fleet_width {
            let Some(gray) = self.cluster.nodes()[node as usize].gray() else { continue };
            if !gray.quarantined && self.tick >= gray.clears_at_tick {
                self.cluster.clear_degraded(NodeId(node));
                self.watchdog.forget(node);
            }
        }
    }

    /// New onsets from the seeded campaign. Only healthy online awake
    /// nodes degrade; offline, rejoining, asleep or already-degraded
    /// nodes skip their draw.
    fn gray_onsets(&mut self) {
        let config = self.config;
        let Some(plan) = &config.chaos else { return };
        let step = self.step.as_secs();
        for onset in plan.gray_onsets_at(config.seed, self.tick, step, self.fleet_width) {
            let node = &self.cluster.nodes()[onset.node as usize];
            if node.phase() != NodePhase::Online || node.is_asleep() {
                continue;
            }
            self.cluster.mark_degraded(
                NodeId(onset.node),
                GrayState {
                    capacity_cap: onset.capacity_cap,
                    ce_multiplier: onset.ce_multiplier,
                    clears_at_tick: self.tick + onset.duration_ticks,
                    quarantined: false,
                },
            );
            if config.watchdog.enabled {
                self.watchdog.begin_watch(onset.node);
            }
            self.counts.gray.gray_onsets += 1;
            self.tel.inc("gray_onsets");
            self.tel.emit(&TraceEvent::GrayOnset {
                node: u64::from(onset.node),
                duration_ticks: onset.duration_ticks,
            });
        }
    }

    /// The watchdog's probe round over everything under watch. A watch
    /// whose node left the degraded phase by another path (it crashed
    /// outright) is dropped — the failure lifecycle owns it now.
    /// Quarantined nodes drain on the per-tick budget: gold first,
    /// pre-copy, never evicting — a bite per tick until the node is
    /// empty.
    fn probe_round(&mut self) {
        let tuning = self.config.watchdog;
        for node in self.watchdog.watched() {
            let idx = node as usize;
            if !self.cluster.nodes()[idx].is_degraded() {
                self.watchdog.forget(node);
                continue;
            }
            let gray = self.cluster.nodes()[idx].gray().expect("degraded nodes carry gray state");
            let p = if self.tick < gray.clears_at_tick {
                tuning.probe_fail_degraded
            } else {
                tuning.probe_fail_healthy
            };
            let failed = probe_fails(self.config.seed, node, self.tick, p);
            if failed {
                self.counts.gray.probe_failures += 1;
                self.tel.inc("probe_failures");
            }
            match self.watchdog.observe(node, failed) {
                Verdict::Quarantine => self.quarantine(node),
                Verdict::Readmit => self.readmit(node),
                Verdict::None => {}
            }
            if self.watchdog.in_quarantine(node) {
                self.row.migrations +=
                    self.cluster.drain_degraded(NodeId(node), tuning.drain_budget);
            }
        }
    }

    /// Quarantines `node`. An extended-margin node backs its EOP off to
    /// nominal: while it is suspect it stops trading crash margin for
    /// energy.
    fn quarantine(&mut self, node: u32) {
        self.cluster.set_quarantined(NodeId(node), true);
        if self.config.margins == MarginPolicy::Extended {
            let idx = node as usize;
            let server = self.cluster.nodes_mut()[idx].hypervisor.node_mut();
            let nominal = OperatingPoint::nominal(server.part().cores);
            nominal.apply_to(server);
            self.points[idx] = nominal;
        }
        self.counts.gray.quarantines += 1;
        self.tel.inc("quarantines");
        self.tel.emit(&TraceEvent::Quarantine { node: u64::from(node) });
    }

    /// Readmits `node` after probation. Readmission re-characterizes
    /// like a repair rejoin: the silicon is re-shmooed as it is now, not
    /// restored from a stale point.
    fn readmit(&mut self, node: u32) {
        self.cluster.set_quarantined(NodeId(node), false);
        self.cluster.clear_degraded(NodeId(node));
        self.watchdog.forget(node);
        self.recharacterize(node as usize);
        self.counts.gray.readmissions += 1;
        self.tel.inc("readmissions");
        self.tel.emit(&TraceEvent::Readmit { node: u64::from(node) });
    }

    /// Fires the events due at the tick start, earliest first.
    pub fn events(&mut self) {
        let completed = {
            let _span = self.profiler.scoped(Stage::Events);
            self.drain_due(self.now)
        };
        self.row.completed = completed;
        self.tel.add("completed", completed);
    }

    /// Fires every event due at or before `until`, earliest first:
    /// departures terminate their placement (completions), settlements
    /// close their migration's books. Returns the completions fired.
    fn drain_due(&mut self, until: Seconds) -> u64 {
        let mut completed_now = 0;
        while let Some((_, event)) = self.queue.pop_due(until) {
            match event {
                Event::Departure(id) => {
                    // False = the placement was evicted earlier; the
                    // eviction already accounted for it.
                    if self.cluster.terminate_by_id(id) {
                        self.counts.completed += 1;
                        completed_now += 1;
                    }
                }
                Event::MigrationSettled(_) => self.counts.settled += 1,
            }
        }
        completed_now
    }

    /// Power management: a consolidating policy parks nodes the
    /// departures just emptied and drains near-empty stragglers onto
    /// the packed end of the rack. A no-op (and free) for non-managing
    /// policies.
    pub fn manage(&mut self) {
        let _span = self.profiler.scoped(Stage::Placement);
        self.cluster.manage(self.tick, self.config.seed);
    }

    /// Re-offers queued rejections, gold before silver, into whatever
    /// capacity departures and crash recovery just freed. Only the
    /// entries queued before this call are drained; a re-offer that
    /// fails again burns one unit of budget and requeues behind them
    /// for the next tick (or abandons at zero). Empty — and free —
    /// under the default drop-all admission policy.
    ///
    /// A premium re-offer that fails *while nodes are offline* sheds one
    /// lower-class placement — bronze first — so the next tick's
    /// re-offer lands in the freed slot; a shed counts as an eviction,
    /// so the SLA books still tie out. Only the failure lifecycle takes
    /// nodes offline, so without it nothing is ever shed here.
    pub fn reoffer(&mut self) {
        let _span = self.profiler.scoped(Stage::RetryQueue);
        #[allow(clippy::needless_range_loop)] // class indexes three parallel arrays
        for class in 0..3 {
            let budget = self.retry.policy.retry_budget[class];
            for _ in 0..self.retry.pending[class].len() {
                let Some(p) = self.retry.pending[class].pop_front() else { break };
                let retries_left = p.retries_left - 1;
                self.counts.per_class[class].retried += 1;
                self.tel.inc("reoffered");
                self.tel.emit(&TraceEvent::Reoffer {
                    class: CLASS_NAMES[class],
                    retries_left: u64::from(retries_left),
                });
                let backup = (retries_left > 0).then(|| p.arrival.clone());
                let wait = self.tick - p.offered_tick;
                if self.offer(p.arrival, wait, Some(u64::from(budget - retries_left))) {
                    continue;
                }
                match backup {
                    Some(arrival) => {
                        let offered_tick = p.offered_tick;
                        self.retry.pending[class].push_back(PendingArrival {
                            arrival,
                            retries_left,
                            offered_tick,
                        });
                        // Degraded capacity plus a premium arrival
                        // still waiting: make room.
                        if class < 2 && self.cluster.offline_count() > 0 {
                            self.shed_lowest(class);
                        }
                    }
                    None => self.abandon(class, wait),
                }
            }
        }
    }

    /// This tick's arrival batch, from its own sub-stream, drawn at the
    /// rack's capacity-scaled rate.
    pub fn arrivals(&mut self) {
        let _span = self.profiler.scoped(Stage::Placement);
        let config = self.config;
        let nodes = config.cluster.nodes;
        for arrival in config.stream.tick_arrivals_scaled(config.seed, self.tick, self.step, nodes) {
            self.admit(arrival);
        }
    }

    /// Offers one first-time arrival. A rejection is queued for
    /// re-admission (class budget and queue depth permitting) or
    /// abandoned on the spot — the legacy drop-on-rejection path is
    /// exactly the zero-budget case. Returns whether it placed.
    fn admit(&mut self, arrival: Arrival) -> bool {
        let class = class_idx(arrival.class);
        self.counts.per_class[class].offered += 1;
        self.row.offered += 1;
        self.tel.inc("arrivals");
        self.tel.emit(&TraceEvent::Arrival { class: CLASS_NAMES[class] });
        let budget = self.retry.policy.retry_budget[class];
        // Only a retryable class pays for the clone a re-offer needs.
        let backup = (budget > 0).then(|| arrival.clone());
        if self.offer(arrival, 0, None) {
            return true;
        }
        match backup {
            Some(arrival) if self.retry.pending[class].len() < self.retry.policy.queue_depth => {
                self.retry.pending[class].push_back(PendingArrival {
                    arrival,
                    retries_left: budget,
                    offered_tick: self.tick,
                });
            }
            // Budget zero or queue full: dropped for good.
            _ => self.abandon(class, 0),
        }
        false
    }

    /// Submits one offer — first-time or re-offer, `wait` ticks after
    /// its first rejection — and books the outcome. A placement
    /// schedules its departure; a rejection is left to the caller to
    /// queue or abandon. Returns whether it placed.
    fn offer(&mut self, arrival: Arrival, wait: u64, retry_depth: Option<u64>) -> bool {
        let class = class_idx(arrival.class);
        let label = CLASS_NAMES[class];
        let lifetime = arrival.lifetime;
        let Some(placement) = self.cluster.submit(arrival.config, arrival.class) else {
            self.counts.per_class[class].rejected += 1;
            self.tel.inc("rejected");
            self.tel.emit(&TraceEvent::Reject { class: label });
            return false;
        };
        self.counts.per_class[class].placed += 1;
        self.row.placed += 1;
        self.queue.schedule(self.now + lifetime, Event::Departure(placement.id));
        self.tel.inc("placed");
        self.tel.record("queue_wait_ticks", wait);
        self.tel.record("vm_lifetime_ticks", self.tel.lifetime_ticks(lifetime.as_secs()));
        if let Some(depth) = retry_depth {
            self.tel.record("retry_depth", depth);
        }
        self.tel.emit(&TraceEvent::Place {
            class: label,
            node: u64::from(placement.node.0),
            placement: placement.id.0,
            wait_ticks: wait,
        });
        true
    }

    /// Cooling-failure campaigns step the whole fleet's ambient above
    /// the deploy-time baseline while they are in force (offline nodes
    /// included — the hot aisle does not care).
    pub fn ambient(&mut self) {
        let Some(plan) = &self.config.chaos else { return };
        let delta = plan.ambient_delta_at(self.tick);
        if delta == self.ambient_applied {
            return;
        }
        for (managed, rec) in self.cluster.nodes_mut().iter_mut().zip(&self.records) {
            managed.hypervisor.node_mut().set_ambient(rec.ambient + Celsius::new(delta));
        }
        self.ambient_applied = delta;
    }

    /// Advances the fleet one tick, sharded across the run's pool.
    /// Offline and asleep nodes are skipped wholesale: no energy, no
    /// load, no crash surface. A proactive move whose relaunch failed
    /// lost the VM: that is an eviction whatever the class promised.
    pub fn advance(&mut self) -> ClusterTickReport {
        let report = {
            let _span = self.profiler.scoped(Stage::Tick);
            self.cluster.tick_pooled(self.step, &self.pool)
        };
        self.counts.energy_j += report.energy.as_joules();
        self.row.migrations += report.proactive_migrations;
        self.tel.add("proactive_migrations", report.proactive_migrations);
        for lost in &report.evicted {
            self.charge_eviction(lost);
        }
        report
    }

    /// Brownout: while a power-cap campaign is in force the fleet's
    /// actual draw this tick is compared with the cap, the shortfall is
    /// charged to the deficit meter, and the fleet gracefully degrades
    /// — empty nodes park (power-managing policies only; the reference
    /// policy never re-wakes parked nodes) and load sheds bronze-first,
    /// with every shed charged as the SLA violation it is.
    pub fn brownout(&mut self, report: &ClusterTickReport) {
        let cap = self.config.chaos.as_ref().and_then(|plan| plan.power_cap_at(self.tick));
        let Some(cap_watts) = cap else { return };
        let draw_watts = report.energy.as_joules() / self.step.as_secs();
        if draw_watts > cap_watts {
            let deficit = draw_watts - cap_watts;
            self.counts.gray.powercap_deficit_watt_secs += deficit * self.step.as_secs();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            self.tel.record("powercap_deficit_watts", deficit.max(0.0).round() as u64);
            if self.manages {
                self.park_empty_nodes();
            }
            let live = self.cluster.placements().len();
            if live > 0 {
                // Proportional control: assume the deficit scales with
                // live placements and shed just enough, bounded per
                // tick so one bad estimate cannot hollow the fleet out.
                let per_vm = draw_watts / live as f64;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let needed = (deficit / per_vm).ceil().max(1.0) as usize;
                self.shed_for_powercap(needed.min(32));
            }
        }
    }

    /// Parks every awake, healthy online node that hosts nothing.
    fn park_empty_nodes(&mut self) {
        let mut occupied = vec![false; self.config.cluster.nodes];
        for p in self.cluster.placements() {
            occupied[p.node.0 as usize] = true;
        }
        for (node, taken) in (0..self.fleet_width).zip(occupied) {
            let n = &self.cluster.nodes()[node as usize];
            if !taken && n.is_online() && !n.is_asleep() && !n.is_degraded() {
                self.cluster.park_node(NodeId(node));
            }
        }
    }

    /// Sheds up to `count` placements bronze-first to pull the fleet
    /// back under a brownout power cap; gold is never shed for power.
    /// Each shed is booked like a capacity shed — an eviction — plus
    /// the power-cap counter.
    fn shed_for_powercap(&mut self, count: usize) {
        for _ in 0..count {
            if !self.shed_lowest(0) {
                break;
            }
            self.counts.gray.powercap_sheds += 1;
        }
    }

    /// Sheds one placement of the lowest class below `above_class` —
    /// bronze before silver, and within a class the youngest placement
    /// (highest [`Placement`] id) — stopping its VM early. The shed is
    /// charged as an eviction (it *is* an SLA violation) and its later
    /// departure event no-ops. Returns whether a victim existed.
    fn shed_lowest(&mut self, above_class: usize) -> bool {
        for class in ((above_class + 1)..3).rev() {
            let victim = self
                .cluster
                .placements()
                .iter()
                .filter(|p| class_idx(p.class) == class)
                .max_by_key(|p| p.id)
                .cloned();
            if let Some(victim) = victim {
                let terminated = self.cluster.terminate_by_id(victim.id);
                debug_assert!(terminated, "a tracked placement terminates exactly once");
                self.counts.per_class[class].shed += 1;
                self.tel.inc("shed");
                self.tel.emit(&TraceEvent::Shed {
                    class: CLASS_NAMES[class],
                    node: u64::from(victim.node.0),
                    placement: victim.id.0,
                });
                self.charge_eviction(&victim);
                return true;
            }
        }
        false
    }

    /// Chaos-plan crash injection: seeded fault campaigns surface
    /// synthetic power-loss events (voltage 0) alongside the tick's
    /// natural crashes. Already-offline nodes cannot crash again.
    pub fn chaos_crashes(&mut self, crashes: &mut Vec<(NodeId, CrashEvent)>) {
        let config = self.config;
        let Some(plan) = &config.chaos else { return };
        let tick_end = self.now + self.step;
        let step = self.step.as_secs();
        for node in plan.crash_indices_at(config.seed, self.tick, step, self.fleet_width) {
            if !self.cluster.nodes()[node as usize].is_online() {
                continue;
            }
            crashes.push((
                NodeId(node),
                CrashEvent {
                    core: 0,
                    at: tick_end,
                    voltage: Volts::new(0.0),
                    workload: Arc::from("chaos"),
                },
            ));
            self.counts.chaos.injected_crashes += 1;
            self.tel.inc("injected_crashes");
        }
    }

    /// Failure-driven recovery for the tick's crash events. Events are
    /// counted per event; recovery runs once per crashed *node*, in
    /// first-observation order.
    pub fn recover(&mut self, crashes: &[(NodeId, CrashEvent)]) {
        let _span = self.profiler.scoped(Stage::Recovery);
        let mut crashed: Vec<NodeId> = Vec::new();
        for (node_id, event) in crashes {
            self.counts.crashes += 1;
            self.tel.inc("crash_events");
            self.tel.emit_at(
                event.at.as_secs(),
                &TraceEvent::Crash { node: u64::from(node_id.0), workload: &event.workload },
            );
            if let Some(p) = self.node_parts[node_id.0 as usize] {
                self.counts.part_crashes[p] += 1;
            }
            if !crashed.contains(node_id) {
                crashed.push(*node_id);
            }
        }
        for node_id in crashed {
            self.recover_node(node_id);
        }
    }

    /// Recovers one crashed node: migrate what fits elsewhere, evict the
    /// rest. With the failure lifecycle disabled (legacy), an Extended
    /// node stays in the pool and re-deploys at a backed-off point.
    /// Enabled, the crash *costs capacity*: the node goes offline for a
    /// seeded MTTR window and its operating point is left alone — the
    /// rejoin re-characterization, not a geometric backoff, decides
    /// where it comes back.
    fn recover_node(&mut self, node_id: NodeId) {
        let lifecycle = self.config.lifecycle;
        if lifecycle.enabled {
            self.cluster.mark_crashed(node_id);
        }
        let recovery = self.cluster.recover_from_crash(node_id);
        let tick_end = self.now + self.step;
        for (moved, cost) in &recovery.migrated {
            self.counts.crash_migrations += 1;
            self.row.migrations += 1;
            self.queue.schedule(cost.completes_at(tick_end), Event::MigrationSettled(moved.id));
            self.tel.inc("crash_migrations");
            self.tel.emit(&TraceEvent::Migration {
                class: CLASS_NAMES[class_idx(moved.class)],
                placement: moved.id.0,
                from: u64::from(node_id.0),
                to: u64::from(moved.node.0),
            });
            // Gold/Silver promise continuity; a crash-forced move
            // interrupted them.
            if moved.class != SlaClass::Bronze {
                self.counts.per_class[class_idx(moved.class)].violations += 1;
            }
        }
        for lost in &recovery.evicted {
            self.charge_eviction(lost);
        }
        if lifecycle.enabled {
            let mttr = lifecycle.draw_mttr(self.config.seed, node_id, self.tick);
            self.cluster.begin_repair(node_id, mttr);
            self.counts.chaos.nodes_offlined += 1;
            self.tel.inc("nodes_offlined");
            self.tel.record("mttr_ticks", u64::from(mttr));
            self.tel.emit(&TraceEvent::Offline {
                node: u64::from(node_id.0),
                mttr_ticks: u64::from(mttr),
            });
        } else if self.config.margins == MarginPolicy::Extended {
            // Reboot firmware cleared the undervolts: re-deploy the
            // node at a backed-off point instead of silently running
            // nominal (or leave nominal racks alone).
            let idx = node_id.0 as usize;
            self.points[idx] = self.points[idx].backed_off(self.config.crash_backoff);
            self.points[idx].apply_to(self.cluster.nodes_mut()[idx].hypervisor.node_mut());
        }
    }

    /// Charges one lost placement: an eviction is an SLA violation
    /// whatever the class promised.
    fn charge_eviction(&mut self, lost: &Placement) {
        self.counts.evicted += 1;
        self.counts.per_class[class_idx(lost.class)].violations += 1;
        self.tel.inc("evictions");
    }

    /// Drops one arrival for good, `wait_ticks` after its first offer.
    fn abandon(&mut self, class: usize, wait_ticks: u64) {
        self.counts.per_class[class].abandoned += 1;
        self.tel.inc("abandoned");
        self.tel.record(ABANDON_WAIT[class], wait_ticks);
    }

    /// Downtime accrual: every tick a node spends offline is real lost
    /// capacity (a freshly-crashed node's window starts this tick; a
    /// rejoining node stopped counting at tick start). Sleep and
    /// degraded dwell accrue likewise under their gates. Closes the
    /// tick's row.
    pub fn accrue(&mut self, report: &ClusterTickReport) {
        let secs = self.step.as_secs();
        let offline = self.cluster.offline_count();
        let chaos = &mut self.counts.chaos;
        chaos.downtime_secs += secs * offline as f64;
        chaos.peak_offline = chaos.peak_offline.max(offline as u64);
        if self.manages {
            let asleep = self.cluster.asleep_count();
            let power = &mut self.counts.power;
            power.asleep_node_secs += secs * asleep as f64;
            power.peak_asleep = power.peak_asleep.max(asleep as u64);
            self.tel.observe("nodes_asleep", asleep as u64);
        }
        if self.gray_on {
            let degraded = self.cluster.degraded_count();
            let gray = &mut self.counts.gray;
            gray.degraded_node_secs += secs * degraded as f64;
            gray.peak_degraded = gray.peak_degraded.max(degraded as u64);
            self.tel.observe("degraded_nodes", degraded as u64);
        }
        let live = self.cluster.placements().len() as u64;
        self.tel.observe("live_placements", live);
        self.tel.observe("offline_nodes", offline as u64);
        self.tel.observe("retry_queue_depth", self.retry.pending_len() as u64);
        self.row.live = live;
        self.row.crashes = report.crashes.len() as u64;
        self.row.energy_j = report.energy.as_joules();
        self.per_tick.push(self.row);
    }

    /// Closes the horizon, checks the accounting identities, and
    /// returns the deterministic summary with the wall-clock timing.
    pub fn finish(mut self) -> (ClusterSummary, OrchestratorTiming) {
        self.close_horizon();
        let summary = self.summary();
        let timing = self.timing(summary.offered);
        (summary, timing)
    }

    /// The end of the horizon. Departures and settlements due in the
    /// final `(last tick start, horizon]` window still fire (outside the
    /// per-tick series), and whatever still waits for re-admission was
    /// never served: it is counted abandoned, so admission ties out.
    fn close_horizon(&mut self) {
        let ticks = self.config.ticks();
        self.tel.begin_tick(ticks, self.config.horizon.as_secs());
        let completed = self.drain_due(self.config.horizon);
        self.tel.add("completed", completed);
        self.flush_pending(ticks);
        // Shard-accumulated metrics (node ticks, predictor rescores,
        // crash histograms) merge into the run's registry in node-index
        // order.
        if let (Some(shard_metrics), Some(m)) = (self.cluster.take_metrics(), &mut self.tel.metrics)
        {
            m.merge(&shard_metrics);
        }
        if self.manages {
            let power = self.cluster.power_stats();
            self.tel.add("wake_transitions", power.wakes);
            self.tel.add("consolidation_migrations", power.consolidation_migrations);
        }
        // Checked in release builds too: once per run, so free in any
        // timing.
        let c = &self.counts;
        assert_eq!(
            c.total(|s| s.placed),
            c.completed + c.evicted + self.cluster.placements().len() as u64,
            "lifecycle accounting must tie out"
        );
        for (class, s) in CLASS_NAMES.iter().zip(&c.per_class) {
            assert_eq!(
                s.offered,
                s.placed + s.abandoned,
                "{class} admission accounting must tie out: every offer is placed or abandoned"
            );
        }
    }

    /// Abandons everything still queued, as expired at the horizon
    /// rather than budget-exhausted.
    fn flush_pending(&mut self, final_tick: u64) {
        for class in 0..3 {
            while let Some(p) = self.retry.pending[class].pop_front() {
                self.abandon(class, final_tick.saturating_sub(p.offered_tick));
                self.counts.per_class[class].expired_at_horizon += 1;
                self.tel.inc("expired_at_horizon");
            }
        }
    }

    fn summary(&mut self) -> ClusterSummary {
        let config = self.config;
        let c = &self.counts;
        let fleet = self.cluster.fleet_metrics();
        let power = self.cluster.power_stats();
        let node_secs = config.cluster.nodes as f64 * config.horizon.as_secs();
        let downtime = c.chaos.downtime_secs;
        ClusterSummary {
            nodes: config.cluster.nodes,
            seed: config.seed,
            margins: config.margins.label().to_string(),
            horizon_secs: config.horizon.as_secs(),
            tick_secs: config.tick.as_secs(),
            ticks: config.ticks(),
            offered: c.total(|s| s.offered),
            placed: c.total(|s| s.placed),
            rejected: c.total(|s| s.rejected),
            retried: c.total(|s| s.retried),
            abandoned: c.total(|s| s.abandoned),
            expired_at_horizon: c.total(|s| s.expired_at_horizon),
            completed: c.completed,
            evicted: c.evicted,
            live_at_end: self.cluster.placements().len() as u64,
            crashes: c.crashes,
            crash_migrations: c.crash_migrations,
            migrations_settled: c.settled,
            proactive_migrations: fleet.migrations,
            sla_violations: c.total(|s| s.violations),
            migration_downtime_secs: fleet.migration_downtime.as_secs(),
            energy_j: c.energy_j,
            mean_availability: fleet.mean_availability,
            min_availability: self
                .cluster
                .nodes()
                .iter()
                .fold(f64::MAX, |min, node| min.min(node.metrics().availability)),
            mean_utilization: fleet.mean_utilization,
            min_offset_mv_mean: self.records.iter().map(|r| r.point.min_offset_mv()).sum::<f64>()
                / self.records.len() as f64,
            per_class: c.per_class,
            per_part: self.per_part(),
            per_tick: std::mem::take(&mut self.per_tick),
            chaos: self.chaos_on.then(|| ChaosOutcome {
                lost_capacity_node_hours: downtime / 3600.0,
                availability: 1.0 - downtime / node_secs,
                shed: c.total(|s| s.shed),
                ..c.chaos
            }),
            policy: (config.policy != PolicyKind::EnergySla)
                .then(|| config.policy.label().to_string()),
            power: self.manages.then_some(PowerOutcome {
                parks: power.parks,
                wakes: power.wakes,
                consolidation_migrations: power.consolidation_migrations,
                ..c.power
            }),
            gray: self.gray_on.then(|| GrayOutcome {
                degraded_node_hours: c.gray.degraded_node_secs / 3600.0,
                ..c.gray
            }),
        }
    }

    /// Per-part aggregation, in part-mix order, parts with nodes only.
    fn per_part(&self) -> Vec<PartUsage> {
        let parts = self.config.cluster.part_mix.iter();
        parts
            .zip(&self.counts.part_crashes)
            .map(|(part, &crashes)| {
                let members: Vec<_> =
                    self.records.iter().filter(|r| r.part == part.spec.name).collect();
                PartUsage {
                    part: part.spec.name.clone(),
                    nodes: members.len(),
                    crashes,
                    min_offset_mv_mean: if members.is_empty() {
                        0.0
                    } else {
                        members.iter().map(|r| r.point.min_offset_mv()).sum::<f64>()
                            / members.len() as f64
                    },
                }
            })
            .filter(|u| u.nodes > 0)
            .collect()
    }

    fn timing(&self, arrivals: u64) -> OrchestratorTiming {
        let ms = |stage| self.profiler.ms(stage);
        OrchestratorTiming {
            wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
            deploy_ms: self.deploy_secs * 1e3,
            serve_ms: self.serve_started.elapsed().as_secs_f64() * 1e3,
            nodes: self.config.cluster.nodes,
            arrivals,
            workers: self.pool.workers(),
            cores: uniserver_cloudmgr::pool::cores(),
            stages: StageBreakdown {
                placement_ms: ms(Stage::Placement),
                predictor_ms: ms(Stage::Predictor),
                hypervisor_tick_ms: ms(Stage::NodeTick),
                retry_ms: ms(Stage::RetryQueue),
                recovery_ms: ms(Stage::Recovery),
                events_ms: ms(Stage::Events),
                rejoin_ms: ms(Stage::Rejoin),
                tick_wall_ms: ms(Stage::Tick),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use uniserver_cloudmgr::lifecycle::FailureLifecycle;
    use uniserver_hypervisor::vm::VmConfig;

    /// Deploys `config` and hands the fresh run to `body`.
    fn with_run<R>(config: &OrchestratorConfig, body: impl FnOnce(&mut Run<'_>) -> R) -> R {
        let mut tel = Telemetry::disabled();
        let profiler = Arc::new(StageProfiler::new());
        body(&mut Run::deploy(config, &mut tel, &profiler))
    }

    fn crash_event(at: f64) -> CrashEvent {
        CrashEvent { core: 0, at: Seconds::new(at), voltage: Volts::new(0.9), workload: Arc::from("ldbc") }
    }

    fn gold_arrival() -> Arrival {
        Arrival {
            config: VmConfig::idle_guest(),
            class: SlaClass::Gold,
            lifetime: Seconds::new(60.0),
        }
    }

    /// A 2-node smoke rack under `admission`.
    fn small_rack(seed: u64, admission: AdmissionPolicy) -> OrchestratorConfig {
        OrchestratorConfig { admission, ..OrchestratorConfig::smoke(2, seed) }
    }

    /// Packs the rack until the scheduler rejects.
    fn overload(run: &mut Run<'_>) {
        while run.cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).is_some() {}
    }

    /// The admission identity over the per-class totals.
    fn admission_ties_out(run: &Run<'_>) -> bool {
        let c = &run.counts;
        c.total(|s| s.offered) == c.total(|s| s.placed) + c.total(|s| s.abandoned)
    }

    #[test]
    fn gold_rejection_abandons_only_after_retries_exhaust() {
        with_run(&small_rack(7, AdmissionPolicy::gold_priority()), |run| {
            overload(run);
            assert!(!run.admit(gold_arrival()));
            assert_eq!(run.counts.per_class[0].rejected, 1);
            assert_eq!(run.counts.per_class[0].abandoned, 0, "a gold rejection must queue, not drop");
            assert_eq!(run.retry.pending_len(), 1);

            // Re-offer against a still-full rack: each tick burns one
            // unit of the gold budget (4), and only exhaustion abandons.
            for attempt in 1..=4u64 {
                run.begin_tick(attempt);
                run.reoffer();
                assert_eq!(run.row.placed, 0);
                assert_eq!(run.counts.per_class[0].retried, attempt);
                if attempt < 4 {
                    assert_eq!(
                        run.counts.per_class[0].abandoned,
                        0,
                        "gold must not abandon before its budget is spent"
                    );
                }
            }
            assert_eq!(run.counts.per_class[0].abandoned, 1, "budget exhausted: now it abandons");
            assert_eq!(
                run.counts.per_class[0].rejected,
                5,
                "the initial rejection plus four failed re-offers"
            );
            assert_eq!(run.retry.pending_len(), 0);
            assert!(admission_ties_out(run), "the lifecycle invariant must tie out");
        });
    }

    #[test]
    fn queued_gold_places_into_freed_capacity() {
        with_run(&small_rack(13, AdmissionPolicy::gold_priority()), |run| {
            overload(run);
            assert!(!run.admit(gold_arrival()));
            assert_eq!(run.retry.pending_len(), 1);

            // A departure frees capacity before the budget runs out …
            let victim = run.cluster.placements()[0].id;
            assert!(run.cluster.terminate_by_id(victim));
            // … and the next re-offer claims it.
            run.begin_tick(1);
            run.reoffer();
            assert_eq!(run.row.placed, 1);
            assert_eq!(run.counts.per_class[0].placed, 1);
            assert_eq!(run.counts.per_class[0].retried, 1);
            assert_eq!(run.counts.per_class[0].abandoned, 0);
            assert_eq!(run.retry.pending_len(), 0);
            assert!(admission_ties_out(run));
        });
    }

    #[test]
    fn drop_all_policy_abandons_rejections_immediately() {
        with_run(&small_rack(21, AdmissionPolicy::drop_all()), |run| {
            overload(run);
            assert!(!run.admit(gold_arrival()));
            assert_eq!(run.counts.per_class[0].rejected, 1);
            assert_eq!(run.counts.per_class[0].abandoned, 1, "zero budget is the legacy drop path");
            assert_eq!(run.counts.total(|s| s.retried), 0);
            assert_eq!(run.retry.pending_len(), 0);
        });
    }

    #[test]
    fn horizon_flush_abandons_whatever_is_still_queued() {
        with_run(&small_rack(33, AdmissionPolicy::gold_priority()), |run| {
            overload(run);
            for _ in 0..3 {
                run.admit(gold_arrival());
            }
            assert_eq!(run.retry.pending_len(), 3);
            run.flush_pending(60);
            assert_eq!(run.retry.pending_len(), 0);
            assert_eq!(run.counts.total(|s| s.abandoned), 3);
            assert_eq!(
                run.counts.total(|s| s.expired_at_horizon),
                3,
                "horizon drops are annotated as expirations"
            );
            assert_eq!(run.counts.per_class[0].expired_at_horizon, 3);
            assert!(admission_ties_out(run));
        });
    }

    #[test]
    fn duplicate_same_tick_crash_events_recover_and_back_off_once() {
        let config = OrchestratorConfig::smoke(3, 11);
        with_run(&config, |run| {
            for _ in 0..3 {
                run.cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze);
            }
            let victim = run.cluster.placements()[0].node;
            let on_victim = run.cluster.placements_on(victim).len() as u64;
            assert!(on_victim > 0);

            let before = run.points[victim.0 as usize].clone();
            // The node surfaced TWO crash events in the same tick.
            run.begin_tick(1);
            run.recover(&[(victim, crash_event(5.0)), (victim, crash_event(5.1))]);

            assert_eq!(run.counts.crashes, 2, "crashes counts events, not nodes");
            assert_eq!(run.counts.part_crashes.iter().sum::<u64>(), 2);
            let once = before.backed_off(config.crash_backoff);
            let twice = once.backed_off(config.crash_backoff);
            assert_eq!(
                run.points[victim.0 as usize].min_offset_mv(),
                once.min_offset_mv(),
                "the EOP backoff must apply once per crashed node, not once per event"
            );
            assert!(
                run.points[victim.0 as usize].min_offset_mv() > twice.min_offset_mv(),
                "compounded backoff would overdrive the margin towards nominal"
            );
            assert!(run.cluster.placements_on(victim).is_empty(), "recovery still clears the node");
            assert_eq!(run.counts.crash_migrations + run.counts.evicted, on_victim);
            assert_eq!(run.row.migrations, run.counts.crash_migrations);
        });
    }

    #[test]
    fn consecutive_tick_double_crash_backs_off_twice_but_never_past_nominal() {
        let config = OrchestratorConfig::smoke(3, 11);
        with_run(&config, |run| {
            let victim = NodeId(0);
            let before = run.points[0].clone();
            // The same node crashes on two CONSECUTIVE ticks — each
            // tick's dedup set is fresh, so the backoff legitimately
            // compounds …
            for tick in 1..=2u64 {
                run.begin_tick(tick);
                run.recover(&[(victim, crash_event(tick as f64 * 5.0))]);
            }
            let twice = before.backed_off(config.crash_backoff).backed_off(config.crash_backoff);
            assert_eq!(
                run.points[0].min_offset_mv(),
                twice.min_offset_mv(),
                "consecutive-tick crashes compound the backoff once per tick"
            );
            // … but however many times it crashes, the clamped backoff
            // can never overdrive any core's offset past nominal (> 0 mV).
            for _ in 0..50 {
                run.points[0] = run.points[0].backed_off(config.crash_backoff);
            }
            assert!(
                run.points[0].core_offsets_mv.iter().all(|&mv| mv >= 0.0),
                "repeated crashes must converge to nominal, never overshoot it"
            );
        });
    }

    #[test]
    fn lifecycle_crash_takes_the_node_offline_and_skips_the_backoff() {
        let config = OrchestratorConfig {
            lifecycle: FailureLifecycle::standard(),
            ..OrchestratorConfig::smoke(3, 17)
        };
        with_run(&config, |run| {
            for _ in 0..3 {
                run.cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze);
            }
            let victim = run.cluster.placements()[0].node;
            let on_victim = run.cluster.placements_on(victim).len() as u64;
            assert!(on_victim > 0);
            let before = run.points[victim.0 as usize].clone();

            run.begin_tick(1);
            run.recover(&[(victim, crash_event(5.0))]);

            assert!(
                !run.cluster.nodes()[victim.0 as usize].is_online(),
                "the crashed node must be offline"
            );
            assert!(run.cluster.placements_on(victim).is_empty(), "the offline node must be evacuated");
            assert_eq!(run.counts.chaos.nodes_offlined, 1);
            assert_eq!(
                run.points[victim.0 as usize].min_offset_mv(),
                before.min_offset_mv(),
                "the lifecycle replaces the geometric backoff with the rejoin re-shmoo"
            );
            assert_eq!(run.counts.crash_migrations + run.counts.evicted, on_victim);
            // The scheduler must refuse the offline node while it repairs.
            for _ in 0..8 {
                if let Some(p) = run.cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze) {
                    assert_ne!(p.node, victim, "no placement may land on an offline node");
                }
            }
        });
    }

    #[test]
    fn degraded_reoffer_sheds_bronze_to_free_capacity_for_gold() {
        let config = OrchestratorConfig {
            admission: AdmissionPolicy::gold_priority(),
            ..OrchestratorConfig::smoke(3, 29)
        };
        with_run(&config, |run| {
            overload(run);
            // Gold rejected against the packed rack: it queues.
            assert!(!run.admit(gold_arrival()));

            // With every node healthy, a failed re-offer sheds nothing —
            // degradation only under degradation.
            run.begin_tick(1);
            run.reoffer();
            assert_eq!(run.counts.total(|s| s.shed), 0, "no shedding while the fleet is at full capacity");

            // A node goes offline; the still-queued gold re-offer now
            // sheds one bronze victim (youngest first) to make room …
            run.cluster.mark_crashed(NodeId(0));
            let _ = run.cluster.recover_from_crash(NodeId(0));
            run.cluster.begin_repair(NodeId(0), 12);
            let bronze_before = run.cluster.placements().len();
            run.begin_tick(2);
            run.reoffer();
            assert_eq!(run.counts.total(|s| s.shed), 1, "degraded capacity plus a waiting gold must shed");
            assert_eq!(run.counts.per_class[2].shed, 1, "bronze is shed first");
            assert_eq!(run.counts.evicted, 1, "a shed is charged as an eviction");
            assert_eq!(run.cluster.placements().len(), bronze_before - 1);

            // … and the next tick's re-offer places into the freed slot.
            run.begin_tick(3);
            run.reoffer();
            assert_eq!(run.row.placed, 1, "the freed capacity admits the queued gold next tick");
            assert_eq!(run.counts.per_class[0].placed, 1);
            assert!(admission_ties_out(run));
        });
    }

    #[test]
    fn nominal_racks_never_back_off_points() {
        let config = OrchestratorConfig { margins: MarginPolicy::Nominal, ..OrchestratorConfig::smoke(2, 5) };
        with_run(&config, |run| {
            run.begin_tick(1);
            run.recover(&[(NodeId(0), crash_event(1.0))]);
            assert_eq!(run.counts.crashes, 1);
            assert_eq!(run.points[0].min_offset_mv(), 0.0, "nominal points stay nominal");
        });
    }

    #[test]
    fn drain_fires_departures_due_in_the_final_window() {
        with_run(&OrchestratorConfig::smoke(2, 3), |run| {
            let placed = run.cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).expect("placed");
            // Due strictly after the last tick start (295 s) but within
            // the 300 s horizon — exactly the window the loop used to drop.
            run.queue.schedule(Seconds::new(297.5), Event::Departure(placed.id));
            assert_eq!(run.drain_due(Seconds::new(295.0)), 0);
            assert_eq!(run.drain_due(Seconds::new(300.0)), 1);
            assert_eq!(run.counts.completed, 1);
            assert!(run.cluster.placements().is_empty());
            // A departure for an already-evicted placement completes nothing.
            run.queue.schedule(Seconds::new(299.0), Event::Departure(placed.id));
            assert_eq!(run.drain_due(Seconds::new(300.0)), 0);
            assert_eq!(run.counts.completed, 1);
        });
    }
}
