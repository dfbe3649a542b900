//! The cluster-in-the-loop event loop.
//!
//! One run: deploy the rack (parallel, per-node EOPs), then walk the
//! horizon tick by tick through a fixed list of phases, each a method
//! on the run state in `serve`:
//!
//! 1. **rejoin** — repairs tick down; a node whose MTTR window closed
//!    rejoins through a re-characterization pass;
//! 2. **gray round** — with a gray or power-cap campaign only: gray
//!    faults expire, new onsets land, and the health watchdog probes
//!    every degraded node, quarantining, draining and readmitting;
//! 3. **events** — due departures and migration settlements fire from
//!    the deterministic [`crate::events::EventQueue`];
//! 4. **manage** — a consolidating policy parks emptied nodes and
//!    drains stragglers;
//! 5. **re-offer** — queued rejections re-offer, gold first, into the
//!    capacity those departures freed; a premium re-offer that fails
//!    while nodes are offline sheds bronze-first;
//! 6. **arrivals** — this tick's VM batch, drawn at the rack's
//!    capacity-scaled, shape-modulated rate from its seeded
//!    sub-stream, is offered to the scheduler; rejections enter the
//!    bounded per-class retry queue or are counted `abandoned`, per the
//!    [`crate::config::AdmissionPolicy`];
//! 7. **ambient** — cooling-failure campaigns step the fleet's ambient;
//! 8. **advance** — every node's hypervisor ticks, **sharded across
//!    the run's workers** (`Cluster::tick_pooled`, the same
//!    `ShardPool` that deployed the rack), with energy, crash events
//!    and predictor scores reduced sequentially in node-index order;
//! 9. **brownout** — under a power cap, empty nodes park and load sheds
//!    bronze-first;
//! 10. **chaos crashes** — a [`crate::config::OrchestratorConfig::chaos`]
//!     plan injects seeded node, rack/PSU and cooling failures on top
//!     of the natural crash stream;
//! 11. **recovery** — once per crashed node (several same-tick crash
//!     events still recover once): migrate what fits elsewhere, evict
//!     the rest. With the failure lifecycle disabled the node
//!     re-deploys in place at a backed-off operating point; enabled,
//!     the crash *costs capacity* — the node goes offline for a seeded
//!     MTTR window (excluded from placement, ticking, energy and the
//!     crash surface);
//! 12. **accrual** — offline, asleep and degraded dwell accrue and the
//!     tick's row joins the time series.
//!
//! After the loop, **finish** drains events due in the final
//! `(last tick start, horizon]` window, so end-of-horizon departures
//! and settlements are not dropped from `completed` /
//! `migrations_settled`, expires the retry queue, checks the
//! accounting identities and builds the summary.
//!
//! Every random draw derives from `(seed, node index)` or
//! `(seed, tick index)`, parallel per-node work reduces in node-index
//! order, and every placement-mutating phase is sequential, so a run's
//! [`ClusterSummary`] is a pure function of its configuration —
//! byte-stable for any worker count (`threads` drives deploy *and*
//! serve).

use std::sync::Arc;

use uniserver_telemetry::{StageProfiler, Telemetry};

use crate::config::{MarginPolicy, OrchestratorConfig};
use crate::serve::Run;
use crate::summary::{ClusterSummary, MarginComparison, OrchestratorTiming};

/// Runs one orchestrated scenario.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero nodes, non-positive
/// tick or horizon).
#[must_use]
pub fn run(config: &OrchestratorConfig) -> ClusterSummary {
    run_timed(config).0
}

/// Runs one orchestrated scenario and reports wall-clock timings.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero nodes, non-positive
/// tick or horizon, or an invalid [`VmStream`] — e.g. a class mix whose
/// gold and silver fractions exceed 1.0).
///
/// [`VmStream`]: uniserver_cloudmgr::stream::VmStream
#[must_use]
pub fn run_timed(config: &OrchestratorConfig) -> (ClusterSummary, OrchestratorTiming) {
    let mut tel = Telemetry::disabled();
    run_with_telemetry(config, &mut tel)
}

/// Runs one orchestrated scenario with a live [`Telemetry`] bundle:
/// sim-domain metrics and trace events land in `tel` (both byte-stable
/// for any worker count — accumulation is sequential, in node-index
/// order), wall-clock stage attribution lands in the returned timing's
/// `stages` block. `Telemetry::disabled()` makes this exactly
/// [`run_timed`].
///
/// # Panics
///
/// Panics if the configuration is degenerate (see [`run_timed`]).
#[must_use]
pub fn run_with_telemetry(
    config: &OrchestratorConfig,
    tel: &mut Telemetry,
) -> (ClusterSummary, OrchestratorTiming) {
    if let Err(err) = config.stream.validate() {
        panic!("invalid stream: {err}");
    }
    let profiler = Arc::new(StageProfiler::new());
    let mut run = Run::deploy(config, tel, &profiler);
    for tick in 0..config.ticks() {
        run.begin_tick(tick);
        run.rejoin();
        run.gray_round();
        run.events();
        run.manage();
        run.reoffer();
        run.arrivals();
        run.ambient();
        let mut report = run.advance();
        run.brownout(&report);
        run.chaos_crashes(&mut report.crashes);
        run.recover(&report.crashes);
        run.accrue(&report);
    }
    run.finish()
}

/// Runs the same scenario at extended and nominal margins off one seed —
/// the paper's savings story at cluster level.
///
/// # Panics
///
/// Panics if the configuration is degenerate.
#[must_use]
pub fn compare(config: &OrchestratorConfig) -> MarginComparison {
    let extended =
        run(&OrchestratorConfig { margins: MarginPolicy::Extended, ..config.clone() });
    let nominal = run(&OrchestratorConfig { margins: MarginPolicy::Nominal, ..config.clone() });
    MarginComparison { extended, nominal }
}

#[cfg(test)]
mod tests {
    use super::*;

    use uniserver_cloudmgr::stream::VmStream;
    use uniserver_units::Seconds;

    use crate::config::AdmissionPolicy;

    #[test]
    fn admission_retries_recover_rejections_and_tie_out() {
        // The full datacenter rate on a 2-node rack: heavily overloaded,
        // so the admission policy is actually exercised.
        let base = OrchestratorConfig {
            stream: VmStream::datacenter(),
            ..OrchestratorConfig::smoke(2, 5)
        };
        let drop = run(&base.clone());
        let retrying =
            run(&OrchestratorConfig { admission: AdmissionPolicy::gold_priority(), ..base });

        assert!(drop.rejected > 0, "the rack must actually overload");
        assert_eq!(drop.retried, 0, "drop-all never re-offers");
        assert_eq!(drop.abandoned, drop.rejected, "drop-all abandons every rejection");
        assert_eq!(drop.offered, drop.placed + drop.abandoned);

        assert!(retrying.retried > 0, "gold-priority must re-offer queued rejections");
        assert_eq!(retrying.offered, retrying.placed + retrying.abandoned);
        assert_eq!(
            drop.offered, retrying.offered,
            "the admission policy must not change the arrival stream"
        );
        assert_eq!(
            retrying.per_class[2].retried, 0,
            "bronze has no budget under gold-priority"
        );
    }

    #[test]
    fn flash_crowd_runs_are_deterministic_for_any_worker_count() {
        let mut config = OrchestratorConfig {
            horizon: Seconds::new(600.0),
            ..OrchestratorConfig::flash_crowd(8, 42)
        };
        config.threads = 1;
        let a = run(&config);
        config.threads = 4;
        let b = run(&config);
        assert_eq!(a, b, "worker count must never leak into a flash-crowd summary");
        assert!(a.offered > 0);
        assert_eq!(a.offered, a.placed + a.abandoned);
    }

    #[test]
    #[should_panic(expected = "invalid stream")]
    fn invalid_stream_is_rejected_before_deploy() {
        let mut config = OrchestratorConfig::smoke(2, 1);
        config.stream.gold_fraction = 0.8;
        config.stream.silver_fraction = 0.7;
        let _ = run(&config);
    }

    #[test]
    fn smoke_run_places_and_completes_vms() {
        let summary = run(&OrchestratorConfig::smoke(8, 42));
        assert_eq!(summary.ticks, 60);
        assert!(summary.offered > 150, "0.75/s × 300 s ≈ 225 arrivals, got {}", summary.offered);
        assert!(summary.placed > 0 && summary.placed <= summary.offered);
        assert!(summary.completed > 0, "5-minute horizon must complete some 5-min-mean VMs");
        assert_eq!(summary.placed - summary.completed - summary.evicted, summary.live_at_end);
        assert!(summary.migrations_settled <= summary.crash_migrations);
        assert!(summary.energy_j > 0.0);
        assert_eq!(summary.per_tick.len(), 60);
        let total_offered: u64 = summary.per_tick.iter().map(|t| t.offered).sum();
        assert_eq!(total_offered, summary.offered, "time series must tie out");
        let class_offered: u64 = summary.per_class.iter().map(|c| c.offered).sum();
        assert_eq!(class_offered, summary.offered);
        // The end-of-horizon drain completes departures due in the
        // final (last tick start, horizon] window — completions the
        // per-tick series (which fires at tick *starts*) cannot see.
        let ticked_completed: u64 = summary.per_tick.iter().map(|t| t.completed).sum();
        assert!(
            ticked_completed < summary.completed,
            "the final-window drain must add completions: {ticked_completed} vs {}",
            summary.completed
        );
    }

    #[test]
    fn runs_are_deterministic_for_any_worker_count() {
        let mut config = OrchestratorConfig::smoke(6, 9);
        config.threads = 1;
        let a = run(&config);
        config.threads = 4;
        let b = run(&config);
        assert_eq!(a, b, "worker count must never leak into the summary");
        let c = run(&OrchestratorConfig { seed: 10, ..config });
        assert_ne!(a, c, "a different seed must produce a different run");
    }

    #[test]
    fn legacy_configs_report_no_chaos_outcome() {
        let summary = run(&OrchestratorConfig::smoke(4, 42));
        assert!(summary.chaos.is_none(), "lifecycle off + no plan must keep the legacy shape");
        assert_eq!(summary.expired_at_horizon, 0, "drop-all leaves nothing queued to expire");
    }

    #[test]
    fn chaos_profile_costs_real_capacity_and_repairs_it() {
        let mut config = OrchestratorConfig::chaos_profile(12, 42);
        config.horizon = Seconds::new(900.0);
        // Re-derive the plan for the shortened horizon so the rack and
        // cooling failures land inside it.
        config.chaos = Some(uniserver_faultinject::chaos::ChaosPlan::rack_and_flash(config.ticks()));
        let summary = run(&config);
        let chaos = summary.chaos.expect("the chaos profile must report an outcome");

        assert!(chaos.injected_crashes > 0, "the plan must inject crashes");
        assert!(chaos.nodes_offlined > 0, "lifecycle crashes must cost capacity");
        assert!(chaos.downtime_secs > 0.0, "offline windows must accrue downtime");
        assert!(chaos.rejoins > 0, "a 15-minute horizon must complete some 1–8 min repairs");
        assert!(chaos.peak_offline >= 1);
        assert!(chaos.availability < 1.0, "lost capacity must show in availability");
        assert!(chaos.availability > 0.0);
        assert!(
            (chaos.lost_capacity_node_hours - chaos.downtime_secs / 3600.0).abs() < 1e-12,
            "node-hours is the same downtime in different units"
        );
        // The accounting invariants hold under chaos too.
        assert_eq!(summary.offered, summary.placed + summary.abandoned);
        assert_eq!(
            summary.placed,
            summary.completed + summary.evicted + summary.live_at_end
        );
        assert!(
            summary.crashes >= chaos.injected_crashes,
            "injected events are counted in the crash total"
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_for_any_worker_count() {
        let mut config = OrchestratorConfig::chaos_profile(8, 7);
        config.horizon = Seconds::new(600.0);
        config.chaos = Some(uniserver_faultinject::chaos::ChaosPlan::rack_and_flash(config.ticks()));
        config.threads = 1;
        let a = run(&config);
        config.threads = 4;
        let b = run(&config);
        assert_eq!(a, b, "worker count must never leak into a chaos summary");
        let chaos = a.chaos.expect("chaos outcome present");
        assert!(chaos.nodes_offlined > 0, "the 600 s profile must offline nodes");
    }

    #[test]
    fn gray_profile_quarantines_drains_and_readmits() {
        let mut config = OrchestratorConfig::gray_profile(12, 42);
        config.horizon = Seconds::new(900.0);
        // Re-derive the plan for the shortened horizon so the gray
        // trickle and the brownout window both land inside it.
        config.chaos =
            Some(uniserver_faultinject::chaos::ChaosPlan::gray_brownout(config.ticks(), 12));
        let summary = run(&config);
        let gray = summary.gray.expect("the gray profile must report an outcome");

        assert!(gray.gray_onsets > 0, "the campaign must degrade nodes");
        assert!(gray.probe_failures > 0, "degraded nodes must fail probes");
        assert!(gray.quarantines > 0, "3-of-8 hysteresis must trip on 90 % fail rates");
        assert!(gray.degraded_node_secs > 0.0, "degraded dwell must accrue");
        assert!(gray.peak_degraded >= 1);
        assert!(
            (gray.degraded_node_hours - gray.degraded_node_secs / 3600.0).abs() < 1e-12,
            "node-hours is the same dwell in different units"
        );
        assert!(
            gray.readmissions <= gray.quarantines,
            "a node must be quarantined before it can be readmitted"
        );
        assert!(
            gray.powercap_deficit_watt_secs > 0.0,
            "a 288 W cap on a 12-node fleet must run a deficit"
        );
        // Gray nodes never crash and never go offline, so the
        // accounting invariants hold with capacity merely capped.
        assert_eq!(summary.offered, summary.placed + summary.abandoned);
        assert_eq!(summary.placed, summary.completed + summary.evicted + summary.live_at_end);
    }

    #[test]
    fn gray_runs_are_deterministic_for_any_worker_count() {
        let mut config = OrchestratorConfig::gray_profile(8, 7);
        config.horizon = Seconds::new(600.0);
        config.chaos =
            Some(uniserver_faultinject::chaos::ChaosPlan::gray_brownout(config.ticks(), 8));
        config.threads = 1;
        let a = run(&config);
        config.threads = 4;
        let b = run(&config);
        assert_eq!(a, b, "worker count must never leak into a gray summary");
        let gray = a.gray.expect("gray outcome present");
        assert!(gray.gray_onsets > 0, "the 600 s profile must degrade nodes");
    }

    #[test]
    fn offline_nodes_are_excluded_from_placement_until_rejoin() {
        // Lifecycle on, no chaos plan: only natural crashes offline
        // nodes, and every placement must respect the exclusion.
        let mut config = OrchestratorConfig::smoke(6, 9);
        config.lifecycle = uniserver_cloudmgr::lifecycle::FailureLifecycle::standard();
        let summary = run(&config);
        let chaos = summary.chaos.expect("lifecycle alone must report an outcome");
        if summary.crashes > 0 {
            assert!(chaos.nodes_offlined > 0, "every crashed node must go offline");
            assert!(chaos.downtime_secs > 0.0);
        }
        assert_eq!(summary.offered, summary.placed + summary.abandoned);
    }

    #[test]
    fn extended_fleet_saves_energy_over_nominal() {
        let comparison = compare(&OrchestratorConfig::smoke(6, 2018));
        assert!(
            comparison.energy_saving_fraction() > 0.03,
            "extended margins must save fleet energy, got {:.4}",
            comparison.energy_saving_fraction()
        );
        assert_eq!(comparison.extended.margins, "extended");
        assert_eq!(comparison.nominal.margins, "nominal");
        assert_eq!(comparison.nominal.crashes, 0, "nominal guard-bands must not crash");
        assert_eq!(comparison.nominal.min_offset_mv_mean, 0.0);
        assert!(comparison.extended.min_offset_mv_mean > 20.0);
    }
}
