//! The benchmark's workloads: each builds one [`OrchestratorConfig`] from
//! a seed. The simulator receives only the built config.

use uniserver_cloudmgr::stream::TrafficShape;
use uniserver_orchestrator::{ChaosPlan, OrchestratorConfig, PolicyKind};
use uniserver_units::Seconds;

/// Arrival profile a workload starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Profile {
    /// `OrchestratorConfig::datacenter`: the legacy flat stream.
    Flat,
    /// `OrchestratorConfig::gray_profile` (failure lifecycle, gray
    /// faults, watchdog, brownout power cap, gold-priority re-offers,
    /// capacity-scaled Pareto-lifetime stream) with the flash-crowd
    /// shape switched off: seeded bursts make a run's cost heavy-tailed
    /// in the seed (see `perfbench/README.md`).
    GrayFlatShape,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as `--workload` takes it.
    pub name: &'static str,
    profile: Profile,
    policy: PolicyKind,
    nodes: usize,
    horizon_secs: f64,
    /// Worker threads: 0 = one per core, as `fleet_sim --threads 0`.
    threads: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "flat-1k",
        profile: Profile::Flat,
        policy: PolicyKind::EnergySla,
        nodes: 1024,
        horizon_secs: 300.0,
        threads: 0,
    },
    Workload {
        name: "gray-consolidate",
        profile: Profile::GrayFlatShape,
        policy: PolicyKind::Consolidate,
        nodes: 1024,
        horizon_secs: 900.0,
        threads: 0,
    },
];

/// Rack size and horizon of the `--tiny` variant every workload has, for
/// the benchmark's own tests.
const TINY_NODES: usize = 8;
const TINY_HORIZON_SECS: f64 = 60.0;

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The run's configuration for `seed`; `tiny` shrinks the rack and
    /// horizon while keeping profile and policy.
    #[must_use]
    pub fn config(&self, seed: u64, tiny: bool) -> OrchestratorConfig {
        let nodes = if tiny { TINY_NODES } else { self.nodes };
        let mut config = match self.profile {
            Profile::Flat => OrchestratorConfig::datacenter(nodes, seed),
            Profile::GrayFlatShape => {
                let mut config = OrchestratorConfig::gray_profile(nodes, seed);
                config.stream.shape = TrafficShape::Flat;
                config
            }
        };
        config.horizon = Seconds::new(if tiny { TINY_HORIZON_SECS } else { self.horizon_secs });
        if self.profile == Profile::GrayFlatShape {
            // The gray campaign anchors to tick fractions of the horizon,
            // so it is re-derived for the horizon actually run (as
            // `fleet_sim --secs` does).
            #[allow(clippy::cast_possible_truncation)]
            let width = nodes as u32;
            config.chaos = Some(ChaosPlan::gray_brownout(config.ticks(), width));
        }
        config.policy = self.policy;
        config.threads = self.threads;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_orchestrator::run_timed;

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(find(w.name), Some(w));
        }
        assert!(find("no-such-workload").is_none());
    }

    #[test]
    fn every_workload_builds_and_runs_at_a_tiny_size() {
        for w in WORKLOADS {
            let config = w.config(2018, true);
            assert_eq!(config.cluster.nodes, TINY_NODES);
            assert_eq!(config.policy, w.policy);
            let (summary, timing) = run_timed(&config);
            assert_eq!(summary.ticks, 12, "{}", w.name);
            assert_eq!(summary.placed, summary.completed + summary.evicted + summary.live_at_end);
            assert_eq!(summary.offered, summary.placed + summary.abandoned);
            assert!(timing.wall_ms >= timing.serve_ms);
        }
    }

    #[test]
    fn full_size_configs_keep_the_documented_shape() {
        let flat = find("flat-1k").unwrap().config(1, false);
        assert_eq!((flat.cluster.nodes, flat.ticks(), flat.threads), (1024, 60, 0));
        let gray = find("gray-consolidate").unwrap().config(1, false);
        assert_eq!((gray.cluster.nodes, gray.ticks(), gray.threads), (1024, 180, 0));
        assert!(gray.watchdog.enabled && gray.lifecycle.enabled && gray.chaos.is_some());
        assert_eq!(gray.stream.shape, TrafficShape::Flat);
        assert_eq!(gray.admission.retry_budget, [4, 2, 0]);
        assert_eq!(gray.policy, PolicyKind::Consolidate);
    }

    #[test]
    fn the_seed_is_the_only_input_that_changes_with_it() {
        let w = find("gray-consolidate").unwrap();
        let (a, b) = (w.config(1, false), w.config(2, false));
        assert_eq!((a.seed, b.seed), (1, 2));
        assert_eq!(a.cluster.nodes, b.cluster.nodes);
        assert_eq!(a.horizon, b.horizon);
    }
}
