//! The HealthLog daemon proper: retained vectors, services and thresholds.

use std::collections::VecDeque;
use std::sync::Arc;

use std::sync::Mutex;
use serde::{Deserialize, Serialize};
use uniserver_units::Seconds;

use uniserver_platform::node::IntervalReport;

use crate::ledger::{ErrorLedger, LedgerKey};
use crate::vector::InfoVector;

/// Actions the HealthLog recommends to higher layers when thresholds
/// trip (§3: "if the number of errors rises above a certain threshold a
/// new stress-test cycle may be triggered").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthAction {
    /// Trigger an on-demand StressLog re-characterization.
    TriggerStressTest,
    /// Isolate a resource that concentrates errors.
    IsolateResource(LedgerKey),
}

/// Error-rate thresholds driving recommendations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdPolicy {
    /// Corrected errors per minute (node-wide) above which a stress test
    /// is recommended.
    pub ce_per_minute: f64,
    /// Per-origin total errors above which isolation is recommended.
    pub isolate_origin_errors: u64,
    /// Window over which rates are evaluated.
    pub rate_window: Seconds,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy {
            ce_per_minute: 30.0,
            isolate_origin_errors: 20,
            rate_window: Seconds::new(60.0),
        }
    }
}

/// The HealthLog daemon.
#[derive(Debug, Clone)]
pub struct HealthLog {
    /// Retained vectors, oldest first: those inside the policy's rate
    /// window ending at the latest vector (always including the latest),
    /// at most `capacity`. Older vectors are exactly the ones
    /// [`HealthLog::ce_rate_per_minute`] skips, so they are dropped.
    vectors: VecDeque<InfoVector>,
    /// Corrected-error count per retained vector (same order as
    /// `vectors`): the CE-rate service polls this every ingest, and
    /// re-counting a CE-storm vector's thousands of error records each
    /// time is the difference between O(window) and O(window × errors).
    corrected_counts: VecDeque<usize>,
    capacity: usize,
    ledger: ErrorLedger,
    /// The ledger's isolation candidates in [`ErrorLedger::hot_origins`]
    /// order. The ledger only changes on ingests that record errors, so
    /// only those recompute it.
    hot_origins: Vec<LedgerKey>,
    policy: ThresholdPolicy,
    logfile: Vec<String>,
}

/// A shareable handle: daemons and the hypervisor hold the same log.
pub type SharedHealthLog = Arc<Mutex<HealthLog>>;

impl HealthLog {
    /// Creates a daemon retaining the vectors of the policy's rate
    /// window, at most `capacity` of them. Nothing is reserved up front:
    /// the window usually holds far fewer vectors than the cap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, policy: ThresholdPolicy) -> Self {
        assert!(capacity > 0, "HealthLog needs capacity");
        HealthLog {
            vectors: VecDeque::new(),
            corrected_counts: VecDeque::new(),
            capacity,
            ledger: ErrorLedger::new(),
            hot_origins: Vec::new(),
            policy,
            logfile: Vec::new(),
        }
    }

    /// Wraps a daemon in a shareable handle.
    #[must_use]
    pub fn shared(capacity: usize, policy: ThresholdPolicy) -> SharedHealthLog {
        Arc::new(Mutex::new(HealthLog::new(capacity, policy)))
    }

    /// Event-driven service: ingests one platform interval. Vectors are
    /// kept for the rate window, at most `capacity`; event vectors
    /// additionally produce a logfile line and update the ledger. Returns
    /// recommended actions (possibly empty).
    ///
    /// # Panics
    ///
    /// Panics if the report ends before the latest ingested vector: the
    /// rate window only ever moves forward.
    pub fn ingest(&mut self, report: &IntervalReport) -> Vec<HealthAction> {
        self.ingest_owned(report.clone())
    }

    /// [`HealthLog::ingest`] taking the report by value: the vector is
    /// built by *moving* the report's sensor sweep, counters and error
    /// records instead of cloning them — the serving loop's hypervisor
    /// is done with the report once the HealthLog has it, so the per-
    /// tick clone of (potentially thousands of) error records was pure
    /// overhead.
    ///
    /// # Panics
    ///
    /// Panics if the report ends before the latest ingested vector.
    pub fn ingest_owned(&mut self, report: IntervalReport) -> Vec<HealthAction> {
        if let Some(latest) = self.vectors.back() {
            assert!(
                report.at >= latest.at,
                "HealthLog ingest went back in time: {} s after {} s",
                report.at.as_secs(),
                latest.at.as_secs()
            );
        }
        let vector = InfoVector::from_owned_report(report);
        if !vector.errors.is_empty() {
            for err in &vector.errors {
                self.ledger.record(err);
            }
            self.hot_origins = self
                .ledger
                .hot_origins(self.policy.isolate_origin_errors)
                .into_iter()
                .map(|(key, _)| key)
                .collect();
        }
        if vector.is_event() {
            self.logfile.push(vector.render_logline());
        }
        if self.vectors.len() == self.capacity {
            self.vectors.pop_front();
            self.corrected_counts.pop_front();
        }
        // `at` never decreases, so a vector outside this window is
        // outside every later one too.
        let from = vector.at.saturating_sub(self.policy.rate_window);
        self.corrected_counts.push_back(vector.corrected_count());
        self.vectors.push_back(vector);
        while self.vectors.len() > 1 && self.vectors.front().is_some_and(|v| v.at <= from) {
            self.vectors.pop_front();
            self.corrected_counts.pop_front();
        }
        self.recommendations()
    }

    /// On-demand service: the retained vectors, oldest first.
    #[must_use]
    pub fn vectors(&self) -> &VecDeque<InfoVector> {
        &self.vectors
    }

    /// On-demand service: the most recent vector.
    #[must_use]
    pub fn latest(&self) -> Option<&InfoVector> {
        self.vectors.back()
    }

    /// On-demand service: retained vectors within `[from, to)`.
    #[must_use]
    pub fn query_range(&self, from: Seconds, to: Seconds) -> Vec<&InfoVector> {
        self.vectors.iter().filter(|v| v.at >= from && v.at < to).collect()
    }

    /// On-demand service: the per-origin ledger.
    #[must_use]
    pub fn ledger(&self) -> &ErrorLedger {
        &self.ledger
    }

    /// The accumulated system logfile (one line per event vector).
    #[must_use]
    pub fn logfile(&self) -> &[String] {
        &self.logfile
    }

    /// Appends a free-form note to the logfile — used by sibling daemons
    /// (e.g. StressLog announcing a re-characterization) so one logfile
    /// tells the whole story.
    pub fn log_note(&mut self, note: impl Into<String>) {
        self.logfile.push(note.into());
    }

    /// Corrected errors per minute over the policy's rate window ending
    /// at the latest vector.
    #[must_use]
    pub fn ce_rate_per_minute(&self) -> f64 {
        let Some(latest) = self.vectors.back() else { return 0.0 };
        let from = latest.at.saturating_sub(self.policy.rate_window);
        let mut ces = 0usize;
        let mut span = 0.0;
        for (v, &vector_ces) in self.vectors.iter().zip(&self.corrected_counts) {
            if v.at > from {
                ces += vector_ces;
                span += v.duration.as_secs();
            }
        }
        if span == 0.0 {
            0.0
        } else {
            ces as f64 * 60.0 / span
        }
    }

    /// Evaluates thresholds against the current state.
    #[must_use]
    pub fn recommendations(&self) -> Vec<HealthAction> {
        let mut actions = Vec::new();
        if self.ce_rate_per_minute() > self.policy.ce_per_minute {
            actions.push(HealthAction::TriggerStressTest);
        }
        actions.extend(self.hot_origins.iter().map(|&key| HealthAction::IsolateResource(key)));
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_platform::node::ServerNode;
    use uniserver_platform::part::PartSpec;
    use uniserver_platform::workload::WorkloadProfile;
    use uniserver_platform::msr::DomainId;

    fn run_clean(health: &mut HealthLog, intervals: usize) {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 3);
        let w = WorkloadProfile::spec_bzip2();
        for _ in 0..intervals {
            let report = node.run_interval(&w, Seconds::from_millis(500.0));
            health.ingest(&report);
        }
    }

    #[test]
    fn clean_operation_recommends_nothing() {
        let mut health = HealthLog::new(64, ThresholdPolicy::default());
        run_clean(&mut health, 20);
        assert!(health.recommendations().is_empty());
        assert_eq!(health.vectors().len(), 20);
        assert!(health.logfile().is_empty(), "clean intervals produce no log lines");
        assert_eq!(health.ce_rate_per_minute(), 0.0);
    }

    #[test]
    fn ring_buffer_caps_history() {
        let mut health = HealthLog::new(8, ThresholdPolicy::default());
        run_clean(&mut health, 20);
        assert_eq!(health.vectors().len(), 8);
        // The newest vector is retained.
        assert!((health.latest().unwrap().at.as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn error_storm_triggers_stress_test_and_isolation() {
        // Drive a node with a deeply relaxed refresh (ECC off) to rain
        // uncorrected DRAM errors.
        let mut node = ServerNode::with_memory(
            PartSpec::arm_microserver(),
            uniserver_platform::dram::MemorySystem::commodity_server(true),
            3,
        );
        node.msr.set_refresh_interval(DomainId(1), Seconds::new(10.0)).unwrap();
        let mut health = HealthLog::new(256, ThresholdPolicy {
            ce_per_minute: 5.0,
            isolate_origin_errors: 5,
            rate_window: Seconds::new(120.0),
        });
        let w = WorkloadProfile::spec_mcf();
        let mut actions = Vec::new();
        for _ in 0..40 {
            let report = node.run_interval(&w, Seconds::new(2.0));
            actions = health.ingest(&report);
            if !actions.is_empty() {
                break;
            }
        }
        assert!(
            actions.contains(&HealthAction::TriggerStressTest)
                || actions.iter().any(|a| matches!(a, HealthAction::IsolateResource(_))),
            "an error storm must trigger a recommendation; ledger total {}",
            health.ledger().grand_total()
        );
        assert!(!health.logfile().is_empty(), "events must hit the logfile");
    }

    #[test]
    fn query_range_selects_by_time() {
        let mut health = HealthLog::new(64, ThresholdPolicy::default());
        run_clean(&mut health, 10);
        let picked = health.query_range(Seconds::new(1.0), Seconds::new(3.0));
        assert_eq!(picked.len(), 4, "vectors at 1.0, 1.5, 2.0, 2.5");
    }

    #[test]
    fn shared_handle_is_usable_across_owners() {
        let shared = HealthLog::shared(16, ThresholdPolicy::default());
        let clone = Arc::clone(&shared);
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 9);
        let report = node.run_interval(&WorkloadProfile::idle(), Seconds::new(1.0));
        clone.lock().unwrap().ingest(&report);
        assert_eq!(shared.lock().unwrap().vectors().len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = HealthLog::new(0, ThresholdPolicy::default());
    }
}
