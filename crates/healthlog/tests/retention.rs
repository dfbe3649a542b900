//! Retention sized to the rate window is exact: a `HealthLog` that drops
//! vectors older than its CE-rate window and caches its hot origins must
//! report the same CE rate, ledger and actions as a reference that keeps
//! every vector and recomputes both from scratch after every ingest.

use std::sync::Arc;

use proptest::prelude::*;

use uniserver_healthlog::{ErrorLedger, HealthAction, HealthLog, InfoVector, ThresholdPolicy};
use uniserver_platform::mca::{ErrorOrigin, MceRecord};
use uniserver_platform::node::{CrashEvent, IntervalReport};
use uniserver_silicon::{ErrorSeverity, FaultKind};
use uniserver_units::{Seconds, Volts, Watts};

/// Keeps every vector and answers every query by a full re-scan.
struct Reference {
    vectors: Vec<InfoVector>,
    ledger: ErrorLedger,
    policy: ThresholdPolicy,
}

impl Reference {
    fn ingest(&mut self, report: &IntervalReport) -> Vec<HealthAction> {
        let vector = InfoVector::from_report(report);
        for err in &vector.errors {
            self.ledger.record(err);
        }
        self.vectors.push(vector);
        let mut actions = Vec::new();
        if self.ce_rate_per_minute() > self.policy.ce_per_minute {
            actions.push(HealthAction::TriggerStressTest);
        }
        for (key, _) in self.ledger.hot_origins(self.policy.isolate_origin_errors) {
            actions.push(HealthAction::IsolateResource(key));
        }
        actions
    }

    fn window_start(&self) -> Seconds {
        self.vectors.last().expect("ingested").at.saturating_sub(self.policy.rate_window)
    }

    fn ce_rate_per_minute(&self) -> f64 {
        let from = self.window_start();
        let (mut ces, mut span) = (0usize, 0.0);
        for v in self.vectors.iter().filter(|v| v.at > from) {
            ces += v.corrected_count();
            span += v.duration.as_secs();
        }
        if span == 0.0 {
            0.0
        } else {
            ces as f64 * 60.0 / span
        }
    }
}

/// One served interval ending at `at`, chosen by `kind`: quiet, a CE
/// burst on a cache bank or a DIMM, UE records on a DIMM, or a crash
/// with its fatal record.
fn interval(at: Seconds, duration: Seconds, kind: u64, burst: u64, origin: usize) -> IntervalReport {
    let record = |kind, severity, origin| MceRecord { at, kind, severity, origin };
    let mut errors = Vec::new();
    let mut crash = None;
    match kind {
        0..=54 => {}
        55..=69 => {
            let bank = ErrorOrigin::CacheBank(origin);
            errors.extend((0..burst).map(|_| record(FaultKind::CacheBit, ErrorSeverity::Corrected, bank)));
        }
        70..=79 => errors.extend((0..burst).map(|word| {
            let dimm = ErrorOrigin::Dimm { dimm: origin % 4, word };
            record(FaultKind::DramBit, ErrorSeverity::Corrected, dimm)
        })),
        80..=91 => errors.extend((0..burst.div_ceil(8)).map(|word| {
            let dimm = ErrorOrigin::Dimm { dimm: origin % 4, word };
            record(FaultKind::DramBit, ErrorSeverity::Uncorrected, dimm)
        })),
        _ => {
            let core = origin % 8;
            crash = Some(CrashEvent { core, at, voltage: Volts::new(0.8), workload: Arc::from("stream") });
            errors.push(record(FaultKind::CoreLogic, ErrorSeverity::Fatal, ErrorOrigin::Core(core)));
        }
    }
    let power = Watts::new(40.0);
    IntervalReport {
        at,
        duration,
        crash,
        errors,
        sensors: None,
        pmu_deltas: Vec::new(),
        power,
        energy: power * duration,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn windowed_retention_matches_a_keep_everything_reference(
        durations in proptest::collection::vec(0.1f64..10.0, 1..300),
        kinds in proptest::collection::vec(0u64..100, 300..301),
        bursts in proptest::collection::vec(1u64..60, 300..301),
        origins in proptest::collection::vec(0usize..12, 300..301),
        ce_per_minute in 1.0f64..120.0,
        isolate_origin_errors in 1u64..80,
        window_s in 5.0f64..120.0,
    ) {
        let policy = ThresholdPolicy {
            ce_per_minute,
            isolate_origin_errors,
            rate_window: Seconds::new(window_s),
        };
        let mut health = HealthLog::new(4_096, policy);
        let mut reference = Reference { vectors: Vec::new(), ledger: ErrorLedger::new(), policy };
        let mut clock = Seconds::ZERO;
        for (i, &secs) in durations.iter().enumerate() {
            let duration = Seconds::new(secs);
            clock = clock + duration;
            let report = interval(clock, duration, kinds[i], bursts[i], origins[i]);
            let actions = health.ingest(&report);
            prop_assert_eq!(&actions, &reference.ingest(&report));
            prop_assert_eq!(&health.recommendations(), &actions);
            prop_assert_eq!(
                health.ce_rate_per_minute().to_bits(),
                reference.ce_rate_per_minute().to_bits()
            );
            prop_assert_eq!(health.ledger(), &reference.ledger);
            // Retained: exactly the window's vectors, which always
            // include the latest (every duration is positive).
            let from = reference.window_start();
            let window: Vec<&InfoVector> = reference.vectors.iter().filter(|v| v.at > from).collect();
            prop_assert_eq!(health.vectors().iter().collect::<Vec<_>>(), window);
        }
        let events = reference.vectors.iter().filter(|v| v.is_event()).count();
        prop_assert_eq!(health.logfile().len(), events);
    }
}
