//! Information vectors: the HealthLog's unit of reporting.

use serde::{Deserialize, Serialize};
use uniserver_units::{Seconds, Watts};

use uniserver_platform::mca::MceRecord;
use uniserver_platform::node::IntervalReport;
use uniserver_platform::pmu::PmuCounters;
use uniserver_platform::sensors::SensorSnapshot;
use uniserver_silicon::ErrorSeverity;

/// System configuration values captured alongside each vector (the
/// paper extends existing error reporting "with system configuration
/// values, sensor readings and performance counters"). The per-core
/// supply voltages are the sensor sweep's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigValues {
    /// Mean node power over the captured interval.
    pub node_power: Watts,
}

/// One information vector: everything the HealthLog knows about one
/// interval of operation.
///
/// A vector built from a served interval
/// ([`uniserver_platform::node::ServerNode::serve_interval`]) carries no
/// counters, and carries a sensor sweep only if it is an event: on quiet
/// served intervals `sensors` is absent and `counters` is empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfoVector {
    /// End-of-interval timestamp.
    pub at: Seconds,
    /// Interval length.
    pub duration: Seconds,
    /// Configuration values.
    pub config: ConfigValues,
    /// Sensor sweep, including the measured per-core voltages.
    pub sensors: Option<SensorSnapshot>,
    /// Per-core performance-counter increments.
    pub counters: Vec<PmuCounters>,
    /// Error records raised during the interval.
    pub errors: Vec<MceRecord>,
    /// Whether the node crashed during the interval.
    pub crashed: bool,
}

impl InfoVector {
    /// Builds a vector from a platform interval report.
    #[must_use]
    pub fn from_report(report: &IntervalReport) -> Self {
        Self::from_owned_report(report.clone())
    }

    /// Builds a vector by consuming the report: sensors, counters and
    /// error records move in (no clones — at CE-storm rates the error
    /// vector alone is thousands of records per interval).
    #[must_use]
    pub fn from_owned_report(report: IntervalReport) -> Self {
        InfoVector {
            at: report.at,
            duration: report.duration,
            config: ConfigValues { node_power: report.power },
            sensors: report.sensors,
            counters: report.pmu_deltas,
            errors: report.errors,
            crashed: report.crash.is_some(),
        }
    }

    /// Number of corrected errors in the vector.
    #[must_use]
    pub fn corrected_count(&self) -> usize {
        self.errors.iter().filter(|e| e.severity == ErrorSeverity::Corrected).count()
    }

    /// Number of uncorrected errors in the vector.
    #[must_use]
    pub fn uncorrected_count(&self) -> usize {
        self.errors.iter().filter(|e| e.severity == ErrorSeverity::Uncorrected).count()
    }

    /// Whether the vector carries any error or crash (event-worthy).
    #[must_use]
    pub fn is_event(&self) -> bool {
        self.crashed || !self.errors.is_empty()
    }

    /// Renders the vector as one logfile line (the "system logfile" of
    /// §3.C): stable, grep-friendly key=value text. Writes into one
    /// buffer (no per-field temporaries — a CE-storm line carries one
    /// `err[...]` tag per record, and this renders on the serving hot
    /// path every event tick). The per-core voltages and the hottest
    /// core come from the sensor sweep; a vector without one (a quiet
    /// served interval, which is never logged) renders without them.
    #[must_use]
    pub fn render_logline(&self) -> String {
        use std::fmt::Write as _;

        let mut line = String::with_capacity(96 + 16 * self.errors.len());
        write!(
            line,
            "t={:.3} dur={:.3} power_w={:.2} ce={} ue={} crashed={}",
            self.at.as_secs(),
            self.duration.as_secs(),
            self.config.node_power.as_watts(),
            self.corrected_count(),
            self.uncorrected_count(),
            self.crashed,
        )
        .expect("writing to a String cannot fail");
        if let Some(sensors) = &self.sensors {
            for (i, v) in sensors.core_voltages.iter().enumerate() {
                write!(line, " v{}={:.0}mV", i, v.as_millivolts()).expect("infallible");
            }
            write!(line, " tmax={:.1}C", sensors.max_core_temp().as_celsius())
                .expect("infallible");
        }
        for e in &self.errors {
            write!(line, " err[{}@{}]", e.severity.label(), e.origin).expect("infallible");
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_platform::node::ServerNode;
    use uniserver_platform::part::PartSpec;
    use uniserver_platform::workload::WorkloadProfile;

    fn vector_from_run() -> InfoVector {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 5);
        let report = node.run_interval(&WorkloadProfile::spec_mcf(), Seconds::new(1.0));
        InfoVector::from_report(&report)
    }

    #[test]
    fn vector_mirrors_report_shape() {
        let v = vector_from_run();
        assert_eq!(v.counters.len(), 8);
        assert_eq!(v.sensors.as_ref().expect("run_interval samples").core_voltages.len(), 8);
        assert!(!v.crashed);
        assert!((v.at.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clean_interval_is_not_an_event() {
        let v = vector_from_run();
        assert!(!v.is_event());
        assert_eq!(v.corrected_count(), 0);
        assert_eq!(v.uncorrected_count(), 0);
    }

    #[test]
    fn logline_is_stable_and_greppable() {
        let v = vector_from_run();
        let line = v.render_logline();
        assert!(line.starts_with("t=1.000 dur=1.000"));
        assert!(line.contains("ce=0 ue=0 crashed=false"));
        assert!(line.contains("v0="));
        assert!(line.contains("tmax="));
    }

    #[test]
    fn error_records_appear_in_logline() {
        use uniserver_platform::mca::{ErrorOrigin, MceRecord};
        use uniserver_silicon::FaultKind;
        let mut v = vector_from_run();
        v.errors.push(MceRecord {
            at: v.at,
            kind: FaultKind::CacheBit,
            severity: ErrorSeverity::Corrected,
            origin: ErrorOrigin::CacheBank(2),
        });
        assert!(v.is_event());
        assert!(v.render_logline().contains("err[CE@l3bank2]"));
    }
}
