//! Lockstep of the interval entry points: a node that takes a
//! `probe_interval` must end up exactly where a clone that took the full
//! `run_interval` does — same crash and CE verdict, same MCA banks, crash
//! feed, DIMM counters and clock, and the same reports from then on. A
//! node that takes `serve_interval` must do the same, and report the
//! full run's crash, errors, power and energy, and its sensor sweep on
//! every event interval.

use proptest::prelude::*;

use uniserver_platform::msr::DomainId;
use uniserver_platform::node::{IntervalReport, ServerNode};
use uniserver_platform::part::PartSpec;
use uniserver_platform::workload::WorkloadProfile;
use uniserver_silicon::{ErrorSeverity, FaultKind};
use uniserver_units::Seconds;

/// Cache CEs in a report, counted the way the shmoo ladder counted them
/// before it switched to the probe.
fn cache_ces(report: &IntervalReport) -> u64 {
    report
        .errors
        .iter()
        .filter(|e| e.kind == FaultKind::CacheBit && e.severity == ErrorSeverity::Corrected)
        .count() as u64
}

/// Writes the per-core undervolt offsets (firmware clears them on reboot).
fn apply_offsets(node: &mut ServerNode, offsets_mv: &[f64]) {
    for (core, &mv) in offsets_mv.iter().enumerate() {
        node.msr.set_voltage_offset(core, mv).expect("offset within the MSR limit");
    }
}

fn assert_same_state(a: &ServerNode, b: &ServerNode) {
    assert_eq!(a.mca(), b.mca(), "MCA banks diverged");
    assert_eq!(a.pending_crashes(), b.pending_crashes(), "crash feed diverged");
    assert_eq!(a.memory.dimms(), b.memory.dimms(), "DIMM counters diverged");
    assert_eq!(a.now(), b.now(), "clocks diverged");
    assert_eq!(a.is_crashed(), b.is_crashed());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn probe_interval_stays_in_lockstep_with_run_interval(
        part in 0usize..3,
        seed: u64,
        depth in 0.0f64..1.0,
        fractions in proptest::collection::vec(0.0f64..1.0, 8..9),
        isolated_mask: u8,
        age_months in 0.0f64..60.0,
        workload in 0usize..8,
        dwell_ms in 100.0f64..1000.0,
        relaxed_refresh_s in 0.064f64..5.0,
    ) {
        let parts = [PartSpec::arm_microserver(), PartSpec::i5_4200u(), PartSpec::i7_3970x()];
        let mut base = ServerNode::new(parts[part].clone(), seed);
        // Per-core offsets up to `depth` of the deepest point a shmoo
        // visits (the crash region sits around 8–16 % of nominal).
        let reach_mv = base.msr.offset_limit_mv().min(base.part().offset_mv(0.18)) * depth;
        let offsets: Vec<f64> = fractions[..base.core_count()].iter().map(|f| f * reach_mv).collect();
        for core in 0..base.core_count() {
            if isolated_mask & (1 << core) != 0 {
                base.isolate_core(core);
            }
        }
        base.age_by_months(age_months);
        base.msr.set_refresh_interval(DomainId(1), Seconds::new(relaxed_refresh_s)).unwrap();
        apply_offsets(&mut base, &offsets);
        let w = WorkloadProfile::spec2006_subset().swap_remove(workload);
        let dwell = Seconds::from_millis(dwell_ms);

        let (mut ran, mut probed) = (base.clone(), base);
        for _ in 0..6 {
            let report = ran.run_interval(&w, dwell);
            let probe = probed.probe_interval(&w, dwell);
            prop_assert_eq!(probe.crashed, report.crash.is_some());
            prop_assert_eq!(probe.cache_ces, cache_ces(&report));
            assert_same_state(&ran, &probed);
            if probe.crashed {
                ran.reboot();
                probed.reboot();
                apply_offsets(&mut ran, &offsets);
                apply_offsets(&mut probed, &offsets);
            }
        }
        // From here on both copies must produce identical full reports.
        for _ in 0..3 {
            let (ra, rb) = (ran.run_interval(&w, dwell), probed.run_interval(&w, dwell));
            prop_assert_eq!(&ra, &rb);
            if ra.crash.is_some() {
                ran.reboot();
                probed.reboot();
            }
        }
        assert_same_state(&ran, &probed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn serve_interval_stays_in_lockstep_with_run_interval(
        part in 0usize..3,
        seed: u64,
        depth in 0.0f64..1.0,
        fractions in proptest::collection::vec(0.0f64..1.0, 8..9),
        isolated_mask: u8,
        age_months in 0.0f64..60.0,
        workload in 0usize..8,
        dwell_ms in 100.0f64..1000.0,
        relaxed_refresh_s in 0.064f64..5.0,
    ) {
        let parts = [PartSpec::arm_microserver(), PartSpec::i5_4200u(), PartSpec::i7_3970x()];
        let mut base = ServerNode::new(parts[part].clone(), seed);
        let reach_mv = base.msr.offset_limit_mv().min(base.part().offset_mv(0.18)) * depth;
        let offsets: Vec<f64> = fractions[..base.core_count()].iter().map(|f| f * reach_mv).collect();
        for core in 0..base.core_count() {
            if isolated_mask & (1 << core) != 0 {
                base.isolate_core(core);
            }
        }
        base.age_by_months(age_months);
        base.msr.set_refresh_interval(DomainId(1), Seconds::new(relaxed_refresh_s)).unwrap();
        apply_offsets(&mut base, &offsets);
        let w = WorkloadProfile::spec2006_subset().swap_remove(workload);
        let dwell = Seconds::from_millis(dwell_ms);

        let (mut ran, mut served) = (base.clone(), base);
        for _ in 0..6 {
            let full = ran.run_interval(&w, dwell);
            let lean = served.serve_interval(&w, dwell);
            prop_assert_eq!(&lean.crash, &full.crash);
            prop_assert_eq!(&lean.errors, &full.errors);
            prop_assert_eq!(lean.power, full.power);
            prop_assert_eq!(lean.energy, full.energy);
            prop_assert_eq!(lean.at, full.at);
            prop_assert!(lean.pmu_deltas.is_empty(), "serve_interval builds no PMU deltas");
            if full.crash.is_some() || !full.errors.is_empty() {
                prop_assert_eq!(&lean.sensors, &full.sensors, "event intervals carry the sweep");
            } else {
                prop_assert!(lean.sensors.is_none(), "quiet intervals skip the sweep");
            }
            assert_same_state(&ran, &served);
            if full.crash.is_some() {
                ran.reboot();
                served.reboot();
                apply_offsets(&mut ran, &offsets);
                apply_offsets(&mut served, &offsets);
            }
        }
        for _ in 0..3 {
            let (ra, rb) = (ran.run_interval(&w, dwell), served.run_interval(&w, dwell));
            prop_assert_eq!(&ra, &rb);
            if ra.crash.is_some() {
                ran.reboot();
                served.reboot();
            }
        }
        assert_same_state(&ran, &served);
    }
}
