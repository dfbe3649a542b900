//! The assembled server node.
//!
//! A [`ServerNode`] binds a manufactured chip instance (sampled from the
//! part's variation model) to the MSR control plane, cache and memory
//! subsystems, sensors, PMU and machine-check banks, and advances them in
//! discrete intervals. The stress campaigns, daemons and hypervisor all
//! drive nodes exclusively through this interface — the same observables
//! the paper's stack gets from real hardware.
//!
//! One interval kernel serves two entry points. [`ServerNode::run_interval`]
//! returns the full [`IntervalReport`] (sensor sweep, PMU deltas, power).
//! [`ServerNode::probe_interval`] returns only a [`Probe`] — whether the
//! node crashed and how many cache CEs it corrected — which is all a
//! shmoo ladder reads. Both run the same physics and finish steps. The
//! probe still consumes the sensor sweep's noise draws, but never
//! transforms them or builds the snapshot, the PMU deltas or the report.
//! PMU deltas are a pure function of the workload and the interval, so
//! skipping them changes nothing. The RNG, the MCA banks, the DIMM
//! counters, the crash feed and the clock therefore end up exactly where
//! `run_interval` would leave them, so swapping one call for the other
//! changes no later draw.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use uniserver_units::{Celsius, Joules, Seconds, Volts, Watts};

use uniserver_silicon::aging::AgingModel;
use uniserver_silicon::rng::bernoulli;
use uniserver_silicon::variation::ChipProfile;
use uniserver_silicon::{ErrorSeverity, FaultKind};

use crate::cache::CacheSubsystem;
use crate::dram::MemorySystem;
use crate::mca::{ErrorOrigin, McaBanks, MceRecord};
use crate::msr::MsrFile;
use crate::part::PartSpec;
use crate::pmu::PmuCounters;
use crate::sensors::{SensorBlock, SensorSnapshot};
use crate::workload::WorkloadProfile;

/// A node crash: which core went down, when, and at what voltage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// Core whose logic failed first.
    pub core: usize,
    /// Simulation time of the crash.
    pub at: Seconds,
    /// Effective supply voltage at the moment of the crash.
    pub voltage: Volts,
    /// Name of the workload running (shared with the profile — building
    /// a crash record never allocates).
    pub workload: Arc<str>,
}

/// Everything observed during one simulated interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalReport {
    /// Simulation time at the *end* of the interval.
    pub at: Seconds,
    /// Interval length.
    pub duration: Seconds,
    /// A crash, if one occurred (the interval still reports telemetry up
    /// to the crash).
    pub crash: Option<CrashEvent>,
    /// Machine-check records raised during the interval.
    pub errors: Vec<MceRecord>,
    /// Noisy sensor sweep taken at the end of the interval.
    pub sensors: SensorSnapshot,
    /// Per-core PMU increments for the interval.
    pub pmu_deltas: Vec<PmuCounters>,
    /// Mean node power over the interval (cores + DRAM).
    pub power: Watts,
    /// Energy consumed over the interval.
    pub energy: Joules,
}

/// What [`ServerNode::probe_interval`] reports: the two facts a shmoo
/// ladder reads from an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Whether the interval crashed the node.
    pub crashed: bool,
    /// Cache corrected errors (`CacheBit`, `Corrected`) the interval
    /// logged — the count of such records in the matching
    /// [`IntervalReport::errors`].
    pub cache_ces: u64,
}

/// Outcome of the shared physics step, before the interval is finished.
struct Physics {
    crash: Option<CrashEvent>,
    cache_ces: u64,
    package: Watts,
}

/// Memo key of one core's power: the bit patterns of its effective
/// voltage, activity and temperature estimate.
type PowerKey = [u64; 3];

/// State of one core within a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct CoreState {
    /// Manufactured fractional Vmin weakness (chip + core).
    weakness: f64,
    /// Isolated cores neither run work nor crash the node.
    isolated: bool,
}

/// The simulated server node.
#[derive(Debug, Clone)]
pub struct ServerNode {
    spec: PartSpec,
    chip: ChipProfile,
    /// Software-visible control registers.
    pub msr: MsrFile,
    cores: Vec<CoreState>,
    cache: CacheSubsystem,
    /// The memory subsystem (public: the hypervisor manages domains).
    pub memory: MemorySystem,
    sensors: SensorBlock,
    mca: McaBanks,
    clock: Seconds,
    crashed: bool,
    reboots: u64,
    /// Crash events since the last drain — the cluster orchestrator's
    /// failure feed. Bounded: a crash halts the node until reboot, the
    /// hypervisor drains the feed when it recovers the crash, and the
    /// StressLog drains its own intentional characterization crashes.
    pending_crashes: Vec<CrashEvent>,
    aging: AgingModel,
    age_months: f64,
    rng: StdRng,
    /// The seed the node was manufactured from (daemons derive their own
    /// per-node sub-streams from it).
    seed: u64,
    /// Scratch buffers reused across intervals so the serving tick does
    /// not re-allocate per-core power/voltage vectors every call.
    scratch_powers: Vec<Watts>,
    scratch_voltages: Vec<Volts>,
    /// Per-core power memo: the last [`PowerKey`] and the `Watts`
    /// [`uniserver_silicon::power::CorePowerModel::total`] computed for
    /// it. Every other input of that call is fixed for the node's
    /// lifetime, so a hit returns the exact value a recomputation would.
    power_memo: Vec<Option<(PowerKey, Watts)>>,
}

impl ServerNode {
    /// Manufactures a node: samples a chip from the part's variation
    /// model (deterministically from `seed`) and assembles the
    /// subsystems. DRAM ECC is enabled — the production configuration;
    /// characterization experiments that need ECC off build their memory
    /// system explicitly via [`ServerNode::with_memory`].
    #[must_use]
    pub fn new(spec: PartSpec, seed: u64) -> Self {
        Self::with_memory(spec, MemorySystem::commodity_server(true), seed)
    }

    /// Quiet-workload crash margin (fraction of nominal voltage) a chip
    /// must hold on its weakest core to ship. Dice below this would
    /// crash at stock settings once workload stress and service aging
    /// eat into the margin — manufacturers discard them with the
    /// binning rejects (Figure 1's lost yield), so server fleets never
    /// see them.
    const SHIP_QUIET_MARGIN: f64 = 0.05;

    /// Manufactures a node with an explicit memory system.
    #[must_use]
    pub fn with_memory(spec: PartSpec, memory: MemorySystem, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Manufacturing screening: resample rejects (rare tail dice)
        // from the same stream, so shippable first draws consume exactly
        // the RNG they always did.
        let mut chip = spec.variation.sample_chip(seed, spec.cores, spec.cache_banks, &mut rng);
        for _ in 0..32 {
            let margin = spec.vmin.base_crash_offset
                - spec.vmin.core_gain * chip.worst_core_vmin_offset();
            if margin >= Self::SHIP_QUIET_MARGIN {
                break;
            }
            chip = spec.variation.sample_chip(seed, spec.cores, spec.cache_banks, &mut rng);
        }
        let cores = (0..spec.cores)
            .map(|c| CoreState { weakness: chip.core_vmin_offset(c), isolated: false })
            .collect();
        let cache = CacheSubsystem::from_chip(&chip);
        let msr = MsrFile::new(spec.nominal_voltage, spec.cores, memory.domains().len().max(1));
        let power_memo = vec![None; spec.cores];
        ServerNode {
            spec,
            chip,
            msr,
            cores,
            cache,
            memory,
            sensors: SensorBlock::server_room(),
            mca: McaBanks::default(),
            clock: Seconds::ZERO,
            crashed: false,
            reboots: 0,
            pending_crashes: Vec::new(),
            aging: AgingModel::typical_nbti(),
            age_months: 0.0,
            rng,
            seed,
            scratch_powers: Vec::new(),
            scratch_voltages: Vec::new(),
            power_memo,
        }
    }

    /// The seed this node's silicon was manufactured from. Daemons that
    /// need per-node randomness (e.g. the StressLog's DRAM sweep) derive
    /// their streams from this, so distinct nodes of the same part get
    /// distinct draws.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the ambient (inlet) temperature the node's sensors reference
    /// — the fleet driver's per-node ambient spread knob.
    pub fn set_ambient(&mut self, ambient: Celsius) {
        self.sensors.ambient = ambient;
    }

    /// The current ambient (inlet) temperature.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.sensors.ambient
    }

    /// The part specification of this node.
    #[must_use]
    pub fn part(&self) -> &PartSpec {
        &self.spec
    }

    /// The manufactured chip identity (what characterization discovers).
    #[must_use]
    pub fn chip(&self) -> &ChipProfile {
        &self.chip
    }

    /// Number of cores on the node.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Whether the node is currently down.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Times the node has been rebooted.
    #[must_use]
    pub fn reboots(&self) -> u64 {
        self.reboots
    }

    /// Crash events recorded since the last drain (read-only view).
    #[must_use]
    pub fn pending_crashes(&self) -> &[CrashEvent] {
        &self.pending_crashes
    }

    /// Drains the crash events recorded since the last drain — how the
    /// cluster orchestrator learns *which* core failed, at what voltage
    /// and under which workload, rather than just "the node went down".
    pub fn take_crash_events(&mut self) -> Vec<CrashEvent> {
        std::mem::take(&mut self.pending_crashes)
    }

    /// Ages the silicon by `months` of deployment: NBTI-style drift
    /// raises every core's Vmin, eroding characterized margins — the
    /// reason StressLog re-runs "several times over the lifetime of a
    /// server" (§3.D).
    ///
    /// # Panics
    ///
    /// Panics if `months` is negative.
    pub fn age_by_months(&mut self, months: f64) {
        assert!(months >= 0.0, "cannot rejuvenate silicon");
        self.age_months += months;
    }

    /// Accumulated deployment age in months.
    #[must_use]
    pub fn age_months(&self) -> f64 {
        self.age_months
    }

    /// The aging-induced Vmin drift at the current age, as a fraction of
    /// nominal voltage (added to every core's manufactured weakness).
    #[must_use]
    pub fn aging_weakness(&self) -> f64 {
        self.aging.drift_mv(self.age_months) / self.spec.nominal_voltage.as_millivolts()
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.clock
    }

    /// The machine-check banks (for daemons to drain).
    pub fn mca_mut(&mut self) -> &mut McaBanks {
        &mut self.mca
    }

    /// Read-only machine-check banks.
    #[must_use]
    pub fn mca(&self) -> &McaBanks {
        &self.mca
    }

    /// Marks a core as isolated: it stops running work and stops being
    /// able to crash the node (the hypervisor's containment action).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn isolate_core(&mut self, core: usize) {
        self.cores[core].isolated = true;
    }

    /// Returns an isolated core to service.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn restore_core(&mut self, core: usize) {
        self.cores[core].isolated = false;
    }

    /// Whether a core is isolated.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn is_isolated(&self, core: usize) -> bool {
        self.cores[core].isolated
    }

    /// Cache subsystem view.
    #[must_use]
    pub fn cache(&self) -> &CacheSubsystem {
        &self.cache
    }

    /// Mutable cache subsystem (for isolation decisions).
    pub fn cache_mut(&mut self) -> &mut CacheSubsystem {
        &mut self.cache
    }

    /// Reboots a crashed node at *nominal* settings (undervolt offsets
    /// are cleared by firmware on the way up, exactly like a real
    /// machine coming back from a crash).
    pub fn reboot(&mut self) {
        if self.crashed {
            self.reboots += 1;
        }
        self.crashed = false;
        self.msr
            .set_voltage_offset_all(0.0)
            .expect("zero offset is always within limits");
    }

    /// Runs the node for one interval of `workload` on all active cores.
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed (call [`ServerNode::reboot`] first)
    /// or `duration` is zero.
    pub fn run_interval(&mut self, workload: &WorkloadProfile, duration: Seconds) -> IntervalReport {
        let mut errors = Vec::new();
        let physics = self.step_physics(workload, duration, &mut errors);
        let frequency = self.spec.nominal_frequency;
        let pmu_deltas = self
            .cores
            .iter()
            .map(|core| {
                if core.isolated {
                    PmuCounters::new()
                } else {
                    PmuCounters::new().advance(workload, frequency, duration)
                }
            })
            .collect();
        let sensors = self.sensors.sample(&self.scratch_powers, &self.scratch_voltages, &mut self.rng);
        self.finish_interval(physics.crash.as_ref(), &mut errors, duration);
        IntervalReport {
            at: self.clock,
            duration,
            crash: physics.crash,
            errors,
            sensors,
            pmu_deltas,
            power: physics.package,
            energy: physics.package * duration,
        }
    }

    /// Runs one interval exactly like [`ServerNode::run_interval`] but
    /// reports only whether it crashed and how many cache CEs it logged —
    /// the shmoo ladder's view of a dwell step.
    ///
    /// Every piece of node state advances as `run_interval` would
    /// advance it: MCA records are posted, a crash is fed and halts the
    /// node, the clock moves, and the sensor sweep's noise draws are
    /// consumed ([`SensorBlock::skip_sample`]). Only the snapshot, the
    /// PMU deltas and the report are never built, so a node that probes
    /// and a clone that runs stay in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed (call [`ServerNode::reboot`] first)
    /// or `duration` is zero.
    pub fn probe_interval(&mut self, workload: &WorkloadProfile, duration: Seconds) -> Probe {
        let mut errors = Vec::new();
        let physics = self.step_physics(workload, duration, &mut errors);
        self.sensors.skip_sample(&self.scratch_powers, &mut self.rng);
        self.finish_interval(physics.crash.as_ref(), &mut errors, duration);
        Probe { crashed: physics.crash.is_some(), cache_ces: physics.cache_ces }
    }

    /// The physics step shared by both interval entry points: core crash
    /// draws, cache-bank CEs, per-core power (into the scratch buffers)
    /// and DRAM retention errors. MCE records are appended to `errors`.
    fn step_physics(
        &mut self,
        workload: &WorkloadProfile,
        duration: Seconds,
        errors: &mut Vec<MceRecord>,
    ) -> Physics {
        assert!(!self.crashed, "node is crashed; call reboot() before running");
        assert!(duration.as_secs() > 0.0, "interval must be positive");

        let stress = workload.stress_scalar(&self.spec.pdn);
        let nominal = self.spec.nominal_voltage;
        let at = self.clock + duration;
        let aging = self.aging_weakness();
        let mut crash: Option<CrashEvent> = None;

        // --- Core logic: sample per-run crash voltages, check for crash.
        let mut min_active_voltage = nominal;
        let mut crash_reference = Volts::ZERO;
        let mut active = 0usize;
        for (idx, core) in self.cores.iter().enumerate() {
            if core.isolated {
                continue;
            }
            active += 1;
            let v = self.msr.effective_voltage(idx);
            min_active_voltage = min_active_voltage.min(v);
            let crash_v =
                self.spec.vmin.crash_voltage(nominal, core.weakness + aging, stress, &mut self.rng);
            crash_reference = crash_reference.max(crash_v);
            let p = self.spec.vmin.crash_probability(v, crash_v);
            if crash.is_none() && bernoulli(&mut self.rng, p) {
                crash = Some(CrashEvent { core: idx, at, voltage: v, workload: workload.name.clone() });
            }
        }
        if active == 0 {
            // A fully isolated node idles; nothing can crash it.
            crash_reference = nominal.scaled(1.0 - self.spec.vmin.base_crash_offset);
        }

        // --- Cache banks: corrected errors in the onset window.
        let mut cache_ces = 0u64;
        for sample in
            self.cache.sample_interval(min_active_voltage, nominal, crash_reference, &self.spec.vmin, &mut self.rng)
        {
            cache_ces += sample.corrected;
            for _ in 0..sample.corrected {
                errors.push(MceRecord {
                    at,
                    kind: FaultKind::CacheBit,
                    severity: ErrorSeverity::Corrected,
                    origin: ErrorOrigin::CacheBank(sample.bank),
                });
            }
        }

        // --- Power & thermals, into the node's scratch buffers (the
        // serving tick reuses them every interval instead of
        // re-allocating). A core's operating point mostly repeats from
        // one interval to the next: on the perfbench `flat-1k` and
        // `gray-consolidate` racks, 85 % of the per-core power calls in
        // shmoo steps and 97 % in serve ticks hit the power memo.
        let temp_estimate = self.sensors.true_core_temp(Watts::new(5.0)); // first-order estimate
        self.scratch_powers.clear();
        self.scratch_voltages.clear();
        for (idx, core) in self.cores.iter().enumerate() {
            let v = self.msr.effective_voltage(idx);
            let activity = if core.isolated { 0.02 } else { workload.activity };
            let key = [v.as_volts().to_bits(), activity.to_bits(), temp_estimate.as_celsius().to_bits()];
            let p = match self.power_memo[idx] {
                Some((memo_key, p)) if memo_key == key => p,
                _ => {
                    let p = self.spec.power.total(
                        v,
                        self.spec.nominal_frequency,
                        activity,
                        temp_estimate,
                        nominal,
                        self.chip.leakage_factor,
                    );
                    self.power_memo[idx] = Some((key, p));
                    p
                }
            };
            self.scratch_powers.push(p);
            self.scratch_voltages.push(v);
        }
        let dram_power = self.memory.power(&self.msr, workload.mem_bw_util);
        let package: Watts = self.scratch_powers.iter().fold(Watts::ZERO, |a, b| a + *b) + dram_power;

        // --- DRAM retention errors at the current refresh settings.
        let dimm_temp = self.sensors.true_dimm_temp(package);
        let touch = (workload.mem_bw_util * 0.8 + 0.02).min(1.0);
        self.memory.step_errors_into(&self.msr, dimm_temp, duration, at, touch, &mut self.rng, errors);

        Physics { crash, cache_ces, package }
    }

    /// The finish step shared by both interval entry points: a crash
    /// posts a fatal record, halts the node and joins the crash feed;
    /// every record is posted to the MCA banks; the clock advances.
    fn finish_interval(&mut self, crash: Option<&CrashEvent>, errors: &mut Vec<MceRecord>, duration: Seconds) {
        if let Some(ev) = crash {
            errors.push(MceRecord {
                at: ev.at,
                kind: FaultKind::CoreLogic,
                severity: ErrorSeverity::Fatal,
                origin: ErrorOrigin::Core(ev.core),
            });
            self.crashed = true;
            self.pending_crashes.push(ev.clone());
        }
        for rec in errors.iter() {
            self.mca.post(*rec);
        }
        self.clock = self.clock + duration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> ServerNode {
        ServerNode::new(PartSpec::arm_microserver(), 7)
    }

    #[test]
    fn nominal_operation_is_stable_and_clean() {
        let mut n = node();
        let w = WorkloadProfile::spec_bzip2();
        for _ in 0..50 {
            let r = n.run_interval(&w, Seconds::from_millis(200.0));
            assert!(r.crash.is_none(), "crash at nominal settings");
            assert!(r.errors.is_empty(), "errors at nominal settings: {:?}", r.errors);
        }
        assert!((n.now().as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deep_undervolt_crashes_quickly() {
        let mut n = node();
        // 20 % below nominal is well past the ~13 % crash point.
        let off = n.part().offset_mv(0.20);
        n.msr.set_voltage_offset_all(off).unwrap();
        let w = WorkloadProfile::spec_zeusmp();
        let mut crashed = false;
        for _ in 0..20 {
            if n.run_interval(&w, Seconds::from_millis(100.0)).crash.is_some() {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "a 20 % undervolt must crash");
        assert!(n.is_crashed());
        assert_eq!(n.mca().fatal_total(), 1);
    }

    #[test]
    #[should_panic(expected = "call reboot()")]
    fn running_a_crashed_node_panics() {
        let mut n = node();
        n.msr.set_voltage_offset_all(n.part().offset_mv(0.25)).unwrap();
        let w = WorkloadProfile::spec_zeusmp();
        for _ in 0..200 {
            n.run_interval(&w, Seconds::from_millis(100.0));
        }
    }

    #[test]
    fn reboot_restores_nominal_settings() {
        let mut n = node();
        n.msr.set_voltage_offset_all(n.part().offset_mv(0.25)).unwrap();
        let w = WorkloadProfile::spec_zeusmp();
        while n.run_interval(&w, Seconds::from_millis(100.0)).crash.is_none() {}
        n.reboot();
        assert!(!n.is_crashed());
        assert_eq!(n.reboots(), 1);
        assert_eq!(n.msr.voltage_offset_mv(0), 0.0, "firmware clears offsets");
        // And it runs again.
        let r = n.run_interval(&w, Seconds::from_millis(100.0));
        assert!(r.crash.is_none());
    }

    #[test]
    fn crash_events_are_surfaced_and_drained() {
        let mut n = node();
        assert!(n.pending_crashes().is_empty());
        n.msr.set_voltage_offset_all(n.part().offset_mv(0.22)).unwrap();
        let w = WorkloadProfile::spec_zeusmp();
        while n.run_interval(&w, Seconds::from_millis(100.0)).crash.is_none() {}
        assert_eq!(n.pending_crashes().len(), 1, "one crash, one surfaced event");
        let events = n.take_crash_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].workload.as_ref(), w.name.as_ref());
        assert!(n.pending_crashes().is_empty(), "drain empties the feed");
        // Reboot + clean running adds nothing.
        n.reboot();
        let r = n.run_interval(&w, Seconds::from_millis(100.0));
        if r.crash.is_none() {
            assert!(n.pending_crashes().is_empty());
        }
    }

    #[test]
    fn moderate_undervolt_saves_power() {
        let mut a = ServerNode::new(PartSpec::arm_microserver(), 7);
        let mut b = ServerNode::new(PartSpec::arm_microserver(), 7);
        b.msr.set_voltage_offset_all(b.part().offset_mv(0.08)).unwrap();
        let w = WorkloadProfile::spec_hmmer();
        let pa = a.run_interval(&w, Seconds::new(1.0)).power;
        let pb = b.run_interval(&w, Seconds::new(1.0)).power;
        assert!(
            pb.as_watts() < pa.as_watts() * 0.95,
            "8 % undervolt should save ≥5 % power ({pb} vs {pa})"
        );
    }

    #[test]
    fn isolated_cores_do_not_crash_the_node() {
        let mut n = node();
        // Undervolt only core 0 deep into its crash region, then isolate it.
        n.msr.set_voltage_offset(0, n.part().offset_mv(0.22)).unwrap();
        n.isolate_core(0);
        let w = WorkloadProfile::spec_zeusmp();
        for _ in 0..50 {
            let r = n.run_interval(&w, Seconds::from_millis(100.0));
            assert!(r.crash.is_none(), "isolated core crashed the node");
        }
        assert!(n.is_isolated(0));
        // Its PMU stays frozen.
        assert_eq!(n.run_interval(&w, Seconds::from_millis(100.0)).pmu_deltas[0], PmuCounters::new());
    }

    #[test]
    fn interval_report_is_internally_consistent() {
        let mut n = node();
        let w = WorkloadProfile::spec_mcf();
        let r = n.run_interval(&w, Seconds::new(2.0));
        assert_eq!(r.at, Seconds::new(2.0));
        assert_eq!(r.pmu_deltas.len(), n.core_count());
        assert!((r.energy.as_joules() - r.power.as_watts() * 2.0).abs() < 1e-9);
        assert_eq!(r.sensors.core_temps.len(), n.core_count());
    }

    #[test]
    fn same_seed_same_behaviour() {
        let mut a = ServerNode::new(PartSpec::i7_3970x(), 123);
        let mut b = ServerNode::new(PartSpec::i7_3970x(), 123);
        let w = WorkloadProfile::spec_milc();
        for _ in 0..10 {
            let ra = a.run_interval(&w, Seconds::from_millis(250.0));
            let rb = b.run_interval(&w, Seconds::from_millis(250.0));
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn aging_erodes_margins() {
        // A fresh node survives a mid-depth undervolt; after years of
        // drift the same operating point crashes.
        let offset_fraction = 0.105;
        let w = WorkloadProfile::spec_bzip2();

        // Chip seed 4 draws a strong die under the workspace RNG: the
        // fresh part holds a >10.5 % margin, so any crash delta is pure
        // aging drift (a weak draw saturates both counters at the cap).
        let mut fresh = ServerNode::new(PartSpec::arm_microserver(), 4);
        fresh.msr.set_voltage_offset_all(fresh.part().offset_mv(offset_fraction)).unwrap();
        let mut fresh_crashes = 0;
        for _ in 0..60 {
            if fresh.run_interval(&w, Seconds::from_millis(250.0)).crash.is_some() {
                fresh_crashes += 1;
                fresh.reboot();
                fresh.msr.set_voltage_offset_all(fresh.part().offset_mv(offset_fraction)).unwrap();
            }
        }

        let mut aged = ServerNode::new(PartSpec::arm_microserver(), 4);
        aged.age_by_months(48.0);
        assert!(aged.aging_weakness() > 0.02, "4-year drift {:.4}", aged.aging_weakness());
        aged.msr.set_voltage_offset_all(aged.part().offset_mv(offset_fraction)).unwrap();
        let mut aged_crashes = 0;
        for _ in 0..60 {
            if aged.run_interval(&w, Seconds::from_millis(250.0)).crash.is_some() {
                aged_crashes += 1;
                aged.reboot();
                aged.msr.set_voltage_offset_all(aged.part().offset_mv(offset_fraction)).unwrap();
            }
        }
        assert!(
            aged_crashes > fresh_crashes,
            "aged part must crash more at the same point ({aged_crashes} vs {fresh_crashes})"
        );
    }

    #[test]
    #[should_panic(expected = "rejuvenate")]
    fn negative_aging_panics() {
        ServerNode::new(PartSpec::arm_microserver(), 1).age_by_months(-1.0);
    }

    #[test]
    fn manufacturing_screens_out_doa_dice() {
        // Over many manufactured nodes, no shipped chip's weakest core
        // may sit inside the screened margin: such dice crash at stock
        // settings and are binning rejects, not servers.
        for seed in 0..512 {
            let n = ServerNode::new(PartSpec::arm_microserver(), seed);
            let margin = n.part().vmin.base_crash_offset
                - n.part().vmin.core_gain * n.chip().worst_core_vmin_offset();
            assert!(
                margin >= ServerNode::SHIP_QUIET_MARGIN - 1e-12,
                "seed {seed} shipped a reject (quiet margin {margin:.4})"
            );
        }
    }

    #[test]
    fn different_chips_differ() {
        let a = ServerNode::new(PartSpec::i7_3970x(), 1);
        let b = ServerNode::new(PartSpec::i7_3970x(), 2);
        assert_ne!(a.chip().speed_factor, b.chip().speed_factor);
    }
}
