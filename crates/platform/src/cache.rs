//! Last-level-cache banks under undervolting.
//!
//! Each bank has its own manufactured Vmin offset (paper §3.A: "for each
//! cache memory bank UniServer will reveal the minimum voltage that
//! allows correct operation"). As supply voltage approaches a bank's
//! onset point, SECDED begins correcting read failures — the CE stream
//! the paper counts in Table 2. Banks that misbehave persistently can be
//! isolated (taken out of the allocation map) by the hypervisor.

use rand::Rng;
use serde::{Deserialize, Serialize};
use uniserver_units::Volts;

use uniserver_silicon::variation::ChipProfile;
use uniserver_silicon::vmin::VminModel;

/// State of one cache bank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheBankState {
    /// Bank index on the die.
    pub index: usize,
    /// Manufactured fractional Vmin offset (chip + bank components).
    pub weakness: f64,
    /// Whether the bank has been isolated by software.
    pub isolated: bool,
}

/// Corrected-error sample for one bank over one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankCeSample {
    /// Bank index.
    pub bank: usize,
    /// Corrected errors observed in the interval.
    pub corrected: u64,
}

/// The cache subsystem of a node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSubsystem {
    banks: Vec<CacheBankState>,
}

impl CacheSubsystem {
    /// Builds the subsystem from a manufactured chip profile. Bank
    /// weakness carries only the bank-*local* variation component: the
    /// chip-level Vmin shift is already reflected in the core crash
    /// reference that onset voltages are anchored to.
    #[must_use]
    pub fn from_chip(chip: &ChipProfile) -> Self {
        let banks = chip
            .banks
            .iter()
            .map(|b| CacheBankState { index: b.index, weakness: b.vmin_offset, isolated: false })
            .collect();
        CacheSubsystem { banks }
    }

    /// Number of banks (isolated or not).
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Number of banks still in service.
    #[must_use]
    pub fn active_banks(&self) -> usize {
        self.banks.iter().filter(|b| !b.isolated).count()
    }

    /// Iterates over bank states.
    pub fn iter(&self) -> impl Iterator<Item = &CacheBankState> {
        self.banks.iter()
    }

    /// Isolates a bank (removes it from service).
    ///
    /// # Panics
    ///
    /// Panics if the bank does not exist.
    pub fn isolate(&mut self, bank: usize) {
        self.banks[bank].isolated = true;
    }

    /// Returns a previously isolated bank to service.
    ///
    /// # Panics
    ///
    /// Panics if the bank does not exist.
    pub fn restore(&mut self, bank: usize) {
        self.banks[bank].isolated = false;
    }

    /// Samples corrected errors for every in-service bank over one
    /// interval at supply voltage `v`, given a reference core crash
    /// voltage for the same interval (bank onsets are anchored to it; see
    /// [`VminModel::cache_onset_voltage`]). Banks with zero CEs are
    /// omitted, mirroring how MCA only reports actual events.
    ///
    /// A bank whose onset ceiling
    /// ([`VminModel::cache_onset_ceiling_mv`]) lies below `v` cannot log
    /// a CE for any draw, so it only consumes its onset draws and skips
    /// the transform and the Poisson — the same stream and the same
    /// (empty) result as the full formula. Most coarse shmoo steps and
    /// nominal serving intervals take that path.
    pub fn sample_interval<R: Rng + ?Sized>(
        &self,
        v: Volts,
        nominal: Volts,
        crash_reference: Volts,
        vmin: &VminModel,
        rng: &mut R,
    ) -> Vec<BankCeSample> {
        let mut out = Vec::new();
        // Outgoing manufacturing test rejects parts that log corrected
        // errors at stock settings, so a shipped bank's onset is always
        // strictly below nominal no matter how weak the die: screen the
        // sampled onset to just under the stock voltage.
        let screened = Volts::from_millivolts(nominal.as_millivolts() - 1.0);
        let v_mv = v.as_millivolts();
        for bank in self.banks.iter().filter(|b| !b.isolated) {
            if v_mv > vmin.cache_onset_ceiling_mv(crash_reference, bank.weakness) {
                vmin.skip_cache_onset(rng);
                continue;
            }
            let onset = vmin.cache_onset_voltage(crash_reference, bank.weakness, rng).min(screened);
            let corrected = vmin.cache_ce_count(v, onset, rng);
            if corrected > 0 {
                out.push(BankCeSample { bank: bank.index, corrected });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uniserver_silicon::variation::VariationParams;

    fn subsystem() -> CacheSubsystem {
        let mut rng = StdRng::seed_from_u64(21);
        let chip = VariationParams::server_28nm().sample_chip(0, 2, 4, &mut rng);
        CacheSubsystem::from_chip(&chip)
    }

    #[test]
    fn banks_inherit_chip_variation() {
        let s = subsystem();
        assert_eq!(s.bank_count(), 4);
        let weaknesses: Vec<f64> = s.iter().map(|b| b.weakness).collect();
        assert!(weaknesses.windows(2).any(|w| w[0] != w[1]), "banks must differ");
    }

    #[test]
    fn isolation_removes_banks_from_sampling() {
        let mut s = subsystem();
        s.isolate(0);
        s.isolate(1);
        assert_eq!(s.active_banks(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        // Deep undervolt: every active bank produces CEs.
        let crash = Volts::from_millivolts(760.0);
        let samples =
            s.sample_interval(Volts::from_millivolts(700.0), Volts::from_millivolts(844.0), crash, &VminModel::default(), &mut rng);
        assert!(samples.iter().all(|c| c.bank >= 2), "isolated banks must stay silent");
        assert!(!samples.is_empty());
    }

    #[test]
    fn restore_returns_bank_to_service() {
        let mut s = subsystem();
        s.isolate(3);
        assert_eq!(s.active_banks(), 3);
        s.restore(3);
        assert_eq!(s.active_banks(), 4);
    }

    #[test]
    fn no_ces_at_nominal_voltage() {
        let s = subsystem();
        let mut rng = StdRng::seed_from_u64(5);
        let crash = Volts::from_millivolts(760.0);
        let samples =
            s.sample_interval(Volts::from_millivolts(844.0), Volts::from_millivolts(844.0), crash, &VminModel::default(), &mut rng);
        assert!(samples.is_empty(), "nominal voltage must be CE-free, got {samples:?}");
    }

    #[test]
    fn banks_above_the_onset_ceiling_skip_in_lockstep() {
        use rand::Rng;
        let s = subsystem();
        let vmin = VminModel::default();
        let nominal = Volts::from_millivolts(844.0);
        let crash = Volts::from_millivolts(760.0);
        let screened = Volts::from_millivolts(843.0);
        let ceiling =
            s.iter().map(|b| vmin.cache_onset_ceiling_mv(crash, b.weakness)).fold(f64::MIN, f64::max);
        // Just above the highest ceiling: every bank takes the skip.
        let v = Volts::from_millivolts(ceiling + 1e-6);
        for seed in 0..64 {
            let (mut skipped, mut full) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            assert!(s.sample_interval(v, nominal, crash, &vmin, &mut skipped).is_empty());
            // The unskipped formula, bank by bank.
            for bank in s.iter() {
                let onset = vmin.cache_onset_voltage(crash, bank.weakness, &mut full).min(screened);
                assert!(onset.as_millivolts() < ceiling, "onset {onset} above ceiling {ceiling}");
                assert_eq!(vmin.cache_ce_count(v, onset, &mut full), 0);
            }
            assert_eq!(skipped.gen::<u64>(), full.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn ces_grow_as_voltage_drops() {
        use uniserver_silicon::variation::{BankProfile, ChipProfile, CoreProfile};
        // A chip with zero manufactured offsets so the onset window sits
        // exactly cache_onset_above_crash_mv above the crash reference.
        let chip = ChipProfile {
            chip_id: 0,
            speed_factor: 0.0,
            leakage_factor: 1.0,
            vmin_shift: 0.0,
            cores: vec![CoreProfile { index: 0, speed_offset: 0.0, vmin_offset: 0.0 }],
            banks: (0..4).map(|index| BankProfile { index, vmin_offset: 0.0 }).collect(),
        };
        let s = CacheSubsystem::from_chip(&chip);
        let mut rng = StdRng::seed_from_u64(7);
        let vmin = VminModel::default();
        let crash = Volts::from_millivolts(760.0);
        let total = |v_mv: f64, rng: &mut StdRng| -> u64 {
            (0..50)
                .map(|_| {
                    s.sample_interval(Volts::from_millivolts(v_mv), Volts::from_millivolts(844.0), crash, &vmin, rng)
                        .iter()
                        .map(|c| c.corrected)
                        .sum::<u64>()
                })
                .sum()
        };
        let shallow = total(772.0, &mut rng);
        let deep = total(762.0, &mut rng);
        assert!(deep > shallow, "deep {deep} vs shallow {shallow}");
    }
}
