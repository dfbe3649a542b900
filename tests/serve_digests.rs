//! Pinned output bytes of the serving loop.
//!
//! Every other whole-run test compares two runs with each other (one
//! worker against many, fast path against reference). This suite pins
//! the bytes themselves: FNV-1a digests of the JSON summary for each
//! profile × policy at a 16-node rack over 15 minutes, plus the
//! metrics-registry JSON and the NDJSON trace of the chaos and gray
//! profiles. At 16 nodes the runs already crash, rejoin, shed, park,
//! quarantine, readmit and shed for the power cap, so a refactor of
//! the serving loop that moves any of those by one event fails here.
//!
//! The digests are a snapshot of the simulator's behaviour. A change
//! that deliberately alters output bytes regenerates them (the failure
//! message prints the full table) and says why in `CHANGES.md`.

use uniserver_bench::cluster::summary_to_json;
use uniserver_orchestrator::{
    run_with_telemetry, ChaosPlan, MetricsRegistry, OrchestratorConfig, PolicyKind, Telemetry,
    TraceSink,
};
use uniserver_units::Seconds;

const NODES: usize = 16;
const SECS: f64 = 900.0;
const SEED: u64 = 2018;

const POLICIES: [&str; 3] = ["energy-sla", "consolidate", "reliability-blind"];

/// `(profile, policy, digest of summary_to_json(&s, true))`.
const SUMMARY_DIGESTS: [(&str, &str, u64); 12] = [
    ("flat", "energy-sla", 0x8832127d83435f54),
    ("flat", "consolidate", 0xa70e764a446f2eb7),
    ("flat", "reliability-blind", 0x05937c8f02f21f2f),
    ("flash", "energy-sla", 0xba0d1a50c1f9bdaf),
    ("flash", "consolidate", 0x2ed28ce711abe56d),
    ("flash", "reliability-blind", 0xdc73689dc282b9e5),
    ("chaos", "energy-sla", 0x62283d1c214e99f4),
    ("chaos", "consolidate", 0xac56ae0a224044de),
    ("chaos", "reliability-blind", 0x87eec1f6390420ba),
    ("gray", "energy-sla", 0xfa70b3a6cadccb25),
    ("gray", "consolidate", 0x058fffd41aa2a443),
    ("gray", "reliability-blind", 0x9da24ff7c873c887),
];

/// `(profile, policy, metrics JSON digest, NDJSON trace digest)`.
const TELEMETRY_DIGESTS: [(&str, &str, u64, u64); 4] = [
    ("chaos", "energy-sla", 0x03ecb3dad545102a, 0x557acae4b1ccf171),
    ("chaos", "consolidate", 0x6cbd614ca4732710, 0x592cac1b3955fbeb),
    ("gray", "energy-sla", 0x5521c5578063d278, 0x36d830b73a1c7d67),
    ("gray", "consolidate", 0x018d08d41186f4c8, 0x90abe671c1440636),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The config `fleet_sim --cluster --nodes 16 --secs 900 --profile P
/// --policy Q` runs, fault plans re-derived for the shortened horizon.
fn config(profile: &str, policy: &str) -> OrchestratorConfig {
    let mut config = match profile {
        "flat" => OrchestratorConfig::datacenter(NODES, SEED),
        "flash" => OrchestratorConfig::flash_crowd(NODES, SEED),
        "chaos" => OrchestratorConfig::chaos_profile(NODES, SEED),
        "gray" => OrchestratorConfig::gray_profile(NODES, SEED),
        other => panic!("unknown profile {other}"),
    };
    config.horizon = Seconds::new(SECS);
    match profile {
        "chaos" => config.chaos = Some(ChaosPlan::rack_and_flash(config.ticks())),
        #[allow(clippy::cast_possible_truncation)]
        "gray" => config.chaos = Some(ChaosPlan::gray_brownout(config.ticks(), NODES as u32)),
        _ => {}
    }
    config.policy = PolicyKind::parse(policy).expect("known policy");
    config.threads = 2;
    config
}

fn summary_digest(profile: &str, policy: &str, tel: &mut Telemetry) -> u64 {
    let (summary, _) = run_with_telemetry(&config(profile, policy), tel);
    fnv1a(summary_to_json(&summary, true).as_bytes())
}

/// Checks one profile's three summaries against the table; on mismatch
/// the message lists every actual digest so the table can be updated.
fn check_profile(profile: &str) {
    let actual: Vec<(&str, u64)> = POLICIES
        .iter()
        .map(|&policy| (policy, summary_digest(profile, policy, &mut Telemetry::disabled())))
        .collect();
    let pinned: Vec<(&str, u64)> = SUMMARY_DIGESTS
        .iter()
        .filter(|(p, _, _)| *p == profile)
        .map(|&(_, policy, d)| (policy, d))
        .collect();
    let table: String = actual
        .iter()
        .map(|(policy, d)| format!("    (\"{profile}\", \"{policy}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(actual, pinned, "{profile} summaries moved; actual digests:\n{table}");
}

#[test]
fn flat_summaries_match_the_pinned_digests() {
    check_profile("flat");
}

#[test]
fn flash_summaries_match_the_pinned_digests() {
    check_profile("flash");
}

#[test]
fn chaos_summaries_match_the_pinned_digests() {
    check_profile("chaos");
}

#[test]
fn gray_summaries_match_the_pinned_digests() {
    check_profile("gray");
}

/// The metrics registry and the trace of the fault profiles, and the
/// summary of the same telemetry-on run (telemetry must not move it).
#[test]
fn chaos_and_gray_telemetry_matches_the_pinned_digests() {
    let mut actual = Vec::new();
    for &(profile, policy, _, _) in &TELEMETRY_DIGESTS {
        let mut tel = Telemetry::disabled();
        tel.metrics = Some(MetricsRegistry::new());
        tel.trace = Some(TraceSink::buffered());
        let summary = summary_digest(profile, policy, &mut tel);
        let pinned_summary = SUMMARY_DIGESTS
            .iter()
            .find(|(p, q, _)| *p == profile && *q == policy)
            .map(|&(_, _, d)| d);
        assert_eq!(
            Some(summary),
            pinned_summary,
            "{profile}/{policy}: telemetry moved the summary"
        );
        let metrics = fnv1a(tel.metrics.take().expect("enabled").to_json().as_bytes());
        let trace = fnv1a(tel.trace.take().expect("enabled").into_string().as_bytes());
        actual.push((profile, policy, metrics, trace));
    }
    let table: String = actual
        .iter()
        .map(|(p, q, m, t)| format!("    (\"{p}\", \"{q}\", {m:#018x}, {t:#018x}),\n"))
        .collect();
    assert_eq!(
        actual,
        TELEMETRY_DIGESTS.to_vec(),
        "telemetry bytes moved; actual digests:\n{table}"
    );
}
