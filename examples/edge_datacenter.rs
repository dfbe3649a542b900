//! An Edge micro-datacenter end to end: reliability-aware scheduling,
//! a degrading node, proactive migration — plus the §6.D latency/energy
//! argument and the TCO view.
//!
//! ```text
//! cargo run --release --example edge_datacenter
//! ```

use uniserver_cloudmgr::cluster::{Cluster, ClusterConfig};
use uniserver_cloudmgr::pool::ShardPool;
use uniserver_cloudmgr::SlaClass;
use uniserver_edge::latency::{LatencyBudget, PlacementAnalysis};
use uniserver_hypervisor::vm::VmConfig;
use uniserver_platform::msr::DomainId;
use uniserver_tco::factors::EeFactors;
use uniserver_tco::model::{tco_improvement_energy_only, TcoParams};
use uniserver_units::Seconds;

fn main() {
    // --- Why the Edge: the 200 ms IoT latency budget (§6.D).
    let analysis = PlacementAnalysis::analyze(
        Seconds::from_millis(95.0),
        LatencyBudget::paper_iot_service(),
    );
    println!("latency budget analysis (200 ms end-to-end, 95 ms peak compute):");
    if let (Some(cloud), Some(edge)) = (analysis.cloud_point, analysis.edge_point) {
        println!("  cloud: must run at f x{:.2}", cloud.freq_scale);
        println!(
            "  edge : can run at f x{:.2} => {:.0} % less energy, {:.0} % less power",
            edge.freq_scale,
            analysis.edge_energy_saving().unwrap_or(0.0) * 100.0,
            analysis.edge_power_saving().unwrap_or(0.0) * 100.0,
        );
    }

    // --- A 4-node Edge site serving gold and bronze tenants.
    let mut cluster = Cluster::build(&ClusterConfig::small_edge_site(4), 7);
    let mut gold_home = None;
    for i in 0..6 {
        let class = if i % 2 == 0 { SlaClass::Gold } else { SlaClass::Bronze };
        let placed = cluster.submit(VmConfig::ldbc_benchmark(), class);
        if let Some(p) = placed {
            println!("placed {class} tenant on {}", p.node);
            if class == SlaClass::Gold {
                gold_home.get_or_insert(p.node);
            }
        }
    }

    // The node hosting a gold tenant develops a DRAM problem: its
    // relaxed domain starts spraying errors.
    let victim = gold_home.expect("a gold tenant was placed");
    println!("\n{victim}'s relaxed DRAM domain degrades (refresh mis-set to 10 s)...");
    cluster
        .nodes_mut()
        .iter_mut()
        .find(|n| n.id == victim)
        .expect("victim exists")
        .hypervisor
        .node_mut()
        .msr
        .set_refresh_interval(DomainId(1), Seconds::new(10.0))
        .expect("within controller range");

    let pool = ShardPool::new(1);
    for minute in 0..3 {
        for _ in 0..30 {
            cluster.tick_pooled(Seconds::new(2.0), &pool);
        }
        let m = cluster.fleet_metrics();
        println!(
            "after {} min: availability {:.4}, migrations {}, blackout {:.1} ms",
            minute + 1,
            m.mean_availability,
            m.migrations,
            m.migration_downtime.as_millis()
        );
    }
    for node in cluster.nodes() {
        let m = node.metrics();
        println!("  {}: reliability {:.3}, utilization {:.2}", node.id, m.reliability, m.utilization);
    }

    // --- The TCO argument (Table 3).
    let tco = tco_improvement_energy_only(&TcoParams::edge_site(), EeFactors::table3().overall());
    println!(
        "\nTCO: a 36x energy-efficiency stack buys {tco:.2}x TCO improvement at this edge site\n\
         (energy-only; yield gains come on top — see `repro table3`)."
    );
}
