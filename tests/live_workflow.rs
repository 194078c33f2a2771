//! Live miniature campaign: the paper's two-part protocol executed for real
//! (actual simulations, actual post-processing) through the workflow driver
//! over an 11-SeD hierarchy — the laptop-scale twin of the Grid'5000 run.

use cosmogrid::namelist::default_run_namelist;
use cosmogrid::services::cosmology_service_table;
use cosmogrid::workflow::ZoomWorkflow;
use diet_core::client::DietClient;
use diet_core::deploy::TcpTopologySpec;
use diet_core::sched::RoundRobin;
use std::sync::Arc;

#[test]
fn miniature_campaign_end_to_end() {
    // The paper's 11-SeD shape (labels shortened).
    let spec = TcpTopologySpec::paper_shape(&[
        ("nancy", 1.15, 2),
        ("sophia", 1.10, 2),
        ("lyon-s", 1.00, 1),
        ("lille", 0.90, 2),
        ("lyon-c", 0.80, 2),
        ("toulouse", 0.80, 2),
    ]);
    let (ma, seds) = spec
        .instantiate(Arc::new(RoundRobin::new()), |_| cosmology_service_table())
        .unwrap();
    let client = DietClient::initialize(ma);

    let mut nl = default_run_namelist(8, 50.0);
    nl.set("OUTPUT_PARAMS", "aout", "0.5, 1.0");
    let workflow = ZoomWorkflow {
        nb_box: 2,
        max_zooms: 3,
        ..ZoomWorkflow::new(nl, 8, 50)
    };

    let report = workflow.run(&client).expect("workflow failed");

    // Part 1 found halos and every zoom completed with status 0.
    assert!(report.halos_found >= 1, "no halos from part 1");
    assert!(!report.zooms.is_empty());
    assert!(
        report.all_succeeded(),
        "some zooms failed: {:?}",
        report.zooms
    );

    // The zooms were spread over distinct SeDs (round-robin) and each
    // produced a merger tree and a galaxy catalog.
    let servers: std::collections::HashSet<&str> =
        report.zooms.iter().map(|z| z.server.as_str()).collect();
    assert_eq!(servers.len(), report.zooms.len());
    for z in &report.zooms {
        assert!(z.n_tree_nodes >= 1, "empty merger tree for {:?}", z.halo);
        assert!(z.stats.solve > 0.0);
    }

    // Middleware overhead is a vanishing fraction of the compute, the
    // paper's headline operational claim.
    let compute: f64 = report.part1.solve + report.zooms.iter().map(|z| z.stats.solve).sum::<f64>();
    assert!(
        report.total_overhead() < 0.01 * compute,
        "overhead {} vs compute {compute}",
        report.total_overhead()
    );

    for s in seds {
        s.shutdown();
    }
}
