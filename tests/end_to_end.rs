//! End-to-end integration: the paper's client/server pair over the live
//! in-process middleware — deployment, two-part zoom workflow, parallel
//! sub-simulations, and the error-code contract.

use cosmogrid::archive;
use cosmogrid::namelist::default_run_namelist;
use cosmogrid::services::{cosmology_service_table, status, zoom1_profile, zoom2_profile};
use diet_core::client::DietClient;
use diet_core::deploy::TcpTopologySpec;
use diet_core::error::DietError;
use diet_core::sched::{MinQueue, RoundRobin};
use std::sync::Arc;

fn small_namelist() -> cosmogrid::Namelist {
    let mut nl = default_run_namelist(8, 50.0);
    nl.set("OUTPUT_PARAMS", "aout", "0.5, 1.0");
    nl
}

fn paper_like_deployment() -> TcpTopologySpec {
    TcpTopologySpec::paper_shape(&[
        ("nancy", 1.15, 2),
        ("sophia", 1.10, 2),
        ("lyon-s", 1.00, 1),
        ("lille", 0.90, 2),
        ("lyon-c", 0.80, 2),
        ("toulouse", 0.80, 2),
    ])
}

#[test]
fn full_two_part_workflow_over_the_hierarchy() {
    let spec = paper_like_deployment();
    let (ma, seds) = spec
        .instantiate(Arc::new(RoundRobin::new()), |_| cosmology_service_table())
        .unwrap();
    assert_eq!(seds.len(), 11);
    assert_eq!(ma.solver_count("ramsesZoom2"), 11);
    let client = DietClient::initialize(ma);

    // Part 1.
    let (r1, s1) = client.call(zoom1_profile(&small_namelist(), 8)).unwrap();
    assert_eq!(r1.get_i32(3).unwrap(), status::OK);
    assert!(s1.solve > 0.0);
    let (_, tar) = r1.get_file(2).unwrap();
    let entries = archive::unpack(&tar.clone()).unwrap();
    let catalog = archive::find(&entries, "halos/catalog.txt").unwrap();
    let n_halos = String::from_utf8_lossy(&catalog.data)
        .lines()
        .count()
        .saturating_sub(1);
    assert!(n_halos >= 1, "part 1 must produce halos");

    // Part 2: several simultaneous zoom requests (paper: 100; here 3).
    let handles: Vec<_> = [[41, 76, 65], [25, 25, 25], [80, 20, 60]]
        .into_iter()
        .map(|c| {
            client
                .async_call(zoom2_profile(&small_namelist(), 8, 50, c, 2))
                .unwrap()
        })
        .collect();
    let mut servers = std::collections::HashSet::new();
    for h in handles {
        servers.insert(h.server().to_string());
        let (r2, _) = h.wait().unwrap();
        assert_eq!(r2.get_i32(8).unwrap(), status::OK);
        let (_, tar) = r2.get_file(7).unwrap();
        let entries = archive::unpack(&tar.clone()).unwrap();
        assert!(archive::find(&entries, "galaxies/catalog.txt").is_some());
        assert!(archive::find(&entries, "tree/mergertree.txt").is_some());
    }
    // Round-robin must have spread the three requests over three SeDs.
    assert_eq!(servers.len(), 3);

    for s in seds {
        s.shutdown();
    }
}

#[test]
fn service_error_codes_follow_the_paper_contract() {
    // "The last two are an integer for error controls, and a file containing
    // the results" — the DIET call itself succeeds; the service reports
    // failure through the OUT integer.
    let spec = TcpTopologySpec::paper_shape(&[("solo", 1.0, 1)]);
    let (ma, seds) = spec
        .instantiate(Arc::new(MinQueue), |_| cosmology_service_table())
        .unwrap();
    let client = DietClient::initialize(ma);

    // Bad resolution (not a power of two).
    let (r, _) = client.call(zoom1_profile(&small_namelist(), 9)).unwrap();
    assert_eq!(r.get_i32(3).unwrap(), status::BAD_RESOLUTION);
    // The OUT file is a valid (empty) tarball even on failure.
    let (_, tar) = r.get_file(2).unwrap();
    assert!(archive::unpack(&tar.clone()).unwrap().is_empty());

    // Bad zoom parameters.
    let (r, _) = client
        .call(zoom2_profile(&small_namelist(), 8, 50, [50, 50, 50], 99))
        .unwrap();
    assert_eq!(r.get_i32(8).unwrap(), status::BAD_ZOOM);

    for s in seds {
        s.shutdown();
    }
}

#[test]
fn unknown_service_and_dead_sed_are_reported() {
    let spec = TcpTopologySpec::paper_shape(&[("solo", 1.0, 1)]);
    let (ma, seds) = spec
        .instantiate(Arc::new(RoundRobin::new()), |_| cosmology_service_table())
        .unwrap();
    let client = DietClient::initialize(ma);

    // Unknown service.
    let d = diet_core::profile::ProfileDesc::alloc("noSuchService", -1, -1, 0);
    let p = diet_core::profile::Profile::alloc(&d);
    assert!(matches!(client.call(p), Err(DietError::ServiceNotFound(_))));

    for s in &seds {
        s.shutdown();
    }
}

#[test]
fn session_history_records_every_call() {
    let spec = TcpTopologySpec::paper_shape(&[("a", 1.0, 2)]);
    let (ma, seds) = spec
        .instantiate(Arc::new(RoundRobin::new()), |_| cosmology_service_table())
        .unwrap();
    let client = DietClient::initialize(ma);
    for _ in 0..2 {
        // Use an invalid-resolution call: fast (no simulation) but a full
        // middleware round-trip.
        let (r, _) = client.call(zoom1_profile(&small_namelist(), 7)).unwrap();
        assert_eq!(r.get_i32(3).unwrap(), status::BAD_RESOLUTION);
    }
    let hist = client.history();
    assert_eq!(hist.len(), 2);
    // Round-robin alternates servers.
    assert_ne!(hist[0].0, hist[1].0);
    for (_, stats) in hist {
        assert!(stats.total >= stats.solve);
    }
    for s in seds {
        s.shutdown();
    }
}
