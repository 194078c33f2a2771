//! E6 — the overhead decomposition of Section 5.2: finding ≈ 49.8 ms,
//! service initiation ≈ 20.8 ms, total per-simulation overhead ≈ 70.6 ms,
//! hence ≈ 7 s over the 101 simulations — "negligible compared to the total
//! processing time".
//!
//! This regenerator measures the overhead twice: in the campaign simulator
//! (virtual time, paper-scale) and on the *live* middleware (wall-clock,
//! an in-process hierarchy with instant solves), showing both land in the
//! tens-of-milliseconds-or-less regime.

use bench::{ms_row, render_rows, Row};
use cosmogrid::campaign::{run_campaign, CampaignConfig};
use diet_core::client::DietClient;
use diet_core::data::{DietValue, Persistence};
use diet_core::deploy::TcpTopologySpec;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sched::RoundRobin;
use diet_core::sed::{ServiceTable, SolveFn};
use std::sync::Arc;

fn live_overhead(n_calls: usize) -> (f64, f64) {
    // 11 one-SeD sites with an instant no-op service: every measured cost
    // is pure middleware overhead.
    let mut desc = ProfileDesc::alloc("noop", 0, 0, 1);
    desc.set_arg(0, ArgTag::Scalar).unwrap();
    let clusters: Vec<String> = (0..11).map(|i| format!("c{i}")).collect();
    let shape: Vec<_> = clusters.iter().map(|c| (c.as_str(), 1.0, 1)).collect();
    let (ma, seds) = TcpTopologySpec::paper_shape(&shape)
        .instantiate(Arc::new(RoundRobin::new()), |_| {
            let solve: SolveFn = Arc::new(|p: &mut Profile| {
                let x = p.get_i32(0)?;
                p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
                Ok(0)
            });
            let mut t = ServiceTable::init(1);
            t.add(desc.clone(), solve).unwrap();
            t
        })
        .expect("instantiate");
    let client = DietClient::initialize(ma);

    let mut finding = 0.0;
    let mut total = 0.0;
    for i in 0..n_calls {
        let mut p = Profile::alloc(&desc);
        p.set(0, DietValue::ScalarI32(i as i32), Persistence::Volatile)
            .unwrap();
        let (_, stats) = client.call(p).unwrap();
        finding += stats.finding;
        total += stats.overhead();
    }
    for s in seds {
        s.shutdown();
    }
    (finding / n_calls as f64, total / n_calls as f64)
}

fn main() {
    let r = run_campaign(CampaignConfig::default());
    let init_mean = r.overhead_mean - r.finding_mean;

    let rows = vec![
        ms_row("finding time (simulated)", 49.8, r.finding_mean, 0.10),
        ms_row("send + initiation", 20.8, init_mean, 0.40),
        ms_row("overhead per simulation", 70.6, r.overhead_mean, 0.25),
        Row {
            quantity: "total overhead (101 sims)",
            paper: "~7 s".into(),
            measured: format!("{:.1} s", r.overhead_mean * 101.0),
            ok: r.overhead_mean * 101.0 < 15.0,
        },
        Row {
            quantity: "overhead / makespan",
            paper: "negligible".into(),
            measured: format!("{:.5}%", r.overhead_mean * 101.0 / r.makespan * 100.0),
            ok: r.overhead_mean * 101.0 / r.makespan < 1e-3,
        },
    ];
    print!(
        "{}",
        render_rows("E6: middleware overhead (Section 5.2)", &rows)
    );
    assert!(rows.iter().all(|r| r.ok), "E6 shape check failed");

    let (live_finding, live_total) = live_overhead(101);
    println!(
        "\nlive in-process middleware, 101 no-op calls over 11 SeDs:\n  \
         finding {:.3} ms, total overhead {:.3} ms per call\n  \
         (no CORBA and no WAN: the Rust hierarchy traversal itself is far\n  \
         below the paper's 49.8 ms, which was dominated by omniORB + network)",
        live_finding * 1e3,
        live_total * 1e3
    );
    assert!(live_total < 0.050, "live overhead should be tiny");
    println!("\nE6 shape checks passed (overhead negligible in both modes)");
}
