//! Bridge between the platform world and the middleware world: turn a
//! gridsim [`DeploymentPlan`] (OAR reservations on Grid'5000 clusters) into
//! a diet-core [`TcpTopologySpec`] (MA / LA / SeD hierarchy), completing the
//! paper's Section 5.1 pipeline: reserve → deploy hierarchy → register
//! services → run the campaign. The spec deploys either in this process
//! ([`TcpTopologySpec::instantiate`]) or as one loopback TCP server per
//! agent and SeD ([`TcpTopologySpec::deploy`]).

use diet_core::deploy::{SedSpec, TcpSiteSpec, TcpTopologySpec};
use gridsim::plan::DeploymentPlan;
use gridsim::platform::Grid5000;

/// Build the middleware deployment from a reservation plan: the paper's
/// shape ([`TcpTopologySpec::paper_shape`]) with one Local Agent per cluster
/// that obtained at least one SeD slot ("6 LA: one per cluster ... 11 SEDs:
/// two per cluster (one cluster of Lyon had only one SED)"), each SeD
/// labelled as planned and running at its cluster's speed factor.
pub fn spec_from_plan(plan: &DeploymentPlan, platform: &Grid5000) -> TcpTopologySpec {
    let mut spec = TcpTopologySpec::paper_shape(&[]);
    spec.sites = plan
        .local_agents(platform)
        .into_iter()
        .map(|(cluster_name, labels)| {
            let speed = platform
                .clusters
                .iter()
                .find(|c| c.name == cluster_name)
                .map(|c| c.sed_speed())
                .unwrap_or(1.0);
            TcpSiteSpec {
                name: format!("LA-{cluster_name}"),
                seds: labels
                    .into_iter()
                    .map(|label| SedSpec {
                        label,
                        speed_factor: speed,
                    })
                    .collect(),
                children: vec![],
            }
        })
        .collect();
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namelist::default_run_namelist;
    use crate::services::{cosmology_service_table, status, zoom1_profile};
    use diet_core::client::{DietClient, RetryPolicy};
    use diet_core::sched::RoundRobin;
    use gridsim::plan::plan_deployment;
    use std::sync::Arc;

    #[test]
    fn reservation_to_running_hierarchy() {
        // Reserve → plan → spec → deploy over TCP → a call is answered.
        let platform = Grid5000::paper_deployment();
        let bg: Vec<usize> = platform
            .clusters
            .iter()
            .map(|c| {
                if c.name == "lyon-sagittaire" {
                    c.machines - 26
                } else {
                    c.machines.saturating_sub(2 * c.machines_per_sed)
                }
            })
            .collect();
        let plan = plan_deployment(&platform, 2, 16, 17.0 * 3600.0, &bg, 0.0);
        assert_eq!(plan.total_seds(), 11);

        let spec = spec_from_plan(&plan, &platform);
        assert_eq!(spec.sites.len(), 6);
        spec.validate().unwrap();

        let d = spec
            .deploy(Arc::new(RoundRobin::new()), |_| cosmology_service_table())
            .unwrap();
        assert_eq!(d.agent_servers.len(), 6);
        assert_eq!(d.sed_servers.len(), 11);
        for sed in &d.seds {
            let cluster = sed.config.label.split('/').next().unwrap();
            let planned = platform
                .clusters
                .iter()
                .find(|c| c.name == cluster)
                .unwrap();
            assert_eq!(sed.config.speed_factor, planned.sed_speed(), "{cluster}");
        }

        // An invalid resolution comes back at once as BAD_RESOLUTION: a
        // full round trip through the MA, an LA and a SeD, without a solve.
        let mut nl = default_run_namelist(8, 50.0);
        nl.set("OUTPUT_PARAMS", "aout", "0.5");
        let client = DietClient::initialize_distributed(d.obs.clone());
        let (out, _) = client
            .call_distributed(
                &d.ma_client,
                &d.pool,
                zoom1_profile(&nl, 7),
                &RetryPolicy::default(),
            )
            .unwrap();
        assert_eq!(out.get_i32(3).unwrap(), status::BAD_RESOLUTION);
        d.shutdown();
    }

    #[test]
    fn empty_plan_yields_invalid_spec() {
        let platform = Grid5000::paper_deployment();
        let bg: Vec<usize> = platform.clusters.iter().map(|c| c.machines).collect();
        let plan = plan_deployment(&platform, 2, 16, 3600.0, &bg, 0.0);
        assert_eq!(plan.total_seds(), 0);
        let spec = spec_from_plan(&plan, &platform);
        assert!(
            spec.validate().is_err(),
            "a SeD-less spec must not validate"
        );
    }
}
