//! Deployment planning: from platform + batch scheduler to a SeD map.
//!
//! The paper's Section 5.1 deployment (1 MA, 6 LAs, 11 SeDs × 16 machines)
//! was itself the outcome of OAR reservations: each SeD needs 16 machines of
//! one cluster for the campaign's walltime, and "one cluster of Lyon had
//! only one SED due to reservation restrictions" — i.e. the batch system
//! would not grant a second 16-node slot there. This module reproduces that
//! process: ask each cluster's [`OarScheduler`] for `seds_per_cluster`
//! slots, keep those that can start immediately, and emit the resulting
//! deployment plan.

use crate::oar::{OarScheduler, Request, Reservation};
use crate::platform::Grid5000;

/// One planned SeD: where it runs and under which reservation.
#[derive(Debug, Clone)]
pub struct PlannedSed {
    /// "cluster-name/i" — the label the middleware deployment will use.
    pub label: String,
    pub cluster: usize,
    pub speed_factor: f64,
    pub reservation: Reservation,
}

/// The outcome of planning.
#[derive(Debug, Clone)]
pub struct DeploymentPlan {
    pub seds: Vec<PlannedSed>,
    /// (cluster index, reason) for every slot that could not start at t=0.
    pub rejected: Vec<(usize, String)>,
}

impl DeploymentPlan {
    pub fn total_seds(&self) -> usize {
        self.seds.len()
    }

    /// Per-LA grouping: (cluster name, SeD labels) — one Local Agent per
    /// cluster, the paper's hierarchy shape.
    pub fn local_agents(&self, platform: &Grid5000) -> Vec<(String, Vec<String>)> {
        let mut out: Vec<(String, Vec<String>)> = platform
            .clusters
            .iter()
            .map(|c| (c.name.clone(), Vec::new()))
            .collect();
        for sed in &self.seds {
            out[sed.cluster].1.push(sed.label.clone());
        }
        out.retain(|(_, seds)| !seds.is_empty());
        out
    }
}

/// Plan a deployment at time `now`: request `seds_per_cluster` slots of
/// `machines_per_sed` machines for `walltime` seconds on every cluster,
/// given each cluster's existing load (`background_busy[cluster]` machines
/// already reserved by other users). Slots that cannot start immediately
/// are rejected — a grid campaign cannot wait hours for its workers.
pub fn plan_deployment(
    platform: &Grid5000,
    seds_per_cluster: usize,
    machines_per_sed: usize,
    walltime: f64,
    background_busy: &[usize],
    now: f64,
) -> DeploymentPlan {
    assert_eq!(background_busy.len(), platform.clusters.len());
    let mut seds = Vec::new();
    let mut rejected = Vec::new();
    for (ci, cluster) in platform.clusters.iter().enumerate() {
        let mut oar = OarScheduler::new(cluster.machines);
        // Other users' standing reservations.
        if background_busy[ci] > 0 {
            oar.submit(
                now,
                Request {
                    nodes: background_busy[ci].min(cluster.machines),
                    walltime: walltime * 10.0,
                },
            )
            .expect("background reservation fits by construction");
        }
        let mut granted = 0;
        for slot in 0..seds_per_cluster {
            match oar.submit(
                now,
                Request {
                    nodes: machines_per_sed,
                    walltime,
                },
            ) {
                Ok(res) if res.start <= now + 1e-9 => {
                    seds.push(PlannedSed {
                        label: format!("{}/{}", cluster.name, granted),
                        cluster: ci,
                        speed_factor: cluster.sed_speed(),
                        reservation: res,
                    });
                    granted += 1;
                }
                Ok(res) => {
                    rejected.push((
                        ci,
                        format!(
                            "slot {slot}: earliest start {:.0}s away (reservation restrictions)",
                            res.start - now
                        ),
                    ));
                }
                Err(e) => {
                    rejected.push((ci, format!("slot {slot}: {e}")));
                }
            }
        }
    }
    DeploymentPlan { seds, rejected }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Background loads tuned so every cluster grants 2 SeDs except
    /// lyon-sagittaire (70 machines, 44 busy → one 16-node slot only).
    fn paper_background(platform: &Grid5000) -> Vec<usize> {
        platform
            .clusters
            .iter()
            .map(|c| {
                if c.name == "lyon-sagittaire" {
                    c.machines - 26 // room for one SeD, not two
                } else {
                    c.machines.saturating_sub(2 * c.machines_per_sed)
                }
            })
            .collect()
    }

    #[test]
    fn paper_deployment_emerges_from_reservations() {
        let g = Grid5000::paper_deployment();
        let bg = paper_background(&g);
        let plan = plan_deployment(&g, 2, 16, 17.0 * 3600.0, &bg, 0.0);
        // 11 SeDs: two per cluster, one on the restricted Lyon cluster.
        assert_eq!(plan.total_seds(), 11, "rejected: {:?}", plan.rejected);
        assert_eq!(plan.rejected.len(), 1);
        let restricted = plan.rejected[0].0;
        assert_eq!(g.clusters[restricted].name, "lyon-sagittaire");
        // One LA per cluster with at least one SeD.
        let las = plan.local_agents(&g);
        assert_eq!(las.len(), 6);
        let sagittaire = las.iter().find(|(n, _)| n == "lyon-sagittaire").unwrap();
        assert_eq!(sagittaire.1.len(), 1);
    }

    #[test]
    fn unloaded_platform_grants_everything() {
        let g = Grid5000::paper_deployment();
        let bg = vec![0; g.clusters.len()];
        let plan = plan_deployment(&g, 2, 16, 3600.0, &bg, 0.0);
        assert_eq!(plan.total_seds(), 12);
        assert!(plan.rejected.is_empty());
    }

    #[test]
    fn oversized_requests_are_rejected_not_fatal() {
        let g = Grid5000::paper_deployment();
        let bg = vec![0; g.clusters.len()];
        // 200 machines per SeD exceeds every cluster.
        let plan = plan_deployment(&g, 1, 200, 3600.0, &bg, 0.0);
        assert_eq!(plan.total_seds(), 0);
        assert_eq!(plan.rejected.len(), g.clusters.len());
    }

    #[test]
    fn labels_are_dense_per_cluster() {
        let g = Grid5000::paper_deployment();
        let bg = vec![0; g.clusters.len()];
        let plan = plan_deployment(&g, 2, 16, 3600.0, &bg, 0.0);
        for (_, seds) in plan.local_agents(&g) {
            for (i, label) in seds.iter().enumerate() {
                assert!(label.ends_with(&format!("/{i}")), "label {label}");
            }
        }
    }
}
