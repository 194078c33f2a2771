//! Grid'5000 platform model.
//!
//! The paper's deployment (Section 5.1):
//!
//! * 5 sites, 6 clusters — 2 in Lyon, and 1 each in Lille, Nancy, Toulouse,
//!   Sophia;
//! * 1 Master Agent node (with omniORB, monitoring, client);
//! * 6 Local Agents — one per cluster;
//! * 11 SeDs — two per cluster except one Lyon cluster with one (reservation
//!   restrictions), each controlling 16 machines;
//! * node models AMD Opteron 246 / 248 / 250 / 252 / 275.
//!
//! The Opteron speed factors are relative throughputs on the RAMSES workload
//! (clock-derived: 2.0, 2.2, 2.4, 2.6 GHz and the dual-core 2.2 GHz 275),
//! chosen so the per-SeD campaign totals reproduce the paper's Figure 4
//! spread (~10.5 h fastest site vs ~15 h slowest).

/// AMD Opteron models present in the paper's reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeType {
    Opteron246,
    Opteron248,
    Opteron250,
    Opteron252,
    Opteron275,
}

impl NodeType {
    /// Relative single-simulation throughput (1.0 = the reference
    /// Opteron 250 cluster used for calibration). A higher factor completes
    /// the same simulation faster.
    pub fn speed_factor(self) -> f64 {
        match self {
            NodeType::Opteron246 => 0.80, // 2.0 GHz
            NodeType::Opteron248 => 0.90, // 2.2 GHz
            NodeType::Opteron250 => 1.00, // 2.4 GHz (reference)
            NodeType::Opteron252 => 1.10, // 2.6 GHz
            NodeType::Opteron275 => 1.15, // dual-core 2.2 GHz, better MPI overlap
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            NodeType::Opteron246 => "Opteron 246",
            NodeType::Opteron248 => "Opteron 248",
            NodeType::Opteron250 => "Opteron 250",
            NodeType::Opteron252 => "Opteron 252",
            NodeType::Opteron275 => "Opteron 275",
        }
    }
}

/// One cluster: a homogeneous set of nodes behind a shared NFS volume.
#[derive(Debug, Clone)]
pub struct Cluster {
    pub name: String,
    pub site: String,
    pub node_type: NodeType,
    /// Total machines available to reservations.
    pub machines: usize,
    /// Number of SeDs deployed on this cluster (paper: 2, one Lyon cluster 1).
    pub seds: usize,
    /// Machines controlled by each SeD (paper: 16).
    pub machines_per_sed: usize,
}

impl Cluster {
    /// Effective speed of one SeD slot on this cluster (node speed; the
    /// 16-machine MPI pool is what one "simulation slot" means).
    pub fn sed_speed(&self) -> f64 {
        self.node_type.speed_factor()
    }
}

/// One Grid'5000 site.
#[derive(Debug, Clone)]
pub struct Site {
    pub name: String,
    pub clusters: Vec<usize>,
}

/// The modelled platform.
#[derive(Debug, Clone)]
pub struct Grid5000 {
    pub sites: Vec<Site>,
    pub clusters: Vec<Cluster>,
}

/// Identifier of a SeD slot on the platform: (cluster index, sed index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SedId {
    pub cluster: usize,
    pub sed: usize,
}

impl std::fmt::Display for SedId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}s{}", self.cluster, self.sed)
    }
}

impl Grid5000 {
    /// The paper's deployment: 5 sites, 6 clusters, 11 SeDs × 16 Opterons.
    /// Node models are assigned per cluster to heterogeneous types so that
    /// per-SeD totals spread as in Figure 4 (Toulouse slowest, Nancy
    /// fastest). Clusters are enumerated fastest-first: DIET's agents answer
    /// in hierarchy order, and the paper's trace shows the first request
    /// (part 1) and the single 10-request SeD both landing on fast clusters
    /// — keeping the makespan governed by the 9-request slow clusters.
    pub fn paper_deployment() -> Self {
        let clusters = vec![
            Cluster {
                name: "nancy-grelon".into(),
                site: "Nancy".into(),
                node_type: NodeType::Opteron275,
                machines: 120,
                seds: 2,
                machines_per_sed: 16,
            },
            Cluster {
                name: "sophia-helios".into(),
                site: "Sophia".into(),
                node_type: NodeType::Opteron252,
                machines: 56,
                seds: 2,
                machines_per_sed: 16,
            },
            Cluster {
                name: "lyon-sagittaire".into(),
                site: "Lyon".into(),
                node_type: NodeType::Opteron250,
                machines: 70,
                seds: 1, // "one cluster of Lyon had only one SED due to reservation restrictions"
                machines_per_sed: 16,
            },
            Cluster {
                name: "lille-chti".into(),
                site: "Lille".into(),
                node_type: NodeType::Opteron248,
                machines: 53,
                seds: 2,
                machines_per_sed: 16,
            },
            Cluster {
                name: "lyon-capricorne".into(),
                site: "Lyon".into(),
                node_type: NodeType::Opteron246,
                machines: 56,
                seds: 2,
                machines_per_sed: 16,
            },
            Cluster {
                name: "toulouse-violette".into(),
                site: "Toulouse".into(),
                node_type: NodeType::Opteron246,
                machines: 57,
                seds: 2,
                machines_per_sed: 16,
            },
        ];
        let mut sites: Vec<Site> = Vec::new();
        for (ci, c) in clusters.iter().enumerate() {
            match sites.iter_mut().find(|s| s.name == c.site) {
                Some(s) => s.clusters.push(ci),
                None => sites.push(Site {
                    name: c.site.clone(),
                    clusters: vec![ci],
                }),
            }
        }
        Grid5000 { sites, clusters }
    }

    /// Enumerate all SeD slots, cluster-major.
    pub fn sed_ids(&self) -> Vec<SedId> {
        let mut out = Vec::new();
        for (ci, c) in self.clusters.iter().enumerate() {
            for s in 0..c.seds {
                out.push(SedId {
                    cluster: ci,
                    sed: s,
                });
            }
        }
        out
    }

    pub fn total_seds(&self) -> usize {
        self.clusters.iter().map(|c| c.seds).sum()
    }

    pub fn total_machines_reserved(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| c.seds * c.machines_per_sed)
            .sum()
    }

    /// Speed factor of a given SeD slot.
    pub fn sed_speed(&self, id: SedId) -> f64 {
        self.clusters[id.cluster].sed_speed()
    }

    /// Human-readable SeD label like "toulouse-violette/1".
    pub fn sed_label(&self, id: SedId) -> String {
        format!("{}/{}", self.clusters[id.cluster].name, id.sed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_deployment_matches_section_5() {
        let g = Grid5000::paper_deployment();
        assert_eq!(g.clusters.len(), 6);
        assert_eq!(g.sites.len(), 5);
        assert_eq!(g.total_seds(), 11);
        assert_eq!(g.total_machines_reserved(), 11 * 16);
        // Lyon hosts two clusters.
        let lyon = g.sites.iter().find(|s| s.name == "Lyon").unwrap();
        assert_eq!(lyon.clusters.len(), 2);
    }

    #[test]
    fn sed_ids_enumerate_all_slots() {
        let g = Grid5000::paper_deployment();
        let ids = g.sed_ids();
        assert_eq!(ids.len(), 11);
        // Unique.
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 11);
    }

    #[test]
    fn speed_factors_are_heterogeneous_and_ordered() {
        assert!(NodeType::Opteron246.speed_factor() < NodeType::Opteron248.speed_factor());
        assert!(NodeType::Opteron248.speed_factor() < NodeType::Opteron250.speed_factor());
        assert!(NodeType::Opteron250.speed_factor() < NodeType::Opteron252.speed_factor());
        assert!(NodeType::Opteron252.speed_factor() <= NodeType::Opteron275.speed_factor());
    }

    #[test]
    fn toulouse_slower_than_nancy() {
        // The calibration target behind Figure 4's imbalance.
        let g = Grid5000::paper_deployment();
        let toulouse = g
            .clusters
            .iter()
            .find(|c| c.site == "Toulouse")
            .unwrap()
            .sed_speed();
        let nancy = g
            .clusters
            .iter()
            .find(|c| c.site == "Nancy")
            .unwrap()
            .sed_speed();
        assert!(toulouse < nancy);
    }

    #[test]
    fn labels_are_stable() {
        let g = Grid5000::paper_deployment();
        let ids = g.sed_ids();
        assert_eq!(g.sed_label(ids[0]), "nancy-grelon/0");
    }
}
