//! Deployment descriptions.
//!
//! "For performance reasons, the hierarchy of agents should be deployed
//! depending on the underlying network topology." A [`DeploymentSpec`]
//! captures the mapping the paper used on Grid'5000 — one MA, one LA per
//! cluster, two SeDs per cluster (one for a restricted cluster) — validates
//! it, and instantiates the live hierarchy given a service-table factory.

use crate::agent::{AgentNode, MasterAgent};
use crate::dag::{DagEngine, DagEngineConfig};
use crate::dagda::ReplicaCatalog;
use crate::error::DietError;
use crate::hierarchy::{
    serve_agent_over_tcp_at, serve_ma_over_tcp_with_dag, serve_sed_over_tcp, AgentConfig,
    RemoteAgentClient,
};
use crate::sched::Scheduler;
use crate::sed::{SedConfig, SedHandle, ServiceTable};
use crate::telemetry::{TelemetryConfig, TelemetryFlusher};
use crate::transport::{TcpSedPool, TcpServer};
use obs::Obs;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// One SeD placement.
#[derive(Debug, Clone)]
pub struct SedSpec {
    pub label: String,
    pub speed_factor: f64,
}

/// One Local Agent with its SeDs.
#[derive(Debug, Clone)]
pub struct LaSpec {
    pub name: String,
    pub seds: Vec<SedSpec>,
}

/// A full deployment: MA + LAs.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    pub ma_name: String,
    pub las: Vec<LaSpec>,
}

impl DeploymentSpec {
    /// The paper's deployment shape: 6 LAs (2 Lyon clusters, Lille, Nancy,
    /// Toulouse, Sophia), 11 SeDs with the given per-cluster speed factors.
    pub fn paper_shape(speeds: &[(&str, f64, usize)]) -> Self {
        let las = speeds
            .iter()
            .map(|(name, speed, n_seds)| LaSpec {
                name: format!("LA-{name}"),
                seds: (0..*n_seds)
                    .map(|i| SedSpec {
                        label: format!("{name}/{i}"),
                        speed_factor: *speed,
                    })
                    .collect(),
            })
            .collect();
        DeploymentSpec {
            ma_name: "MA".into(),
            las,
        }
    }

    pub fn total_seds(&self) -> usize {
        self.las.iter().map(|l| l.seds.len()).sum()
    }

    /// Validate: non-empty, unique labels, positive speeds, every LA serves.
    pub fn validate(&self) -> Result<(), DietError> {
        if self.las.is_empty() {
            return Err(DietError::Deployment("no local agents".into()));
        }
        let mut labels = HashSet::new();
        for la in &self.las {
            if la.seds.is_empty() {
                return Err(DietError::Deployment(format!(
                    "local agent {} has no SeDs",
                    la.name
                )));
            }
            for sed in &la.seds {
                if sed.speed_factor <= 0.0 {
                    return Err(DietError::Deployment(format!(
                        "SeD {} has non-positive speed",
                        sed.label
                    )));
                }
                if !labels.insert(sed.label.clone()) {
                    return Err(DietError::Deployment(format!(
                        "duplicate SeD label {}",
                        sed.label
                    )));
                }
            }
        }
        Ok(())
    }

    /// Instantiate the hierarchy: spawn every SeD with a service table from
    /// `table_for`, group them under their LAs, and stand up the MA with the
    /// given scheduler. Returns the MA and all SeD handles (for shutdown).
    pub fn instantiate(
        &self,
        scheduler: Arc<dyn Scheduler>,
        mut table_for: impl FnMut(&SedSpec) -> ServiceTable,
    ) -> Result<(Arc<MasterAgent>, Vec<Arc<SedHandle>>), DietError> {
        self.validate()?;
        let mut all = Vec::new();
        let mut las = Vec::new();
        for la in &self.las {
            let mut seds = Vec::new();
            for spec in &la.seds {
                let sed = SedHandle::spawn(
                    SedConfig::new(&spec.label, spec.speed_factor),
                    table_for(spec),
                );
                all.push(sed.clone());
                seds.push(sed);
            }
            las.push(AgentNode::leaf(&la.name, seds));
        }
        Ok((MasterAgent::new(&self.ma_name, las, scheduler), all))
    }
}

// ------------------------------------------------------- distributed topology

/// How a distributed deployment reports to a telemetry collector: every
/// component (MA, each LA, each SeD) gets its own private [`Obs`] and a
/// [`TelemetryFlusher`] shipping it to `collector` every `interval`.
#[derive(Debug, Clone)]
pub struct TelemetrySpec {
    pub collector: SocketAddr,
    pub interval: Duration,
}

/// The SeD-spawning callback threaded through the recursive site builder:
/// spawns and serves one site's SeDs, returning their local handles.
type SpawnSeds<'a> = dyn FnMut(
        &str,
        &[SedSpec],
        &mut Vec<Arc<SedHandle>>,
        &mut Vec<TcpServer>,
        &mut Vec<TelemetryFlusher>,
    ) -> Result<Vec<Arc<SedHandle>>, DietError>
    + 'a;

/// One simulated site in a distributed topology: an agent process serving
/// its local SeD processes and the agents of its child sites. Nesting
/// `children` builds arbitrarily deep trees (the paper's multi-site
/// Grid'5000 shape).
#[derive(Debug, Clone)]
pub struct TcpSiteSpec {
    pub name: String,
    pub seds: Vec<SedSpec>,
    pub children: Vec<TcpSiteSpec>,
}

/// A whole multi-site deployment to stand up as local TCP processes: one
/// MA process at the top (optionally with MA-local SeDs — a depth-1
/// hierarchy), one agent process per site, one server per SeD. Every edge
/// is a real socket; nothing shares memory except through the wire.
#[derive(Debug, Clone)]
pub struct TcpTopologySpec {
    pub ma_name: String,
    /// SeDs attached directly to the MA (depth-1 deployments).
    pub ma_seds: Vec<SedSpec>,
    pub sites: Vec<TcpSiteSpec>,
    /// Per-agent concurrent-forward cap (the `Busy` backpressure bound).
    pub admission_limit: Option<usize>,
    /// Per-hop deadline: how long any agent waits on one child subtree.
    pub child_timeout_ms: u64,
}

impl TcpTopologySpec {
    /// A linear chain of the given depth with `seds_per_leaf` SeDs at the
    /// bottom — the shape the finding-depth experiment sweeps. Depth 1 is
    /// an MA with local SeDs; depth `d` adds `d - 1` agent hops above them.
    pub fn chain(depth: usize, seds_per_leaf: usize) -> Self {
        let seds = |d: usize| {
            (0..seds_per_leaf)
                .map(|i| SedSpec {
                    label: format!("d{d}/s{i}"),
                    speed_factor: 1.0,
                })
                .collect::<Vec<_>>()
        };
        let mut spec = TcpTopologySpec {
            ma_name: format!("MA-d{depth}"),
            ma_seds: vec![],
            sites: vec![],
            admission_limit: None,
            child_timeout_ms: 2_000,
        };
        if depth <= 1 {
            spec.ma_seds = seds(depth);
            return spec;
        }
        // Build the chain bottom-up: the leaf site holds the SeDs, each
        // level above wraps it as its only child.
        let mut site = TcpSiteSpec {
            name: format!("la{}", depth - 1),
            seds: seds(depth),
            children: vec![],
        };
        for level in (1..depth - 1).rev() {
            site = TcpSiteSpec {
                name: format!("la{level}"),
                seds: vec![],
                children: vec![site],
            };
        }
        spec.sites = vec![site];
        spec
    }

    /// Validate: at least one SeD somewhere, unique labels and site names,
    /// positive speeds, no empty sites (a site must hold SeDs or children).
    pub fn validate(&self) -> Result<(), DietError> {
        fn walk(
            site: &TcpSiteSpec,
            labels: &mut HashSet<String>,
            names: &mut HashSet<String>,
        ) -> Result<usize, DietError> {
            if !names.insert(site.name.clone()) {
                return Err(DietError::Deployment(format!(
                    "duplicate site name {}",
                    site.name
                )));
            }
            if site.seds.is_empty() && site.children.is_empty() {
                return Err(DietError::Deployment(format!(
                    "site {} has neither SeDs nor children",
                    site.name
                )));
            }
            let mut count = 0;
            for sed in &site.seds {
                check_sed(sed, labels)?;
                count += 1;
            }
            for child in &site.children {
                count += walk(child, labels, names)?;
            }
            Ok(count)
        }
        fn check_sed(sed: &SedSpec, labels: &mut HashSet<String>) -> Result<(), DietError> {
            if sed.speed_factor <= 0.0 {
                return Err(DietError::Deployment(format!(
                    "SeD {} has non-positive speed",
                    sed.label
                )));
            }
            if !labels.insert(sed.label.clone()) {
                return Err(DietError::Deployment(format!(
                    "duplicate SeD label {}",
                    sed.label
                )));
            }
            Ok(())
        }
        let mut labels = HashSet::new();
        let mut names = HashSet::new();
        let mut total = 0;
        for sed in &self.ma_seds {
            check_sed(sed, &mut labels)?;
            total += 1;
        }
        for site in &self.sites {
            total += walk(site, &mut labels, &mut names)?;
        }
        if total == 0 {
            return Err(DietError::Deployment("topology has no SeDs".into()));
        }
        Ok(())
    }

    /// Stand the whole topology up as local TCP processes, bottom-up: SeD
    /// servers first, then each site's agent server (its node holding local
    /// SeD handles plus [`RemoteAgentClient`] stubs for its children), the
    /// MA process last. One shared [`Obs`] sink means a single trace
    /// snapshot shows every hop of a finding phase.
    pub fn deploy(
        &self,
        scheduler: Arc<dyn Scheduler>,
        table_for: impl FnMut(&SedSpec) -> ServiceTable,
    ) -> Result<TcpDeployment, DietError> {
        self.deploy_inner(scheduler, table_for, None)
    }

    /// Like [`deploy`](Self::deploy), but distributed-observability style:
    /// instead of one shared in-memory sink, every component keeps a
    /// *private* [`Obs`] and reports it to `telemetry.collector` through its
    /// own [`TelemetryFlusher`] — the shape a real multi-host deployment
    /// has, where nothing but the wire connects the processes. The unified
    /// view lives at the collector; [`TcpDeployment::obs`] only sees the
    /// MA's slice.
    pub fn deploy_with_telemetry(
        &self,
        scheduler: Arc<dyn Scheduler>,
        table_for: impl FnMut(&SedSpec) -> ServiceTable,
        telemetry: &TelemetrySpec,
    ) -> Result<TcpDeployment, DietError> {
        self.deploy_inner(scheduler, table_for, Some(telemetry))
    }

    fn deploy_inner(
        &self,
        scheduler: Arc<dyn Scheduler>,
        mut table_for: impl FnMut(&SedSpec) -> ServiceTable,
        telemetry: Option<&TelemetrySpec>,
    ) -> Result<TcpDeployment, DietError> {
        self.validate()?;
        let obs = Arc::new(Obs::new());
        let pool = Arc::new(TcpSedPool::new());
        let timeout = Duration::from_millis(self.child_timeout_ms.max(1));
        let agent_cfg = AgentConfig {
            admission_limit: self.admission_limit,
            obs: obs.clone(),
            ..AgentConfig::default()
        };
        let mut seds = Vec::new();
        let mut sed_servers = Vec::new();
        let mut agent_servers = Vec::new();
        let mut flushers = Vec::new();

        let flusher_for = |component_obs: Arc<Obs>, role: &str, label: &str, site: &str| {
            telemetry.map(|t| {
                TelemetryFlusher::spawn(
                    component_obs,
                    TelemetryConfig::new(t.collector, role, label)
                        .site(site)
                        .interval(t.interval),
                )
            })
        };

        let spawn_seds = |site: &str,
                          specs: &[SedSpec],
                          table_for: &mut dyn FnMut(&SedSpec) -> ServiceTable,
                          seds: &mut Vec<Arc<SedHandle>>,
                          sed_servers: &mut Vec<TcpServer>,
                          flushers: &mut Vec<TelemetryFlusher>|
         -> Result<Vec<Arc<SedHandle>>, DietError> {
            let mut local = Vec::new();
            for spec in specs {
                // Telemetry mode: the SeD records into its own island of
                // state and ships it; shared mode: everyone writes the one
                // deployment-wide sink directly.
                let sed_obs = match telemetry {
                    Some(_) => Arc::new(Obs::new()),
                    None => obs.clone(),
                };
                let sed = SedHandle::spawn_with_obs(
                    SedConfig::new(&spec.label, spec.speed_factor),
                    table_for(spec),
                    sed_obs.clone(),
                );
                let server = serve_sed_over_tcp(sed.clone())?;
                if let Some(f) = flusher_for(sed_obs, "sed", &spec.label, site) {
                    flushers.push(f);
                }
                pool.register(&spec.label, server.local_addr);
                sed_servers.push(server);
                seds.push(sed.clone());
                local.push(sed);
            }
            Ok(local)
        };

        // Recursion over the site tree threads every accumulator explicitly
        // (it can't capture: `spawn_seds` is already a &mut closure).
        #[allow(clippy::too_many_arguments)]
        fn build_site(
            site: &TcpSiteSpec,
            timeout: Duration,
            agent_cfg: &AgentConfig,
            per_component_obs: bool,
            spawn_seds: &mut SpawnSeds<'_>,
            seds: &mut Vec<Arc<SedHandle>>,
            sed_servers: &mut Vec<TcpServer>,
            agent_servers: &mut Vec<(String, TcpServer)>,
            agent_obs: &mut Vec<(String, Arc<Obs>)>,
            flushers: &mut Vec<TelemetryFlusher>,
        ) -> Result<Arc<RemoteAgentClient>, DietError> {
            let mut child_stubs = Vec::new();
            for child in &site.children {
                child_stubs.push(build_site(
                    child,
                    timeout,
                    agent_cfg,
                    per_component_obs,
                    spawn_seds,
                    seds,
                    sed_servers,
                    agent_servers,
                    agent_obs,
                    flushers,
                )?);
            }
            let local = spawn_seds(&site.name, &site.seds, seds, sed_servers, flushers)?;
            let node = AgentNode::leaf(&site.name, local);
            for stub in child_stubs {
                node.add_remote(stub);
            }
            let site_cfg = if per_component_obs {
                AgentConfig {
                    obs: Arc::new(Obs::new()),
                    ..agent_cfg.clone()
                }
            } else {
                agent_cfg.clone()
            };
            agent_obs.push((site.name.clone(), site_cfg.obs.clone()));
            let server = serve_agent_over_tcp_at(node, "127.0.0.1:0", site_cfg)?;
            let stub = RemoteAgentClient::with_timeout(&site.name, server.local_addr, timeout);
            agent_servers.push((site.name.clone(), server));
            Ok(stub)
        }

        // Agent flushers are attached after the recursive build — the
        // builder only records which Obs each site's agent got.
        let mut agent_obs: Vec<(String, Arc<Obs>)> = Vec::new();
        let mut site_stubs = Vec::new();
        for site in &self.sites {
            site_stubs.push(build_site(
                site,
                timeout,
                &agent_cfg,
                telemetry.is_some(),
                &mut |site_name, specs, seds, servers, flushers| {
                    spawn_seds(site_name, specs, &mut table_for, seds, servers, flushers)
                },
                &mut seds,
                &mut sed_servers,
                &mut agent_servers,
                &mut agent_obs,
                &mut flushers,
            )?);
        }
        for (name, site_obs) in agent_obs {
            if let Some(f) = flusher_for(site_obs, "la", &name, &name) {
                flushers.push(f);
            }
        }
        let ma_local = spawn_seds(
            &self.ma_name,
            &self.ma_seds,
            &mut table_for,
            &mut seds,
            &mut sed_servers,
            &mut flushers,
        )?;
        let root = AgentNode::leaf(&format!("{}/local", self.ma_name), ma_local);
        for stub in site_stubs {
            root.add_remote(stub);
        }
        let ma_obs = match telemetry {
            Some(_) => Arc::new(Obs::new()),
            None => obs.clone(),
        };
        let ma = MasterAgent::new_with_obs(&self.ma_name, vec![root], scheduler, ma_obs.clone());
        ma.set_collect_timeout(timeout);
        // Grid-wide data plane: one replica catalog shared by every SeD in
        // the topology (remote-subtree SeDs included — `register_catalog`
        // alone only reaches the MA-local ones), with the endpoint pool as
        // the SeD-to-SeD transfer resolver. This is what lets the workflow
        // engine keep intermediates on the grid.
        let catalog = Arc::new(ReplicaCatalog::new());
        for sed in &seds {
            sed.attach_catalog(catalog.clone());
            sed.set_resolver(pool.clone());
        }
        ma.register_catalog(catalog);
        let dag = DagEngine::new(ma.clone(), pool.clone(), DagEngineConfig::default());
        let ma_cfg = AgentConfig {
            obs: ma_obs.clone(),
            ..agent_cfg
        };
        let ma_server =
            serve_ma_over_tcp_with_dag(ma.clone(), vec![], "127.0.0.1:0", ma_cfg, dag.clone())?;
        if let Some(f) = flusher_for(ma_obs.clone(), "ma", &self.ma_name, &self.ma_name) {
            flushers.push(f);
        }
        let ma_client =
            RemoteAgentClient::with_timeout(&self.ma_name, ma_server.local_addr, timeout);
        Ok(TcpDeployment {
            obs: match telemetry {
                Some(_) => ma_obs,
                None => obs,
            },
            ma,
            ma_client,
            ma_server,
            agent_servers,
            pool,
            seds,
            sed_servers,
            flushers,
            dag,
        })
    }
}

/// A running multi-site topology of local TCP processes: every agent and
/// SeD behind its own listener, held together only by sockets. Tests kill
/// individual servers (via [`TcpDeployment::kill_agent`]) to simulate site
/// failures.
pub struct TcpDeployment {
    /// With [`TcpTopologySpec::deploy`]: the one sink every component
    /// records into. With
    /// [`deploy_with_telemetry`](TcpTopologySpec::deploy_with_telemetry):
    /// just the MA's private slice — the unified view is at the collector.
    pub obs: Arc<Obs>,
    /// The MA's in-process handle (for heartbeat monitors and assertions).
    pub ma: Arc<MasterAgent>,
    /// Client stub for the MA process — what submits go through.
    pub ma_client: Arc<RemoteAgentClient>,
    pub ma_server: TcpServer,
    /// `(site name, server)` per agent process, leaf-to-root order.
    pub agent_servers: Vec<(String, TcpServer)>,
    /// Endpoint registry for every SeD in the topology (clients call the
    /// chosen SeD directly through this).
    pub pool: Arc<TcpSedPool>,
    pub seds: Vec<Arc<SedHandle>>,
    pub sed_servers: Vec<TcpServer>,
    /// One per component when deployed with telemetry; empty otherwise.
    pub flushers: Vec<TelemetryFlusher>,
    /// The MA-side workflow engine `SubmitDag` frames land in (also usable
    /// directly by in-process tests: expander registration, assertions).
    pub dag: Arc<DagEngine>,
}

impl TcpDeployment {
    /// The listening address of the named site's agent process.
    pub fn agent_addr(&self, name: &str) -> Option<SocketAddr> {
        self.agent_servers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.local_addr)
    }

    /// Crash the named site's agent process: stop accepting and sever every
    /// live connection, exactly like the host dying. The SeDs below it keep
    /// running (clients already holding their labels can still call them);
    /// only the finding path through this agent goes dark.
    pub fn kill_agent(&self, name: &str) -> bool {
        match self.agent_servers.iter().find(|(n, _)| n == name) {
            Some((_, server)) => {
                server.kill();
                true
            }
            None => false,
        }
    }

    /// Push every component's pending telemetry to the collector right now
    /// (tests call this instead of sleeping out the flush interval).
    /// Returns how many component flushes failed.
    pub fn flush_telemetry(&self) -> usize {
        self.flushers
            .iter()
            .filter(|f| f.flush_now().is_err())
            .count()
    }

    /// Orderly teardown: agents first (no new findings), then the SeDs,
    /// then the telemetry flushers (each ships its final batch on the way
    /// out, so the collector sees the tail of the run).
    pub fn shutdown(mut self) {
        self.dag.shutdown();
        self.ma_server.kill();
        for (_, server) in &self.agent_servers {
            server.kill();
        }
        for server in &self.sed_servers {
            server.kill();
        }
        for sed in &self.seds {
            sed.shutdown();
        }
        for flusher in &mut self.flushers {
            flusher.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RoundRobin;

    fn paper_spec() -> DeploymentSpec {
        DeploymentSpec::paper_shape(&[
            ("lyon-capricorne", 0.80, 2),
            ("lyon-sagittaire", 1.00, 1),
            ("lille-chti", 0.90, 2),
            ("nancy-grelon", 1.15, 2),
            ("toulouse-violette", 0.80, 2),
            ("sophia-helios", 1.10, 2),
        ])
    }

    #[test]
    fn paper_shape_has_eleven_seds_and_six_las() {
        let d = paper_spec();
        assert_eq!(d.las.len(), 6);
        assert_eq!(d.total_seds(), 11);
        d.validate().unwrap();
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut d = paper_spec();
        d.las[0].seds[0].label = d.las[1].seds[0].label.clone();
        assert!(matches!(d.validate(), Err(DietError::Deployment(_))));
    }

    #[test]
    fn empty_la_rejected() {
        let mut d = paper_spec();
        d.las[2].seds.clear();
        assert!(d.validate().is_err());
    }

    #[test]
    fn non_positive_speed_rejected() {
        let mut d = paper_spec();
        d.las[0].seds[0].speed_factor = 0.0;
        assert!(d.validate().is_err());
    }

    #[test]
    fn instantiate_builds_working_hierarchy() {
        let d = paper_spec();
        let (ma, seds) = d
            .instantiate(Arc::new(RoundRobin::new()), |_| ServiceTable::init(1))
            .unwrap();
        assert_eq!(ma.sed_count(), 11);
        assert_eq!(seds.len(), 11);
        // No services registered: submit must say not-found.
        assert!(ma.submit("anything").is_err());
        for s in seds {
            s.shutdown();
        }
    }
}
