//! Deployment descriptions.
//!
//! "For performance reasons, the hierarchy of agents should be deployed
//! depending on the underlying network topology." A [`TcpTopologySpec`] is
//! the one description of that mapping: an MA, a tree of sites (one agent
//! each) and SeDs with per-SeD speed factors — for instance the paper's
//! Grid'5000 shape, one LA per cluster and two SeDs per cluster (one for a
//! restricted cluster), see [`TcpTopologySpec::paper_shape`]. The spec is
//! validated once and has two back-ends:
//!
//! - [`TcpTopologySpec::instantiate`] builds the site tree in this process
//!   as nested [`AgentNode`]s under one [`MasterAgent`];
//! - [`TcpTopologySpec::deploy`] (and
//!   [`deploy_with_telemetry`](TcpTopologySpec::deploy_with_telemetry))
//!   stands every SeD, site agent and the MA up behind its own loopback TCP
//!   listener, joined only by sockets.

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

/// How a distributed deployment reports to a telemetry collector: every
/// component (MA, each LA, each SeD) gets its own private [`Obs`] and a
/// [`TelemetryFlusher`] shipping it to `collector` every `interval`.
#[derive(Debug, Clone)]
pub struct TelemetrySpec {
    pub collector: SocketAddr,
    pub interval: Duration,
}

/// One site of a topology: an agent serving its local SeDs and the agents
/// of its child sites. Nesting `children` builds arbitrarily deep trees
/// (the paper's multi-site Grid'5000 shape).
#[derive(Debug, Clone)]
pub struct TcpSiteSpec {
    pub name: String,
    pub seds: Vec<SedSpec>,
    pub children: Vec<TcpSiteSpec>,
}

/// A whole multi-site deployment: one MA at the top (optionally with
/// MA-local SeDs — a depth-1 hierarchy), one agent per site, one SeD per
/// [`SedSpec`]. Deployed over TCP, every edge is a real socket and nothing
/// shares memory except through the wire.
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
    /// The paper's deployment shape: an MA over one site `LA-{name}` per
    /// cluster, each holding `n_seds` SeDs `{name}/{i}` at the cluster's
    /// speed factor — 6 LAs (2 Lyon clusters, Lille, Nancy, Toulouse,
    /// Sophia) and 11 SeDs on Grid'5000.
    pub fn paper_shape(speeds: &[(&str, f64, usize)]) -> Self {
        let sites = speeds
            .iter()
            .map(|(name, speed, n_seds)| TcpSiteSpec {
                name: format!("LA-{name}"),
                seds: (0..*n_seds)
                    .map(|i| SedSpec {
                        label: format!("{name}/{i}"),
                        speed_factor: *speed,
                    })
                    .collect(),
                children: vec![],
            })
            .collect();
        TcpTopologySpec {
            ma_name: "MA".into(),
            ma_seds: vec![],
            sites,
            admission_limit: None,
            child_timeout_ms: 2_000,
        }
    }

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

    /// Build the topology in this process: every site becomes an
    /// [`AgentNode`] over its child sites' nodes and its own SeDs, MA-local
    /// SeDs sit in a `{ma}/local` leaf, and the MA runs the given
    /// scheduler. Each SeD gets its service table from `table_for`. Returns
    /// the MA and every SeD handle (for shutdown), children before parents.
    pub fn instantiate(
        &self,
        scheduler: Arc<dyn Scheduler>,
        mut table_for: impl FnMut(&SedSpec) -> ServiceTable,
    ) -> Result<(Arc<MasterAgent>, Vec<Arc<SedHandle>>), DietError> {
        fn site(
            spec: &TcpSiteSpec,
            spawn: &mut dyn FnMut(&SedSpec) -> Arc<SedHandle>,
        ) -> Arc<AgentNode> {
            let children = spec.children.iter().map(|c| site(c, spawn)).collect();
            let node = AgentNode::interior(&spec.name, children);
            for sed in &spec.seds {
                node.add_sed(spawn(sed));
            }
            node
        }
        self.validate()?;
        let mut all = Vec::new();
        let mut spawn = |spec: &SedSpec| {
            let sed = SedHandle::spawn(
                SedConfig::new(&spec.label, spec.speed_factor),
                table_for(spec),
            );
            all.push(sed.clone());
            sed
        };
        let mut nodes: Vec<_> = self.sites.iter().map(|s| site(s, &mut spawn)).collect();
        if !self.ma_seds.is_empty() {
            let local = self.ma_seds.iter().map(&mut spawn).collect();
            nodes.push(AgentNode::leaf(&format!("{}/local", self.ma_name), local));
        }
        Ok((MasterAgent::new(&self.ma_name, nodes, scheduler), all))
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
        table_for: impl FnMut(&SedSpec) -> ServiceTable,
        telemetry: Option<&TelemetrySpec>,
    ) -> Result<TcpDeployment, DietError> {
        self.validate()?;
        let shared = Arc::new(Obs::new());
        let mut b = TcpBuilder {
            telemetry,
            table_for,
            pool: Arc::new(TcpSedPool::new()),
            timeout: Duration::from_millis(self.child_timeout_ms.max(1)),
            agent_cfg: AgentConfig {
                admission_limit: self.admission_limit,
                obs: shared.clone(),
                ..AgentConfig::default()
            },
            shared,
            seds: Vec::new(),
            sed_servers: Vec::new(),
            agent_servers: Vec::new(),
            flushers: Vec::new(),
        };
        let site_stubs = self
            .sites
            .iter()
            .map(|site| b.site(site))
            .collect::<Result<Vec<_>, _>>()?;
        let ma_local = b.seds(&self.ma_seds, &self.ma_name)?;
        let root = AgentNode::leaf(&format!("{}/local", self.ma_name), ma_local);
        for stub in site_stubs {
            root.add_remote(stub);
        }
        let ma_obs = b.obs_for("ma", &self.ma_name, &self.ma_name);
        let ma = MasterAgent::new_with_obs(&self.ma_name, vec![root], scheduler, ma_obs.clone());
        ma.set_collect_timeout(b.timeout);
        // Grid-wide data plane: one replica catalog shared by every SeD in
        // the topology (remote-subtree SeDs included — `register_catalog`
        // alone only reaches the MA-local ones), with the endpoint pool as
        // the SeD-to-SeD transfer resolver. This is what lets the workflow
        // engine keep intermediates on the grid.
        let catalog = Arc::new(ReplicaCatalog::new());
        for sed in &b.seds {
            sed.attach_catalog(catalog.clone());
            sed.set_resolver(b.pool.clone());
        }
        ma.register_catalog(catalog);
        let dag = DagEngine::new(ma.clone(), b.pool.clone(), DagEngineConfig::default());
        let ma_cfg = b.agent_cfg_for(ma_obs.clone());
        let ma_server =
            serve_ma_over_tcp_with_dag(ma.clone(), vec![], "127.0.0.1:0", ma_cfg, dag.clone())?;
        let ma_client =
            RemoteAgentClient::with_timeout(&self.ma_name, ma_server.local_addr, b.timeout);
        Ok(TcpDeployment {
            // The shared sink itself, or the MA's private slice.
            obs: ma_obs,
            ma,
            ma_client,
            ma_server,
            agent_servers: b.agent_servers,
            pool: b.pool,
            seds: b.seds,
            sed_servers: b.sed_servers,
            flushers: b.flushers,
            dag,
        })
    }
}

/// The TCP back-end's state while a topology is stood up: the pieces every
/// agent and SeD share, and what the finished [`TcpDeployment`] holds.
struct TcpBuilder<'t, F> {
    telemetry: Option<&'t TelemetrySpec>,
    table_for: F,
    /// The one sink every component records into without telemetry.
    shared: Arc<Obs>,
    pool: Arc<TcpSedPool>,
    timeout: Duration,
    /// What every agent server is configured with, bar its sink.
    agent_cfg: AgentConfig,
    seds: Vec<Arc<SedHandle>>,
    sed_servers: Vec<TcpServer>,
    agent_servers: Vec<(String, TcpServer)>,
    flushers: Vec<TelemetryFlusher>,
}

impl<F: FnMut(&SedSpec) -> ServiceTable> TcpBuilder<'_, F> {
    /// The sink one component records into: the deployment-wide one, or
    /// with telemetry a private one its own flusher ships to the collector.
    fn obs_for(&mut self, role: &str, label: &str, site: &str) -> Arc<Obs> {
        let Some(t) = self.telemetry else {
            return self.shared.clone();
        };
        let obs = Arc::new(Obs::new());
        let cfg = TelemetryConfig::new(t.collector, role, label)
            .site(site)
            .interval(t.interval);
        self.flushers
            .push(TelemetryFlusher::spawn(obs.clone(), cfg));
        obs
    }

    fn agent_cfg_for(&self, obs: Arc<Obs>) -> AgentConfig {
        AgentConfig {
            obs,
            ..self.agent_cfg.clone()
        }
    }

    /// Spawn and serve one site's SeDs, registering each in the pool.
    fn seds(&mut self, specs: &[SedSpec], site: &str) -> Result<Vec<Arc<SedHandle>>, DietError> {
        let mut local = Vec::with_capacity(specs.len());
        for spec in specs {
            let obs = self.obs_for("sed", &spec.label, site);
            let sed = SedHandle::spawn_with_obs(
                SedConfig::new(&spec.label, spec.speed_factor),
                (self.table_for)(spec),
                obs,
            );
            let server = serve_sed_over_tcp(sed.clone())?;
            self.pool.register(&spec.label, server.local_addr);
            self.sed_servers.push(server);
            self.seds.push(sed.clone());
            local.push(sed);
        }
        Ok(local)
    }

    /// Stand one site up, child sites first, and return the stub its parent
    /// reaches its agent server through.
    fn site(&mut self, site: &TcpSiteSpec) -> Result<Arc<RemoteAgentClient>, DietError> {
        let child_stubs = site
            .children
            .iter()
            .map(|child| self.site(child))
            .collect::<Result<Vec<_>, _>>()?;
        let node = AgentNode::leaf(&site.name, self.seds(&site.seds, &site.name)?);
        for stub in child_stubs {
            node.add_remote(stub);
        }
        let obs = self.obs_for("la", &site.name, &site.name);
        let server = serve_agent_over_tcp_at(node, "127.0.0.1:0", self.agent_cfg_for(obs))?;
        let stub = RemoteAgentClient::with_timeout(&site.name, server.local_addr, self.timeout);
        self.agent_servers.push((site.name.clone(), server));
        Ok(stub)
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
    use crate::data::{DietValue, Persistence};
    use crate::profile::{ArgTag, Profile, ProfileDesc};
    use crate::sched::RoundRobin;
    use crate::sed::SolveFn;
    use obs::TraceCtx;
    use std::collections::BTreeSet;

    fn paper_spec() -> TcpTopologySpec {
        TcpTopologySpec::paper_shape(&[
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
        assert_eq!(d.sites.len(), 6);
        assert_eq!(d.sites.iter().map(|s| s.seds.len()).sum::<usize>(), 11);
        assert!(d.ma_seds.is_empty());
        assert!(d.sites.iter().all(|s| s.children.is_empty()));
        assert_eq!(d.sites[1].name, "LA-lyon-sagittaire");
        assert_eq!(d.sites[1].seds[0].label, "lyon-sagittaire/0");
        d.validate().unwrap();
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut d = paper_spec();
        d.sites[0].seds[0].label = d.sites[1].seds[0].label.clone();
        assert!(matches!(d.validate(), Err(DietError::Deployment(_))));
    }

    #[test]
    fn empty_site_rejected() {
        let mut d = paper_spec();
        d.sites[2].seds.clear();
        assert!(d.validate().is_err());
    }

    #[test]
    fn non_positive_speed_rejected() {
        let mut d = paper_spec();
        d.sites[0].seds[0].speed_factor = 0.0;
        assert!(d.validate().is_err());
    }

    /// Two services declared unevenly: every SeD solves `echo`, only the
    /// first SeD of each site also solves `twice`.
    fn two_service_table(spec: &SedSpec) -> ServiceTable {
        let mut t = ServiceTable::init(2);
        let services: &[&str] = if spec.label.ends_with("/0") {
            &["echo", "twice"]
        } else {
            &["echo"]
        };
        for name in services {
            let mut d = ProfileDesc::alloc(name, 0, 0, 1);
            d.set_arg(0, ArgTag::Scalar).unwrap();
            let solve: SolveFn = Arc::new(|p: &mut Profile| {
                let x = p.get_i32(0)?;
                p.set(1, DietValue::ScalarI32(x), Persistence::Volatile)?;
                Ok(0)
            });
            t.add(d, solve).unwrap();
        }
        t
    }

    // One spec, two back-ends, the same grid: the in-process tree and the
    // TCP processes hold the same SeDs, and finding sees the same solvers
    // for each service (the deployed MA reaches its sites over the wire).
    #[test]
    fn instantiate_and_deploy_build_the_same_grid() {
        let spec = paper_spec();
        let (ma, seds) = spec
            .instantiate(Arc::new(RoundRobin::new()), two_service_table)
            .unwrap();
        let d = spec
            .deploy(Arc::new(RoundRobin::new()), two_service_table)
            .unwrap();
        let labels = |seds: &[Arc<SedHandle>]| {
            seds.iter()
                .map(|s| s.config.label.clone())
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(seds.len(), 11);
        assert_eq!(labels(&ma.all_seds()), labels(&seds));
        assert_eq!(labels(&d.seds), labels(&seds));
        assert_eq!(d.agent_servers.len(), 6);
        for (service, solvers) in [("echo", 11), ("twice", 6)] {
            assert_eq!(ma.solver_count(service), solvers);
            let found: BTreeSet<_> =
                d.ma.estimates(service, &[], TraceCtx::default())
                    .into_iter()
                    .map(|e| e.server)
                    .collect();
            let declared: BTreeSet<_> = seds
                .iter()
                .filter(|s| s.declares(service))
                .map(|s| s.config.label.clone())
                .collect();
            assert_eq!(found, declared, "{service}");
            assert_eq!(found.len(), solvers, "{service}");
        }
        assert!(ma.submit("anything").is_err());
        d.shutdown();
        for s in seds {
            s.shutdown();
        }
    }
}
