//! The client-side zoom workflow.
//!
//! The paper's client performs a fixed two-part protocol (Section 5.1): one
//! `ramsesZoom1` call, then — on receiving its results — simultaneous
//! `ramsesZoom2` calls for the halos of interest. [`ZoomWorkflow`] packages
//! that protocol over the live middleware so examples, tests and users don't
//! re-implement the catalog parsing and request fan-out.

use crate::archive;
use crate::namelist::Namelist;
use crate::services::{status, zoom1_profile, zoom2_profile};
use diet_core::client::{CallStats, DietClient};
use diet_core::dag::{DagExpander, DagInput, DagNodeSpec, DagOutcome, WorkflowSpec};
use diet_core::data::DietValue;
use diet_core::error::DietError;
use diet_core::hierarchy::RemoteAgentClient;
use diet_core::profile::{ramses_zoom2_desc, Profile};
use std::sync::Arc;
use std::time::Duration;

/// One halo parsed back from a `ramsesZoom1` result catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogHalo {
    pub id: u32,
    pub npart: usize,
    pub mass_msun: f64,
    /// Position as integer percent of the box (the wire format of the
    /// paper's `cx, cy, cz` profile arguments, which are `DIET_INT`s).
    pub center_pct: [i32; 3],
}

/// Result of one zoom re-simulation.
#[derive(Debug, Clone)]
pub struct ZoomResult {
    pub halo: CatalogHalo,
    pub server: String,
    pub stats: CallStats,
    /// Error code from the service (0 = success).
    pub status: i32,
    /// Number of galaxies in the returned catalog.
    pub n_galaxies: usize,
    /// Number of merger-tree nodes.
    pub n_tree_nodes: usize,
}

/// Outcome of the full workflow.
#[derive(Debug, Clone)]
pub struct WorkflowReport {
    pub halos_found: usize,
    pub zooms: Vec<ZoomResult>,
    /// Part-1 call stats.
    pub part1: CallStats,
}

impl WorkflowReport {
    /// Total middleware overhead across all calls (finding + send).
    pub fn total_overhead(&self) -> f64 {
        self.part1.overhead() + self.zooms.iter().map(|z| z.stats.overhead()).sum::<f64>()
    }

    pub fn all_succeeded(&self) -> bool {
        self.zooms.iter().all(|z| z.status == status::OK)
    }
}

/// The workflow driver.
pub struct ZoomWorkflow {
    pub namelist: Namelist,
    /// Particle resolution per dimension for both parts.
    pub resolution: i32,
    /// Box size, Mpc/h (integer — the paper ships it as `DIET_INT`).
    pub size_mpc_h: i32,
    /// Zoom levels per re-simulation (the paper's `nbBox`).
    pub nb_box: i32,
    /// Re-simulate at most this many halos, most massive first.
    pub max_zooms: usize,
}

impl ZoomWorkflow {
    pub fn new(namelist: Namelist, resolution: i32, size_mpc_h: i32) -> Self {
        ZoomWorkflow {
            namelist,
            resolution,
            size_mpc_h,
            nb_box: 2,
            max_zooms: 3,
        }
    }

    /// Parse the halo catalog text returned by `ramsesZoom1`.
    pub fn parse_catalog(text: &str) -> Vec<CatalogHalo> {
        let mut out: Vec<CatalogHalo> = text
            .lines()
            .skip(1)
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let id: u32 = f.first()?.parse().ok()?;
                let npart: usize = f.get(1)?.parse().ok()?;
                // "nan" and "inf" parse as f64: a row carrying one is as
                // malformed as one carrying a word.
                let finite = |i: usize| f.get(i)?.parse::<f64>().ok().filter(|x| x.is_finite());
                let mass = finite(2)?;
                let mut c = [0i32; 3];
                for (d, slot) in c.iter_mut().enumerate() {
                    *slot = (finite(3 + d)? * 100.0).round() as i32;
                }
                Some(CatalogHalo {
                    id,
                    npart,
                    mass_msun: mass,
                    center_pct: c,
                })
            })
            .collect();
        out.sort_by(|a, b| b.mass_msun.total_cmp(&a.mass_msun));
        out
    }

    /// Extract the halo catalog from a completed `ramsesZoom1` profile.
    fn halos_from_part1(r1: &Profile) -> Result<Vec<CatalogHalo>, DietError> {
        let code = r1.get_i32(3)?;
        if code != status::OK {
            return Err(DietError::SolveFailed {
                service: "ramsesZoom1".into(),
                status: code,
            });
        }
        let (_, tar) = r1.get_file(2)?;
        let entries =
            archive::unpack(tar).map_err(|e| DietError::Codec(format!("result tar: {e}")))?;
        let catalog = archive::find(&entries, "halos/catalog.txt")
            .ok_or_else(|| DietError::Codec("missing halo catalog".into()))?;
        Ok(Self::parse_catalog(&String::from_utf8_lossy(&catalog.data)))
    }

    /// Run the whole protocol: part 1, catalog extraction, simultaneous
    /// part-2 calls, result collection.
    pub fn run(&self, client: &DietClient) -> Result<WorkflowReport, DietError> {
        // ---- part 1 -------------------------------------------------------
        let (r1, part1) = client.call(zoom1_profile(&self.namelist, self.resolution))?;
        let halos = Self::halos_from_part1(&r1)?;

        // ---- part 2: all requests issued before any wait ------------------
        let targets: Vec<CatalogHalo> = halos.iter().take(self.max_zooms).copied().collect();
        let mut handles = Vec::with_capacity(targets.len());
        for h in &targets {
            let p = zoom2_profile(
                &self.namelist,
                self.resolution,
                self.size_mpc_h,
                h.center_pct,
                self.nb_box,
            );
            handles.push((*h, client.async_call(p)?));
        }

        let mut zooms = Vec::with_capacity(handles.len());
        for (halo, handle) in handles {
            let server = handle.server().to_string();
            let (r2, stats) = handle.wait()?;
            client.record(&server, stats);
            let code = r2.get_i32(8)?;
            let (n_galaxies, n_tree_nodes) = if code == status::OK {
                let (_, tar) = r2.get_file(7)?;
                let entries =
                    archive::unpack(tar).map_err(|e| DietError::Codec(format!("zoom tar: {e}")))?;
                let count_rows = |name: &str| {
                    archive::find(&entries, name)
                        .map(|e| {
                            String::from_utf8_lossy(&e.data)
                                .lines()
                                .count()
                                .saturating_sub(1)
                        })
                        .unwrap_or(0)
                };
                (
                    count_rows("galaxies/catalog.txt"),
                    count_rows("tree/mergertree.txt"),
                )
            } else {
                (0, 0)
            };
            zooms.push(ZoomResult {
                halo,
                server,
                stats,
                status: code,
                n_galaxies,
                n_tree_nodes,
            });
        }

        Ok(WorkflowReport {
            halos_found: halos.len(),
            zooms,
            part1,
        })
    }

    /// The workflow as a task DAG for the MA-side engine: one `ramsesZoom1`
    /// root carrying the [`zoom_fanout_expander`] hook — the part-2 fan-out
    /// is only known once part 1's halo catalog exists, so the zoom2 nodes
    /// are added engine-side when the root completes. Each zoom2 node wires
    /// its namelist (arg 0) from the root's published copy: the catalog and
    /// every intermediate stay on the grid.
    pub fn dag_spec(&self) -> WorkflowSpec {
        let mut root = DagNodeSpec::new(0, zoom1_profile(&self.namelist, self.resolution));
        root.expander = Some("zoom_fanout".into());
        root.params = vec![
            ("resolution".into(), self.resolution.to_string()),
            ("size_mpc_h".into(), self.size_mpc_h.to_string()),
            ("nb_box".into(), self.nb_box.to_string()),
            ("max_zooms".into(), self.max_zooms.to_string()),
        ];
        WorkflowSpec {
            name: "zoom-pipeline".into(),
            nodes: vec![root],
        }
    }

    /// Run the protocol as an engine-scheduled DAG (the MA-DAG path):
    /// submit [`dag_spec`](Self::dag_spec) through `ma`, block until the
    /// engine finishes every node, and fold the outcome into a
    /// [`DagWorkflowReport`]. Unlike [`run`](Self::run), no intermediate
    /// snapshot crosses the client link — the report carries status codes
    /// and grid data-refs, with payloads fetchable on demand.
    pub fn run_dag(
        &self,
        client: &DietClient,
        ma: &RemoteAgentClient,
        timeout: Duration,
    ) -> Result<DagWorkflowReport, DietError> {
        let handle = client.submit_dag(ma, &self.dag_spec())?;
        let (outcome, _events) = client.wait_dag(ma, &handle, timeout)?;
        Ok(DagWorkflowReport::from_outcome(handle.trace_id, outcome))
    }

    /// Run the protocol as a durable campaign: part 1 is called directly
    /// (its halo catalog must come back to the client to plan the
    /// fan-out), then every `ramsesZoom2` request is submitted to the
    /// jobserver as one crash-recoverable campaign. The jobserver owns
    /// dispatch, retries, SeD failover, and — because every transition is
    /// WAL-logged — survives its own `kill -9` mid-campaign without
    /// recomputing finished zooms. Re-running with the same `name` after
    /// a *client* crash re-attaches instead of duplicating the work.
    #[allow(clippy::too_many_arguments)]
    pub fn run_via_jobserver(
        &self,
        client: &DietClient,
        ma: &RemoteAgentClient,
        pool: &diet_core::transport::TcpSedPool,
        policy: &diet_core::RetryPolicy,
        job: &diet_core::jobserver::JobClient,
        name: &str,
        poll: Duration,
        timeout: Duration,
    ) -> Result<JobWorkflowReport, DietError> {
        let (r1, part1) = client.call_distributed(
            ma,
            pool,
            zoom1_profile(&self.namelist, self.resolution),
            policy,
        )?;
        let halos = Self::halos_from_part1(&r1)?;
        let tasks: Vec<diet_core::jobserver::TaskPayload> = halos
            .iter()
            .take(self.max_zooms)
            .map(|h| {
                diet_core::jobserver::TaskPayload::Call(zoom2_profile(
                    &self.namelist,
                    self.resolution,
                    self.size_mpc_h,
                    h.center_pct,
                    self.nb_box,
                ))
            })
            .collect();
        let campaign = crate::campaign::run_live_campaign(job, name, tasks, poll, timeout)?;
        Ok(JobWorkflowReport {
            halos_found: halos.len(),
            part1,
            campaign,
        })
    }
}

/// Outcome of [`ZoomWorkflow::run_via_jobserver`]: the direct part-1 call
/// plus the durable part-2 campaign.
#[derive(Debug, Clone)]
pub struct JobWorkflowReport {
    pub halos_found: usize,
    /// Part-1 call stats (direct client call, as in [`ZoomWorkflow::run`]).
    pub part1: CallStats,
    /// The jobserver-executed zoom fan-out.
    pub campaign: crate::campaign::LiveCampaignReport,
}

impl JobWorkflowReport {
    pub fn all_succeeded(&self) -> bool {
        self.campaign.all_done()
    }
}

/// One zoom2 node folded out of a [`DagOutcome`].
#[derive(Debug, Clone)]
pub struct DagZoomResult {
    pub node: u32,
    /// SeD whose reply won.
    pub server: String,
    /// Service status code (arg 8), or -1 when the node never completed.
    pub status: i32,
    /// Grid ref of the result tarball (fetch via the pool if wanted).
    pub tar_id: Option<String>,
    pub duration_ms: u64,
    pub speculated: bool,
    pub attempts: u32,
}

/// Outcome of [`ZoomWorkflow::run_dag`]: the engine-side counterpart of
/// [`WorkflowReport`] — refs and codes instead of payloads.
#[derive(Debug, Clone)]
pub struct DagWorkflowReport {
    pub dag_id: u64,
    /// The workflow trace every node span stitched under.
    pub trace_id: u64,
    pub ok: bool,
    pub makespan_ms: u64,
    /// Part-1 status code (arg 3), or -1 when the root failed outright.
    pub part1_status: i32,
    pub zooms: Vec<DagZoomResult>,
}

impl DagWorkflowReport {
    pub fn from_outcome(trace_id: u64, outcome: DagOutcome) -> Self {
        let scalar = |n: &diet_core::dag::DagNodeOutcome, arg: u32| {
            n.scalars
                .iter()
                .find(|(a, _)| *a == arg)
                .map(|(_, v)| *v as i32)
        };
        let part1_status = outcome
            .nodes
            .iter()
            .find(|n| n.service == "ramsesZoom1")
            .and_then(|n| scalar(n, 3))
            .unwrap_or(-1);
        let zooms = outcome
            .nodes
            .iter()
            .filter(|n| n.service == "ramsesZoom2")
            .map(|n| DagZoomResult {
                node: n.node,
                server: n.sed.clone(),
                status: scalar(n, 8).unwrap_or(n.status),
                tar_id: n
                    .outputs
                    .iter()
                    .find(|(a, _)| *a == 7)
                    .map(|(_, id)| id.clone()),
                duration_ms: n.duration_ms,
                speculated: n.speculated,
                attempts: n.attempts,
            })
            .collect();
        DagWorkflowReport {
            dag_id: outcome.dag_id,
            trace_id,
            ok: outcome.ok,
            makespan_ms: outcome.makespan_ms,
            part1_status,
            zooms,
        }
    }

    pub fn all_succeeded(&self) -> bool {
        self.ok
            && self.part1_status == status::OK
            && !self.zooms.is_empty()
            && self.zooms.iter().all(|z| z.status == status::OK)
    }
}

/// The dynamic fan-out hook behind [`ZoomWorkflow::dag_spec`], registered
/// engine-side under the name `"zoom_fanout"`. When the `ramsesZoom1` root
/// completes, the expander pulls the result tarball *within the grid*
/// (catalog lookup + SeD fetch — nothing reaches the client), parses the
/// halo catalog, and emits one `ramsesZoom2` node per selected halo. Each
/// node's namelist argument is wired from the root's published copy, so
/// the engine places zooms by data locality.
pub fn zoom_fanout_expander() -> DagExpander {
    Arc::new(|ctx| {
        let param_i32 = |key: &str, default: i32| {
            ctx.param(key)
                .and_then(|s| s.parse::<i32>().ok())
                .unwrap_or(default)
        };
        let resolution = param_i32("resolution", 8);
        let size_mpc_h = param_i32("size_mpc_h", 50);
        let nb_box = param_i32("nb_box", 2);
        let max_zooms = param_i32("max_zooms", 3).max(0) as usize;

        let code = ctx.reply.get_i32(3)?;
        if code != status::OK {
            return Err(DietError::SolveFailed {
                service: "ramsesZoom1".into(),
                status: code,
            });
        }
        let tar_id = ctx
            .output_id(2)
            .ok_or_else(|| DietError::Rejected("zoom1 published no result tarball".into()))?;
        let tar = match (ctx.fetch)(tar_id)? {
            DietValue::File { data, .. } => data,
            other => {
                return Err(DietError::Rejected(format!(
                    "zoom1 tarball ref resolved to {}",
                    other.type_name()
                )))
            }
        };
        let entries =
            archive::unpack(&tar).map_err(|e| DietError::Codec(format!("result tar: {e}")))?;
        let catalog = archive::find(&entries, "halos/catalog.txt")
            .ok_or_else(|| DietError::Codec("missing halo catalog".into()))?;
        let halos = ZoomWorkflow::parse_catalog(&String::from_utf8_lossy(&catalog.data));

        let mut nodes = Vec::new();
        for (k, halo) in halos.iter().take(max_zooms).enumerate() {
            let d = ramses_zoom2_desc();
            let mut p = Profile::alloc(&d);
            // Arg 0 (the namelist) stays Null here: the engine wires it to
            // the root's published copy at launch.
            let scalars = [
                (1, resolution),
                (2, size_mpc_h),
                (3, halo.center_pct[0]),
                (4, halo.center_pct[1]),
                (5, halo.center_pct[2]),
                (6, nb_box),
            ];
            for (i, v) in scalars {
                p.set(
                    i,
                    DietValue::ScalarI32(v),
                    diet_core::data::Persistence::Volatile,
                )?;
            }
            let mut n = DagNodeSpec::new(ctx.next_id + k as u32, p);
            n.deps = vec![ctx.node];
            n.inputs = vec![DagInput {
                arg: 0,
                from_node: ctx.node,
                from_arg: 0,
            }];
            nodes.push(n);
        }
        Ok(nodes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_parser_sorts_by_mass() {
        let text = "# id npart mass_msun x y z vx vy vz radius sigma_v spin\n\
                    0 10 1.0e14 0.1 0.2 0.3 0 0 0 0.01 0.1 0.02\n\
                    1 30 5.0e14 0.5 0.6 0.7 0 0 0 0.02 0.1 0.02\n\
                    2 20 2.0e14 0.9 0.8 0.7 0 0 0 0.015 0.1 0.02\n";
        let halos = ZoomWorkflow::parse_catalog(text);
        assert_eq!(halos.len(), 3);
        assert_eq!(halos[0].id, 1);
        assert_eq!(halos[0].center_pct, [50, 60, 70]);
        assert_eq!(halos[1].id, 2);
        assert_eq!(halos[2].npart, 10);
    }

    #[test]
    fn catalog_parser_skips_malformed_lines() {
        let text = "# header\nnot a number at all\n0 5 1e14 0.1 0.1 0.1 0 0 0 0.01 0 0\n\
                    1 5 nan 0.1 0.1 0.1 0 0 0 0.01 0 0\n\
                    2 5 2e14 0.1 inf 0.1 0 0 0 0.01 0 0\n";
        let halos = ZoomWorkflow::parse_catalog(text);
        assert_eq!(halos.len(), 1);
        assert_eq!(halos[0].id, 0);
    }

    #[test]
    fn empty_catalog_gives_no_targets() {
        let halos = ZoomWorkflow::parse_catalog("# header only\n");
        assert!(halos.is_empty());
    }

    use crate::namelist::default_run_namelist;
    use crate::services::{cosmology_service_table, zoom2_failure_table, FailOnce};
    use diet_core::deploy::TcpTopologySpec;
    use diet_core::sched::RoundRobin;

    fn quick_namelist() -> Namelist {
        let mut nl = default_run_namelist(8, 50.0);
        nl.set("INIT_PARAMS", "aexp_ini", 0.1);
        nl.set("OUTPUT_PARAMS", "aout", "0.5, 1.0");
        nl
    }

    fn quick_workflow(nb_box: i32) -> ZoomWorkflow {
        ZoomWorkflow {
            namelist: quick_namelist(),
            resolution: 8,
            size_mpc_h: 50,
            nb_box,
            max_zooms: 3,
        }
    }

    // A part-2 zoom failing must come back as an in-band status code on
    // that zoom, not abort the rest of the fan-out: `nb_box = 0` makes
    // every `ramsesZoom2` reply BAD_ZOOM, yet the report still carries
    // one entry per planned zoom.
    #[test]
    fn part2_failures_do_not_abort_the_fanout() {
        let spec = TcpTopologySpec::paper_shape(&[("nancy", 1.15, 2), ("orsay", 1.0, 2)]);
        let (ma, seds) = spec
            .instantiate(Arc::new(RoundRobin::new()), |_| cosmology_service_table())
            .unwrap();
        let client = DietClient::initialize(ma);

        let workflow = quick_workflow(0);
        let report = workflow.run(&client).unwrap();

        assert!(!report.all_succeeded());
        assert!(!report.zooms.is_empty());
        assert_eq!(
            report.zooms.len(),
            report.halos_found.min(workflow.max_zooms),
            "a failing zoom must not abort the remaining zooms"
        );
        for z in &report.zooms {
            assert_eq!(z.status, status::BAD_ZOOM);
            assert_eq!(z.n_galaxies, 0, "failed zooms yield no galaxy counts");
            assert_eq!(z.n_tree_nodes, 0);
        }

        for s in seds {
            s.shutdown();
        }
    }

    // Mixed outcome: exactly one zoom2 solve (campaign-wide) fails, the
    // siblings run to completion with OK status — partial failure is
    // isolated per zoom.
    #[test]
    fn single_zoom_failure_leaves_siblings_ok() {
        let trip = FailOnce::new();
        let spec = TcpTopologySpec::paper_shape(&[("nancy", 1.15, 2), ("orsay", 1.0, 2)]);
        let (ma, seds) = spec
            .instantiate(Arc::new(RoundRobin::new()), {
                let trip = trip.clone();
                move |_| zoom2_failure_table(trip.clone())
            })
            .unwrap();
        let client = DietClient::initialize(ma);

        let report = quick_workflow(2).run(&client).unwrap();

        assert!(!report.all_succeeded());
        let failed: Vec<_> = report
            .zooms
            .iter()
            .filter(|z| z.status != status::OK)
            .collect();
        assert_eq!(failed.len(), 1, "exactly one zoom should have failed");
        assert_eq!(failed[0].status, status::BAD_ZOOM);
        assert_eq!(failed[0].n_galaxies, 0);
        assert!(
            report.zooms.len() > 1,
            "need sibling zooms to observe isolation"
        );
        for z in report.zooms.iter().filter(|z| z.status == status::OK) {
            // Siblings completed their full post-processing.
            assert!(z.n_tree_nodes > 0 || z.n_galaxies > 0 || z.status == status::OK);
        }

        for s in seds {
            s.shutdown();
        }
    }

    // The expander variant of the same contract: a non-OK part-1 reply is
    // a hard error (nothing to fan out), surfaced as SolveFailed.
    #[test]
    fn fanout_expander_rejects_failed_part1() {
        let d = diet_core::profile::ramses_zoom1_desc();
        let mut reply = Profile::alloc(&d);
        reply
            .set(
                3,
                DietValue::ScalarI32(status::BAD_RESOLUTION),
                diet_core::data::Persistence::Volatile,
            )
            .unwrap();
        let ctx = diet_core::dag::ExpandCtx {
            dag_id: 1,
            node: 0,
            reply: &reply,
            outputs: &[],
            params: &[],
            next_id: 1,
            fetch: &|_id: &str| Err(DietError::DataNotFound("unused".into())),
        };
        let err = zoom_fanout_expander()(&ctx).unwrap_err();
        match err {
            DietError::SolveFailed { service, status } => {
                assert_eq!(service, "ramsesZoom1");
                assert_eq!(status, crate::services::status::BAD_RESOLUTION);
            }
            other => panic!("expected SolveFailed, got {other:?}"),
        }
    }
}
