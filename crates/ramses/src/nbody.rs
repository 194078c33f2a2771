//! Top-level simulation driver.
//!
//! Mirrors the RAMSES run loop the paper's services execute: read initial
//! conditions (single-level or zoom), advance dark matter with the PM/AMR
//! machinery from `a_init` to `a_end`, and emit snapshots at a prescribed
//! list of expansion factors — "Given a list of time steps (or expansion
//! factor), RAMSES outputs the current state of the universe".

use crate::amr::{AmrParams, Octree};
use crate::cosmology::Cosmology;
use crate::gravity::{drift, kick, ForceField, PmGravity, StepControl};
use crate::hydro::{HydroGrid, Prim, Riemann, GAMMA_DEFAULT};
use crate::particles::{cic_deposit, Particles};
use crate::units::Units;
use grafic::CosmoParams;
use rayon::prelude::*;

/// Gas (baryon) component configuration. When present, the simulation
/// co-evolves an Eulerian gas fluid on the PM mesh alongside the dark
/// matter, coupled through the same gravitational potential — the
/// "N body solver, coupled to a finite volume Euler solver" of the paper.
///
/// Simplifications relative to full RAMSES (documented in DESIGN.md): the
/// gas is initialised tracing the dark matter with density `f_baryon·ρ_dm`,
/// it feels the dark-matter potential but does not source gravity itself
/// (baryons are ~16% of the matter), and the expansion-drag terms of the
/// supercomoving formulation are dropped.
#[derive(Debug, Clone, Copy)]
pub struct GasParams {
    /// Baryon fraction Ωb/Ωm used to set the initial gas density.
    pub f_baryon: f64,
    /// Adiabatic index.
    pub gamma: f64,
    /// Riemann solver for the Godunov sweeps.
    pub riemann: Riemann,
    /// Initial (uniform) gas pressure in code units — sets the IC
    /// temperature floor.
    pub p_init: f64,
    /// Hydro CFL number.
    pub cfl: f64,
}

impl Default for GasParams {
    fn default() -> Self {
        GasParams {
            f_baryon: 0.16,
            gamma: GAMMA_DEFAULT,
            riemann: Riemann::Hllc,
            p_init: 1e-8,
            cfl: 0.4,
        }
    }
}

/// Run configuration — the analog of the RAMSES namelist file the client
/// ships as the first profile argument.
#[derive(Debug, Clone)]
pub struct RunParams {
    pub cosmo: CosmoParams,
    /// Box size in Mpc/h.
    pub box_mpc_h: f64,
    /// PM base mesh per dimension.
    pub mesh_n: usize,
    /// Final expansion factor.
    pub a_end: f64,
    /// Expansion factors at which to dump snapshots (sorted ascending).
    pub aout: Vec<f64>,
    /// AMR refinement parameters.
    pub amr: AmrParams,
    /// Step controller.
    pub steps: StepControl,
    /// Safety cap on the number of coarse steps.
    pub max_steps: usize,
    /// Optional gas component (None = dark-matter-only run).
    pub gas: Option<GasParams>,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            cosmo: CosmoParams::default(),
            box_mpc_h: 100.0,
            mesh_n: 16,
            a_end: 1.0,
            aout: vec![0.25, 0.5, 1.0],
            amr: AmrParams::default(),
            steps: StepControl::default(),
            max_steps: 10_000,
            gas: None,
        }
    }
}

/// A snapshot: the particle state at one expansion factor, plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub a: f64,
    pub t: f64,
    pub step: usize,
    pub particles: Particles,
    pub units: Units,
}

/// Per-step diagnostics the monitoring layer can sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    pub a: f64,
    pub dt: f64,
    pub rho_max: f64,
}

/// Shape of the AMR tree over the current particle set — see
/// [`Simulation::amr_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmrStats {
    pub max_level: u32,
    pub n_leaves: usize,
}

/// One force evaluation at a given `(positions, a)`: everything a KDK step
/// reads from it. The evaluation that closes step *k* is the one that opens
/// step *k+1* — the final half-kick only changes velocities and the gas
/// sweep never touches particles — so [`Simulation::run`] hands it on
/// instead of computing it twice.
struct Force {
    /// Densest mesh cell (sets the free-fall timestep bound).
    rho_max: f64,
    /// Per-particle accelerations.
    acc: Vec<[f64; 3]>,
}

/// The simulation state machine.
pub struct Simulation {
    pub params: RunParams,
    pub cosmo: Cosmology,
    pub parts: Particles,
    pub gravity: PmGravity,
    /// Gas state on the PM mesh, when the run has a baryon component.
    pub gas: Option<HydroGrid>,
    pub a: f64,
    pub step: usize,
    pub stats: Vec<StepStats>,
    next_out: usize,
}

impl Simulation {
    /// Initialise from GRAFIC particles (positions in Mpc/h).
    pub fn from_ics(params: RunParams, ics: &grafic::IcParticles) -> Self {
        let cosmo = Cosmology::new(params.cosmo.clone());
        let parts = Particles::from_ics(ics, params.box_mpc_h);
        let a = params.cosmo.a_init;
        let gravity = PmGravity::new(params.mesh_n);
        let gas = params.gas.map(|gp| {
            // Gas traces the dark matter initially: ρ_gas = f_b · ρ_dm,
            // at rest with a small uniform pressure.
            let rho_dm = cic_deposit(&parts, params.mesh_n);
            let n = params.mesh_n;
            let mut ix = 0;
            HydroGrid::from_fn(n, gp.gamma, |_| {
                let rho = (gp.f_baryon * rho_dm.data[ix]).max(1e-10 * gp.f_baryon);
                ix += 1;
                Prim {
                    rho,
                    vel: [0.0; 3],
                    p: gp.p_init,
                }
            })
        });
        Simulation {
            params,
            cosmo,
            parts,
            gravity,
            gas,
            a,
            step: 0,
            stats: Vec::new(),
            next_out: 0,
        }
    }

    pub fn units(&self) -> Units {
        Units::new(
            self.params.box_mpc_h,
            self.params.cosmo.h,
            self.params.cosmo.omega_m,
        )
    }

    /// Advance one KDK step; returns the new expansion factor.
    ///
    /// Always evaluates the force from the current `parts` and `a` (both are
    /// public and may have been overwritten since the last step).
    pub fn advance_step(&mut self) -> f64 {
        self.kdk_step(None);
        self.a
    }

    /// Build the AMR octree over the current particles and report its shape.
    /// A diagnostic, computed when asked: the tree drives nothing in the
    /// step (the timestep's `rho_max` comes from the PM mesh).
    pub fn amr_stats(&self) -> AmrStats {
        let tree = Octree::build(&self.parts, self.params.amr);
        AmrStats {
            max_level: tree.max_level_present(),
            n_leaves: tree.leaves().len(),
        }
    }

    /// Field, densest cell and particle accelerations at the current
    /// positions and expansion factor `a`.
    fn force_at(&self, a: f64) -> (ForceField, Force) {
        let field = self.gravity.field(&self.parts, &self.cosmo, a);
        // Parallel max is exact, so this cannot perturb the timestep.
        let rho_max = field
            .rho
            .data
            .par_iter()
            .with_min_len(1024)
            .map(|&v| v)
            .reduce(|| 0.0f64, f64::max);
        let acc = self.gravity.accelerations(&self.parts, &field);
        (field, Force { rho_max, acc })
    }

    /// One KDK step. `opening` is the force at the current `(parts.pos, a)`
    /// when the caller already holds it (the previous step's return value,
    /// with nothing written to `parts` or `a` in between); `None` computes
    /// it. Returns the force at the new state, or `None` when the step did
    /// not advance (dt collapsed to zero).
    fn kdk_step(&mut self, opening: Option<Force>) -> Option<Force> {
        let Force { rho_max, acc } = opening.unwrap_or_else(|| self.force_at(self.a).1);

        let mut dt = self.params.steps.dt(
            &self.parts,
            rho_max,
            &self.cosmo,
            self.a,
            self.params.mesh_n,
        );
        // Do not step past the end or past the next output time.
        let t_now = self.cosmo.t_of_a(self.a);
        let t_end = self.cosmo.t_of_a(self.params.a_end);
        dt = dt.min(t_end - t_now).max(0.0);
        if self.next_out < self.params.aout.len() {
            let t_out = self.cosmo.t_of_a(self.params.aout[self.next_out]);
            if t_out > t_now {
                dt = dt.min(t_out - t_now);
            }
        }
        if dt <= 0.0 {
            return None;
        }

        // KICK (half), DRIFT (full), refresh a, KICK (half).
        kick(&mut self.parts, &acc, self.a, dt / 2.0);
        let a_mid = self.cosmo.a_of_t(t_now + dt / 2.0);
        drift(&mut self.parts, a_mid, dt);
        let a_new = self.cosmo.a_of_t(t_now + dt);
        let (field2, closing) = self.force_at(a_new);
        kick(&mut self.parts, &closing.acc, a_new, dt / 2.0);

        // Gas: Godunov sweeps over the comoving interval (the same dt/a²
        // "drift" time the particles see), sub-cycled to the hydro CFL, then
        // the gravity source kick with the particles' dt/a factor.
        if let Some(gas) = &mut self.gas {
            let gp = self.params.gas.expect("gas grid implies gas params");
            let dt_hydro = dt / (a_mid * a_mid);
            let mut t = 0.0;
            let mut sub = 0;
            while t < dt_hydro && sub < 64 {
                let step = gas.max_dt(gp.cfl).min(dt_hydro - t);
                gas.step(step, gp.riemann);
                t += step;
                sub += 1;
            }
            gas.apply_gravity(&field2.accel, dt / a_new);
        }

        self.a = a_new;
        self.step += 1;
        self.stats.push(StepStats {
            a: self.a,
            dt,
            rho_max,
        });
        Some(closing)
    }

    /// Run to completion, returning snapshots at the requested expansion
    /// factors plus a final snapshot at `a_end`.
    pub fn run(&mut self) -> Vec<Snapshot> {
        let mut snaps = Vec::new();
        // Each step's closing force evaluation opens the next step.
        let mut force = None;
        while self.a < self.params.a_end - 1e-12 && self.step < self.params.max_steps {
            let a_prev = self.a;
            force = self.kdk_step(force);
            if self.a <= a_prev {
                break; // dt collapsed to zero
            }
            while self.next_out < self.params.aout.len()
                && self.a >= self.params.aout[self.next_out] - 1e-9
            {
                snaps.push(self.snapshot());
                self.next_out += 1;
            }
        }
        // Final state snapshot if not already captured.
        if snaps
            .last()
            .map(|s| (s.a - self.a).abs() > 1e-9)
            .unwrap_or(true)
        {
            snaps.push(self.snapshot());
        }
        snaps
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            a: self.a,
            t: self.cosmo.t_of_a(self.a),
            step: self.step,
            particles: self.parts.clone(),
            units: self.units(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> RunParams {
        let cosmo = CosmoParams {
            a_init: 0.1,
            ..CosmoParams::default()
        };
        RunParams {
            cosmo,
            box_mpc_h: 100.0,
            mesh_n: 8,
            a_end: 0.2,
            aout: vec![0.15],
            amr: AmrParams {
                max_particles_per_cell: 8,
                max_level: 6,
                base_level: 2,
            },
            steps: StepControl::default(),
            max_steps: 500,
            gas: None,
        }
    }

    fn small_ics(seed: u64) -> grafic::IcParticles {
        let cosmo = CosmoParams {
            a_init: 0.1,
            ..CosmoParams::default()
        };
        grafic::generate_single_level(&cosmo, 8, 100.0, seed).particles
    }

    #[test]
    fn simulation_reaches_a_end() {
        let ics = small_ics(1);
        let mut sim = Simulation::from_ics(small_params(), &ics);
        let snaps = sim.run();
        assert!(sim.a >= 0.2 - 1e-6, "stopped at a = {}", sim.a);
        assert!(snaps.len() >= 2, "expected aout snapshot + final");
        assert!((snaps[0].a - 0.15).abs() < 0.02);
    }

    #[test]
    fn mass_is_conserved() {
        let ics = small_ics(2);
        let mut sim = Simulation::from_ics(small_params(), &ics);
        let m0 = sim.parts.total_mass();
        sim.run();
        assert!((sim.parts.total_mass() - m0).abs() < 1e-12);
    }

    #[test]
    fn particles_remain_in_box() {
        let ics = small_ics(3);
        let mut sim = Simulation::from_ics(small_params(), &ics);
        sim.run();
        for p in &sim.parts.pos {
            for x in p {
                assert!((0.0..1.0).contains(x));
            }
        }
    }

    #[test]
    fn structure_grows() {
        // Gravitational collapse: density contrast should grow from a_init
        // to a_end. Measure max CIC density before and after.
        let ics = small_ics(4);
        let params = {
            let mut p = small_params();
            p.a_end = 0.5;
            p.aout = vec![];
            p
        };
        let mut sim = Simulation::from_ics(params, &ics);
        let rho0 = crate::particles::cic_deposit(&sim.parts, 8)
            .data
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        sim.run();
        let rho1 = crate::particles::cic_deposit(&sim.parts, 8)
            .data
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(
            rho1 > rho0,
            "no growth of structure: rho_max {rho0} -> {rho1}"
        );
    }

    #[test]
    fn snapshots_are_ordered_in_a() {
        let ics = small_ics(5);
        let params = {
            let mut p = small_params();
            p.aout = vec![0.12, 0.15, 0.18];
            p
        };
        let mut sim = Simulation::from_ics(params, &ics);
        let snaps = sim.run();
        for w in snaps.windows(2) {
            assert!(w[1].a >= w[0].a - 1e-12);
        }
    }

    #[test]
    fn gas_run_conserves_gas_mass() {
        let ics = small_ics(7);
        let params = RunParams {
            gas: Some(GasParams::default()),
            ..small_params()
        };
        let mut sim = Simulation::from_ics(params, &ics);
        let m0 = sim.gas.as_ref().unwrap().total_mass();
        assert!((m0 - 0.16).abs() < 0.02, "initial gas mass {m0}");
        sim.run();
        let m1 = sim.gas.as_ref().unwrap().total_mass();
        assert!(
            (m1 - m0).abs() < 1e-9 * m0,
            "gas mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn gas_falls_into_dark_matter_wells() {
        // Evolve with gravity coupling: the gas density field must end up
        // positively correlated with the dark-matter density field.
        let ics = small_ics(8);
        let params = RunParams {
            a_end: 0.5,
            aout: vec![],
            gas: Some(GasParams::default()),
            ..small_params()
        };
        let n = params.mesh_n;
        let mut sim = Simulation::from_ics(params, &ics);
        sim.run();
        let dm = crate::particles::cic_deposit(&sim.parts, n);
        let gas = sim.gas.as_ref().unwrap();
        let gm = gas.total_mass();
        // Pearson correlation between gas and DM density.
        let gmean = gm; // mean density = total mass (unit volume)
        let dmean = 1.0;
        let mut num = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (ix, c) in gas.cells.iter().enumerate() {
            let a = c.rho - gmean;
            let b = dm.data[ix] - dmean;
            num += a * b;
            va += a * a;
            vb += b * b;
        }
        let corr = num / (va.sqrt() * vb.sqrt()).max(1e-300);
        assert!(
            corr > 0.3,
            "gas should trace collapsed dark matter, corr = {corr}"
        );
    }

    #[test]
    fn dm_only_run_has_no_gas() {
        let ics = small_ics(9);
        let sim = Simulation::from_ics(small_params(), &ics);
        assert!(sim.gas.is_none());
    }

    #[test]
    fn stats_recorded_each_step() {
        let ics = small_ics(6);
        let mut sim = Simulation::from_ics(small_params(), &ics);
        sim.run();
        assert_eq!(sim.stats.len(), sim.step);
        for s in &sim.stats {
            assert!(s.dt > 0.0);
        }
        let amr = sim.amr_stats();
        assert!(amr.n_leaves > 0 && amr.max_level >= sim.params.amr.base_level);
    }

    /// `run()` with every step a standalone `advance_step()` (fresh force
    /// evaluation each time) and the same output-time handling.
    fn run_stepwise(sim: &mut Simulation) -> Vec<Snapshot> {
        let mut snaps = Vec::new();
        while sim.a < sim.params.a_end - 1e-12 && sim.step < sim.params.max_steps {
            let a_prev = sim.a;
            sim.advance_step();
            if sim.a <= a_prev {
                break;
            }
            while sim.next_out < sim.params.aout.len()
                && sim.a >= sim.params.aout[sim.next_out] - 1e-9
            {
                snaps.push(sim.snapshot());
                sim.next_out += 1;
            }
        }
        if snaps
            .last()
            .map(|s| (s.a - sim.a).abs() > 1e-9)
            .unwrap_or(true)
        {
            snaps.push(sim.snapshot());
        }
        snaps
    }

    fn bits(v: &[[f64; 3]]) -> Vec<u64> {
        v.iter().flatten().map(|x| x.to_bits()).collect()
    }

    fn assert_same_state(a: &Simulation, b: &Simulation, what: &str) {
        assert_eq!(a.step, b.step, "{what}: step count");
        assert_eq!(a.a.to_bits(), b.a.to_bits(), "{what}: a");
        assert_eq!(bits(&a.parts.pos), bits(&b.parts.pos), "{what}: positions");
        assert_eq!(bits(&a.parts.vel), bits(&b.parts.vel), "{what}: velocities");
        match (&a.gas, &b.gas) {
            (Some(ga), Some(gb)) => {
                for (ca, cb) in ga.cells.iter().zip(&gb.cells) {
                    assert_eq!(ca.rho.to_bits(), cb.rho.to_bits(), "{what}: gas rho");
                    assert_eq!(ca.e.to_bits(), cb.e.to_bits(), "{what}: gas energy");
                    assert_eq!(bits(&[ca.mom]), bits(&[cb.mom]), "{what}: gas momentum");
                }
            }
            (None, None) => {}
            _ => panic!("{what}: gas presence differs"),
        }
        for (sa, sb) in a.stats.iter().zip(&b.stats) {
            assert_eq!(sa.dt.to_bits(), sb.dt.to_bits(), "{what}: dt");
            assert_eq!(
                sa.rho_max.to_bits(),
                sb.rho_max.to_bits(),
                "{what}: rho_max"
            );
        }
    }

    /// The force `run()` carries from one step into the next is, bit for
    /// bit, the one a standalone step would have computed.
    #[test]
    fn run_equals_repeated_standalone_steps() {
        let cases = [
            ("dm-only", small_params()),
            (
                "gas",
                RunParams {
                    gas: Some(GasParams::default()),
                    ..small_params()
                },
            ),
        ];
        for (what, params) in cases {
            let ics = small_ics(11);
            let mut carried = Simulation::from_ics(params.clone(), &ics);
            let mut stepwise = Simulation::from_ics(params, &ics);
            let snaps_c = carried.run();
            let snaps_s = run_stepwise(&mut stepwise);
            assert!(carried.step > 3, "{what}: too short to test the carry");
            assert_same_state(&carried, &stepwise, what);
            assert_eq!(snaps_c.len(), snaps_s.len(), "{what}: snapshot count");
            for (c, s) in snaps_c.iter().zip(&snaps_s) {
                assert_eq!((c.step, c.a.to_bits()), (s.step, s.a.to_bits()), "{what}");
                assert_eq!(bits(&c.particles.pos), bits(&s.particles.pos), "{what}");
            }
        }
    }

    /// `parts` and `a` are public: a caller may overwrite them between
    /// steps (the benchmark's step probe does). `advance_step()` must then
    /// use the force of the state it finds, not of the state it left.
    #[test]
    fn advance_step_after_external_write_uses_a_fresh_force() {
        let ics = small_ics(12);
        let params = RunParams {
            a_end: 1.0,
            aout: vec![],
            ..small_params()
        };
        let mut sim = Simulation::from_ics(params.clone(), &ics);
        for _ in 0..3 {
            sim.advance_step();
        }
        // Rewind to the initial particles at a later epoch.
        let mut fresh = Simulation::from_ics(params, &ics);
        fresh.a = 0.4;
        fresh.step = sim.step;
        sim.parts = fresh.parts.clone();
        sim.a = 0.4;
        sim.advance_step();
        fresh.advance_step();
        assert_eq!(sim.a.to_bits(), fresh.a.to_bits());
        assert_eq!(bits(&sim.parts.pos), bits(&fresh.parts.pos));
        assert_eq!(bits(&sim.parts.vel), bits(&fresh.parts.vel));
    }
}
