//! Particle-mesh gravity and the cosmological leapfrog integrator.
//!
//! The comoving equations of motion in code units (unit box, H0 = 1, total
//! mass normalised to 1) use the canonical momentum `p = a² ẋ` with cosmic
//! time `t` in 1/H0 units:
//!
//! ```text
//!   dx/dt = p / a²
//!   dp/dt = −∇φ,        ∇²φ = (3/2) (Ωm/a) (ρ − ⟨ρ⟩)
//! ```
//!
//! (One can check the linear growing mode directly: with `x = q + D(a)ψ`,
//! `dp/dt = a²(D̈ + 2HḊ)ψ = (3/2)Ωm D ψ / a = −∇φ`, using the growth ODE —
//! all expansion factors live in the Poisson source and the drift, none in
//! the kick.) We integrate with the standard kick–drift–kick leapfrog that
//! RAMSES uses, refreshing `a` at the half steps; time steps are limited by
//! a free-fall/velocity CFL-style criterion. The Zel'dovich-pancake
//! integration test pins this formulation against the exact solution.

use crate::cosmology::Cosmology;
use crate::particles::{cic_deposit, cic_interp_force, Mesh, Particles};
use crate::poisson::{gradient_force, potential, MgConfig};
use rayon::prelude::*;

/// Gravity solver over the periodic base mesh.
#[derive(Debug, Clone)]
pub struct PmGravity {
    /// Base mesh resolution.
    pub n: usize,
    pub mg: MgConfig,
}

/// Output of one force evaluation.
#[derive(Debug, Clone)]
pub struct ForceField {
    /// Acceleration meshes (−∇φ per axis).
    pub accel: [Mesh; 3],
    /// The potential, retained for diagnostics/energy checks.
    pub phi: Mesh,
    /// Density mesh that generated it.
    pub rho: Mesh,
}

impl PmGravity {
    pub fn new(n: usize) -> Self {
        PmGravity {
            n,
            mg: MgConfig::default(),
        }
    }

    /// Evaluate the comoving gravitational field for the particle set at
    /// expansion factor `a`.
    pub fn field(&self, parts: &Particles, cosmo: &Cosmology, a: f64) -> ForceField {
        let rho = cic_deposit(parts, self.n);
        // Poisson source: (3/2)Ωm/a · δ with δ = ρ/⟨ρ⟩ − 1. Total mass is 1
        // and the unit box has volume 1, so ⟨ρ⟩ = 1.
        let factor = cosmo.poisson_factor(a);
        let mut src = rho.clone();
        src.data
            .par_iter_mut()
            .for_each(|v| *v = factor * (*v - 1.0));
        let phi = potential(&src);
        let accel = gradient_force(&phi);
        ForceField { accel, phi, rho }
    }

    /// Interpolate accelerations to particles.
    pub fn accelerations(&self, parts: &Particles, field: &ForceField) -> Vec<[f64; 3]> {
        cic_interp_force(parts, &field.accel)
    }
}

/// Kick: p += g·dt (the canonical-momentum equation has no explicit `a`;
/// the argument is kept for interface symmetry and future drag terms).
pub fn kick(parts: &mut Particles, acc: &[[f64; 3]], _a: f64, dt: f64) {
    parts.vel.par_iter_mut().enumerate().for_each(|(i, v)| {
        for d in 0..3 {
            v[d] += acc[i][d] * dt;
        }
    });
}

/// Drift: x += v·dt/a² , then wrap into the box.
pub fn drift(parts: &mut Particles, a: f64, dt: f64) {
    let f = dt / (a * a);
    let (pos, vel) = (&mut parts.pos, &parts.vel);
    pos.par_iter_mut().enumerate().for_each(|(i, x)| {
        for d in 0..3 {
            x[d] += vel[i][d] * f;
        }
    });
    parts.wrap();
}

/// Timestep limiter: min over particles of
/// `C_v · Δx / (|v|/a²)` (don't cross more than C_v cells per step) and a
/// free-fall bound `C_ff / sqrt(ρ_max · (3/2)Ωm/a³)`, and an expansion bound
/// `Δa/a ≤ C_a`.
#[derive(Debug, Clone, Copy)]
pub struct StepControl {
    pub courant_cells: f64,
    pub freefall: f64,
    pub max_dln_a: f64,
}

impl Default for StepControl {
    fn default() -> Self {
        StepControl {
            courant_cells: 0.8,
            freefall: 0.5,
            max_dln_a: 0.1,
        }
    }
}

impl StepControl {
    pub fn dt(
        &self,
        parts: &Particles,
        rho_max: f64,
        cosmo: &Cosmology,
        a: f64,
        n_mesh: usize,
    ) -> f64 {
        let dx = 1.0 / n_mesh as f64;
        // Velocity bound.
        // Parallel max is exact (max is associative and commutative), so the
        // chunked reduction cannot perturb the result. `sqrt` is correctly
        // rounded and monotone, so the root of the largest |v|² is bit for
        // bit the largest |v|, at one root per step instead of one per
        // particle.
        let vmax = parts
            .vel
            .par_iter()
            .with_min_len(1024)
            .map(|v| v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            .reduce(|| 0.0f64, f64::max)
            .sqrt();
        let dt_v = if vmax > 0.0 {
            self.courant_cells * dx * a * a / vmax
        } else {
            f64::INFINITY
        };
        // Free-fall bound from the densest cell.
        let g_eff = cosmo.poisson_factor(a) * rho_max.max(1.0) / (a * a);
        let dt_ff = self.freefall / g_eff.sqrt();
        // Expansion bound: da/dt = a²E(a) in conformal-ish units; use
        // dt ≤ C · 1/(a H(a)) scaled.
        let dt_a = self.max_dln_a / (a * cosmo.hubble(a)) * a * a;
        dt_v.min(dt_ff).min(dt_a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafic::CosmoParams;

    fn cosmo() -> Cosmology {
        Cosmology::new(CosmoParams::default())
    }

    /// Two equal point masses must attract each other along their axis.
    #[test]
    fn pm_force_attracts_pairs() {
        let mut parts = Particles::default();
        parts.push([0.4, 0.5, 0.5], [0.0; 3], 0.5, 0);
        parts.push([0.6, 0.5, 0.5], [0.0; 3], 0.5, 1);
        let g = PmGravity::new(16);
        let c = cosmo();
        let f = g.field(&parts, &c, 1.0);
        let acc = g.accelerations(&parts, &f);
        // Particle 0 is pulled +x, particle 1 pulled −x.
        assert!(acc[0][0] > 0.0, "acc0 = {:?}", acc[0]);
        assert!(acc[1][0] < 0.0, "acc1 = {:?}", acc[1]);
        // Transverse components ~ 0 by symmetry.
        assert!(acc[0][1].abs() < 1e-6 && acc[0][2].abs() < 1e-6);
        // Newton's third law (discretised): equal magnitude.
        assert!((acc[0][0] + acc[1][0]).abs() < 1e-6);
    }

    #[test]
    fn uniform_distribution_feels_no_force() {
        let n = 8usize;
        let mut parts = Particles::default();
        let m = 1.0 / (n * n * n) as f64;
        let mut id = 0;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    parts.push(
                        [
                            (i as f64 + 0.5) / n as f64,
                            (j as f64 + 0.5) / n as f64,
                            (k as f64 + 0.5) / n as f64,
                        ],
                        [0.0; 3],
                        m,
                        id,
                    );
                    id += 1;
                }
            }
        }
        let g = PmGravity::new(8);
        let c = cosmo();
        let f = g.field(&parts, &c, 0.5);
        let acc = g.accelerations(&parts, &f);
        for a in acc {
            for d in 0..3 {
                assert!(a[d].abs() < 1e-8, "nonzero force on uniform lattice: {a:?}");
            }
        }
    }

    #[test]
    fn kick_and_drift_update_correctly() {
        let mut parts = Particles::default();
        parts.push([0.5, 0.5, 0.5], [0.1, 0.0, 0.0], 1.0, 0);
        kick(&mut parts, &[[1.0, 0.0, 0.0]], 0.5, 0.1);
        // dp = g dt = 0.1
        assert!((parts.vel[0][0] - 0.2).abs() < 1e-12);
        drift(&mut parts, 0.5, 0.1);
        // dx = v dt / a² = 0.2·0.1/0.25 = 0.08
        assert!((parts.pos[0][0] - 0.58).abs() < 1e-12);
    }

    #[test]
    fn drift_wraps_positions() {
        let mut parts = Particles::default();
        parts.push([0.95, 0.5, 0.5], [1.0, 0.0, 0.0], 1.0, 0);
        drift(&mut parts, 1.0, 0.1);
        assert!(parts.pos[0][0] < 1.0 && parts.pos[0][0] >= 0.0);
    }

    #[test]
    fn step_control_shrinks_with_velocity() {
        let c = cosmo();
        let mut slow = Particles::default();
        slow.push([0.5; 3], [0.01, 0.0, 0.0], 1.0, 0);
        let mut fast = Particles::default();
        fast.push([0.5; 3], [10.0, 0.0, 0.0], 1.0, 0);
        let sc = StepControl::default();
        let dt_slow = sc.dt(&slow, 1.0, &c, 0.5, 16);
        let dt_fast = sc.dt(&fast, 1.0, &c, 0.5, 16);
        assert!(dt_fast < dt_slow);
    }

    #[test]
    fn step_control_shrinks_with_density() {
        let c = cosmo();
        let mut p = Particles::default();
        p.push([0.5; 3], [0.0; 3], 1.0, 0);
        let sc = StepControl::default();
        let dt_lo = sc.dt(&p, 1.0, &c, 0.5, 16);
        let dt_hi = sc.dt(&p, 1e6, &c, 0.5, 16);
        assert!(dt_hi < dt_lo);
    }
}
