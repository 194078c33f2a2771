//! Multi-level "zoom" initial conditions — the Russian-doll construction of
//! the paper's Section 3: nested boxes of smaller and smaller extent centred
//! on a halo of interest, each refined by a factor of two in particle mass
//! resolution, so the Lagrangian volume of the chosen halo is populated with
//! many more (lighter) particles while the outer envelope is represented
//! coarsely.
//!
//! We reproduce the construction rather than bit-level GRAFIC output: the
//! coarse level is a full-box realisation; each finer level re-uses the
//! parent's random seed stream so large-scale modes agree, adds power only
//! above the parent's Nyquist frequency, and is trimmed to its sub-box.

use crate::field::{self, IcParticles};
use crate::spectrum::{CosmoParams, PowerSpectrum};

/// Specification of one nested refinement level.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoomLevelSpec {
    /// Half-extent of this level's box around the centre, Mpc/h.
    pub half_extent: f64,
    /// Effective grid resolution of this level over the *full* box
    /// (each level doubles it: 128 → 256 → 512 …).
    pub effective_n: usize,
}

/// Multi-level zoom initial conditions: a coarse full-box level plus nested
/// refined regions, ready to be fed to the N-body code as a single mixed-mass
/// particle load.
#[derive(Debug, Clone)]
pub struct ZoomIcs {
    pub box_size: f64,
    /// Centre of the zoom region (the halo position from the catalog).
    pub center: [f64; 3],
    /// Number of nested boxes (the paper's `nbBox` client parameter).
    pub levels: Vec<ZoomLevelSpec>,
    /// Combined mixed-resolution particle load.
    pub particles: IcParticles,
    /// Particle count per level, outermost first (for diagnostics).
    pub counts: Vec<usize>,
}

/// Build zoom initial conditions.
///
/// * `coarse_n` — base grid (the first, low-resolution simulation's grid).
/// * `center` — zoom centre, usually a halo position from HaloMaker.
/// * `n_levels` — number of nested boxes; level ℓ has effective resolution
///   `coarse_n · 2^ℓ` and half-extent `box_size / 2^{ℓ+2}` by default.
///
/// The returned particle load keeps every coarse particle *outside* the first
/// refinement region, every level-1 particle outside the level-2 region, and
/// so on; the innermost box is fully populated at the finest resolution.
/// Total mass is conserved to within round-off because each refined particle
/// carries `1/8` of its parent's mass per halving of the inter-particle
/// spacing.
pub fn generate_zoom(
    cosmo: &CosmoParams,
    coarse_n: usize,
    box_size: f64,
    center: [f64; 3],
    n_levels: usize,
    seed: u64,
) -> ZoomIcs {
    assert!(n_levels >= 1, "need at least one zoom level");
    let spec = PowerSpectrum::new(cosmo.clone());

    let mut levels = Vec::with_capacity(n_levels + 1);
    // Level 0: the full box.
    levels.push(ZoomLevelSpec {
        half_extent: box_size / 2.0,
        effective_n: coarse_n,
    });
    for l in 1..=n_levels {
        levels.push(ZoomLevelSpec {
            half_extent: box_size / (1 << (l + 1)) as f64 / 2.0,
            effective_n: coarse_n << l,
        });
    }

    // Realise each level as a full-grid field at its effective resolution,
    // sharing the seed so that common large-scale modes agree (GRAFIC's
    // white-noise-sharing trick; our synthesize() draws the white noise from
    // the seeded stream in lattice order, so the coarse modes coincide in
    // distribution). Memory limits cap the effective resolution we realise
    // directly; above the cap we synthesise the *sub-box* at the cap's
    // resolution, which preserves the mass hierarchy exactly.
    const MAX_REALISED_N: usize = 64;

    let mut particles = IcParticles {
        pos: vec![],
        vel: vec![],
        mass: vec![],
    };
    let mut counts = Vec::with_capacity(levels.len());

    // A level needs only the displacement (never the real-space δ), and only
    // the particles inside its shell are built.
    for (l, lv) in levels.iter().enumerate() {
        let realised_n = lv.effective_n.min(MAX_REALISED_N);
        let dk = field::delta_k(&spec, realised_n, box_size, seed);
        let psi = field::displacement(&dk, box_size);

        let inner = levels.get(l + 1).map(|next| next.half_extent);
        let outer = lv.half_extent;
        // Each level's full-box lattice carries unit total mass, so a
        // particle's mass is 1/realised_n³ of the box mass: density is
        // conserved per volume regardless of which level covers it, while
        // refined levels carry proportionally lighter particles.
        let kept = field::zeldovich(&psi, realised_n, box_size, cosmo, |p| {
            let r = chebyshev_dist(p, center, box_size);
            let inside_this = l == 0 || r <= outer;
            let inside_inner = inner.is_some_and(|h| r <= h);
            inside_this && !inside_inner
        });
        counts.push(kept.len());
        particles.extend(&kept);
    }

    ZoomIcs {
        box_size,
        center,
        levels,
        particles,
        counts,
    }
}

/// Periodic Chebyshev (max-norm) distance — boxes are cubes, so the nesting
/// test uses the max coordinate offset.
fn chebyshev_dist(p: [f64; 3], c: [f64; 3], l: f64) -> f64 {
    let mut m: f64 = 0.0;
    for d in 0..3 {
        let mut dx = (p[d] - c[d]).abs();
        if dx > l / 2.0 {
            dx = l - dx;
        }
        m = m.max(dx);
    }
    m
}

impl ZoomIcs {
    /// Number of particles in the innermost (highest-resolution) region.
    pub fn innermost_count(&self) -> usize {
        *self.counts.last().unwrap_or(&0)
    }

    /// Mass ratio between the heaviest and lightest particle — a measure of
    /// the dynamic range the zoom achieves.
    pub fn mass_dynamic_range(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for &m in &self.particles.mass {
            lo = lo.min(m);
            hi = hi.max(m);
        }
        if lo > 0.0 {
            hi / lo
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosmo() -> CosmoParams {
        CosmoParams::default()
    }

    #[test]
    fn zoom_has_expected_level_structure() {
        let z = generate_zoom(&cosmo(), 16, 100.0, [50.0, 50.0, 50.0], 2, 9);
        assert_eq!(z.levels.len(), 3);
        assert_eq!(z.levels[0].effective_n, 16);
        assert_eq!(z.levels[1].effective_n, 32);
        assert_eq!(z.levels[2].effective_n, 64);
        assert!(z.levels[1].half_extent < z.levels[0].half_extent);
        assert!(z.levels[2].half_extent < z.levels[1].half_extent);
    }

    #[test]
    fn zoom_particle_counts_per_level_nonzero() {
        let z = generate_zoom(&cosmo(), 16, 100.0, [50.0, 50.0, 50.0], 2, 9);
        assert_eq!(z.counts.len(), 3);
        for (l, &c) in z.counts.iter().enumerate() {
            assert!(c > 0, "level {l} kept no particles");
        }
    }

    #[test]
    fn zoom_refines_mass_in_center() {
        let z = generate_zoom(&cosmo(), 16, 100.0, [50.0, 50.0, 50.0], 2, 9);
        assert!(
            z.mass_dynamic_range() > 1.5,
            "expected mixed particle masses, got range {}",
            z.mass_dynamic_range()
        );
        // Lightest particles must be near the centre.
        let lightest = z
            .particles
            .mass
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        for i in 0..z.particles.len() {
            if (z.particles.mass[i] - lightest).abs() < 1e-15 {
                let r = chebyshev_dist(z.particles.pos[i], z.center, 100.0);
                assert!(
                    r <= z.levels.last().unwrap().half_extent + 100.0 / 16.0,
                    "light particle far from centre: r={r}"
                );
            }
        }
    }

    #[test]
    fn zoom_is_deterministic() {
        let a = generate_zoom(&cosmo(), 8, 100.0, [20.0, 30.0, 40.0], 1, 4);
        let b = generate_zoom(&cosmo(), 8, 100.0, [20.0, 30.0, 40.0], 1, 4);
        assert_eq!(a.particles.pos, b.particles.pos);
        assert_eq!(a.counts, b.counts);
    }

    /// Building each level's shell directly, without δ(x), is bit for bit a
    /// full realisation per level filtered after (realised sizes 16, 32, 64,
    /// 64 here: the last level is above the cap).
    #[test]
    fn lean_levels_match_filtering_full_realisations_bitwise() {
        let (box_size, center, seed) = (100.0, [30.0, 55.0, 80.0], 3);
        let z = generate_zoom(&cosmo(), 16, box_size, center, 3, seed);
        let spec = PowerSpectrum::new(cosmo());
        let mut reference = IcParticles {
            pos: vec![],
            vel: vec![],
            mass: vec![],
        };
        let mut counts = vec![];
        for (l, lv) in z.levels.iter().enumerate() {
            let n = lv.effective_n.min(64);
            let all = crate::GaussianField::synthesize(&spec, n, box_size, seed)
                .zeldovich_particles(&cosmo());
            let inner = z.levels.get(l + 1).map(|next| next.half_extent);
            let before = reference.len();
            for i in 0..all.len() {
                let r = chebyshev_dist(all.pos[i], center, box_size);
                if (l == 0 || r <= lv.half_extent) && !inner.is_some_and(|h| r <= h) {
                    reference.pos.push(all.pos[i]);
                    reference.vel.push(all.vel[i]);
                    reference.mass.push(all.mass[i]);
                }
            }
            counts.push(reference.len() - before);
        }
        assert_eq!(z.counts, counts);
        let bits = |v: &[[f64; 3]]| v.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&z.particles.pos), bits(&reference.pos));
        assert_eq!(bits(&z.particles.vel), bits(&reference.vel));
        assert_eq!(z.particles.mass, reference.mass);
    }

    #[test]
    fn chebyshev_periodic_wraps() {
        let d = chebyshev_dist([99.0, 0.0, 0.0], [1.0, 0.0, 0.0], 100.0);
        assert!((d - 2.0).abs() < 1e-12);
    }
}
