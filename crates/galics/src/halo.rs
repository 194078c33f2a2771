//! HaloMaker: from a snapshot to a halo catalog.
//!
//! "HaloMaker detects dark matter halos present in RAMSES output files, and
//! creates a catalog of halos" — each entry carries position, mass and
//! velocity, exactly the fields the zoom step needs to pick its re-simulation
//! centres.

use crate::fof::{friends_of_friends, FofParams};
use ramses::nbody::Snapshot;

/// One dark-matter halo.
#[derive(Debug, Clone, PartialEq)]
pub struct Halo {
    /// Catalog index within its snapshot.
    pub id: u32,
    /// Mass in code units (fraction of box mass).
    pub mass: f64,
    /// Mass in M☉/h.
    pub mass_msun: f64,
    /// Centre of mass, unit-box coordinates.
    pub pos: [f64; 3],
    /// Mass-weighted mean velocity, code units.
    pub vel: [f64; 3],
    /// Number of member particles.
    pub npart: usize,
    /// Virial-ish radius: RMS distance of members from the centre (box units).
    pub radius: f64,
    /// One-dimensional velocity dispersion, code units (mass-weighted RMS
    /// of velocity residuals about the halo mean, divided by √3).
    pub sigma_v: f64,
    /// Dimensionless spin parameter λ' = j / (√2 V R) (Bullock et al. 2001
    /// form, with V² = M/R in code units).
    pub spin: f64,
    /// Member particle ids (used by TreeMaker to follow halos through time).
    pub members: Vec<u64>,
}

/// The catalog for one snapshot.
#[derive(Debug, Clone)]
pub struct HaloCatalog {
    /// Expansion factor of the parent snapshot.
    pub a: f64,
    pub halos: Vec<Halo>,
}

impl HaloCatalog {
    pub fn len(&self) -> usize {
        self.halos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.halos.is_empty()
    }

    /// Differential halo mass function: counts per logarithmic mass bin.
    /// Returns `(bin centre in M☉/h, count)` rows for `nbins` bins spanning
    /// the catalog's mass range — the standard summary statistic a
    /// cosmologist extracts from HaloMaker output.
    pub fn mass_function(&self, nbins: usize) -> Vec<(f64, usize)> {
        if self.halos.is_empty() || nbins == 0 {
            return vec![];
        }
        let lo = self
            .halos
            .iter()
            .map(|h| h.mass_msun)
            .fold(f64::INFINITY, f64::min)
            .max(1.0);
        let hi = self
            .halos
            .iter()
            .map(|h| h.mass_msun)
            .fold(0.0f64, f64::max)
            * 1.0000001;
        let llo = lo.ln();
        let dln = (hi.ln() - llo).max(1e-12) / nbins as f64;
        let mut counts = vec![0usize; nbins];
        for h in &self.halos {
            let b = (((h.mass_msun.ln() - llo) / dln) as usize).min(nbins - 1);
            counts[b] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(b, c)| ((llo + (b as f64 + 0.5) * dln).exp(), c))
            .collect()
    }

    /// The `count` most massive halos — the zoom campaign's target list.
    pub fn most_massive(&self, count: usize) -> Vec<&Halo> {
        let mut v: Vec<&Halo> = self.halos.iter().collect();
        v.sort_by(|a, b| b.mass.partial_cmp(&a.mass).unwrap());
        v.truncate(count);
        v
    }
}

/// Periodic-aware centre of mass: average offsets relative to the first
/// member to avoid smearing across the box boundary.
fn periodic_com(pos: &[[f64; 3]], mass: &[f64]) -> [f64; 3] {
    let anchor = pos[0];
    let mut acc = [0.0f64; 3];
    let mut mtot = 0.0;
    for (p, &m) in pos.iter().zip(mass) {
        for d in 0..3 {
            let mut dx = p[d] - anchor[d];
            if dx > 0.5 {
                dx -= 1.0;
            }
            if dx < -0.5 {
                dx += 1.0;
            }
            acc[d] += m * dx;
        }
        mtot += m;
    }
    let mut c = [0.0f64; 3];
    for d in 0..3 {
        c[d] = (anchor[d] + acc[d] / mtot).rem_euclid(1.0);
    }
    c
}

/// Run HaloMaker on a snapshot.
pub fn halo_maker(snap: &Snapshot, params: &FofParams) -> HaloCatalog {
    let parts = &snap.particles;
    let groups = friends_of_friends(parts, params);
    let mut halos = Vec::with_capacity(groups.len());
    for (id, g) in groups.iter().enumerate() {
        let pos: Vec<[f64; 3]> = g.iter().map(|&i| parts.pos[i as usize]).collect();
        let mass: Vec<f64> = g.iter().map(|&i| parts.mass[i as usize]).collect();
        let mtot: f64 = mass.iter().sum();
        let com = periodic_com(&pos, &mass);

        let mut vel = [0.0f64; 3];
        for &i in g {
            #[allow(clippy::needless_range_loop)]
            for d in 0..3 {
                vel[d] += parts.mass[i as usize] * parts.vel[i as usize][d];
            }
        }
        for v in vel.iter_mut() {
            *v /= mtot;
        }

        let mut r2 = 0.0;
        for (p, &m) in pos.iter().zip(&mass) {
            let mut s = 0.0;
            for d in 0..3 {
                let mut dx = (p[d] - com[d]).abs();
                if dx > 0.5 {
                    dx = 1.0 - dx;
                }
                s += dx * dx;
            }
            r2 += m * s;
        }
        let radius = (r2 / mtot).sqrt();

        // Velocity dispersion about the bulk motion.
        let mut v2 = 0.0;
        for &i in g {
            #[allow(clippy::needless_range_loop)]
            for d in 0..3 {
                let dv = parts.vel[i as usize][d] - vel[d];
                v2 += parts.mass[i as usize] * dv * dv;
            }
        }
        let sigma_v = (v2 / mtot / 3.0).sqrt();

        // Specific angular momentum about the centre (periodic offsets).
        let mut j_vec = [0.0f64; 3];
        for &i in g {
            let iu = i as usize;
            let mut dx = [0.0f64; 3];
            for d in 0..3 {
                let mut o = parts.pos[iu][d] - com[d];
                if o > 0.5 {
                    o -= 1.0;
                }
                if o < -0.5 {
                    o += 1.0;
                }
                dx[d] = o;
            }
            let dv = [
                parts.vel[iu][0] - vel[0],
                parts.vel[iu][1] - vel[1],
                parts.vel[iu][2] - vel[2],
            ];
            j_vec[0] += parts.mass[iu] * (dx[1] * dv[2] - dx[2] * dv[1]);
            j_vec[1] += parts.mass[iu] * (dx[2] * dv[0] - dx[0] * dv[2]);
            j_vec[2] += parts.mass[iu] * (dx[0] * dv[1] - dx[1] * dv[0]);
        }
        let j_spec =
            (j_vec[0] * j_vec[0] + j_vec[1] * j_vec[1] + j_vec[2] * j_vec[2]).sqrt() / mtot;
        let spin = if radius > 0.0 && mtot > 0.0 {
            let v_circ = (mtot / radius).sqrt();
            j_spec / (std::f64::consts::SQRT_2 * v_circ * radius)
        } else {
            0.0
        };

        halos.push(Halo {
            id: id as u32,
            mass: mtot,
            mass_msun: snap.units.mass_msun_h(mtot),
            pos: com,
            vel,
            npart: g.len(),
            radius,
            sigma_v,
            spin,
            members: g.iter().map(|&i| parts.id[i as usize]).collect(),
        });
    }
    HaloCatalog { a: snap.a, halos }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramses::particles::Particles;
    use ramses::units::Units;

    fn snap_with_clumps() -> Snapshot {
        let mut p = Particles::default();
        let mut id = 0u64;
        // Big clump near the boundary corner (tests periodic COM).
        for i in 0..40 {
            let f = i as f64 * 0.0005;
            p.push(
                [
                    (0.998 + f).rem_euclid(1.0),
                    (0.002 - f * 0.7).rem_euclid(1.0),
                    0.5,
                ],
                [1.0, 0.0, 0.0],
                0.002,
                id,
            );
            id += 1;
        }
        // Smaller clump mid-box.
        for i in 0..20 {
            let f = i as f64 * 0.0005;
            p.push([0.4 + f, 0.4, 0.4], [0.0, -2.0, 0.0], 0.001, id);
            id += 1;
        }
        Snapshot {
            a: 0.5,
            t: 0.3,
            step: 10,
            particles: p,
            units: Units::new(100.0, 0.71, 0.27),
        }
    }

    #[test]
    fn catalog_finds_both_halos_ordered_by_size() {
        let cat = halo_maker(&snap_with_clumps(), &FofParams::default());
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.halos[0].npart, 40);
        assert_eq!(cat.halos[1].npart, 20);
        assert!(cat.halos[0].mass > cat.halos[1].mass);
    }

    #[test]
    fn periodic_com_lands_on_the_corner() {
        let cat = halo_maker(&snap_with_clumps(), &FofParams::default());
        let h = &cat.halos[0];
        // Centre must be near (0, 0, 0.5) modulo the box, not near (0.5, ...).
        let dx = h.pos[0].min(1.0 - h.pos[0]);
        let dy = h.pos[1].min(1.0 - h.pos[1]);
        assert!(dx < 0.02, "x COM smeared: {}", h.pos[0]);
        assert!(dy < 0.02, "y COM smeared: {}", h.pos[1]);
        assert!((h.pos[2] - 0.5).abs() < 0.02);
    }

    #[test]
    fn halo_velocity_is_mass_weighted_mean() {
        let cat = halo_maker(&snap_with_clumps(), &FofParams::default());
        assert!((cat.halos[0].vel[0] - 1.0).abs() < 1e-9);
        assert!((cat.halos[1].vel[1] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn members_carry_particle_ids() {
        let cat = halo_maker(&snap_with_clumps(), &FofParams::default());
        let all: std::collections::HashSet<u64> = cat
            .halos
            .iter()
            .flat_map(|h| h.members.iter().copied())
            .collect();
        assert_eq!(all.len(), 60);
        assert!(all.contains(&0) && all.contains(&59));
    }

    #[test]
    fn most_massive_sorted_and_truncated() {
        let cat = halo_maker(&snap_with_clumps(), &FofParams::default());
        let top = cat.most_massive(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].npart, 40);
    }

    #[test]
    fn mass_msun_uses_units() {
        let cat = halo_maker(&snap_with_clumps(), &FofParams::default());
        let h = &cat.halos[0];
        let expect = Units::new(100.0, 0.71, 0.27).mass_msun_h(h.mass);
        assert!((h.mass_msun - expect).abs() < 1e-3 * expect);
    }

    #[test]
    fn sigma_v_zero_for_comoving_halo() {
        // All members share one velocity → no dispersion.
        let cat = halo_maker(&snap_with_clumps(), &FofParams::default());
        assert!(
            cat.halos[0].sigma_v < 1e-9,
            "sigma {}",
            cat.halos[0].sigma_v
        );
    }

    #[test]
    fn spin_positive_for_rotating_halo() {
        // Build a disc of particles rotating about z.
        let mut p = Particles::default();
        for i in 0..32 {
            let th = i as f64 / 32.0 * std::f64::consts::TAU;
            let r = 0.004;
            p.push(
                [0.5 + r * th.cos(), 0.5 + r * th.sin(), 0.5],
                [-th.sin(), th.cos(), 0.0],
                0.01,
                i,
            );
        }
        let snap = Snapshot {
            a: 0.5,
            t: 0.3,
            step: 0,
            particles: p,
            units: Units::new(100.0, 0.71, 0.27),
        };
        let cat = halo_maker(
            &snap,
            &FofParams {
                b: 0.5,
                min_members: 5,
            },
        );
        assert_eq!(cat.len(), 1);
        assert!(cat.halos[0].spin > 0.0);
        assert!(cat.halos[0].sigma_v > 0.0);
    }

    #[test]
    fn mass_function_counts_all_halos() {
        let cat = halo_maker(&snap_with_clumps(), &FofParams::default());
        let mf = cat.mass_function(4);
        assert_eq!(mf.len(), 4);
        let total: usize = mf.iter().map(|(_, c)| c).sum();
        assert_eq!(total, cat.len());
        // Bin centres ascend.
        for w in mf.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn mass_function_empty_catalog() {
        let snap = Snapshot {
            a: 0.5,
            t: 0.3,
            step: 0,
            particles: Particles::default(),
            units: Units::new(100.0, 0.71, 0.27),
        };
        let cat = halo_maker(&snap, &FofParams::default());
        assert!(cat.mass_function(5).is_empty());
    }

    #[test]
    fn empty_snapshot_yields_empty_catalog() {
        let snap = Snapshot {
            a: 0.5,
            t: 0.3,
            step: 0,
            particles: Particles::default(),
            units: Units::new(100.0, 0.71, 0.27),
        };
        let cat = halo_maker(&snap, &FofParams::default());
        assert!(cat.is_empty());
    }
}
