//! Gaussian random field synthesis and Zel'dovich particle generation.
//!
//! The field is built directly in k-space: each independent mode receives a
//! complex Gaussian amplitude with variance `P(k) V / 2` (with the Hermitian
//! symmetry required for a real field), then an inverse FFT produces the
//! real-space overdensity δ(x). Displacement fields are obtained from δ via
//! the Zel'dovich approximation ψ(k) = i k δ(k)/k².

use crate::fft::{freq, Complex, Direction, Grid3};
use crate::spectrum::{CosmoParams, PowerSpectrum};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use std::collections::HashMap;

/// A realisation of a Gaussian overdensity field on an `n³` periodic grid.
#[derive(Debug, Clone)]
pub struct GaussianField {
    pub n: usize,
    /// Box size, Mpc/h.
    pub box_size: f64,
    /// Real-space overdensity δ at z = 0 (linear theory).
    pub delta: Vec<f64>,
    /// k-space field retained for displacement computations.
    delta_k: Grid3,
}

impl GaussianField {
    /// Synthesize a field with spectrum `spec` on an `n³` grid.
    ///
    /// Mode amplitudes are drawn with the Box–Muller transform from the seed;
    /// the same `(seed, n, box_size)` triple always produces the same field.
    pub fn synthesize(spec: &PowerSpectrum, n: usize, box_size: f64, seed: u64) -> Self {
        let delta_k = delta_k(spec, n, box_size, seed);
        let mut real = delta_k.clone();
        real.fft(Direction::Inverse);
        let delta: Vec<f64> = real.data.par_iter().map(|c| c.re).collect();

        GaussianField {
            n,
            box_size,
            delta,
            delta_k,
        }
    }

    /// RMS of the real-space overdensity (at z = 0 linear normalisation).
    pub fn rms(&self) -> f64 {
        let m = self.delta.iter().map(|d| d * d).sum::<f64>() / self.delta.len() as f64;
        m.sqrt()
    }

    /// Mean of δ — should be ~0 by construction (the k=0 mode is zeroed).
    pub fn mean(&self) -> f64 {
        self.delta.iter().sum::<f64>() / self.delta.len() as f64
    }

    /// Zel'dovich displacement field ψ = ∇∇⁻²δ, one vector per grid point.
    pub fn displacement(&self) -> Vec<[f64; 3]> {
        displacement(&self.delta_k, self.box_size)
    }

    /// Generate particles on the lattice displaced by the Zel'dovich
    /// approximation at `cosmo.a_init`, with consistent peculiar velocities.
    ///
    /// Velocities are the canonical momenta `p = a² dx/dt` used by comoving
    /// PM codes, in Mpc/h · H0 units: with `x(t) = q + D(t)ψ` one has
    /// `dx/dt = f D H ψ`, so `p = a² H(a) f D ψ` (t in 1/H0, H = E(a)).
    pub fn zeldovich_particles(&self, cosmo: &CosmoParams) -> IcParticles {
        zeldovich(&self.displacement(), self.n, self.box_size, cosmo, |_| true)
    }
}

/// The k-space overdensity δ(k) of [`GaussianField::synthesize`], without
/// the real-space δ(x) that only `synthesize` needs.
///
/// To enforce the Hermitian symmetry δ(-k) = δ(k)* we draw a full grid of
/// white noise first, FFT it (a real field's transform is automatically
/// Hermitian), then colour it by sqrt(P(k)). This is exactly GRAFIC's
/// construction and makes nested zoom levels consistent by sharing the
/// white noise.
pub(crate) fn delta_k(spec: &PowerSpectrum, n: usize, box_size: f64, seed: u64) -> Grid3 {
    assert!(
        n.is_power_of_two() && n >= 2,
        "grid side must be a power of two >= 2"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Grid3 {
        n,
        data: white_noise(&mut rng, n * n * n),
    };
    g.fft(Direction::Forward);

    let norm = 1.0 / (n as f64).powf(1.5); // unit-variance white noise in k-space
    let (table, h) = (amplitudes(spec, n, box_size), n / 2 + 1);
    let fabs: Vec<usize> = (0..n).map(|i| freq(i, n).unsigned_abs() as usize).collect();
    g.data
        .par_chunks_exact_mut(n * n)
        .enumerate()
        .for_each(|(i, plane)| {
            for (j, row) in plane.chunks_exact_mut(n).enumerate() {
                let amps = &table[(fabs[i] * h + fabs[j]) * h..][..h];
                for (c, &fk) in row.iter_mut().zip(&fabs) {
                    *c = c.scale(norm).scale(amps[fk]);
                }
            }
        });
    g
}

/// ψ = ∇∇⁻²δ from δ(k): one inverse transform per axis, all three through
/// one grid.
pub(crate) fn displacement(delta_k: &Grid3, box_size: f64) -> Vec<[f64; 3]> {
    let n = delta_k.n;
    let kf = 2.0 * std::f64::consts::PI / box_size;
    let kv: Vec<f64> = (0..n).map(|i| freq(i, n) as f64 * kf).collect();
    let mut psi = vec![[0.0f64; 3]; n * n * n];
    let mut g = Grid3::zeros(n);
    for axis in 0..3 {
        g.data
            .par_chunks_exact_mut(n * n)
            .enumerate()
            .for_each(|(i, plane)| {
                let dk = &delta_k.data[i * n * n..(i + 1) * n * n];
                let rows = plane.chunks_exact_mut(n).zip(dk.chunks_exact(n));
                for (j, (row, drow)) in rows.enumerate() {
                    for (k, (c, d)) in row.iter_mut().zip(drow).enumerate() {
                        let kvec = [kv[i], kv[j], kv[k]];
                        let k2 = kvec[0] * kvec[0] + kvec[1] * kvec[1] + kvec[2] * kvec[2];
                        // ψ(k) = i k/k² δ(k)  →  multiply by i kᵃ/k².
                        *c = if k2 == 0.0 {
                            Complex::ZERO
                        } else {
                            let f = kvec[axis] / k2;
                            Complex::new(-d.im * f, d.re * f)
                        };
                    }
                }
            });
        g.fft(Direction::Inverse);
        psi.par_iter_mut()
            .enumerate()
            .for_each(|(ix, p)| p[axis] = g.data[ix].re);
    }
    psi
}

/// The Zel'dovich particles of an `n³` lattice displaced by `psi` (see
/// [`GaussianField::zeldovich_particles`]), keeping, in lattice order, only
/// those whose displaced position `keep` accepts. Each lattice x-plane is
/// built on its own, so a zoom level never holds the particles it drops.
pub(crate) fn zeldovich(
    psi: &[[f64; 3]],
    n: usize,
    box_size: f64,
    cosmo: &CosmoParams,
    keep: impl Fn([f64; 3]) -> bool + Sync,
) -> IcParticles {
    let a = cosmo.a_init;
    let d = cosmo.growth(a);
    let f = cosmo.growth_rate(a);
    let hub = cosmo.e_of_a(a);
    let v_of_disp = a * a * hub * f;
    let dx = box_size / n as f64;
    let q: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) * dx).collect();
    let planes: Vec<Vec<([f64; 3], [f64; 3])>> = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut kept = Vec::new();
            let plane = psi[i * n * n..(i + 1) * n * n].chunks_exact(n);
            for (j, row) in plane.enumerate() {
                for (k, psi) in row.iter().enumerate() {
                    let q = [q[i], q[j], q[k]];
                    let disp = psi.map(|s| d * s);
                    let p = [0, 1, 2].map(|axis| wrap(q[axis] + disp[axis], box_size));
                    if keep(p) {
                        kept.push((p, disp.map(|s| v_of_disp * s)));
                    }
                }
            }
            kept
        })
        .collect();
    let (pos, vel): (Vec<_>, Vec<_>) = planes.into_iter().flatten().unzip();
    // Total mass normalised to 1 (Ωm box).
    let mass = vec![1.0 / (n * n * n) as f64; pos.len()];
    IcParticles { pos, vel, mass }
}

/// Particle initial conditions: positions (Mpc/h), velocities (code units),
/// masses (fraction of box mass).
#[derive(Debug, Clone, PartialEq)]
pub struct IcParticles {
    pub pos: Vec<[f64; 3]>,
    pub vel: Vec<[f64; 3]>,
    pub mass: Vec<f64>,
}

impl IcParticles {
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Append another particle set (used when combining zoom levels).
    pub fn extend(&mut self, other: &IcParticles) {
        self.pos.extend_from_slice(&other.pos);
        self.vel.extend_from_slice(&other.vel);
        self.mass.extend_from_slice(&other.mass);
    }
}

/// Mode amplitudes `sqrt(P(|k|)/V)·n³` (0 at k = 0) over the wavenumber
/// magnitudes `(|kx|, |ky|, |kz|)` in units of the fundamental, each in
/// `0..=n/2`: cell `(i, j, k)` of the `n³` k-grid reads entry
/// `(|f_i|·h + |f_j|)·h + |f_k|` with `h = n/2 + 1` and `f = freq`. A
/// wavenumber's sign does not change its square, so every entry is the
/// amplitude the cell itself would compute. The grid has only a few
/// thousand distinct |k|, so P is evaluated once per |k|, keyed on the
/// bits of the very `kk` each entry computes.
fn amplitudes(spec: &PowerSpectrum, n: usize, box_size: f64) -> Vec<f64> {
    let volume = box_size * box_size * box_size;
    let kf = 2.0 * std::f64::consts::PI / box_size; // fundamental mode
    let h = n / 2 + 1;
    let mut memo = HashMap::new();
    let mut amps = Vec::with_capacity(h * h * h);
    for i in 0..h {
        for j in 0..h {
            for k in 0..h {
                let kx = i as f64 * kf;
                let ky = j as f64 * kf;
                let kz = k as f64 * kf;
                let kk = (kx * kx + ky * ky + kz * kz).sqrt();
                amps.push(if kk == 0.0 {
                    0.0
                } else {
                    *memo
                        .entry(kk.to_bits())
                        .or_insert_with(|| (spec.p_of_k(kk) / volume).sqrt() * (n as f64).powi(3))
                });
            }
        }
    }
    amps
}

/// `x % l`, plus `l` when negative. Within one box of `[0, l)` neither step
/// needs the divide: `x % l` is `x` itself for |x| < l, and `x − l` for
/// `l ≤ x < 2l`, which is exact by Sterbenz's lemma.
#[inline]
fn wrap(x: f64, l: f64) -> f64 {
    let r = if x.abs() < l {
        x
    } else if x >= l && x < 2.0 * l {
        x - l
    } else {
        x % l
    };
    if r < 0.0 {
        r + l
    } else {
        r
    }
}

/// `len` standard normal draws via Box–Muller, as white noise. The
/// uniforms come off `rng` in the order a one-draw-at-a-time loop takes
/// them (`u1` redrawn until positive, then `u2`); the transcendental half
/// runs in parallel.
fn white_noise(rng: &mut StdRng, len: usize) -> Vec<Complex> {
    let mut u = Vec::with_capacity(len);
    for _ in 0..len {
        let u1 = loop {
            let u1: f64 = rng.random();
            if u1 > f64::MIN_POSITIVE {
                break u1;
            }
        };
        u.push((u1, rng.random::<f64>()));
    }
    u.par_iter()
        .map(|&(u1, u2)| {
            let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            Complex::new(g, 0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(n: usize, seed: u64) -> GaussianField {
        let spec = PowerSpectrum::new(CosmoParams::default());
        GaussianField::synthesize(&spec, n, 100.0, seed)
    }

    /// The memoised amplitude table, read at a cell's wavenumber
    /// magnitudes, is bit for bit what a direct `p_of_k` call at that
    /// cell's signed wavenumbers gives.
    #[test]
    fn memoised_amplitudes_equal_direct_evaluation() {
        let (n, box_size) = (16, 100.0);
        let spec = PowerSpectrum::new(CosmoParams::default());
        let (amps, h) = (amplitudes(&spec, n, box_size), n / 2 + 1);
        let kf = 2.0 * std::f64::consts::PI / box_size;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let f = [freq(i, n), freq(j, n), freq(k, n)];
                    let kv = f.map(|f| f as f64 * kf);
                    let kk = (kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2]).sqrt();
                    let direct = if kk == 0.0 {
                        0.0
                    } else {
                        (spec.p_of_k(kk) / (box_size * box_size * box_size)).sqrt()
                            * (n as f64).powi(3)
                    };
                    let [a, b, c] = f.map(|f| f.unsigned_abs() as usize);
                    let table = amps[(a * h + b) * h + c];
                    assert_eq!(table.to_bits(), direct.to_bits(), "cell ({i},{j},{k})");
                }
            }
        }
    }

    /// The field and particles exactly as the serial code built them: one
    /// Box–Muller draw at a time, amplitudes per cell, a zeroed grid per
    /// displacement axis, every lattice particle, and `%` for the wrap.
    fn reference_particles(n: usize, box_size: f64, seed: u64) -> (Grid3, IcParticles) {
        use crate::spectrum::CosmoParams;
        use rand::Rng;
        fn gauss<R: Rng>(rng: &mut R) -> f64 {
            loop {
                let u1: f64 = rng.random();
                if u1 <= f64::MIN_POSITIVE {
                    continue;
                }
                let u2: f64 = rng.random();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
        let cosmo = CosmoParams::default();
        let spec = PowerSpectrum::new(cosmo.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut white = Grid3::zeros(n);
        for c in white.data.iter_mut() {
            *c = Complex::new(gauss(&mut rng), 0.0);
        }
        white.fft(Direction::Forward);
        let norm = 1.0 / (n as f64).powf(1.5);
        let volume = box_size * box_size * box_size;
        let kf = 2.0 * std::f64::consts::PI / box_size;
        let kvec = |ix: usize| {
            let (i, j, k) = (ix / (n * n), ix / n % n, ix % n);
            [freq(i, n), freq(j, n), freq(k, n)].map(|f| f as f64 * kf)
        };
        let mut dk = Grid3::zeros(n);
        for (ix, g) in dk.data.iter_mut().enumerate() {
            let kv = kvec(ix);
            let kk = (kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2]).sqrt();
            let amp = if kk == 0.0 {
                0.0
            } else {
                (spec.p_of_k(kk) / volume).sqrt() * (n as f64).powi(3)
            };
            *g = white.data[ix].scale(norm).scale(amp);
        }
        let mut psi = vec![[0.0f64; 3]; n * n * n];
        for axis in 0..3 {
            let mut g = Grid3::zeros(n);
            for (ix, c) in g.data.iter_mut().enumerate() {
                let kv = kvec(ix);
                let k2 = kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2];
                if k2 != 0.0 {
                    let (d, f) = (dk.data[ix], kv[axis] / k2);
                    *c = Complex::new(-d.im * f, d.re * f);
                }
            }
            g.fft(Direction::Inverse);
            for (p, c) in psi.iter_mut().zip(&g.data) {
                p[axis] = c.re;
            }
        }
        let a = cosmo.a_init;
        let (d, f, hub) = (cosmo.growth(a), cosmo.growth_rate(a), cosmo.e_of_a(a));
        let dx = box_size / n as f64;
        let mut out = IcParticles {
            pos: vec![],
            vel: vec![],
            mass: vec![1.0 / (n * n * n) as f64; n * n * n],
        };
        for (ix, s) in psi.iter().enumerate() {
            let q = [ix / (n * n), ix / n % n, ix % n].map(|c| (c as f64 + 0.5) * dx);
            let (mut p, mut v) = ([0.0; 3], [0.0; 3]);
            for axis in 0..3 {
                let disp = d * s[axis];
                let mut x = (q[axis] + disp) % box_size;
                if x < 0.0 {
                    x += box_size;
                }
                p[axis] = x;
                v[axis] = a * a * hub * f * disp;
            }
            out.pos.push(p);
            out.vel.push(v);
        }
        (dk, out)
    }

    fn bits3(v: &[[f64; 3]]) -> Vec<u64> {
        v.iter().flatten().map(|x| x.to_bits()).collect()
    }

    /// Parallel white noise, the amplitude table, one displacement grid and
    /// per-plane particle building change no bit, at any thread count.
    #[test]
    fn lean_field_and_particles_match_the_serial_reference_bitwise() {
        let spec = PowerSpectrum::new(CosmoParams::default());
        for (n, box_size, seed) in [(8, 100.0, 5), (16, 37.5, 11), (32, 100.0, 2)] {
            let (dk, parts) = reference_particles(n, box_size, seed);
            for threads in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let f = pool.install(|| GaussianField::synthesize(&spec, n, box_size, seed));
                for (a, b) in f.delta_k.data.iter().zip(&dk.data) {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits())
                    );
                }
                let lean = pool.install(|| f.zeldovich_particles(&CosmoParams::default()));
                assert_eq!(
                    bits3(&lean.pos),
                    bits3(&parts.pos),
                    "n={n} pos, {threads} threads"
                );
                assert_eq!(
                    bits3(&lean.vel),
                    bits3(&parts.vel),
                    "n={n} vel, {threads} threads"
                );
                assert_eq!(lean.mass, parts.mass);
            }
        }
    }

    /// The divide-free wrap is bit for bit `x % l`, plus `l` when negative.
    #[test]
    fn wrap_equals_remainder_then_shift() {
        let reference = |x: f64, l: f64| {
            let r = x % l;
            if r < 0.0 {
                r + l
            } else {
                r
            }
        };
        let l = 37.5;
        let mut xs = vec![
            0.0,
            -0.0,
            l,
            -l,
            2.0 * l,
            -2.0 * l,
            3.0 * l + 0.25,
            f64::NAN,
        ];
        xs.extend(
            [l, 2.0 * l, 0.0]
                .iter()
                .flat_map(|&e| [e.next_up(), e.next_down(), -e.next_up(), -e.next_down()]),
        );
        xs.extend((0..2000).map(|i| (i as f64 * 0.737 - 700.0) * 0.1));
        for x in xs {
            assert_eq!(wrap(x, l).to_bits(), reference(x, l).to_bits(), "x = {x}");
        }
    }

    #[test]
    fn field_mean_is_zero() {
        let f = field(16, 3);
        assert!(f.mean().abs() < 1e-10, "mean = {}", f.mean());
    }

    #[test]
    fn field_rms_positive_and_reasonable() {
        let f = field(16, 3);
        let rms = f.rms();
        // For a 100 Mpc/h box sampled at 16³ the z=0 linear RMS is O(1).
        assert!(rms > 0.05 && rms < 10.0, "rms = {rms}");
    }

    #[test]
    fn field_deterministic() {
        let a = field(8, 11);
        let b = field(8, 11);
        assert_eq!(a.delta, b.delta);
    }

    #[test]
    fn different_seeds_differ() {
        let a = field(8, 1);
        let b = field(8, 2);
        assert_ne!(a.delta, b.delta);
    }

    #[test]
    fn displacement_is_divergence_of_potential() {
        // Sanity: displacement magnitudes are finite, nonzero.
        let f = field(8, 5);
        let psi = f.displacement();
        let maxd = psi
            .iter()
            .flat_map(|p| p.iter())
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(maxd > 0.0 && maxd.is_finite());
    }

    #[test]
    fn zeldovich_masses_sum_to_one() {
        let f = field(8, 5);
        let p = f.zeldovich_particles(&CosmoParams::default());
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zeldovich_velocities_track_displacement_direction() {
        let f = field(8, 5);
        let cosmo = CosmoParams::default();
        let psi = f.displacement();
        let p = f.zeldovich_particles(&cosmo);
        // v ∝ ψ with positive coefficient: the dot product of each velocity
        // with its displacement must be non-negative.
        for (v, d) in p.vel.iter().zip(&psi) {
            let dot: f64 = v.iter().zip(d.iter()).map(|(a, b)| a * b).sum();
            assert!(dot >= -1e-12);
        }
    }
}
