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
use rand::{Rng, RngExt, SeedableRng};
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
        assert!(
            n.is_power_of_two() && n >= 2,
            "grid side must be a power of two >= 2"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gk = Grid3::zeros(n);

        // Fill each mode with a Gaussian amplitude. To enforce the Hermitian
        // symmetry δ(-k) = δ(k)* we draw a full grid of white noise first,
        // FFT it (a real field's transform is automatically Hermitian), then
        // colour it by sqrt(P(k)). This is exactly GRAFIC's construction and
        // makes nested zoom levels consistent by sharing the white noise.
        let mut white = Grid3::zeros(n);
        for c in white.data.iter_mut() {
            *c = Complex::new(gauss(&mut rng), 0.0);
        }
        white.fft(Direction::Forward);

        let norm = 1.0 / (n as f64).powf(1.5); // unit-variance white noise in k-space
        let amps = amplitudes(spec, n, box_size);
        for ((g, w), amp) in gk.data.iter_mut().zip(&white.data).zip(amps) {
            *g = w.scale(norm).scale(amp);
        }

        let mut real = gk.clone();
        real.fft(Direction::Inverse);
        let delta: Vec<f64> = real.data.iter().map(|c| c.re).collect();

        GaussianField {
            n,
            box_size,
            delta,
            delta_k: gk,
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
        let n = self.n;
        let kf = 2.0 * std::f64::consts::PI / self.box_size;
        let mut psi = vec![[0.0f64; 3]; n * n * n];
        for axis in 0..3 {
            let mut g = Grid3::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let kv = [
                            freq(i, n) as f64 * kf,
                            freq(j, n) as f64 * kf,
                            freq(k, n) as f64 * kf,
                        ];
                        let k2 = kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2];
                        if k2 == 0.0 {
                            continue;
                        }
                        let d = self.delta_k.get(i, j, k);
                        // ψ(k) = i k/k² δ(k)  →  multiply by i kᵃ/k².
                        let f = kv[axis] / k2;
                        g.set(i, j, k, Complex::new(-d.im * f, d.re * f));
                    }
                }
            }
            g.fft(Direction::Inverse);
            for (p, c) in psi.iter_mut().zip(&g.data) {
                p[axis] = c.re;
            }
        }
        psi
    }

    /// Generate particles on the lattice displaced by the Zel'dovich
    /// approximation at `cosmo.a_init`, with consistent peculiar velocities.
    ///
    /// Velocities are the canonical momenta `p = a² dx/dt` used by comoving
    /// PM codes, in Mpc/h · H0 units: with `x(t) = q + D(t)ψ` one has
    /// `dx/dt = f D H ψ`, so `p = a² H(a) f D ψ` (t in 1/H0, H = E(a)).
    pub fn zeldovich_particles(&self, cosmo: &CosmoParams) -> IcParticles {
        let n = self.n;
        let a = cosmo.a_init;
        let d = cosmo.growth(a);
        let f = cosmo.growth_rate(a);
        let hub = cosmo.e_of_a(a);
        let psi = self.displacement();
        let dx = self.box_size / n as f64;
        let npart = n * n * n;
        let mass = 1.0 / npart as f64; // total mass normalised to 1 (Ωm box)

        let mut pos = Vec::with_capacity(npart);
        let mut vel = Vec::with_capacity(npart);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let ix = (i * n + j) * n + k;
                    let q = [
                        (i as f64 + 0.5) * dx,
                        (j as f64 + 0.5) * dx,
                        (k as f64 + 0.5) * dx,
                    ];
                    let mut p = [0.0f64; 3];
                    let mut v = [0.0f64; 3];
                    for axis in 0..3 {
                        let disp = d * psi[ix][axis];
                        p[axis] = wrap(q[axis] + disp, self.box_size);
                        v[axis] = a * a * hub * f * disp;
                    }
                    pos.push(p);
                    vel.push(v);
                }
            }
        }
        IcParticles {
            pos,
            vel,
            mass: vec![mass; npart],
        }
    }
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

/// Mode amplitude `sqrt(P(|k|)/V)·n³` for every cell of the `n³` k-grid, 0
/// at k = 0. The grid has only a few thousand distinct |k| against n³
/// cells, so P is evaluated once per |k|, keyed on the bits of the very
/// `kk` each cell computes.
fn amplitudes(spec: &PowerSpectrum, n: usize, box_size: f64) -> Vec<f64> {
    let volume = box_size * box_size * box_size;
    let kf = 2.0 * std::f64::consts::PI / box_size; // fundamental mode
    let mut memo = HashMap::new();
    let mut amps = Vec::with_capacity(n * n * n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let kx = freq(i, n) as f64 * kf;
                let ky = freq(j, n) as f64 * kf;
                let kz = freq(k, n) as f64 * kf;
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

#[inline]
fn wrap(x: f64, l: f64) -> f64 {
    let mut x = x % l;
    if x < 0.0 {
        x += l;
    }
    x
}

/// One standard normal draw via Box–Muller.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn field(n: usize, seed: u64) -> GaussianField {
        let spec = PowerSpectrum::new(CosmoParams::default());
        GaussianField::synthesize(&spec, n, 100.0, seed)
    }

    /// The memoised amplitudes are bit for bit what a direct `p_of_k` call
    /// per cell gives.
    #[test]
    fn memoised_amplitudes_equal_direct_evaluation() {
        let (n, box_size) = (16, 100.0);
        let spec = PowerSpectrum::new(CosmoParams::default());
        let amps = amplitudes(&spec, n, box_size);
        let kf = 2.0 * std::f64::consts::PI / box_size;
        let mut ix = 0;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let kv = [freq(i, n), freq(j, n), freq(k, n)].map(|f| f as f64 * kf);
                    let kk = (kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2]).sqrt();
                    let direct = if kk == 0.0 {
                        0.0
                    } else {
                        (spec.p_of_k(kk) / (box_size * box_size * box_size)).sqrt()
                            * (n as f64).powi(3)
                    };
                    assert_eq!(amps[ix].to_bits(), direct.to_bits(), "cell ({i},{j},{k})");
                    ix += 1;
                }
            }
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
