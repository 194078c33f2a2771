//! Poisson solver on the periodic base mesh.
//!
//! Solves `∇²φ = S` with periodic boundaries, where `∇²` is the 7-point
//! Laplacian at `h = 1/n`. The periodic problem is only solvable when
//! `⟨S⟩ = 0`, so the source is de-meaned on entry (physically: the Poisson
//! source is the *over*density). Fourier modes diagonalise the periodic
//! stencil, so one forward/inverse FFT pair solves the discrete system
//! exactly — the way PM codes solve the periodic base level. Source and
//! potential are real, so the pair runs on the half spectrum
//! ([`grafic::fft::filter_real`]). The refined patches are Dirichlet
//! problems and relax on their own ([`crate::refine::RefinedPatch::solve`]).

use crate::particles::Mesh;
use grafic::fft::filter_real;
use rayon::prelude::*;

/// Shared mutable base pointer for the plane-parallel kernels below: every
/// worker writes a disjoint set of cells (whole i-planes), so concurrent
/// access never overlaps.
#[derive(Clone, Copy)]
struct RawMut(*mut f64);
// SAFETY: the pointer is only dereferenced inside the kernels below, each of
// which gives every worker a disjoint set of cells of a live mesh.
unsafe impl Send for RawMut {}
// SAFETY: as for `Send`; shared copies never touch the same cell.
unsafe impl Sync for RawMut {}

impl RawMut {
    /// Accessor (rather than direct field access) so closures capture the
    /// whole `Sync` wrapper — Rust 2021's disjoint capture would otherwise
    /// capture the bare `*mut f64` field, which is not `Sync`.
    #[inline]
    fn ptr(self) -> *mut f64 {
        self.0
    }
}

/// Chunk-size hint for kernels parallelised over the `n` i-planes: keeps
/// small meshes on a single inline chunk. A function of `n` only — never the
/// thread count — so the partition, and with it every reduction order, is
/// identical at any parallelism level.
#[inline]
fn plane_min_len(n: usize) -> usize {
    (4096 / (n * n)).max(1)
}

/// Periodic neighbour pair `(idx+1 mod n, idx-1 mod n)` via predictable
/// comparisons instead of two hardware divides; `idx < n` required.
#[inline(always)]
fn wrap_pm(idx: usize, n: usize) -> (usize, usize) {
    let up = if idx + 1 == n { 0 } else { idx + 1 };
    let dn = if idx == 0 { n - 1 } else { idx - 1 };
    (up, dn)
}

/// Solver configuration. The periodic solve is direct and reads none of
/// it; `max_cycles` sizes the refined patches' relaxation budget.
#[derive(Debug, Clone, Copy)]
pub struct MgConfig {
    /// Relaxation budget of a refined patch, in units of five sweeps.
    pub max_cycles: usize,
}

impl Default for MgConfig {
    fn default() -> Self {
        MgConfig { max_cycles: 30 }
    }
}

/// Result of a solve: the potential and the achieved relative residual.
#[derive(Debug, Clone)]
pub struct MgSolution {
    pub phi: Mesh,
    pub rel_residual: f64,
    pub cycles: usize,
}

/// Solve ∇²φ = S on an `n³` periodic mesh with spacing `h = 1/n`.
///
/// Direct: the de-meaned source's half spectrum (`kz ≤ n/2`) is taken,
/// mode `(kx, ky, kz)` is scaled by the inverse of the stencil's eigenvalue
/// `−4n² Σ sin²(πk/n)` (the `k = 0` mode is zeroed), and the inverse
/// transform is φ with `⟨φ⟩ = 0`. `cfg` is not read; `cycles` is 1, and
/// `rel_residual` is ‖S − ⟨S⟩ − ∇²φ‖/‖S − ⟨S⟩‖ measured on the result.
pub fn solve(source: &Mesh, _cfg: &MgConfig) -> MgSolution {
    let s = demeaned(source);
    let phi = spectral_solve(&s);
    let rel = norm2(&residual(&phi, &s).data) / norm2(&s.data).max(1e-300);
    MgSolution {
        phi,
        rel_residual: rel,
        cycles: 1,
    }
}

/// The φ of [`solve`] without the residual diagnostic: what a force
/// evaluation needs.
pub(crate) fn potential(source: &Mesh) -> Mesh {
    spectral_solve(&demeaned(source))
}

/// `S − ⟨S⟩`: periodic Poisson needs a zero-mean right-hand side.
fn demeaned(source: &Mesh) -> Mesh {
    let n = source.n;
    assert!(
        n.is_power_of_two() && n >= 4,
        "mesh side must be a power of two >= 4"
    );
    let mean = source.mean();
    Mesh {
        n,
        data: source.data.par_iter().map(|v| v - mean).collect(),
    }
}

/// φ for a zero-mean source `s`, as [`solve`] describes.
fn spectral_solve(s: &Mesh) -> Mesh {
    let n = s.n;
    // −λ per axis: 4n² sin²(πk/n).
    let axis: Vec<f64> = (0..n)
        .map(|k| {
            let sk = (std::f64::consts::PI * k as f64 / n as f64).sin();
            4.0 * (n * n) as f64 * sk * sk
        })
        .collect();
    // S and φ are real, so the modes are scaled on the half spectrum.
    let data = filter_real(n, &s.data, |i, j, k| {
        let lam = -(axis[i] + axis[j] + axis[k]);
        // λ vanishes only at k = 0, the mean the source lacks.
        if lam == 0.0 {
            0.0
        } else {
            1.0 / lam
        }
    });
    let mut phi = Mesh { n, data };
    // Pin the mean of φ to zero (gauge freedom of the periodic problem).
    let pm = phi.mean();
    phi.data.par_iter_mut().for_each(|v| *v -= pm);
    phi
}

fn norm2(v: &[f64]) -> f64 {
    // Chunked parallel sum of squares; the fixed chunk partition makes the
    // accumulation order (and hence the f64 result) thread-count-invariant.
    v.par_iter()
        .with_min_len(1024)
        .fold(|| 0.0f64, |acc, x| acc + x * x)
        .reduce(|| 0.0, |a, b| a + b)
        .sqrt()
}

/// Residual r = S − ∇²φ. Parallel over i-planes of the fresh output mesh;
/// `phi` and `s` are only read, and each output cell is computed
/// independently, so the result is the same at any thread count.
fn residual(phi: &Mesh, s: &Mesh) -> Mesh {
    let n = phi.n;
    let inv_h2 = (n as f64) * (n as f64);
    let mut r = Mesh::zeros(n);
    let out = RawMut(r.data.as_mut_ptr());
    (0..n)
        .into_par_iter()
        .with_min_len(plane_min_len(n))
        .for_each(move |i| {
            let p = &phi.data[..];
            let (ip, im) = wrap_pm(i, n);
            for j in 0..n {
                let (jp, jm) = wrap_pm(j, n);
                let row = (i * n + j) * n;
                let row_ip = (ip * n + j) * n;
                let row_im = (im * n + j) * n;
                let row_jp = (i * n + jp) * n;
                let row_jm = (i * n + jm) * n;
                for k in 0..n {
                    let (kp, km) = wrap_pm(k, n);
                    let lap = (p[row_ip + k]
                        + p[row_im + k]
                        + p[row_jp + k]
                        + p[row_jm + k]
                        + p[row + kp]
                        + p[row + km]
                        - 6.0 * p[row + k])
                        * inv_h2;
                    // SAFETY: plane i of the output is written by one worker.
                    unsafe {
                        *out.ptr().add(row + k) = s.data[row + k] - lap;
                    }
                }
            }
        });
    r
}

/// Central-difference gradient of φ: returns `[−∂φ/∂x, −∂φ/∂y, −∂φ/∂z]`
/// meshes, i.e. the acceleration field `g = −∇φ`.
pub fn gradient_force(phi: &Mesh) -> [Mesh; 3] {
    let n = phi.n;
    let inv_2h = n as f64 / 2.0;
    let mut out = [Mesh::zeros(n), Mesh::zeros(n), Mesh::zeros(n)];
    let [ox, oy, oz] = &mut out;
    let px = RawMut(ox.data.as_mut_ptr());
    let py = RawMut(oy.data.as_mut_ptr());
    let pz = RawMut(oz.data.as_mut_ptr());
    (0..n)
        .into_par_iter()
        .with_min_len(plane_min_len(n))
        .for_each(move |i| {
            let p = &phi.data[..];
            let (ip, im) = wrap_pm(i, n);
            for j in 0..n {
                let (jp, jm) = wrap_pm(j, n);
                let row = (i * n + j) * n;
                let row_ip = (ip * n + j) * n;
                let row_im = (im * n + j) * n;
                let row_jp = (i * n + jp) * n;
                let row_jm = (i * n + jm) * n;
                for k in 0..n {
                    let (kp, km) = wrap_pm(k, n);
                    // SAFETY: plane i of each output is written by one worker.
                    unsafe {
                        *px.ptr().add(row + k) = -(p[row_ip + k] - p[row_im + k]) * inv_2h;
                        *py.ptr().add(row + k) = -(p[row_jp + k] - p[row_jm + k]) * inv_2h;
                        *pz.ptr().add(row + k) = -(p[row + kp] - p[row + km]) * inv_2h;
                    }
                }
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The 7-point periodic Laplacian at h = 1/n, written out independently
    /// of the solver's `residual`.
    fn laplacian(phi: &Mesh) -> Mesh {
        let n = phi.n;
        let inv_h2 = (n * n) as f64;
        let mut out = Mesh::zeros(n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let lap = phi.get(i + 1, j, k)
                        + phi.get(i + n - 1, j, k)
                        + phi.get(i, j + 1, k)
                        + phi.get(i, j + n - 1, k)
                        + phi.get(i, j, k + 1)
                        + phi.get(i, j, k + n - 1)
                        - 6.0 * phi.get(i, j, k);
                    let ix = out.idx(i, j, k);
                    out.data[ix] = lap * inv_h2;
                }
            }
        }
        out
    }

    /// Analytic test: S = sin(2πx) has φ = −sin(2πx)/(2π)² (per the discrete
    /// operator, the eigenvalue differs slightly; compare against the
    /// discrete eigenvalue for exactness).
    #[test]
    fn solves_single_mode_exactly() {
        let n = 16;
        let mut s = Mesh::zeros(n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let x = (i as f64 + 0.5) / n as f64;
                    let ix = s.idx(i, j, k);
                    s.data[ix] = (2.0 * std::f64::consts::PI * x).sin();
                }
            }
        }
        let sol = solve(&s, &MgConfig::default());
        assert!(sol.rel_residual < 1e-12, "residual {}", sol.rel_residual);
        assert_eq!(sol.cycles, 1);
        // The discrete eigenvalue of the 7-pt Laplacian for mode m=1:
        // λ = −(2 sin(π/n) n)² → φ = S/λ.
        let lam = -(2.0 * (std::f64::consts::PI / n as f64).sin() * n as f64).powi(2);
        for ix in 0..s.data.len() {
            let expect = s.data[ix] / lam;
            assert!(
                (sol.phi.data[ix] - expect).abs() < 1e-12,
                "phi mismatch at {ix}: {} vs {expect}",
                sol.phi.data[ix]
            );
        }
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let n = 8;
        let mut phi = Mesh::zeros(n);
        // Build S from a random φ by applying the discrete Laplacian, then
        // check residual(φ, S) == 0.
        for (ix, v) in phi.data.iter_mut().enumerate() {
            *v = ((ix * 2654435761) % 1000) as f64 / 1000.0;
        }
        let s = laplacian(&phi);
        let r = residual(&phi, &s);
        assert!(norm2(&r.data) < 1e-9);
    }

    #[test]
    fn solver_handles_nonzero_mean_source() {
        let n = 8;
        let mut s = Mesh::zeros(n);
        for (ix, v) in s.data.iter_mut().enumerate() {
            *v = 1.0 + ((ix % 5) as f64 - 2.0) * 0.1;
        }
        let sol = solve(&s, &MgConfig::default());
        assert!(sol.rel_residual < 1e-6);
        assert!(sol.phi.mean().abs() < 1e-10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The direct solve satisfies the discrete system an iterative
        /// solver converges toward: for any source, ‖S − ⟨S⟩ − ∇²φ‖ is at
        /// rounding level against ‖S − ⟨S⟩‖, and ⟨φ⟩ = 0.
        #[test]
        fn solves_the_discrete_system(bits in 2u32..6, seed in 0u64..1_000_000, offset in 0.5f64..5.0) {
            let n = 1usize << bits;
            let mut s = Mesh::zeros(n);
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for v in s.data.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = offset + (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            }
            let sol = solve(&s, &MgConfig::default());
            let mean = s.mean();
            let lap = laplacian(&sol.phi);
            let (mut r2, mut s2) = (0.0, 0.0);
            for (sv, lv) in s.data.iter().zip(&lap.data) {
                r2 += (sv - mean - lv).powi(2);
                s2 += (sv - mean).powi(2);
            }
            prop_assert!(r2.sqrt() <= 1e-10 * s2.sqrt(), "n={n}: residual {} of {}", r2.sqrt(), s2.sqrt());
            prop_assert!(sol.phi.mean().abs() <= 1e-12, "n={n}: mean {}", sol.phi.mean());
        }
    }

    #[test]
    fn gradient_of_linear_mode_is_cosine() {
        let n = 32;
        let mut phi = Mesh::zeros(n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let x = (i as f64 + 0.5) / n as f64;
                    let ix = phi.idx(i, j, k);
                    phi.data[ix] = (2.0 * std::f64::consts::PI * x).sin();
                }
            }
        }
        let g = gradient_force(&phi);
        // g_x = −2π cos(2πx) (up to the discrete sinc factor), g_y = g_z = 0.
        for i in 0..n {
            let x = (i as f64 + 0.5) / n as f64;
            let expect = -2.0 * std::f64::consts::PI * (2.0 * std::f64::consts::PI * x).cos();
            let got = g[0].get(i, 3, 5);
            assert!(
                (got - expect).abs() < 0.1 * expect.abs().max(1.0),
                "gx at {x}: {got} vs {expect}"
            );
            assert!(g[1].get(i, 3, 5).abs() < 1e-10);
            assert!(g[2].get(i, 3, 5).abs() < 1e-10);
        }
    }
}
