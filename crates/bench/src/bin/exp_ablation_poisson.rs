//! Ablation A2 — why a direct solve? (DESIGN.md §4, design-choice ablations.)
//!
//! The Poisson solve dominates each PM step. This ablation compares the
//! direct FFT solve of the periodic base mesh against plain red–black
//! Gauss–Seidel relaxation of the same 7-point system on the same
//! cosmological source field: passes and wall-clock to reach the same
//! residual target. Relaxation needs a number of sweeps that grows with the
//! mesh; one transform pair solves the system at any size.

use ramses::particles::{cic_deposit, Mesh};
use ramses::poisson::{solve, MgConfig};
use std::time::Instant;

/// Plain red–black Gauss–Seidel on the periodic 7-point stencil from a zero
/// guess, until the relative residual drops below `tol` or the sweep cap.
fn gauss_seidel_only(source: &Mesh, tol: f64, max_sweeps: usize) -> (usize, f64) {
    let n = source.n;
    let mean = source.data.iter().sum::<f64>() / source.data.len() as f64;
    let mut s = source.clone();
    for v in s.data.iter_mut() {
        *v -= mean;
    }
    let s_norm = s.data.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
    let mut phi = Mesh::zeros(n);
    let h2 = 1.0 / (n as f64 * n as f64);
    let inv_h2 = 1.0 / h2;
    let mut sweeps = 0;
    let mut rel = f64::INFINITY;
    while sweeps < max_sweeps {
        for color in 0..2usize {
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        if (i + j + k) % 2 != color {
                            continue;
                        }
                        let nb = phi.get((i + 1) % n, j, k)
                            + phi.get((i + n - 1) % n, j, k)
                            + phi.get(i, (j + 1) % n, k)
                            + phi.get(i, (j + n - 1) % n, k)
                            + phi.get(i, j, (k + 1) % n)
                            + phi.get(i, j, (k + n - 1) % n);
                        let ix = phi.idx(i, j, k);
                        phi.data[ix] = (nb - h2 * s.get(i, j, k)) / 6.0;
                    }
                }
            }
        }
        sweeps += 1;
        if sweeps % 10 == 0 || sweeps == max_sweeps {
            // residual check
            let mut r2 = 0.0;
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let lap = (phi.get((i + 1) % n, j, k)
                            + phi.get((i + n - 1) % n, j, k)
                            + phi.get(i, (j + 1) % n, k)
                            + phi.get(i, (j + n - 1) % n, k)
                            + phi.get(i, j, (k + 1) % n)
                            + phi.get(i, j, (k + n - 1) % n)
                            - 6.0 * phi.get(i, j, k))
                            * inv_h2;
                        let r = s.get(i, j, k) - lap;
                        r2 += r * r;
                    }
                }
            }
            rel = r2.sqrt() / s_norm;
            if rel < tol {
                break;
            }
        }
    }
    (sweeps, rel)
}

fn main() {
    println!("A2: Poisson-solver ablation — direct FFT solve vs Gauss-Seidel\n");
    println!(
        "  {:>6} {:>12} {:>12} {:>14} {:>14}",
        "mesh", "FFT resid", "FFT time", "GS sweeps", "GS time"
    );

    let cosmo = grafic::CosmoParams::default();
    for nbits in [4u32, 5] {
        let n = 1usize << nbits;
        let ics = grafic::generate_single_level(&cosmo, n.min(16), 100.0, 7);
        let parts = ramses::particles::Particles::from_ics(&ics.particles, 100.0);
        let rho = cic_deposit(&parts, n);
        let mut src = rho.clone();
        for v in src.data.iter_mut() {
            *v -= 1.0;
        }

        let tol = 1e-6;
        let t0 = Instant::now();
        let direct = solve(&src, &MgConfig::default());
        let fft_time = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (gs_sweeps, gs_rel) = gauss_seidel_only(&src, tol, 4000);
        let gs_time = t1.elapsed().as_secs_f64();

        println!(
            "  {:>4}^3 {:>12.1e} {:>11.2}ms {:>14} {:>13.1}ms",
            n,
            direct.rel_residual,
            fft_time * 1e3,
            gs_sweeps,
            gs_time * 1e3
        );
        assert!(direct.rel_residual < 1e-12);
        assert!(
            gs_sweeps > 10,
            "GS should need far more sweeps ({gs_sweeps}) than the direct solve's one pass"
        );
        if gs_rel >= tol {
            println!(
                "        (GS hit the {gs_sweeps}-sweep cap at residual {gs_rel:.1e} — \
                 it stalls where the direct solve is exact)"
            );
        }
    }

    println!(
        "\none forward/inverse FFT pair solves the periodic 7-point system to\n\
         rounding at any mesh size, while plain relaxation needs hundreds-to-\n\
         thousands of sweeps and degrades quadratically with resolution — why\n\
         PM codes solve the periodic base level spectrally."
    );
    println!("A2 shape checks passed");
}
