//! Kernel-scaling baseline: wall-clock of the hot compute kernels versus
//! thread count (DESIGN.md §8, threading model).
//!
//! Sweeps the pool width over {1, 2, 4, 8} via `ThreadPool::install` and
//! times the phases of a step — the direct Poisson solve, the gradient, the
//! CIC deposit + force interpolation, kick + drift — one Godunov hydro
//! step, a 3-D FFT roundtrip, and the two ends of a re-simulation: its zoom
//! initial conditions and HaloMaker on a clustered final state. The
//! `zoom2_force_eval` row times one whole force evaluation at the
//! campaign's zoom2 shape (~5 000 particles on the 32³ mesh) at widths 1
//! and 2 only: the campaign runs its solves at width 1. Each kernel
//! reports the median of several repetitions plus the speedup relative to
//! one thread, and a rotate-XOR checksum over the output bits — asserted
//! identical at every width, pinning the pool's bitwise-determinism
//! guarantee at the benchmark level too.
//!
//! A `sim_run` yardstick then times whole `Simulation::run` steps (32³ and
//! 64³ particles on a mesh twice as fine, the PM exemplar's 256³-on-512³
//! ratio) at one thread and at the default width, as ms/step and
//! particle-steps/s — the figure to set against the exemplar's ≈4.7e6/s on
//! 16 cores (SNIPPETS.md 2).
//!
//! Writes `BENCH_kernels.json`. Note: speedups are only meaningful when the
//! host exposes real cores; the artifact records `available_parallelism` so
//! readers can judge (a 1-CPU container reports ~1.0x throughout — the
//! sweep still validates determinism and oversubscription safety there).
//!
//! `--quick` runs a reduced sweep (16-cubed, threads {1, 2}, fewer reps)
//! into `target/experiments/` and validates the JSON artifact, as a CI
//! smoke test.

use bench::validate_json;
use grafic::fft::{Complex, Direction, Grid3};
use grafic::CosmoParams;
use ramses::gravity::{drift, kick};
use ramses::hydro::{HydroGrid, Prim, Riemann, GAMMA_DEFAULT};
use ramses::nbody::{RunParams, Simulation};
use ramses::particles::{cic_deposit, cic_interp_force, Mesh, Particles};
use ramses::poisson::{gradient_force, solve, MgConfig};
use std::time::Instant;

/// Order-sensitive checksum over f64 bit patterns: any single-bit change in
/// any value, or any reordering, changes the digest.
fn checksum(vals: impl Iterator<Item = f64>) -> u64 {
    vals.fold(0u64, |h, v| h.rotate_left(1) ^ v.to_bits())
}

struct Sample {
    threads: usize,
    median_ns: u128,
    check: u64,
}

/// Time `op` at each pool width: `reps` timed runs per width (after one
/// warm-up), keeping the median and the output checksum.
fn sweep(threads: &[usize], reps: usize, mut op: impl FnMut() -> u64) -> Vec<Sample> {
    threads
        .iter()
        .map(|&t| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("pool build cannot fail");
            pool.install(|| {
                let mut check = op(); // warm-up (also seeds the checksum)
                let mut times: Vec<u128> = (0..reps)
                    .map(|_| {
                        let t0 = Instant::now();
                        check = op();
                        t0.elapsed().as_nanos()
                    })
                    .collect();
                times.sort_unstable();
                Sample {
                    threads: t,
                    median_ns: times[times.len() / 2],
                    check,
                }
            })
        })
        .collect()
}

fn fixture_source(n: usize) -> Mesh {
    let mut s = Mesh::zeros(n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let x = (i as f64 + 0.5) / n as f64;
                let y = (j as f64 + 0.5) / n as f64;
                let z = (k as f64 + 0.5) / n as f64;
                let ix = s.idx(i, j, k);
                s.data[ix] = (2.0 * std::f64::consts::PI * x).sin()
                    * (4.0 * std::f64::consts::PI * y).cos()
                    + (6.0 * std::f64::consts::PI * z).sin();
            }
        }
    }
    s
}

struct KernelReport {
    name: &'static str,
    samples: Vec<Sample>,
}

impl KernelReport {
    fn checks_consistent(&self) -> bool {
        self.samples.windows(2).all(|w| w[0].check == w[1].check)
    }

    fn to_json(&self) -> String {
        let base = self.samples[0].median_ns.max(1) as f64;
        let rows: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{{\"threads\": {}, \"median_ns\": {}, \"speedup\": {:.3}}}",
                    s.threads,
                    s.median_ns,
                    base / s.median_ns.max(1) as f64
                )
            })
            .collect();
        format!(
            "{{\"name\": \"{}\", \"checksum_consistent\": {}, \"results\": [{}]}}",
            self.name,
            self.checks_consistent(),
            rows.join(", ")
        )
    }
}

/// The yardstick: the first `max_steps` steps of a dark-matter run from
/// a = 0.1, `np`³ particles on a (2·np)³ mesh, timed through
/// `Simulation::run` at each width. Every step costs about the same: one
/// direct solve per force evaluation.
struct SimRunReport {
    np: usize,
    steps: usize,
    /// `(threads, seconds, checksum of final positions and velocities)`.
    samples: Vec<(usize, f64, u64)>,
}

fn sim_run(np: usize, max_steps: usize, widths: &[usize]) -> SimRunReport {
    let cosmo = CosmoParams {
        a_init: 0.1,
        ..CosmoParams::default()
    };
    let ics = grafic::generate_single_level(&cosmo, np, 100.0, 1923).particles;
    let params = RunParams {
        cosmo,
        mesh_n: 2 * np,
        aout: vec![],
        max_steps,
        ..RunParams::default()
    };
    let mut steps = 0;
    let samples = widths
        .iter()
        .map(|&t| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("pool build cannot fail");
            let mut sim = Simulation::from_ics(params.clone(), &ics);
            let t0 = Instant::now();
            pool.install(|| sim.run());
            let secs = t0.elapsed().as_secs_f64();
            steps = sim.step;
            let check = checksum(
                sim.parts
                    .pos
                    .iter()
                    .chain(&sim.parts.vel)
                    .flatten()
                    .copied(),
            );
            (t, secs, check)
        })
        .collect();
    SimRunReport { np, steps, samples }
}

impl SimRunReport {
    fn mesh_n(&self) -> usize {
        2 * self.np
    }

    fn checks_consistent(&self) -> bool {
        self.samples.windows(2).all(|w| w[0].2 == w[1].2)
    }

    fn ms_per_step(&self, secs: f64) -> f64 {
        secs * 1e3 / self.steps.max(1) as f64
    }

    fn particle_steps_per_s(&self, secs: f64) -> f64 {
        (self.np.pow(3) * self.steps) as f64 / secs
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .samples
            .iter()
            .map(|&(t, secs, _)| {
                format!(
                    "{{\"threads\": {t}, \"ms_per_step\": {:.3}, \"particle_steps_per_s\": {:.0}}}",
                    self.ms_per_step(secs),
                    self.particle_steps_per_s(secs)
                )
            })
            .collect();
        format!(
            "{{\"particles_per_dim\": {}, \"mesh_n\": {}, \"steps\": {}, \
             \"checksum_consistent\": {}, \"results\": [{}]}}",
            self.np,
            self.mesh_n(),
            self.steps,
            self.checks_consistent(),
            rows.join(", ")
        )
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, threads, reps): (usize, &[usize], usize) = if quick {
        (16, &[1, 2], 2)
    } else {
        (32, &[1, 2, 4, 8], 5)
    };

    println!("== kernel scaling: n = {n}, threads = {threads:?}, {reps} reps ==");

    let cosmo = CosmoParams::default();
    let parts = Particles::from_ics(
        &grafic::generate_single_level(&cosmo, n, 100.0, 7).particles,
        100.0,
    );
    let source = fixture_source(n);
    let mg = MgConfig::default();

    let mut reports = Vec::new();

    // Direct periodic Poisson solve (one FFT pair plus the residual check).
    reports.push(KernelReport {
        name: "poisson_fft",
        samples: sweep(threads, reps, || {
            let sol = solve(&source, &mg);
            checksum(sol.phi.data.iter().copied())
        }),
    });

    // The gradient force, then CIC deposit + interpolation back to
    // particles — the particle half of one PM gravity evaluation — and the
    // two halves of the leapfrog that consume it (on one reused copy of the
    // set, so the copy costs a memcpy and no page faults).
    let phi = solve(&source, &mg).phi;
    let accel = gradient_force(&phi);
    reports.push(KernelReport {
        name: "gradient",
        samples: sweep(threads, reps, || {
            checksum(
                gradient_force(&phi)
                    .iter()
                    .flat_map(|m| m.data.iter().copied()),
            )
        }),
    });
    let acc = cic_interp_force(&parts, &accel);
    let mut p = parts.clone();
    reports.push(KernelReport {
        name: "kick_drift",
        samples: sweep(threads, reps, || {
            p.clone_from(&parts);
            kick(&mut p, &acc, 0.5, 1e-3);
            drift(&mut p, 0.5, 1e-3);
            checksum(p.pos.iter().chain(&p.vel).flatten().copied())
        }),
    });
    reports.push(KernelReport {
        name: "nbody_cic",
        samples: sweep(threads, reps, || {
            let rho = cic_deposit(&parts, n);
            let f = cic_interp_force(&parts, &accel);
            checksum(
                rho.data
                    .iter()
                    .copied()
                    .chain(f.iter().flat_map(|a| a.iter().copied())),
            )
        }),
    });

    // One force evaluation at the campaign's zoom2 shape: 16³ zoom ICs with
    // two nested boxes (~5 000 particles) on the 32³ mesh — deposit, solve,
    // gradient and interpolation back to the particles. Unlike `nbody_cic`'s
    // one particle per cell, this set is past the deposit's chunking
    // threshold, so its partial sums are in the time.
    let zoom2 = {
        let cosmo = CosmoParams {
            a_init: 0.1,
            ..CosmoParams::default()
        };
        let ics = grafic::zoom::generate_zoom(&cosmo, 16, 50.0, [24.0, 12.5, 31.0], 2, 2007);
        (
            Particles::from_ics(&ics.particles, 50.0),
            ramses::cosmology::Cosmology::new(cosmo),
        )
    };
    let (zoom2_parts, zoom2_cosmo) = &zoom2;
    let pm = ramses::gravity::PmGravity::new(32);
    println!(
        "  zoom2_force_eval: {} particles on 32^3",
        zoom2_parts.len()
    );
    reports.push(KernelReport {
        name: "zoom2_force_eval",
        samples: sweep(&threads[..2], reps, || {
            let field = pm.field(zoom2_parts, zoom2_cosmo, 0.1);
            let acc = pm.accelerations(zoom2_parts, &field);
            checksum(acc.iter().flatten().copied())
        }),
    });

    // One Godunov step on a smooth over-pressured sphere.
    let gas0 = HydroGrid::from_fn(n, GAMMA_DEFAULT, |x| {
        let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2) + (x[2] - 0.5).powi(2);
        Prim {
            rho: 1.0,
            vel: [0.0; 3],
            p: if r2 < 0.05 { 1.0 } else { 0.1 },
        }
    });
    reports.push(KernelReport {
        name: "hydro_step",
        samples: sweep(threads, reps, || {
            let mut gas = gas0.clone();
            let dt = gas.max_dt(0.4);
            gas.step(dt, Riemann::Hllc);
            checksum(
                gas.cells
                    .iter()
                    .flat_map(|c| [c.rho, c.mom[0], c.mom[1], c.mom[2], c.e].into_iter()),
            )
        }),
    });

    // 3-D FFT roundtrip.
    let mut grid0 = Grid3::zeros(n);
    for (i, v) in grid0.data.iter_mut().enumerate() {
        *v = Complex::new((i % 13) as f64, 0.0);
    }
    reports.push(KernelReport {
        name: "fft3d_roundtrip",
        samples: sweep(threads, reps, || {
            let mut g = grid0.clone();
            g.fft(Direction::Forward);
            g.fft(Direction::Inverse);
            checksum(g.data.iter().flat_map(|c| [c.re, c.im].into_iter()))
        }),
    });

    // Zoom initial conditions at the campaign's shape: an (n/2)³ coarse
    // level and two nested boxes, realised at n³ and (2n)³.
    let zoom_cosmo = CosmoParams {
        a_init: 0.1,
        ..CosmoParams::default()
    };
    reports.push(KernelReport {
        name: "zoom_ics",
        samples: sweep(threads, reps, || {
            let z = grafic::zoom::generate_zoom(&zoom_cosmo, n / 2, 50.0, [24.0, 12.5, 31.0], 2, 7);
            checksum(
                z.particles
                    .pos
                    .iter()
                    .chain(&z.particles.vel)
                    .flatten()
                    .copied(),
            )
        }),
    });

    // HaloMaker (FoF and halo properties) on the final state of a zoom1-
    // shaped run: (n/2)³ particles on the n³ mesh from a = 0.1 to 1.
    let clustered = {
        let ics = grafic::generate_single_level(&zoom_cosmo, n / 2, 50.0, 1923).particles;
        let params = RunParams {
            cosmo: zoom_cosmo.clone(),
            box_mpc_h: 50.0,
            mesh_n: n,
            aout: vec![],
            max_steps: 400,
            ..RunParams::default()
        };
        Simulation::from_ics(params, &ics)
            .run()
            .pop()
            .expect("final snapshot")
    };
    let fof = galics::FofParams {
        b: 0.2,
        min_members: 5,
    };
    reports.push(KernelReport {
        name: "halo_maker",
        samples: sweep(threads, reps, || {
            let cat = galics::halo::halo_maker(&clustered, &fof);
            checksum(cat.halos.iter().map(|h| h.mass_msun))
        }),
    });

    // Whole-run yardstick at one thread and at the default width.
    let default_width = rayon::current_num_threads();
    let widths: &[usize] = if default_width > 1 {
        &[1, default_width]
    } else {
        &[1]
    };
    let sim_runs: Vec<SimRunReport> = if quick {
        vec![sim_run(8, 4, widths)]
    } else {
        vec![sim_run(32, 40, widths), sim_run(64, 12, widths)]
    };

    let mut ok = true;
    for r in &sim_runs {
        println!(
            "  sim_run {}^3 particles, {}^3 mesh, {} steps:",
            r.np,
            r.mesh_n(),
            r.steps
        );
        for &(t, secs, _) in &r.samples {
            println!(
                "    {t} thread(s): {:>9.2} ms/step  {:.3e} particle-steps/s",
                r.ms_per_step(secs),
                r.particle_steps_per_s(secs)
            );
        }
        if !r.checks_consistent() {
            println!("    checksums: MISMATCH — determinism violated");
            ok = false;
        }
    }
    for r in &reports {
        let base = r.samples[0].median_ns.max(1) as f64;
        println!("  {}:", r.name);
        for s in &r.samples {
            println!(
                "    {} thread(s): {:>12} ns/op  speedup {:.2}x",
                s.threads,
                s.median_ns,
                base / s.median_ns.max(1) as f64
            );
        }
        if r.checks_consistent() {
            println!("    checksums: identical at every width");
        } else {
            println!("    checksums: MISMATCH — determinism violated");
            ok = false;
        }
    }

    let avail = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"kernel_scaling\",\n  \"mesh_n\": {n},\n  \
         \"threads_swept\": [{}],\n  \"reps\": {reps},\n  \
         \"available_parallelism\": {avail},\n  \
         \"rayon_default_threads\": {},\n  \"sim_run\": [\n    {}\n  ],\n  \
         \"kernels\": [\n    {}\n  ]\n}}\n",
        threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        default_width,
        sim_runs
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(",\n    "),
        reports
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    validate_json(&json).expect("generated artifact must be well-formed JSON");

    let path = if quick {
        bench::artifact_dir().join("BENCH_kernels_quick.json")
    } else {
        std::path::PathBuf::from("BENCH_kernels.json")
    };
    std::fs::write(&path, &json).expect("failed to write artifact");
    println!("wrote {}", path.display());

    // Smoke-check the artifact on disk: re-read, re-validate, and require
    // the keys downstream tooling consumes.
    let disk = std::fs::read_to_string(&path).expect("artifact unreadable");
    validate_json(&disk).expect("artifact on disk must be well-formed JSON");
    for key in [
        "\"experiment\"",
        "\"kernels\"",
        "\"median_ns\"",
        "\"speedup\"",
        "\"available_parallelism\"",
        "\"sim_run\"",
        "\"particle_steps_per_s\"",
    ] {
        assert!(disk.contains(key), "artifact missing {key}");
    }

    if !ok {
        eprintln!("FAIL: checksum mismatch across thread counts");
        std::process::exit(1);
    }
}
