//! Determinism regression: the full simulation and the Poisson solver must
//! produce bitwise-identical results at every thread count.
//!
//! The pool's chunk partition is a function of the input length only, and
//! per-chunk results recombine in fixed order, so floating-point reductions
//! cannot be perturbed by parallelism. These tests pin that guarantee at the
//! system level. Run under `RAYON_NUM_THREADS=1` and `=4` in CI; they also
//! sweep thread counts in-process via `ThreadPool::install`.

use grafic::CosmoParams;
use ramses::nbody::{GasParams, RunParams, Simulation};
use ramses::particles::Mesh;
use ramses::poisson::{solve, MgConfig};

fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
        .install(f)
}

fn assert_mesh_bits_eq(a: &Mesh, b: &Mesh, what: &str, threads: usize) {
    assert_eq!(a.n, b.n);
    for (ix, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: cell {ix} differs at {threads} threads: {x} vs {y}"
        );
    }
}

#[test]
fn poisson_solve_bitwise_identical_across_thread_counts() {
    let n = 32;
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
    let cfg = MgConfig::default();
    let base = at_threads(1, || solve(&s, &cfg));
    for threads in [2, 4] {
        let sol = at_threads(threads, || solve(&s, &cfg));
        assert_eq!(sol.cycles, base.cycles);
        assert_eq!(
            sol.rel_residual.to_bits(),
            base.rel_residual.to_bits(),
            "residual differs at {threads} threads"
        );
        assert_mesh_bits_eq(&base.phi, &sol.phi, "phi", threads);
    }
}

fn run_params(gas: Option<GasParams>) -> RunParams {
    let cosmo = CosmoParams {
        a_init: 0.1,
        ..CosmoParams::default()
    };
    RunParams {
        cosmo,
        mesh_n: 8,
        a_end: 0.2,
        aout: vec![0.15],
        gas,
        ..RunParams::default()
    }
}

fn run_sim(gas: Option<GasParams>) -> Simulation {
    let params = run_params(gas);
    let ics = grafic::generate_single_level(&params.cosmo, 8, params.box_mpc_h, 42).particles;
    let mut sim = Simulation::from_ics(params, &ics);
    sim.run();
    sim
}

fn assert_sim_bits_eq(a: &Simulation, b: &Simulation, threads: usize) {
    assert_eq!(a.step, b.step, "step count differs at {threads} threads");
    assert_eq!(
        a.a.to_bits(),
        b.a.to_bits(),
        "expansion factor differs at {threads} threads"
    );
    for (i, (pa, pb)) in a.parts.pos.iter().zip(&b.parts.pos).enumerate() {
        for d in 0..3 {
            assert_eq!(
                pa[d].to_bits(),
                pb[d].to_bits(),
                "particle {i} pos[{d}] differs at {threads} threads"
            );
        }
    }
    for (i, (va, vb)) in a.parts.vel.iter().zip(&b.parts.vel).enumerate() {
        for d in 0..3 {
            assert_eq!(
                va[d].to_bits(),
                vb[d].to_bits(),
                "particle {i} vel[{d}] differs at {threads} threads"
            );
        }
    }
    match (&a.gas, &b.gas) {
        (None, None) => {}
        (Some(ga), Some(gb)) => {
            for (ix, (ca, cb)) in ga.cells.iter().zip(&gb.cells).enumerate() {
                assert_eq!(
                    ca.rho.to_bits(),
                    cb.rho.to_bits(),
                    "gas cell {ix} rho differs at {threads} threads"
                );
                assert_eq!(
                    ca.e.to_bits(),
                    cb.e.to_bits(),
                    "gas cell {ix} energy differs at {threads} threads"
                );
            }
        }
        _ => panic!("gas presence differs"),
    }
}

#[test]
fn dm_simulation_bitwise_identical_across_thread_counts() {
    let base = at_threads(1, || run_sim(None));
    for threads in [2, 4] {
        let other = at_threads(threads, || run_sim(None));
        assert_sim_bits_eq(&base, &other, threads);
    }
}

#[test]
fn gas_simulation_bitwise_identical_across_thread_counts() {
    let base = at_threads(1, || run_sim(Some(GasParams::default())));
    for threads in [2, 4] {
        let other = at_threads(threads, || run_sim(Some(GasParams::default())));
        assert_sim_bits_eq(&base, &other, threads);
    }
}

/// Two SeDs solving at once in one process: two `Simulation::run`s on two
/// threads at the default width (whatever `RAYON_NUM_THREADS` makes it) are
/// each bitwise equal to a run alone on one thread — how many helpers a
/// region gets, and who else is using the pool, changes no bit.
#[test]
fn two_concurrent_runs_each_match_a_solo_one_thread_run() {
    let base_dm = at_threads(1, || run_sim(None));
    let base_gas = at_threads(1, || run_sim(Some(GasParams::default())));
    let width = rayon::current_num_threads();
    let (dm, gas) = std::thread::scope(|s| {
        let dm = s.spawn(|| run_sim(None));
        let gas = s.spawn(|| run_sim(Some(GasParams::default())));
        (dm.join().unwrap(), gas.join().unwrap())
    });
    assert_sim_bits_eq(&base_dm, &dm, width);
    assert_sim_bits_eq(&base_gas, &gas, width);
}
