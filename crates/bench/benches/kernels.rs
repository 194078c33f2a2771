//! Criterion benches for the compute kernels behind the services: these
//! anchor the campaign cost model (DESIGN.md §3) and track the hot paths of
//! every substrate crate.

use criterion::{criterion_group, criterion_main, Criterion};
use grafic::fft::{Direction, Grid3};
use grafic::{CosmoParams, GaussianField, PowerSpectrum};
use ramses::particles::{cic_deposit, Particles};
use ramses::peano;
use ramses::poisson::{solve, MgConfig};
use std::hint::black_box;

fn particles_for(n: usize, seed: u64) -> Particles {
    let cosmo = CosmoParams::default();
    let ics = grafic::generate_single_level(&cosmo, n, 100.0, seed);
    Particles::from_ics(&ics.particles, 100.0)
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft3d");
    for n in [16usize, 32] {
        g.bench_function(format!("{n}cubed_roundtrip"), |b| {
            let mut grid = Grid3::zeros(n);
            for (i, v) in grid.data.iter_mut().enumerate() {
                *v = grafic::fft::Complex::new((i % 13) as f64, 0.0);
            }
            b.iter(|| {
                grid.fft(Direction::Forward);
                grid.fft(Direction::Inverse);
                black_box(grid.data[0].re)
            })
        });
    }
    g.finish();
}

fn bench_field_synthesis(c: &mut Criterion) {
    c.bench_function("grafic_field_16cubed", |b| {
        let spec = PowerSpectrum::new(CosmoParams::default());
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(GaussianField::synthesize(&spec, 16, 100.0, seed).rms())
        })
    });
}

fn bench_poisson(c: &mut Criterion) {
    let mut g = c.benchmark_group("poisson_fft");
    for n in [16usize, 32] {
        g.bench_function(format!("{n}cubed"), |b| {
            let parts = particles_for(n.min(16), 7);
            let rho = cic_deposit(&parts, n);
            let mut src = rho.clone();
            for v in src.data.iter_mut() {
                *v -= 1.0;
            }
            b.iter(|| black_box(solve(&src, &MgConfig::default()).cycles))
        });
    }
    g.finish();
}

fn bench_cic(c: &mut Criterion) {
    c.bench_function("cic_deposit_16cubed_on_32mesh", |b| {
        let parts = particles_for(16, 3);
        b.iter(|| black_box(cic_deposit(&parts, 32).sum()))
    });
}

fn bench_peano(c: &mut Criterion) {
    c.bench_function("peano_encode_decode_1e4", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                let k = peano::encode(i % 32, (i / 32) % 32, (i / 1024) % 32, 5);
                let (x, _, _) = peano::decode(k, 5);
                acc = acc.wrapping_add(k ^ x);
            }
            black_box(acc)
        })
    });
}

fn bench_fof(c: &mut Criterion) {
    c.bench_function("fof_16cubed", |b| {
        let parts = particles_for(16, 11);
        b.iter(|| {
            black_box(
                galics::fof::friends_of_friends(
                    &parts,
                    &galics::FofParams {
                        b: 0.3,
                        min_members: 5,
                    },
                )
                .len(),
            )
        })
    });
}

fn bench_amr(c: &mut Criterion) {
    c.bench_function("amr_build_16cubed", |b| {
        let parts = particles_for(16, 13);
        b.iter(|| {
            black_box(
                ramses::amr::Octree::build(&parts, ramses::amr::AmrParams::default())
                    .leaves()
                    .len(),
            )
        })
    });
}

fn bench_hydro(c: &mut Criterion) {
    c.bench_function("hydro_step_16cubed_hllc", |b| {
        let mut g = ramses::hydro::HydroGrid::from_fn(16, 1.4, |x| ramses::hydro::Prim {
            rho: 1.0 + 0.3 * (std::f64::consts::TAU * x[0]).sin(),
            vel: [0.1, 0.0, 0.0],
            p: 1.0,
        });
        b.iter(|| {
            let dt = g.max_dt(0.4);
            g.step(dt, ramses::hydro::Riemann::Hllc);
            black_box(g.total_mass())
        })
    });
}

fn bench_refine(c: &mut Criterion) {
    c.bench_function("refine_patch_solve", |b| {
        let parts = particles_for(16, 21);
        let cosmo = ramses::cosmology::Cosmology::new(CosmoParams::default());
        let gravity = ramses::gravity::PmGravity::new(16);
        let field = gravity.field(&parts, &cosmo, 0.5);
        let sel = ramses::refine::select_patch(&field.rho, 3.0).unwrap_or(([4, 4, 4], 4));
        b.iter(|| {
            let p = ramses::refine::RefinedPatch::solve(
                sel.0,
                sel.1,
                &field.phi,
                &parts,
                cosmo.poisson_factor(0.5),
                &MgConfig::default(),
            );
            black_box(p.phi.len())
        })
    });
}

fn bench_xi(c: &mut Criterion) {
    c.bench_function("xi_two_point_2k", |b| {
        let parts = particles_for(16, 9); // 4096 points
        b.iter(|| black_box(galics::correlation::xi(&parts.pos, 0.02, 0.4, 8).bins.len()))
    });
}

fn bench_oar(c: &mut Criterion) {
    c.bench_function("oar_submit_200", |b| {
        b.iter(|| {
            let mut oar = gridsim::oar::OarScheduler::new(64);
            for i in 0..200u64 {
                oar.submit(
                    i as f64,
                    gridsim::oar::Request {
                        nodes: 8 + (i % 5) as usize,
                        walltime: 100.0,
                    },
                )
                .unwrap();
            }
            black_box(oar.reservations().len())
        })
    });
}

fn bench_tar(c: &mut Criterion) {
    use cosmogrid::archive::{pack, unpack, Entry};
    c.bench_function("tar_pack_unpack_1MiB", |b| {
        let entries = vec![
            Entry {
                name: "snapshots/final.bin".into(),
                data: bytes::Bytes::from(vec![7u8; 1 << 20]),
            },
            Entry {
                name: "halos/catalog.txt".into(),
                data: bytes::Bytes::from_static(b"# catalog\n"),
            },
        ];
        b.iter(|| {
            let tar = pack(&entries).unwrap();
            black_box(unpack(&tar).unwrap().len())
        })
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_field_synthesis,
    bench_poisson,
    bench_cic,
    bench_peano,
    bench_fof,
    bench_amr,
    bench_hydro,
    bench_refine,
    bench_xi,
    bench_oar,
    bench_tar
);
criterion_main!(benches);
