//! Particle storage and mesh coupling.
//!
//! Particles are stored structure-of-arrays for cache-friendly sweeps (the
//! per-component loops in CIC deposit/interp touch one array at a time).
//! Positions live in the unit box `[0,1)³`; all mesh coupling assumes
//! periodic boundaries.

use rayon::prelude::*;

/// Structure-of-arrays particle set in code units.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Particles {
    pub pos: Vec<[f64; 3]>,
    pub vel: Vec<[f64; 3]>,
    pub mass: Vec<f64>,
    /// Stable identifiers (survive domain exchanges; used by TreeMaker).
    pub id: Vec<u64>,
}

impl Particles {
    pub fn with_capacity(n: usize) -> Self {
        Particles {
            pos: Vec::with_capacity(n),
            vel: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
        }
    }

    /// Build from GRAFIC initial conditions given the IC box size (Mpc/h):
    /// positions AND velocities are rescaled to box units (GRAFIC emits both
    /// in comoving Mpc/h; the integrator works in unit-box coordinates, so a
    /// canonical momentum of 1 means "one box length per Hubble time").
    pub fn from_ics(ics: &grafic::IcParticles, box_size: f64) -> Self {
        let n = ics.len();
        let inv = 1.0 / box_size;
        Particles {
            pos: ics
                .pos
                .iter()
                .map(|p| [wrap01(p[0] * inv), wrap01(p[1] * inv), wrap01(p[2] * inv)])
                .collect(),
            vel: ics
                .vel
                .iter()
                .map(|v| [v[0] * inv, v[1] * inv, v[2] * inv])
                .collect(),
            mass: ics.mass.clone(),
            id: (0..n as u64).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.pos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    pub fn push(&mut self, pos: [f64; 3], vel: [f64; 3], mass: f64, id: u64) {
        self.pos.push(pos);
        self.vel.push(vel);
        self.mass.push(mass);
        self.id.push(id);
    }

    /// Centre of mass (ignores periodicity — callers use it on compact sets).
    pub fn center_of_mass(&self) -> [f64; 3] {
        let mut c = [0.0f64; 3];
        let mut m = 0.0;
        for i in 0..self.len() {
            #[allow(clippy::needless_range_loop)]
            for d in 0..3 {
                c[d] += self.mass[i] * self.pos[i][d];
            }
            m += self.mass[i];
        }
        if m > 0.0 {
            for cd in c.iter_mut() {
                *cd /= m;
            }
        }
        c
    }

    /// Wrap all positions back into the unit box (after a drift).
    pub fn wrap(&mut self) {
        self.pos.par_iter_mut().for_each(|p| {
            for x in p.iter_mut() {
                *x = wrap01(*x);
            }
        });
    }
}

/// `x.floor()`, bit for bit, without the call to a software `floor` that
/// the baseline x86-64 target (no SSE4.1 `roundsd`) makes of it: truncate,
/// keep the sign of zero, and step down below a negative non-integer. Every |x| ≥ 2⁵² is already an
/// integer, and NaN and ±∞ take that branch too.
#[inline(always)]
pub(crate) fn floor(x: f64) -> f64 {
    if x.abs() < 4_503_599_627_370_496.0 {
        let t = (x as i64 as f64).copysign(x);
        if t > x {
            t - 1.0
        } else {
            t
        }
    } else {
        x
    }
}

#[inline]
pub fn wrap01(x: f64) -> f64 {
    let y = x - floor(x);
    // x.floor() of exactly 1.0-eps edge cases can return 1.0 - keep in [0,1)
    if y >= 1.0 {
        0.0
    } else {
        y
    }
}

/// A periodic scalar mesh of side `n` (row-major x,y,z like `grafic`).
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    pub n: usize,
    pub data: Vec<f64>,
}

impl Mesh {
    pub fn zeros(n: usize) -> Self {
        Mesh {
            n,
            data: vec![0.0; n * n * n],
        }
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        ((i % self.n) * self.n + (j % self.n)) * self.n + (k % self.n)
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }
}

/// Number of particle chunks whose partial sums the CIC deposit adds into
/// each cell, in chunk order. A function of the particle count ONLY — never
/// the thread count — so the accumulation order (and the bitwise f64
/// result) is identical at any parallelism level. Small sets use one chunk,
/// which is the plain serial deposit.
#[inline]
fn deposit_chunks(np: usize) -> usize {
    if np < 4096 {
        1
    } else {
        8
    }
}

/// One axis of the CIC stencil: the two cells of an `n`-cell periodic axis
/// that unit-box coordinate `x` straddles, and their weights. The pair wraps
/// by comparison; only a coordinate outside `[0, 1)` pays for a divide.
#[inline(always)]
fn cic_axis(x: f64, n: usize) -> ([usize; 2], [f64; 2]) {
    let g = x * n as f64 - 0.5;
    let g0 = floor(g);
    let b = g0 as i64;
    let lo = if (0..n as i64).contains(&b) {
        b as usize
    } else {
        b.rem_euclid(n as i64) as usize
    };
    let frac = g - g0;
    (
        [lo, if lo + 1 == n { 0 } else { lo + 1 }],
        [1.0 - frac, frac],
    )
}

/// Scatter particles `[lo, hi)` into `slab`, the x-planes `x0 .. x0 +
/// slab.len() / n²` of an `n³` mesh; corners on other planes are skipped.
/// `add(slab, ix, value)` does the adding, one corner at a time in the
/// serial deposit's order.
#[inline(always)]
fn deposit_planes(
    parts: &Particles,
    n: usize,
    x0: usize,
    slab: &mut [f64],
    (lo, hi): (usize, usize),
    mut add: impl FnMut(&mut [f64], usize, f64),
) {
    let nf = n as f64;
    // Density contribution per unit mass: 1 / cell volume.
    let n3 = nf * nf * nf;
    let planes = x0..x0 + slab.len() / (n * n);
    for p in lo..hi {
        let [x, y, z] = parts.pos[p];
        let (cx, wx) = cic_axis(x, n);
        if !planes.contains(&cx[0]) && !planes.contains(&cx[1]) {
            continue;
        }
        let m = parts.mass[p] * n3;
        let ((cy, wy), (cz, wz)) = (cic_axis(y, n), cic_axis(z, n));
        for a in 0..2 {
            if !planes.contains(&cx[a]) {
                continue;
            }
            let mx = m * wx[a];
            for b in 0..2 {
                let mxy = mx * wy[b];
                let row = ((cx[a] - x0) * n + cy[b]) * n;
                for c in 0..2 {
                    add(slab, row + cz[c], mxy * wz[c]);
                }
            }
        }
    }
}

/// Cloud-in-cell deposit: spread each particle's mass over the 8 nearest
/// cells with trilinear weights, producing a *density* mesh normalised so
/// that mean density 1 corresponds to uniform mass distribution
/// (i.e. the overdensity is `rho - 1` when total mass is 1).
///
/// Each cell holds the sum of the [`deposit_chunks`] particle chunks'
/// partial sums, added in chunk order, each partial summed in particle
/// order — the same value whichever task computes it. The mesh is split
/// into runs of x-planes, one per task (owner computes): a task scans the
/// particles in order, deposits chunk 0 straight into its planes, and sums
/// every later chunk into a partial the size of its planes, adding the
/// cells that chunk touched to the mesh and clearing them before the next.
/// A chunk that misses a cell adds `+0.0` in the chunk-order sum, which
/// changes no value that is not `−0.0`, and no sum that starts at `+0.0` is
/// `−0.0`; so skipping it changes no bit, and the result is bitwise
/// identical at any thread count and any split into plane runs.
pub fn cic_deposit(parts: &Particles, n: usize) -> Mesh {
    let np = parts.len();
    let chunk = np.div_ceil(deposit_chunks(np)).max(1);
    let chunks = (0..np).step_by(chunk).map(|lo| (lo, (lo + chunk).min(np)));
    let mut mesh = Mesh::zeros(n);
    // One run per thread: a run rescans the particles, so more runs than
    // threads is only extra work.
    let planes = n.div_ceil(rayon::current_num_threads().clamp(1, n.max(1)));
    mesh.data
        .par_chunks_mut((planes * n * n).max(1))
        .enumerate()
        .for_each(|(run, slab)| {
            let x0 = run * planes;
            let mut chunks = chunks.clone();
            if let Some(first) = chunks.next() {
                deposit_planes(parts, n, x0, slab, first, |s, ix, v| s[ix] += v);
            }
            let mut partial = Vec::new();
            // Room for every corner of a chunk: the list only ever grows by
            // one per corner.
            let mut touched = Vec::new();
            for (lo, hi) in chunks {
                partial.resize(slab.len(), 0.0);
                touched.resize(8 * (hi - lo), 0);
                let mut listed = 0;
                deposit_planes(parts, n, x0, &mut partial, (lo, hi), |s, ix, v| {
                    // A cell still at zero may be new to this chunk; one
                    // listed twice adds its (cleared) zero the second time.
                    // Listing without a branch: the test is a coin flip
                    // when particles and cells are about as many.
                    touched[listed] = ix;
                    listed += usize::from(s[ix] == 0.0);
                    s[ix] += v;
                });
                for &ix in &touched[..listed] {
                    slab[ix] += partial[ix];
                    partial[ix] = 0.0;
                }
            }
        });
    mesh
}

/// Trilinear (CIC) interpolation of a vector field, sampled per-axis from
/// three scalar meshes, onto particle positions.
pub fn cic_interp_force(parts: &Particles, force: &[Mesh; 3]) -> Vec<[f64; 3]> {
    let n = force[0].n;
    let f = [&force[0].data[..], &force[1].data[..], &force[2].data[..]];
    parts
        .pos
        .par_iter()
        .map(|&[x, y, z]| {
            let ((cx, wx), (cy, wy), (cz, wz)) = (cic_axis(x, n), cic_axis(y, n), cic_axis(z, n));
            let mut out = [0.0f64; 3];
            for a in 0..2 {
                for b in 0..2 {
                    let wxy = wx[a] * wy[b];
                    let row = (cx[a] * n + cy[b]) * n;
                    for c in 0..2 {
                        let (w, ix) = (wxy * wz[c], row + cz[c]);
                        for axis in 0..3 {
                            out[axis] += w * f[axis][ix];
                        }
                    }
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_particle(pos: [f64; 3]) -> Particles {
        let mut p = Particles::default();
        p.push(pos, [0.0; 3], 1.0, 0);
        p
    }

    #[test]
    fn cic_conserves_mass() {
        let mut parts = Particles::default();
        for i in 0..50 {
            let f = i as f64 / 50.0;
            parts.push([f, (f * 3.0) % 1.0, (f * 7.0) % 1.0], [0.0; 3], 0.02, i);
        }
        let mesh = cic_deposit(&parts, 8);
        // sum(rho * cell_volume) == total mass
        let total = mesh.sum() / (8.0f64).powi(3);
        assert!((total - parts.total_mass()).abs() < 1e-12);
    }

    #[test]
    fn cic_particle_at_cell_center_hits_one_cell() {
        let n = 8;
        // Cell centres are at (i + 0.5)/n.
        let parts = one_particle([2.5 / 8.0, 3.5 / 8.0, 4.5 / 8.0]);
        let mesh = cic_deposit(&parts, n);
        let expect = (n as f64).powi(3);
        assert!((mesh.get(2, 3, 4) - expect).abs() < 1e-9);
        let nonzero = mesh.data.iter().filter(|&&v| v.abs() > 1e-12).count();
        assert_eq!(nonzero, 1);
    }

    #[test]
    fn cic_wraps_at_boundary() {
        let parts = one_particle([0.0, 0.0, 0.0]); // corner: splits over 8 wrapped cells
        let mesh = cic_deposit(&parts, 4);
        let total = mesh.sum() / 64.0;
        assert!((total - 1.0).abs() < 1e-12);
        // Weight must land in the 8 cells around the origin corner.
        for (i, j, k) in [(0, 0, 0), (3, 3, 3), (0, 3, 3), (3, 0, 0)] {
            assert!(mesh.get(i, j, k) > 0.0);
        }
    }

    #[test]
    fn interp_of_constant_field_is_constant() {
        let n = 8;
        let mut f = Mesh::zeros(n);
        for v in f.data.iter_mut() {
            *v = 2.5;
        }
        let force = [f.clone(), f.clone(), f];
        let mut parts = Particles::default();
        parts.push([0.13, 0.57, 0.91], [0.0; 3], 1.0, 0);
        parts.push([0.999, 0.001, 0.5], [0.0; 3], 1.0, 1);
        let out = cic_interp_force(&parts, &force);
        for o in out {
            for v in o {
                assert!((v - 2.5).abs() < 1e-12);
            }
        }
    }

    /// The serial scatter of particles `[lo, hi)` into a whole mesh, as the
    /// deposit was written before it split the mesh into plane runs.
    fn serial_range(parts: &Particles, mesh: &mut Mesh, lo: usize, hi: usize) {
        let n = mesh.n;
        let nf = n as f64;
        let n3 = nf * nf * nf;
        for p in lo..hi {
            let m = parts.mass[p] * n3;
            let [x, y, z] = parts.pos[p];
            let ((cx, wx), (cy, wy), (cz, wz)) = (cic_axis(x, n), cic_axis(y, n), cic_axis(z, n));
            for a in 0..2 {
                let mx = m * wx[a];
                for b in 0..2 {
                    let mxy = mx * wy[b];
                    let row = (cx[a] * n + cy[b]) * n;
                    for c in 0..2 {
                        mesh.data[row + cz[c]] += mxy * wz[c];
                    }
                }
            }
        }
    }

    /// The deposit with one dense scratch mesh per chunk, merged per cell
    /// in chunk order: the definition the owner-computes deposit keeps, bit
    /// for bit.
    fn scratch_mesh_reference(parts: &Particles, n: usize) -> Mesh {
        let np = parts.len();
        let nchunks = deposit_chunks(np);
        let chunk = np.div_ceil(nchunks);
        let mut scratch: Vec<Mesh> = (0..nchunks)
            .map(|c| {
                let mut m = Mesh::zeros(n);
                serial_range(parts, &mut m, c * chunk, ((c + 1) * chunk).min(np));
                m
            })
            .collect();
        let mut mesh = scratch.remove(0);
        for (ix, v) in mesh.data.iter_mut().enumerate() {
            for s in &scratch {
                *v += s.data[ix];
            }
        }
        mesh
    }

    fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// Particles on a quasi-random lattice, with every fifth one moved onto
    /// a cell edge of an `n`-side mesh or to just below 1.
    fn awkward_particles(np: usize, n: usize) -> Particles {
        let mut parts = Particles::default();
        let edge = |i: usize| (i % n) as f64 / n as f64;
        for i in 0..np {
            let f = i as f64;
            let mut pos = [
                (f * 0.618_033_988_75) % 1.0,
                (f * 0.414_213_562_37) % 1.0,
                (f * 0.259_921_049_89) % 1.0,
            ];
            match i % 10 {
                0 => pos[0] = edge(i),
                2 => pos[1] = 1.0f64.next_down(),
                4 => pos = [edge(i), edge(i / 3), 1.0f64.next_down()],
                6 => pos[2] = edge(i) + 0.5 / n as f64,
                _ => {}
            }
            parts.push(pos, [0.0; 3], (1.0 + (i % 7) as f64) / np as f64, i as u64);
        }
        parts
    }

    #[test]
    fn chunked_deposit_matches_serial_and_is_thread_invariant() {
        // Enough particles for the multi-chunk path (np >= 4096).
        let parts = awkward_particles(5000, 16);
        let n = 16;
        let mut serial = Mesh::zeros(n);
        serial_range(&parts, &mut serial, 0, parts.len());
        let base = at_threads(1, || cic_deposit(&parts, n));
        // Chunk-order partial sums reorder the per-cell accumulation, so
        // agreement with the one-pass serial deposit is to rounding.
        for (a, b) in base.data.iter().zip(&serial.data) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
        }
        let total = base.sum() / (n as f64).powi(3);
        assert!((total - parts.total_mass()).abs() < 1e-12);
        for threads in [2, 4] {
            let other = at_threads(threads, || cic_deposit(&parts, n));
            for (a, b) in base.data.iter().zip(&other.data) {
                assert_eq!(a.to_bits(), b.to_bits(), "mismatch at {threads} threads");
            }
        }
    }

    /// The owner-computes deposit is the scratch-mesh deposit bit for bit:
    /// on both sides of the chunking threshold, with a ragged last chunk,
    /// particles on cell edges and at 1 − ε, at 1, 2 and 4 threads, and on
    /// meshes with fewer planes than threads.
    #[test]
    fn deposit_matches_the_scratch_mesh_reference_bitwise() {
        for (np, n) in [
            (0, 8),
            (1, 4),
            (4095, 16),
            (4096, 16),
            (4097, 16),
            (5027, 32),
            (8191, 8),
            (4099, 2),
        ] {
            let parts = awkward_particles(np, n);
            let want = scratch_mesh_reference(&parts, n);
            for threads in [1, 2, 4] {
                let got = at_threads(threads, || cic_deposit(&parts, n));
                assert_eq!(got.n, n);
                for (ix, (a, b)) in got.data.iter().zip(&want.data).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "np={np} n={n} threads={threads} cell {ix}"
                    );
                }
            }
        }
    }

    /// The deposit and interpolation as written with a `rem_euclid` per
    /// axis and `Mesh::idx` (three `%`) per corner.
    fn modulo_reference(parts: &Particles, force: &[Mesh; 3]) -> (Mesh, Vec<[f64; 3]>) {
        let n = force[0].n;
        let nf = n as f64;
        let stencil = |pos: &[f64; 3]| {
            let mut base = [0usize; 3];
            let mut frac = [0.0f64; 3];
            for d in 0..3 {
                let x = pos[d] * nf - 0.5;
                let x0 = x.floor();
                base[d] = ((x0 as i64).rem_euclid(n as i64)) as usize;
                frac[d] = x - x0;
            }
            (base, frac)
        };
        let mut mesh = Mesh::zeros(n);
        let mut acc = vec![];
        for (pos, mass) in parts.pos.iter().zip(&parts.mass) {
            let m = mass * (nf * nf * nf);
            let (base, frac) = stencil(pos);
            let mut out = [0.0f64; 3];
            for (dx, wx) in [(0usize, 1.0 - frac[0]), (1, frac[0])] {
                for (dy, wy) in [(0usize, 1.0 - frac[1]), (1, frac[1])] {
                    for (dz, wz) in [(0usize, 1.0 - frac[2]), (1, frac[2])] {
                        let ix = mesh.idx(base[0] + dx, base[1] + dy, base[2] + dz);
                        mesh.data[ix] += m * wx * wy * wz;
                        let w = wx * wy * wz;
                        for axis in 0..3 {
                            out[axis] += w * force[axis].data[ix];
                        }
                    }
                }
            }
            acc.push(out);
        }
        (mesh, acc)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The divide-free stencil gives the modulo code's bits, for power-of-
        /// two and other sides, and for coordinates outside the unit box.
        #[test]
        fn stencil_kernels_match_the_modulo_reference_bitwise(
            rows in proptest::collection::vec(((-1.5f64..2.5), (0.0f64..1.0), (0.0f64..1.0), (1e-6f64..1.0)), 1..300),
            side in 0usize..5,
        ) {
            let n = [2, 4, 6, 8, 16][side];
            let mut parts = Particles::default();
            for (i, &(x, y, z, m)) in rows.iter().enumerate() {
                parts.push([y, x, z], [0.0; 3], m, i as u64);
            }
            let force = [0.3, 1.7, -2.9].map(|s| Mesh {
                n,
                data: (0..n * n * n).map(|ix| ((ix * 7919) % 1013) as f64 * s).collect(),
            });
            let (mesh, acc) = modulo_reference(&parts, &force);
            // Under 4096 particles the deposit is one serial pass.
            let got = cic_deposit(&parts, n);
            for (a, b) in got.data.iter().zip(&mesh.data) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in cic_interp_force(&parts, &force).iter().zip(&acc) {
                proptest::prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
            }
        }
    }

    /// For a power-of-two side, `mass · n³` is the quotient by the cell
    /// volume the deposit used to compute, bit for bit.
    #[test]
    fn mass_times_n_cubed_is_the_cell_volume_quotient() {
        for n in [2usize, 4, 8, 16, 32, 64, 128] {
            let n3 = (n * n * n) as f64;
            for i in 1..2000 {
                let m = i as f64 * 1.7e-7 + 1.0 / i as f64;
                assert_eq!((m * n3).to_bits(), (m / (1.0 / n3)).to_bits());
            }
        }
    }

    #[test]
    fn floor_is_bitwise_f64_floor() {
        let big = 4_503_599_627_370_496.0f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            big,
            -big,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for e in [1.0, 2.0, 31.5, big, 2.0 * big] {
            xs.extend([e.next_up(), e.next_down(), -e.next_up(), -e.next_down()]);
        }
        xs.extend((0..4000).map(|i| (i as f64 - 2000.0) * 0.013_7));
        for x in xs {
            assert_eq!(floor(x).to_bits(), x.floor().to_bits(), "x = {x:e}");
        }
        assert!(floor(f64::NAN).is_nan());
    }

    #[test]
    fn wrap_keeps_unit_interval() {
        assert_eq!(wrap01(1.25), 0.25);
        assert_eq!(wrap01(-0.25), 0.75);
        assert!(wrap01(0.9999999) < 1.0);
        assert_eq!(wrap01(0.0), 0.0);
    }

    #[test]
    fn from_ics_rescales_to_unit_box() {
        let ics = grafic::IcParticles {
            pos: vec![[50.0, 25.0, 99.0]],
            vel: vec![[1.0, 2.0, 3.0]],
            mass: vec![1.0],
        };
        let p = Particles::from_ics(&ics, 100.0);
        assert!((p.pos[0][0] - 0.5).abs() < 1e-12);
        assert!((p.pos[0][1] - 0.25).abs() < 1e-12);
        assert!((p.pos[0][2] - 0.99).abs() < 1e-12);
    }

    #[test]
    fn center_of_mass_weighted() {
        let mut p = Particles::default();
        p.push([0.0, 0.0, 0.0], [0.0; 3], 1.0, 0);
        p.push([0.6, 0.0, 0.0], [0.0; 3], 2.0, 1);
        let c = p.center_of_mass();
        assert!((c[0] - 0.4).abs() < 1e-12);
    }
}
