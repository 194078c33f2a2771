//! Finite-volume Euler solver: the gas component of RAMSES.
//!
//! Second-order MUSCL–Hancock scheme with minmod-limited slopes and a choice
//! of HLL or HLLC Riemann solvers, on a uniform 3-D periodic grid (the base
//! level of the AMR hierarchy). Ideal-gas equation of state.
//!
//! Conserved state per cell: `(ρ, ρu, ρv, ρw, E)` with
//! `E = ρe + ρ|v|²/2`, `p = (γ−1) ρe`.

use rayon::prelude::*;

/// Adiabatic index (monatomic gas, the cosmological default).
pub const GAMMA_DEFAULT: f64 = 5.0 / 3.0;

/// Primitive state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prim {
    pub rho: f64,
    pub vel: [f64; 3],
    pub p: f64,
}

/// Conserved state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cons {
    pub rho: f64,
    pub mom: [f64; 3],
    pub e: f64,
}

impl Prim {
    pub fn to_cons(self, gamma: f64) -> Cons {
        let ke = 0.5
            * self.rho
            * (self.vel[0] * self.vel[0] + self.vel[1] * self.vel[1] + self.vel[2] * self.vel[2]);
        Cons {
            rho: self.rho,
            mom: [
                self.rho * self.vel[0],
                self.rho * self.vel[1],
                self.rho * self.vel[2],
            ],
            e: self.p / (gamma - 1.0) + ke,
        }
    }

    /// Sound speed.
    pub fn cs(self, gamma: f64) -> f64 {
        (gamma * self.p / self.rho).sqrt()
    }
}

impl Cons {
    pub fn to_prim(self, gamma: f64) -> Prim {
        let rho = self.rho.max(1e-300);
        let vel = [self.mom[0] / rho, self.mom[1] / rho, self.mom[2] / rho];
        let ke = 0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        Prim {
            rho,
            vel,
            p: ((self.e - ke) * (gamma - 1.0)).max(1e-300),
        }
    }

    fn add_scaled(&mut self, f: &Cons, s: f64) {
        self.rho += f.rho * s;
        for d in 0..3 {
            self.mom[d] += f.mom[d] * s;
        }
        self.e += f.e * s;
    }
}

/// Physical flux along `axis` for primitive state `w`.
fn flux(w: Prim, axis: usize, gamma: f64) -> Cons {
    let u = w.vel[axis];
    let c = w.to_cons(gamma);
    let mut f = Cons {
        rho: c.rho * u,
        mom: [c.mom[0] * u, c.mom[1] * u, c.mom[2] * u],
        e: (c.e + w.p) * u,
    };
    f.mom[axis] += w.p;
    f
}

/// Riemann solver selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Riemann {
    Hll,
    Hllc,
}

/// Single-interface approximate Riemann flux along `axis`.
pub fn riemann_flux(left: Prim, right: Prim, axis: usize, gamma: f64, solver: Riemann) -> Cons {
    // Davis wave-speed estimates.
    let cl = left.cs(gamma);
    let cr = right.cs(gamma);
    let sl = (left.vel[axis] - cl).min(right.vel[axis] - cr);
    let sr = (left.vel[axis] + cl).max(right.vel[axis] + cr);

    let fl = flux(left, axis, gamma);
    let fr = flux(right, axis, gamma);
    let ul = left.to_cons(gamma);
    let ur = right.to_cons(gamma);

    if sl >= 0.0 {
        return fl;
    }
    if sr <= 0.0 {
        return fr;
    }

    match solver {
        Riemann::Hll => {
            // F = (sr·Fl − sl·Fr + sl·sr (Ur − Ul)) / (sr − sl)
            let inv = 1.0 / (sr - sl);
            Cons {
                rho: (sr * fl.rho - sl * fr.rho + sl * sr * (ur.rho - ul.rho)) * inv,
                mom: [
                    (sr * fl.mom[0] - sl * fr.mom[0] + sl * sr * (ur.mom[0] - ul.mom[0])) * inv,
                    (sr * fl.mom[1] - sl * fr.mom[1] + sl * sr * (ur.mom[1] - ul.mom[1])) * inv,
                    (sr * fl.mom[2] - sl * fr.mom[2] + sl * sr * (ur.mom[2] - ul.mom[2])) * inv,
                ],
                e: (sr * fl.e - sl * fr.e + sl * sr * (ur.e - ul.e)) * inv,
            }
        }
        Riemann::Hllc => {
            // Contact wave speed (Toro eq. 10.37).
            let rl = left.rho;
            let rr = right.rho;
            let ulv = left.vel[axis];
            let urv = right.vel[axis];
            let s_star = (right.p - left.p + rl * ulv * (sl - ulv) - rr * urv * (sr - urv))
                / (rl * (sl - ulv) - rr * (sr - urv));

            let star_state = |w: Prim, u: Cons, s: f64| -> Cons {
                let un = w.vel[axis];
                let coef = w.rho * (s - un) / (s - s_star);
                let mut mom = [0.0; 3];
                #[allow(clippy::needless_range_loop)]
                for d in 0..3 {
                    mom[d] = coef * if d == axis { s_star } else { w.vel[d] };
                }
                Cons {
                    rho: coef,
                    mom,
                    e: coef * (u.e / w.rho + (s_star - un) * (s_star + w.p / (w.rho * (s - un)))),
                }
            };

            if s_star >= 0.0 {
                let us = star_state(left, ul, sl);
                let mut f = fl;
                f.rho += sl * (us.rho - ul.rho);
                for d in 0..3 {
                    f.mom[d] += sl * (us.mom[d] - ul.mom[d]);
                }
                f.e += sl * (us.e - ul.e);
                f
            } else {
                let us = star_state(right, ur, sr);
                let mut f = fr;
                f.rho += sr * (us.rho - ur.rho);
                for d in 0..3 {
                    f.mom[d] += sr * (us.mom[d] - ur.mom[d]);
                }
                f.e += sr * (us.e - ur.e);
                f
            }
        }
    }
}

#[inline]
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// A 3-D periodic gas state of side `n` (row-major x,y,z ordering).
#[derive(Debug, Clone)]
pub struct HydroGrid {
    pub n: usize,
    pub gamma: f64,
    pub cells: Vec<Cons>,
}

impl HydroGrid {
    /// Initialise from a primitive-state function of the cell centre
    /// (called in row-major x,y,z order).
    pub fn from_fn(n: usize, gamma: f64, mut f: impl FnMut([f64; 3]) -> Prim) -> Self {
        let mut cells = Vec::with_capacity(n * n * n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let x = [
                        (i as f64 + 0.5) / n as f64,
                        (j as f64 + 0.5) / n as f64,
                        (k as f64 + 0.5) / n as f64,
                    ];
                    cells.push(f(x).to_cons(gamma));
                }
            }
        }
        HydroGrid { n, gamma, cells }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        ((i % self.n) * self.n + (j % self.n)) * self.n + (k % self.n)
    }

    pub fn total_mass(&self) -> f64 {
        let v = 1.0 / (self.n as f64).powi(3);
        self.cells.iter().map(|c| c.rho).sum::<f64>() * v
    }

    pub fn total_energy(&self) -> f64 {
        let v = 1.0 / (self.n as f64).powi(3);
        self.cells.iter().map(|c| c.e).sum::<f64>() * v
    }

    pub fn total_momentum(&self) -> [f64; 3] {
        let v = 1.0 / (self.n as f64).powi(3);
        let mut m = [0.0; 3];
        for c in &self.cells {
            #[allow(clippy::needless_range_loop)]
            for d in 0..3 {
                m[d] += c.mom[d] * v;
            }
        }
        m
    }

    /// Largest stable timestep: CFL · Δx / max(|v| + cs).
    pub fn max_dt(&self, cfl: f64) -> f64 {
        let dx = 1.0 / self.n as f64;
        let smax = self
            .cells
            .par_iter()
            .map(|c| {
                let w = c.to_prim(self.gamma);
                let v = w.vel[0].abs().max(w.vel[1].abs()).max(w.vel[2].abs());
                v + w.cs(self.gamma)
            })
            .reduce(|| 0.0, f64::max);
        if smax > 0.0 {
            cfl * dx / smax
        } else {
            f64::INFINITY
        }
    }

    /// Advance one timestep with dimensionally-split MUSCL–Hancock sweeps
    /// (x, y, z order; RAMSES uses an unsplit variant — split sweeps keep the
    /// same order of accuracy for smooth flows and are simpler to verify).
    pub fn step(&mut self, dt: f64, solver: Riemann) {
        for axis in 0..3 {
            self.sweep(axis, dt, solver);
        }
    }

    /// Apply gravitational source terms over `dt`: per cell,
    /// `d(ρv)/dt = ρ g` and `dE/dt = ρ v·g`, with `g` sampled from the
    /// acceleration meshes of the Poisson solve (same mesh resolution).
    /// This is the operator-split coupling RAMSES uses between its Godunov
    /// and gravity solvers.
    pub fn apply_gravity(&mut self, accel: &[crate::particles::Mesh; 3], dt: f64) {
        assert_eq!(
            accel[0].n, self.n,
            "acceleration mesh must match the gas mesh"
        );
        self.cells.par_iter_mut().enumerate().for_each(|(ix, u)| {
            let g = [accel[0].data[ix], accel[1].data[ix], accel[2].data[ix]];
            // Kinetic-energy update uses the time-centred momentum for
            // second-order accuracy: E += dt·(ρv + ρg dt/2)·g.
            let mut e_src = 0.0;
            #[allow(clippy::needless_range_loop)]
            for d in 0..3 {
                let mom_mid = u.mom[d] + 0.5 * dt * u.rho * g[d];
                e_src += mom_mid * g[d];
                u.mom[d] += dt * u.rho * g[d];
            }
            u.e += dt * e_src;
        });
    }

    fn sweep(&mut self, axis: usize, dt: f64, solver: Riemann) {
        let n = self.n;
        let dx = 1.0 / n as f64;
        let dtdx = dt / dx;
        let gamma = self.gamma;

        // Gather primitive states.
        let prim: Vec<Prim> = self.cells.par_iter().map(|c| c.to_prim(gamma)).collect();

        let get = |i: i64, j: i64, k: i64| -> Prim {
            let n = n as i64;
            let ix = (((i.rem_euclid(n)) * n + j.rem_euclid(n)) * n + k.rem_euclid(n)) as usize;
            prim[ix]
        };

        // For each cell compute limited slope and half-step predicted states
        // at its left/right faces, then solve Riemann problems per interface.
        // Interface f(i) sits between cell i-1 and i along `axis`.
        let faces: Vec<Cons> = (0..n * n * n)
            .into_par_iter()
            .map(|ix| {
                let (i, j, k) = (
                    (ix / (n * n)) as i64,
                    ((ix / n) % n) as i64,
                    (ix % n) as i64,
                );
                let shift = |c: (i64, i64, i64), d: i64| -> (i64, i64, i64) {
                    match axis {
                        0 => (c.0 + d, c.1, c.2),
                        1 => (c.0, c.1 + d, c.2),
                        _ => (c.0, c.1, c.2 + d),
                    }
                };
                // Left cell of this interface is at -1, right cell at 0.
                let reconstruct = |c: (i64, i64, i64), side: f64| -> Prim {
                    let wm = get(shift(c, -1).0, shift(c, -1).1, shift(c, -1).2);
                    let w0 = get(c.0, c.1, c.2);
                    let wp = get(shift(c, 1).0, shift(c, 1).1, shift(c, 1).2);
                    let s_rho = minmod(w0.rho - wm.rho, wp.rho - w0.rho);
                    let s_p = minmod(w0.p - wm.p, wp.p - w0.p);
                    let mut s_v = [0.0; 3];
                    #[allow(clippy::needless_range_loop)]
                    for d in 0..3 {
                        s_v[d] = minmod(w0.vel[d] - wm.vel[d], wp.vel[d] - w0.vel[d]);
                    }
                    // Hancock half-step: advance the face value by dt/2 using
                    // the cell's own flux difference (predictor).
                    let wl = Prim {
                        rho: w0.rho - 0.5 * s_rho,
                        vel: [
                            w0.vel[0] - 0.5 * s_v[0],
                            w0.vel[1] - 0.5 * s_v[1],
                            w0.vel[2] - 0.5 * s_v[2],
                        ],
                        p: w0.p - 0.5 * s_p,
                    };
                    let wr = Prim {
                        rho: w0.rho + 0.5 * s_rho,
                        vel: [
                            w0.vel[0] + 0.5 * s_v[0],
                            w0.vel[1] + 0.5 * s_v[1],
                            w0.vel[2] + 0.5 * s_v[2],
                        ],
                        p: w0.p + 0.5 * s_p,
                    };
                    let f_l = flux(wl, axis, gamma);
                    let f_r = flux(wr, axis, gamma);
                    let mut u = w0.to_cons(gamma);
                    u.add_scaled(&f_l, 0.5 * dtdx);
                    u.add_scaled(&f_r, -0.5 * dtdx);
                    let w_evolved = u.to_prim(gamma);
                    // Return the evolved state extrapolated to the requested face.
                    let sgn = side;
                    Prim {
                        rho: (w_evolved.rho + sgn * 0.5 * s_rho).max(1e-12),
                        vel: [
                            w_evolved.vel[0] + sgn * 0.5 * s_v[0],
                            w_evolved.vel[1] + sgn * 0.5 * s_v[1],
                            w_evolved.vel[2] + sgn * 0.5 * s_v[2],
                        ],
                        p: (w_evolved.p + sgn * 0.5 * s_p).max(1e-12),
                    }
                };

                let cell = (i, j, k);
                let upwind = shift(cell, -1);
                let left = reconstruct(upwind, 1.0); // right face of cell i-1
                let right = reconstruct(cell, -1.0); // left face of cell i
                riemann_flux(left, right, axis, gamma, solver)
            })
            .collect();

        // Conservative update: U_i += dt/dx (F_i − F_{i+1}).
        let n_i64 = n as i64;
        let face_at = |i: i64, j: i64, k: i64| -> &Cons {
            let ix = (((i.rem_euclid(n_i64)) * n_i64 + j.rem_euclid(n_i64)) * n_i64
                + k.rem_euclid(n_i64)) as usize;
            &faces[ix]
        };
        let mut new_cells = self.cells.clone();
        new_cells.par_iter_mut().enumerate().for_each(|(ix, u)| {
            let (i, j, k) = (
                (ix / (n * n)) as i64,
                ((ix / n) % n) as i64,
                (ix % n) as i64,
            );
            let (ip, jp, kp) = match axis {
                0 => (i + 1, j, k),
                1 => (i, j + 1, k),
                _ => (i, j, k + 1),
            };
            let f_in = face_at(i, j, k);
            let f_out = face_at(ip, jp, kp);
            u.add_scaled(f_in, dtdx);
            u.add_scaled(f_out, -dtdx);
        });
        self.cells = new_cells;
    }
}

/// Reference 1-D shock-tube solution support: run a 3-D grid that varies only
/// in x, returning the final x-profile of primitive states (used by tests and
/// the verification example).
pub fn sod_profile(n: usize, t_end: f64, solver: Riemann) -> Vec<Prim> {
    let gamma = 1.4;
    let mut g = HydroGrid::from_fn(n, gamma, |x| {
        if x[0] < 0.5 {
            Prim {
                rho: 1.0,
                vel: [0.0; 3],
                p: 1.0,
            }
        } else {
            Prim {
                rho: 0.125,
                vel: [0.0; 3],
                p: 0.1,
            }
        }
    });
    let mut t = 0.0;
    while t < t_end {
        let dt = g.max_dt(0.4).min(t_end - t);
        g.step(dt, solver);
        t += dt;
    }
    (0..n)
        .map(|i| g.cells[g.idx(i, 0, 0)].to_prim(gamma))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> HydroGrid {
        HydroGrid::from_fn(n, GAMMA_DEFAULT, |_| Prim {
            rho: 1.0,
            vel: [0.1, -0.2, 0.05],
            p: 2.5,
        })
    }

    #[test]
    fn prim_cons_roundtrip() {
        let w = Prim {
            rho: 1.3,
            vel: [0.4, -0.7, 2.2],
            p: 0.9,
        };
        let w2 = w.to_cons(1.4).to_prim(1.4);
        assert!((w.rho - w2.rho).abs() < 1e-12);
        assert!((w.p - w2.p).abs() < 1e-12);
        for d in 0..3 {
            assert!((w.vel[d] - w2.vel[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_flow_is_steady() {
        let mut g = uniform(8);
        let before = g.cells.clone();
        for _ in 0..5 {
            let dt = g.max_dt(0.4);
            g.step(dt, Riemann::Hllc);
        }
        for (a, b) in before.iter().zip(&g.cells) {
            assert!((a.rho - b.rho).abs() < 1e-10);
            assert!((a.e - b.e).abs() < 1e-9);
        }
    }

    #[test]
    fn conservation_under_evolution() {
        // Random-ish smooth initial condition: conserved quantities must hold.
        let mut g = HydroGrid::from_fn(8, GAMMA_DEFAULT, |x| Prim {
            rho: 1.0 + 0.3 * (2.0 * std::f64::consts::PI * x[0]).sin(),
            vel: [0.2 * (2.0 * std::f64::consts::PI * x[1]).cos(), 0.0, -0.1],
            p: 1.0 + 0.1 * (2.0 * std::f64::consts::PI * x[2]).sin(),
        });
        let m0 = g.total_mass();
        let e0 = g.total_energy();
        let p0 = g.total_momentum();
        for _ in 0..10 {
            let dt = g.max_dt(0.4);
            g.step(dt, Riemann::Hllc);
        }
        assert!((g.total_mass() - m0).abs() < 1e-12 * m0.abs().max(1.0));
        assert!((g.total_energy() - e0).abs() < 1e-11 * e0.abs().max(1.0));
        for (m, p) in g.total_momentum().into_iter().zip(p0) {
            assert!((m - p).abs() < 1e-11);
        }
    }

    #[test]
    fn sod_shock_tube_structure_hllc() {
        // At t = 0.1 (periodic domain, two mirrored tubes) the right-moving
        // shock/contact/rarefaction structure must appear: density decreasing
        // left-to-right across the fan, a plateau, and post-shock density
        // above the ambient right state.
        let prof = sod_profile(64, 0.1, Riemann::Hllc);
        // Left state preserved near x=0.25 is not guaranteed (periodic mirror),
        // but ordering of extreme densities is.
        let rho_max = prof.iter().map(|w| w.rho).fold(0.0f64, f64::max);
        let rho_min = prof.iter().map(|w| w.rho).fold(f64::INFINITY, f64::min);
        assert!(
            rho_max <= 1.0 + 1e-6,
            "density exceeded left state: {rho_max}"
        );
        assert!(
            rho_min >= 0.125 - 1e-6,
            "density fell below right state: {rho_min}"
        );
        // A genuine intermediate plateau exists (contact ~0.26, shock ~0.27).
        let mid = prof.iter().filter(|w| w.rho > 0.2 && w.rho < 0.5).count();
        assert!(mid > 4, "no intermediate states found ({mid})");
        // Velocity is positive in the expansion region (flow to the right).
        let vmax = prof.iter().map(|w| w.vel[0]).fold(0.0f64, f64::max);
        assert!(vmax > 0.5, "expected rightward flow, vmax = {vmax}");
    }

    #[test]
    fn hll_and_hllc_agree_roughly() {
        let a = sod_profile(32, 0.08, Riemann::Hll);
        let b = sod_profile(32, 0.08, Riemann::Hllc);
        let mut diff = 0.0;
        for (x, y) in a.iter().zip(&b) {
            diff += (x.rho - y.rho).abs();
        }
        diff /= a.len() as f64;
        assert!(diff < 0.05, "HLL vs HLLC mean density diff = {diff}");
    }

    #[test]
    fn hllc_sharper_contact_than_hll() {
        // HLLC restores the contact wave; its profile has steeper maximum
        // density gradient around the contact than HLL.
        let a = sod_profile(64, 0.1, Riemann::Hll);
        let b = sod_profile(64, 0.1, Riemann::Hllc);
        let max_grad = |p: &[Prim]| {
            p.windows(2)
                .map(|w| (w[1].rho - w[0].rho).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(max_grad(&b) >= max_grad(&a) * 0.95);
    }

    #[test]
    fn riemann_flux_consistency() {
        // Equal states → exact physical flux.
        let w = Prim {
            rho: 0.7,
            vel: [0.3, 0.1, -0.2],
            p: 1.1,
        };
        for solver in [Riemann::Hll, Riemann::Hllc] {
            for axis in 0..3 {
                let f = riemann_flux(w, w, axis, 1.4, solver);
                let fe = flux(w, axis, 1.4);
                assert!((f.rho - fe.rho).abs() < 1e-12);
                assert!((f.e - fe.e).abs() < 1e-12);
                for d in 0..3 {
                    assert!((f.mom[d] - fe.mom[d]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn supersonic_upwinding() {
        // Supersonic flow to the right: flux must equal the left flux.
        let l = Prim {
            rho: 1.0,
            vel: [10.0, 0.0, 0.0],
            p: 0.01,
        };
        let r = Prim {
            rho: 0.5,
            vel: [10.0, 0.0, 0.0],
            p: 0.01,
        };
        let f = riemann_flux(l, r, 0, 1.4, Riemann::Hllc);
        let fl = flux(l, 0, 1.4);
        assert!((f.rho - fl.rho).abs() < 1e-12);
    }

    #[test]
    fn minmod_limits() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }
}
