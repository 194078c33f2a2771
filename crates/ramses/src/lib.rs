//! # ramses — an AMR N-body + hydro cosmological simulation kernel
//!
//! A Rust re-implementation of the numerical core that the paper's grid
//! campaign executes on each cluster: RAMSES (Teyssier 2002), the adaptive
//! mesh refinement N-body and hydrodynamics code used to simulate the
//! formation of cosmic structure.
//!
//! The pieces, bottom-up:
//!
//! * [`cosmology`] — Friedmann integration, expansion factor ↔ time,
//!   supercomoving code units.
//! * [`peano`] — the 3-D Peano–Hilbert space-filling curve RAMSES uses to
//!   decompose the computational domain among processors.
//! * [`particles`] — structure-of-arrays particle storage, cloud-in-cell
//!   (CIC) mass deposition and force interpolation.
//! * [`poisson`] — a direct FFT solve of the comoving Poisson equation on
//!   the periodic base mesh.
//! * [`gravity`] — particle-mesh force evaluation and the kick-drift-kick
//!   leapfrog integrator with cosmological (comoving) factors.
//! * [`amr`] — the adaptive octree: quasi-Lagrangian refinement on particle
//!   count, 2:1 balance, Peano–Hilbert ordered leaf enumeration.
//! * [`hydro`] — a second-order (MUSCL–Hancock) finite-volume Euler solver
//!   with HLL/HLLC Riemann solvers, as the gas component.
//! * [`nbody`] — the top-level [`nbody::Simulation`] driver: takes GRAFIC
//!   initial conditions, advances them, writes snapshots.
//! * [`io`] — Fortran-record-style binary snapshot files, as produced by the
//!   original code and consumed by the GALICS post-processing chain.
//!
//! Shared-memory parallelism runs on the vendored `rayon` facade's thread
//! pool (see `vendor/rayon` and DESIGN.md §"Threading model"): the hot
//! kernels — the FFT Poisson solve, CIC deposit/interpolation, the
//! Godunov sweeps — execute on `RAYON_NUM_THREADS` threads with
//! bitwise-identical results at any thread count. In the original system MPI
//! ranks within one cluster played this role, while the *grid* level of
//! parallelism (one simulation per cluster) is the middleware's job and
//! lives in `diet-core`.

pub mod amr;
pub mod cosmology;
pub mod gravity;
pub mod hydro;
pub mod io;
pub mod nbody;
pub mod particles;
pub mod peano;
pub mod poisson;
pub mod units;

pub use cosmology::Cosmology;
pub use nbody::{RunParams, Simulation, Snapshot};
