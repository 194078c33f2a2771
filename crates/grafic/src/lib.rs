//! # grafic — cosmological initial-conditions generator
//!
//! A Rust re-implementation of the role played by the (modified) GRAFIC code
//! in Caniou et al. 2007: synthesising Gaussian random density and velocity
//! fields consistent with a ΛCDM power spectrum, at a single resolution level
//! ("standard" initial conditions) or as a set of nested boxes of increasing
//! resolution centred on a region of interest ("zoom" initial conditions,
//! the Russian-doll construction of the paper's Section 3).
//!
//! The pipeline is:
//!
//! 1. [`spectrum`] — an Eisenstein–Hu transfer function and a ΛCDM power
//!    spectrum `P(k)`, normalised to a given `σ₈`.
//! 2. [`fft`] — an in-house radix-2 complex FFT (1-D and 3-D); no external
//!    FFT dependency is used.
//! 3. [`field`] — k-space synthesis of Gaussian random fields with the
//!    correct spectrum, and Zel'dovich displacements to turn them into
//!    particle positions and velocities.
//! 4. [`zoom`] — multi-level nested boxes sharing large-scale modes, so a
//!    refined region embeds consistently in its parent box.
//!
//! Everything is deterministic given a seed, which the middleware layer
//! relies on for reproducible experiments.

pub mod fft;
#[cfg(test)]
mod fft_reference;
pub mod field;
pub mod measure;
pub mod spectrum;
pub mod zoom;

pub use field::{GaussianField, IcParticles};
pub use measure::{measure_spectrum, SpectrumEstimate};
pub use spectrum::{CosmoParams, PowerSpectrum};
pub use zoom::{ZoomIcs, ZoomLevelSpec};

/// Initial conditions for a single resolution level: the "standard" GRAFIC
/// output used for the first, low-resolution simulation of the paper.
#[derive(Debug, Clone)]
pub struct SingleLevelIcs {
    /// Comoving box size in Mpc/h.
    pub box_size: f64,
    /// Grid resolution per dimension (e.g. 128 for the paper's 128³ run).
    pub n: usize,
    /// Particle positions, velocities and masses.
    pub particles: IcParticles,
    /// Cosmology used for the synthesis.
    pub cosmo: CosmoParams,
    /// Seed used (for provenance).
    pub seed: u64,
}

/// Generate single-level initial conditions: an `n³` particle load in a
/// periodic box of `box_size` Mpc/h at initial expansion factor
/// `cosmo.a_init`, displaced from a uniform lattice with the Zel'dovich
/// approximation.
pub fn generate_single_level(
    cosmo: &CosmoParams,
    n: usize,
    box_size: f64,
    seed: u64,
) -> SingleLevelIcs {
    let spec = PowerSpectrum::new(cosmo.clone());
    let field = GaussianField::synthesize(&spec, n, box_size, seed);
    let particles = field.zeldovich_particles(cosmo);
    SingleLevelIcs {
        box_size,
        n,
        particles,
        cosmo: cosmo.clone(),
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_level_generates_n_cubed_particles() {
        let cosmo = CosmoParams::default();
        let ics = generate_single_level(&cosmo, 8, 100.0, 42);
        assert_eq!(ics.particles.len(), 512);
    }

    #[test]
    fn single_level_is_deterministic_in_seed() {
        let cosmo = CosmoParams::default();
        let a = generate_single_level(&cosmo, 8, 100.0, 7);
        let b = generate_single_level(&cosmo, 8, 100.0, 7);
        assert_eq!(a.particles.pos, b.particles.pos);
        let c = generate_single_level(&cosmo, 8, 100.0, 8);
        assert_ne!(a.particles.pos, c.particles.pos);
    }

    #[test]
    fn particles_stay_inside_box() {
        let cosmo = CosmoParams::default();
        let ics = generate_single_level(&cosmo, 8, 50.0, 1);
        for p in &ics.particles.pos {
            for d in 0..3 {
                assert!(p[d] >= 0.0 && p[d] < 50.0, "coordinate out of box: {p:?}");
            }
        }
    }
}
