//! RAMSES-style code units.
//!
//! Internally everything is dimensionless: the box has unit length, unit
//! total (matter) mass, and H0 = 1. This module converts between those code
//! units and physical units for I/O and post-processing.

/// Unit system attached to a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Units {
    /// Comoving box size in Mpc/h.
    pub box_mpc_h: f64,
    /// Hubble parameter h.
    pub h: f64,
    /// Matter density parameter (sets the box mass).
    pub omega_m: f64,
}

/// Critical density today in M☉ h² / Mpc³ (2.775e11).
pub const RHO_CRIT_MSUN_H2_MPC3: f64 = 2.775e11;

/// km/s per (Mpc/h · H0) — velocity unit conversion: H0 = 100 h km/s/Mpc, so
/// one code velocity (box·H0) in km/s is 100 · box_mpc_h.
pub const H0_KM_S_MPC_H: f64 = 100.0;

impl Units {
    pub fn new(box_mpc_h: f64, h: f64, omega_m: f64) -> Self {
        Units {
            box_mpc_h,
            h,
            omega_m,
        }
    }

    /// Length: code (fraction of box) → comoving Mpc/h.
    pub fn length_mpc_h(&self, x_code: f64) -> f64 {
        x_code * self.box_mpc_h
    }

    /// Mass: code (fraction of box matter mass) → M☉/h.
    pub fn mass_msun_h(&self, m_code: f64) -> f64 {
        let box_mass = self.omega_m * RHO_CRIT_MSUN_H2_MPC3 * self.box_mpc_h.powi(3);
        m_code * box_mass
    }

    /// Velocity: code (box · H0) → km/s.
    pub fn velocity_km_s(&self, v_code: f64) -> f64 {
        v_code * H0_KM_S_MPC_H * self.box_mpc_h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_mpc_box_mass() {
        let u = Units::new(100.0, 0.71, 0.27);
        // Ωm ρ_crit V = 0.27 · 2.775e11 · 1e6 ≈ 7.5e16 M☉/h.
        let m = u.mass_msun_h(1.0);
        assert!(m > 7.0e16 && m < 8.0e16, "box mass = {m:e}");
    }

    #[test]
    fn particle_mass_at_128_cubed() {
        // The paper's 128³/100 Mpc·h⁻¹ run: particle mass ≈ 3.6e10 M☉/h.
        let u = Units::new(100.0, 0.71, 0.27);
        let m = u.mass_msun_h(1.0 / (128.0f64).powi(3));
        assert!(m > 2.0e10 && m < 5.0e10, "particle mass = {m:e}");
    }

    #[test]
    fn length_and_velocity_scale_linearly() {
        let u = Units::new(50.0, 0.7, 0.3);
        assert_eq!(u.length_mpc_h(0.5), 25.0);
        assert!((u.velocity_km_s(0.01) - 50.0).abs() < 1e-9);
    }
}
