//! ΛCDM linear power spectrum with the Eisenstein & Hu (1998) transfer
//! function (zero-baryon-oscillation "shape" fit, adequate for generating
//! WMAP-era initial conditions as the paper's modified GRAFIC did).
//!
//! The spectrum is normalised so that the RMS linear density fluctuation in
//! 8 Mpc/h spheres equals `sigma8` at z = 0, then scaled back to the initial
//! expansion factor with the linear growth function.

/// Cosmological parameters. Defaults are WMAP-1/3-era ΛCDM, matching what a
/// 2006–2007 HORIZON run would have used.
#[derive(Debug, Clone, PartialEq)]
pub struct CosmoParams {
    /// Matter density parameter Ωm.
    pub omega_m: f64,
    /// Dark-energy density parameter ΩΛ.
    pub omega_l: f64,
    /// Baryon density parameter Ωb.
    pub omega_b: f64,
    /// Hubble parameter h = H0 / (100 km/s/Mpc).
    pub h: f64,
    /// Spectral index of the primordial spectrum.
    pub n_s: f64,
    /// σ₈ normalisation at z = 0.
    pub sigma8: f64,
    /// Initial expansion factor for the simulation (a = 1/(1+z)).
    pub a_init: f64,
}

impl Default for CosmoParams {
    fn default() -> Self {
        CosmoParams {
            omega_m: 0.27,
            omega_l: 0.73,
            omega_b: 0.045,
            h: 0.71,
            n_s: 0.95,
            sigma8: 0.8,
            a_init: 1.0 / 51.0, // z = 50
        }
    }
}

impl CosmoParams {
    /// Hubble rate H(a) in units of H0: `E(a) = sqrt(Ωm a⁻³ + Ωk a⁻² + ΩΛ)`.
    pub fn e_of_a(&self, a: f64) -> f64 {
        let omega_k = 1.0 - self.omega_m - self.omega_l;
        (self.omega_m / (a * a * a) + omega_k / (a * a) + self.omega_l).sqrt()
    }

    /// Ωm(a).
    pub fn omega_m_a(&self, a: f64) -> f64 {
        let e2 = self.e_of_a(a).powi(2);
        self.omega_m / (a * a * a * e2)
    }

    /// ΩΛ(a).
    pub fn omega_l_a(&self, a: f64) -> f64 {
        let e2 = self.e_of_a(a).powi(2);
        self.omega_l / e2
    }

    /// Linear growth factor D(a), Carroll–Press–Turner fitting form,
    /// normalised so D(1) = 1.
    pub fn growth(&self, a: f64) -> f64 {
        self.growth_unnorm(a) / self.growth_unnorm(1.0)
    }

    fn growth_unnorm(&self, a: f64) -> f64 {
        let om = self.omega_m_a(a);
        let ol = self.omega_l_a(a);
        let g = 2.5 * om / (om.powf(4.0 / 7.0) - ol + (1.0 + om / 2.0) * (1.0 + ol / 70.0));
        g * a
    }

    /// Logarithmic growth rate f = dlnD/dlna ≈ Ωm(a)^0.55 — used for
    /// Zel'dovich velocities.
    pub fn growth_rate(&self, a: f64) -> f64 {
        self.omega_m_a(a).powf(0.55)
    }
}

/// Eisenstein–Hu (1998) zero-baryon transfer function T(k); k in h/Mpc.
fn transfer_eh98(k_h: f64, p: &CosmoParams) -> f64 {
    if k_h <= 0.0 {
        return 1.0;
    }
    let theta = 2.728 / 2.7; // CMB temperature in units of 2.7 K
    let om_h2 = p.omega_m * p.h * p.h;
    let ob_h2 = p.omega_b * p.h * p.h;
    // Sound horizon fit (EH98 eq. 26).
    let s = 44.5 * (9.83 / om_h2).ln() / (1.0 + 10.0 * ob_h2.powf(0.75)).sqrt();
    // Shape-parameter suppression from baryons (EH98 eq. 30-31).
    let alpha = 1.0 - 0.328 * (431.0 * om_h2).ln() * (p.omega_b / p.omega_m)
        + 0.38 * (22.3 * om_h2).ln() * (p.omega_b / p.omega_m).powi(2);
    let k = k_h * p.h; // 1/Mpc
    let gamma_eff = p.omega_m * p.h * (alpha + (1.0 - alpha) / (1.0 + (0.43 * k * s).powi(4)));
    let q = k_h * theta * theta / gamma_eff;
    let l0 = (2.0 * std::f64::consts::E + 1.8 * q).ln();
    let c0 = 14.2 + 731.0 / (1.0 + 62.5 * q);
    l0 / (l0 + c0 * q * q)
}

/// A normalised linear matter power spectrum.
#[derive(Debug, Clone)]
pub struct PowerSpectrum {
    cosmo: CosmoParams,
    /// Amplitude A such that P(k) = A kⁿ T(k)² gives the requested σ₈.
    amplitude: f64,
}

impl PowerSpectrum {
    pub fn new(cosmo: CosmoParams) -> Self {
        let mut ps = PowerSpectrum {
            cosmo,
            amplitude: 1.0,
        };
        let s8 = ps.sigma_r(8.0);
        ps.amplitude = (ps.cosmo.sigma8 / s8).powi(2);
        ps
    }

    pub fn cosmo(&self) -> &CosmoParams {
        &self.cosmo
    }

    /// P(k) at z = 0, k in h/Mpc, P in (Mpc/h)³.
    pub fn p_of_k(&self, k: f64) -> f64 {
        if k <= 0.0 {
            return 0.0;
        }
        let t = transfer_eh98(k, &self.cosmo);
        self.amplitude * k.powf(self.cosmo.n_s) * t * t
    }

    /// RMS linear fluctuation in top-hat spheres of radius `r` Mpc/h at z=0,
    /// by direct trapezoid integration in ln k.
    pub fn sigma_r(&self, r: f64) -> f64 {
        let nstep = 2048;
        let lnk_min = (1e-4f64).ln();
        let lnk_max = (1e2f64).ln();
        let dlnk = (lnk_max - lnk_min) / nstep as f64;
        let mut acc = 0.0;
        for i in 0..=nstep {
            let lnk = lnk_min + i as f64 * dlnk;
            let k = lnk.exp();
            let x = k * r;
            // Top-hat window in k-space.
            let w = if x < 1e-4 {
                1.0 - x * x / 10.0
            } else {
                3.0 * (x.sin() - x * x.cos()) / (x * x * x)
            };
            let integrand = k * k * k * self.p_of_k(k) * w * w
                / (2.0 * std::f64::consts::PI * std::f64::consts::PI);
            let weight = if i == 0 || i == nstep { 0.5 } else { 1.0 };
            acc += weight * integrand * dlnk;
        }
        acc.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_is_one_today() {
        let c = CosmoParams::default();
        assert!((c.growth(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn growth_monotone_increasing() {
        let c = CosmoParams::default();
        let mut prev = 0.0;
        for i in 1..=50 {
            let a = i as f64 / 50.0;
            let d = c.growth(a);
            assert!(d > prev, "growth not monotone at a={a}");
            prev = d;
        }
    }

    #[test]
    fn growth_matches_eds_limit_at_high_z() {
        // At very early times D(a) ∝ a (matter domination).
        let c = CosmoParams::default();
        let r1 = c.growth(0.001) / 0.001;
        let r2 = c.growth(0.002) / 0.002;
        assert!((r1 - r2).abs() / r1 < 0.01);
    }

    #[test]
    fn e_of_a_today_is_one() {
        let c = CosmoParams::default();
        assert!((c.e_of_a(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sigma8_normalisation_holds() {
        let c = CosmoParams::default();
        let ps = PowerSpectrum::new(c.clone());
        assert!((ps.sigma_r(8.0) - c.sigma8).abs() < 1e-6);
    }

    #[test]
    fn transfer_function_limits() {
        let c = CosmoParams::default();
        // T -> 1 as k -> 0.
        assert!((transfer_eh98(1e-6, &c) - 1.0).abs() < 1e-2);
        // T decreasing with k on small scales.
        assert!(transfer_eh98(1.0, &c) < transfer_eh98(0.01, &c));
        assert!(transfer_eh98(10.0, &c) < transfer_eh98(1.0, &c));
    }

    #[test]
    fn spectrum_has_turnover() {
        // P(k) rises as k^n on large scales and falls on small scales.
        let ps = PowerSpectrum::new(CosmoParams::default());
        let p_large = ps.p_of_k(1e-3);
        let p_peak = ps.p_of_k(2e-2);
        let p_small = ps.p_of_k(5.0);
        assert!(p_peak > p_large);
        assert!(p_peak > p_small);
    }

    #[test]
    fn growth_rate_between_zero_and_one() {
        let c = CosmoParams::default();
        for a in [0.02, 0.1, 0.5, 1.0] {
            let f = c.growth_rate(a);
            assert!(f > 0.0 && f <= 1.0 + 1e-9);
        }
    }
}
