//! Workload model of the cosmological campaign.
//!
//! The paper's experiment: "The client requests a 128³ particles
//! 100 Mpc·h⁻¹ simulation (first part). When he receives the results, he
//! requests simultaneously 100 sub-simulations (second part)."
//!
//! Measured timings (Section 5.2), used as the calibration anchor:
//!
//! * first part: 1 h 15 m 11 s  = 4511 s
//! * second part: mean 1 h 24 m 1 s = 5041 s, with per-halo dispersion
//! * per-SeD totals spread ≈ 10.5 h … 15 h due to Opteron heterogeneity
//!
//! A task's duration on a SeD is `reference_duration · dispersion(halo) /
//! speed_factor(SeD)`. Dispersion is deterministic per halo index, so the
//! whole campaign replays identically.

/// What a task is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// `ramsesZoom1`: the low-resolution full-box run producing the halo
    /// catalog.
    ZoomPart1,
    /// `ramsesZoom2`: one zoom re-simulation around halo `halo_index`,
    /// including GRAFIC IC generation and GALICS post-processing (the paper
    /// runs all three stages on the same cluster under one service call).
    ZoomPart2 { halo_index: u32 },
}

/// A schedulable task with its data footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    pub kind: TaskKind,
    /// Input payload shipped client → SeD (namelist + parameters), bytes.
    pub input_bytes: u64,
    /// Result tarball shipped SeD → client, bytes.
    pub output_bytes: u64,
}

impl TaskSpec {
    pub fn zoom_part1() -> Self {
        TaskSpec {
            kind: TaskKind::ZoomPart1,
            input_bytes: 8 * 1024,           // namelist + scalars
            output_bytes: 120 * 1024 * 1024, // halo catalog + coarse snapshot tarball
        }
    }

    pub fn zoom_part2(halo_index: u32) -> Self {
        TaskSpec {
            kind: TaskKind::ZoomPart2 { halo_index },
            input_bytes: 8 * 1024,
            output_bytes: 250 * 1024 * 1024, // zoom snapshot + GALICS catalogs
        }
    }
}

/// Calibrated duration model.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadModel {
    /// Part-1 duration on the reference (Opteron 250) SeD, seconds.
    pub part1_reference_s: f64,
    /// Part-2 mean duration on the reference SeD, seconds.
    pub part2_reference_s: f64,
    /// Fractional dispersion of part-2 durations across halos (0.15 = ±15%).
    pub part2_dispersion: f64,
    /// Seed folded into the per-halo dispersion hash.
    pub seed: u64,
}

impl Default for WorkloadModel {
    fn default() -> Self {
        WorkloadModel {
            part1_reference_s: 4511.0, // 1 h 15 m 11 s
            part2_reference_s: 4900.0, // ≈ paper mean after speed-mix weighting
            part2_dispersion: 0.12,
            seed: 2007,
        }
    }
}

/// SplitMix64 — tiny deterministic hash for per-halo dispersion.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl WorkloadModel {
    /// Deterministic dispersion factor for one halo in `[1−d, 1+d]`.
    pub fn dispersion(&self, halo_index: u32) -> f64 {
        let h = splitmix64(self.seed ^ ((halo_index as u64) << 17));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        1.0 + self.part2_dispersion * (2.0 * u - 1.0)
    }

    /// Reference duration of a task (speed factor 1.0).
    pub fn reference_duration(&self, kind: TaskKind) -> f64 {
        match kind {
            TaskKind::ZoomPart1 => self.part1_reference_s,
            TaskKind::ZoomPart2 { halo_index } => {
                self.part2_reference_s * self.dispersion(halo_index)
            }
        }
    }

    /// Duration on a SeD with the given speed factor.
    pub fn duration_on(&self, kind: TaskKind, speed_factor: f64) -> f64 {
        assert!(speed_factor > 0.0);
        self.reference_duration(kind) / speed_factor
    }

    /// Total sequential time of the paper's campaign (1 part-1 + `n` part-2)
    /// on a single SeD of the given speed — the ">141 h" baseline.
    pub fn sequential_campaign(&self, n_zoom: u32, speed_factor: f64) -> f64 {
        let mut total = self.duration_on(TaskKind::ZoomPart1, speed_factor);
        for h in 0..n_zoom {
            total += self.duration_on(TaskKind::ZoomPart2 { halo_index: h }, speed_factor);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part1_matches_paper_measurement() {
        let m = WorkloadModel::default();
        let d = m.duration_on(TaskKind::ZoomPart1, 1.0);
        assert!((d - 4511.0).abs() < 1e-9);
    }

    #[test]
    fn dispersion_is_bounded_and_deterministic() {
        let m = WorkloadModel::default();
        for h in 0..1000 {
            let f = m.dispersion(h);
            assert!(f >= 1.0 - m.part2_dispersion - 1e-12);
            assert!(f <= 1.0 + m.part2_dispersion + 1e-12);
            assert_eq!(f, m.dispersion(h));
        }
    }

    #[test]
    fn dispersion_mean_near_one() {
        let m = WorkloadModel::default();
        let mean: f64 = (0..10_000).map(|h| m.dispersion(h)).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.01, "dispersion mean {mean}");
    }

    #[test]
    fn slower_sed_takes_longer() {
        let m = WorkloadModel::default();
        let k = TaskKind::ZoomPart2 { halo_index: 0 };
        assert!(m.duration_on(k, 0.8) > m.duration_on(k, 1.15));
        let ratio = m.duration_on(k, 0.5) / m.duration_on(k, 1.0);
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_campaign_exceeds_141_hours_on_slow_sed() {
        // The paper: "it would take more than 141 h to run the 101
        // simulations sequentially" — true on the slower Opterons.
        let m = WorkloadModel::default();
        let total = m.sequential_campaign(100, 0.93);
        assert!(
            total > 141.0 * 3600.0,
            "sequential total only {:.1} h",
            total / 3600.0
        );
    }

    #[test]
    fn mean_zoom_duration_matches_paper_band() {
        // Mean part-2 duration over the speed mix should sit near the
        // measured 5041 s (1 h 24 m 1 s) within a few percent.
        let m = WorkloadModel::default();
        let speeds = [0.8, 0.8, 1.0, 0.9, 0.9, 1.15, 1.15, 0.8, 0.8, 1.1, 1.1];
        let mut total = 0.0;
        let mut count = 0.0;
        for h in 0..100u32 {
            let s = speeds[(h as usize) % speeds.len()];
            total += m.duration_on(TaskKind::ZoomPart2 { halo_index: h }, s);
            count += 1.0;
        }
        let mean = total / count;
        assert!(
            (mean - 5041.0).abs() < 0.06 * 5041.0,
            "mean zoom duration {mean:.0}s vs paper 5041s"
        );
    }

    #[test]
    fn task_specs_have_sane_footprints() {
        let t1 = TaskSpec::zoom_part1();
        let t2 = TaskSpec::zoom_part2(3);
        assert!(t1.input_bytes < t1.output_bytes);
        assert!(t2.output_bytes > t1.output_bytes);
        assert_eq!(t2.kind, TaskKind::ZoomPart2 { halo_index: 3 });
    }
}
