//! F4 — Figure 4: sensor voltage vs. distance, linear axes.
//!
//! "Visualization of the sensor values (measured analog voltage at
//! Smart-Its input port). The measured values (asterisks) and an
//! idealized curve fitted through these is displayed. This value
//! distribution comes close to the distribution in the data sheet of
//! the GP2D120 sensor" (paper, Figure 4 caption).
//!
//! Procedure, exactly as the authors': place a surface at known
//! distances, record the voltage at the ADC input, average a handful of
//! readings per point, then fit the idealized curve `V = a/(d+d0) + c`
//! through the points in the valid 4–30 cm range.

use distscroll_sensors::calibrate::fit_inverse_curve;
use distscroll_sensors::environment::Scene;
use distscroll_sensors::gp2d120::{self, Gp2d120};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{AsciiPlot, Table};

use super::{Effort, ExperimentReport};

/// One measured calibration point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPoint {
    /// True distance of the surface, cm.
    pub distance_cm: f64,
    /// Mean measured voltage at the ADC input.
    pub volts: f64,
    /// Standard deviation across the repeats.
    pub sd: f64,
}

/// Sweeps the bench: `repeats` readings at each distance step.
pub fn sweep_curve(
    from_cm: f64,
    to_cm: f64,
    step_cm: f64,
    repeats: usize,
    seed: u64,
) -> Vec<MeasuredPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sensor = Gp2d120::typical();
    let mut scene = Scene::lab();
    let mut points = Vec::new();
    let mut d = from_cm;
    let mut t = 0.0;
    while d <= to_cm + 1e-9 {
        scene.set_distance(d);
        let mut readings = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            // Respect the part's ~38 ms refresh: advance time per reading.
            t += gp2d120::SAMPLE_PERIOD_S * 1.5;
            readings.push(sensor.output(t, &scene, &mut rng));
        }
        let mean = readings.iter().sum::<f64>() / repeats as f64;
        let sd = (readings.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / repeats as f64).sqrt();
        points.push(MeasuredPoint {
            distance_cm: d,
            volts: mean,
            sd,
        });
        d += step_cm;
    }
    points
}

/// Runs F4.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let step = effort.pick(2.0, 1.0);
    let repeats = effort.pick(6, 24);
    let points = sweep_curve(3.0, 35.0, step, repeats, seed);

    // Fit only the valid branch, as the paper does.
    let valid: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| (gp2d120::MIN_VALID_CM..=gp2d120::MAX_VALID_CM).contains(&p.distance_cm))
        .map(|p| (p.distance_cm, p.volts))
        .collect();
    // lint:allow(panic-hygiene) the synthetic calibration sweep always yields enough valid points
    let fit = fit_inverse_curve(&valid).expect("enough valid calibration points");

    let mut table = Table::new(
        "figure 4 data: measured voltage vs distance",
        &[
            "d [cm]",
            "V measured [V]",
            "sd [mV]",
            "V fitted [V]",
            "residual [mV]",
        ],
    );
    for p in &points {
        let fitted = if p.distance_cm >= gp2d120::MIN_VALID_CM {
            fit.voltage_at(p.distance_cm)
        } else {
            f64::NAN
        };
        let resid = (p.volts - fitted) * 1000.0;
        table.row(&[
            format!("{:.1}", p.distance_cm),
            format!("{:.3}", p.volts),
            format!("{:.1}", p.sd * 1000.0),
            if fitted.is_finite() {
                format!("{fitted:.3}")
            } else {
                "-".into()
            },
            if fitted.is_finite() {
                format!("{resid:+.1}")
            } else {
                "-".into()
            },
        ]);
    }

    let measured_pts: Vec<(f64, f64)> = points.iter().map(|p| (p.distance_cm, p.volts)).collect();
    let fitted_pts: Vec<(f64, f64)> = (40..=300)
        .map(|i| {
            let d = i as f64 / 10.0;
            (d, fit.voltage_at(d))
        })
        .collect();
    let plot = AsciiPlot::new(
        "figure 4: sensor output vs distance (* measured, - idealized fit)",
        "distance [cm]",
        "voltage [V]",
    )
    .series('-', &fitted_pts)
    .series('*', &measured_pts);

    // Shape checks mirroring the paper's claims.
    let monotone = valid.windows(2).all(|w| w[1].1 < w[0].1 + 0.02);
    let peak = points
        .iter()
        .max_by(|a, b| a.volts.total_cmp(&b.volts))
        // lint:allow(panic-hygiene) the figure-4 sweep is non-empty by construction
        .expect("points exist");
    let peak_near_3cm = (2.0..=4.5).contains(&peak.distance_cm);
    let fit_good = fit.r2 > 0.985;
    let anchors_ok = gp2d120::datasheet_anchors().iter().all(|&(d, v_typ)| {
        let v = fit.voltage_at(d);
        (v - v_typ).abs() < 0.06 + 0.08 * v_typ
    });
    let shape_holds = monotone && peak_near_3cm && fit_good && anchors_ok;

    ExperimentReport {
        id: "F4",
        title: "sensor transfer curve, linear axes".into(),
        paper_claim: "measured voltages follow the GP2D120 datasheet curve; an idealized curve \
                      fits the measured points; output peaks near 3-4 cm and declines towards \
                      30 cm (Fig. 4, Sec. 4.2)"
            .into(),
        sections: vec![table.render(), plot.render()],
        findings: vec![
            format!(
                "fitted idealized curve: V = {:.2}/(d + {:.2}) + {:.3}  (R² = {:.4}, rmse = {:.1} mV)",
                fit.a,
                fit.d0,
                fit.c,
                fit.r2,
                fit.rmse * 1000.0
            ),
            format!("output peak at {:.1} cm, {:.2} V (fold-back region below)", peak.distance_cm, peak.volts),
            format!("valid-branch monotone decreasing: {monotone}; datasheet anchors within tolerance: {anchors_ok}"),
        ],
        shape_holds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f4_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
        assert_eq!(r.id, "F4");
        assert!(r.sections.len() == 2);
    }

    #[test]
    fn measured_points_cover_the_sweep() {
        let pts = sweep_curve(3.0, 35.0, 2.0, 4, 0);
        assert_eq!(pts.len(), 17);
        assert!(pts.iter().all(|p| p.volts > 0.0 && p.volts < 3.0));
    }

    #[test]
    fn f4_is_reproducible_per_seed() {
        assert_eq!(
            run(Effort::Quick, 7).sections,
            run(Effort::Quick, 7).sections
        );
    }
}
