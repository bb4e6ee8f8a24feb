//! F5 — Figure 5: the transfer curve on logarithmic axes.
//!
//! "Visualization of the sensor values using logarithmic axis. The
//! measured values (asterisks) nearly perfectly fit the curve" (paper,
//! Figure 5 caption). On log–log axes the `~1/d` triangulation law is a
//! straight line of slope ≈ −1; "nearly perfectly" is an R² statement.

use distscroll_sensors::calibrate::fit_loglog;
use distscroll_sensors::gp2d120;

use crate::report::{AsciiPlot, Scale, Table};

use super::fig4::sweep_curve;
use super::{Effort, ExperimentReport};

/// Runs F5.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let step = effort.pick(2.0, 0.5);
    let repeats = effort.pick(6, 24);
    // Same bench sweep as Figure 4 (the paper plots the same data twice).
    let points = sweep_curve(
        gp2d120::MIN_VALID_CM,
        gp2d120::MAX_VALID_CM,
        step,
        repeats,
        seed,
    );
    let data: Vec<(f64, f64)> = points.iter().map(|p| (p.distance_cm, p.volts)).collect();
    // lint:allow(panic-hygiene) datasheet coordinates are strictly positive, so the log-log fit is defined
    let fit = fit_loglog(&data).expect("positive coordinates by construction");

    let mut table = Table::new(
        "figure 5 fit: ln V = slope * ln d + intercept",
        &["quantity", "value"],
    );
    table.row(&["slope".into(), format!("{:.4}", fit.slope)]);
    table.row(&["intercept".into(), format!("{:.4}", fit.intercept)]);
    table.row(&["R^2".into(), format!("{:.5}", fit.r2)]);
    table.row(&["rmse (log space)".into(), format!("{:.5}", fit.rmse)]);

    let fitted_line: Vec<(f64, f64)> = (0..=80)
        .map(|i| {
            let d = gp2d120::MIN_VALID_CM
                * (gp2d120::MAX_VALID_CM / gp2d120::MIN_VALID_CM).powf(i as f64 / 80.0);
            (d, (fit.slope * d.ln() + fit.intercept).exp())
        })
        .collect();
    let plot = AsciiPlot::new(
        "figure 5: sensor output vs distance, log-log (* measured, - power-law fit)",
        "distance [cm]",
        "voltage [V]",
    )
    .scales(Scale::Log, Scale::Log)
    .series('-', &fitted_line)
    .series('*', &data);

    // "Nearly perfectly fit the curve": high R² and the 1/d signature.
    let slope_ok = (-1.20..=-0.80).contains(&fit.slope);
    let fit_ok = fit.r2 > 0.99;
    let shape_holds = slope_ok && fit_ok;

    ExperimentReport {
        id: "F5",
        title: "sensor transfer curve, logarithmic axes".into(),
        paper_claim: "on logarithmic axes the measured values (asterisks) nearly perfectly fit \
                      the curve (Fig. 5)"
            .into(),
        sections: vec![table.render(), plot.render()],
        findings: vec![
            format!(
                "log-log slope {:.3} (triangulation law predicts about -1), R² = {:.4}",
                fit.slope, fit.r2
            ),
            format!(
                "'nearly perfectly': {} of the log-variance is explained by the power law",
                format_args!("{:.2}%", fit.r2 * 100.0)
            ),
        ],
        shape_holds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f5_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
    }

    #[test]
    fn f5_plot_uses_log_axes() {
        let r = run(Effort::Quick, 1);
        assert!(r.sections[1].contains("(log)"));
    }
}
