//! Telemetry-driven fine-tuning (§3.2).
//!
//! "Since user specified resources may be inaccurate when executing with
//! real (and changing) inputs, UDC would perform fine tuning (enlarging
//! or shrinking the amount of resources for a module, migrating modules
//! across hardware units, etc.) based on telemetry data collected at the
//! run time."
//!
//! The tuner keeps each module's smoothed utilization inside a target
//! band: above the band → grow, below → shrink, and a saturated module
//! on a full device → migrate.

use serde::{Deserialize, Serialize};

/// Tuner parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Lower utilization bound: below this, shrink.
    pub low_watermark: f64,
    /// Upper utilization bound: above this, grow.
    pub high_watermark: f64,
    /// Multiplier when growing (e.g. 1.5).
    pub grow_factor: f64,
    /// Multiplier when shrinking (e.g. 0.7).
    pub shrink_factor: f64,
    /// Minimum units a module may shrink to.
    pub min_units: u64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self {
            low_watermark: 0.4,
            high_watermark: 0.9,
            grow_factor: 1.5,
            shrink_factor: 0.7,
            min_units: 1,
        }
    }
}

/// A recommended adjustment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TuneAction {
    /// Change the module's allocation to `new_units`.
    Resize {
        /// Module name.
        module: String,
        /// Current units.
        from_units: u64,
        /// Recommended units.
        to_units: u64,
    },
    /// The module is saturated and its device cannot grow: move it.
    Migrate {
        /// Module name.
        module: String,
        /// Units to allocate at the destination.
        units: u64,
    },
}

/// The fine-tuning controller.
#[derive(Debug, Clone, Default)]
pub struct FineTuner {
    config: TunerConfig,
    /// SLO-violation counter: samples where usage exceeded allocation.
    pub slo_violations: u64,
    /// Actions recommended so far.
    pub actions_issued: u64,
}

impl FineTuner {
    /// Creates a tuner.
    pub fn new(config: TunerConfig) -> Self {
        Self {
            config,
            slo_violations: 0,
            actions_issued: 0,
        }
    }

    /// Evaluates one module: given its smoothed usage (the caller's
    /// query engine does the smoothing, e.g. an EWMA aggregation over a
    /// per-module usage gauge) and its current allocation, recommend an
    /// action (or nothing when inside the band).
    ///
    /// `device_headroom` is the free capacity on the hosting device; a
    /// grow that exceeds it becomes a migration.
    pub fn evaluate_usage(
        &mut self,
        module: &str,
        usage: f64,
        current_units: u64,
        device_headroom: u64,
    ) -> Option<TuneAction> {
        if usage > 1.0 {
            self.slo_violations += 1;
        }
        if usage > self.config.high_watermark {
            let target = ((current_units as f64 * self.config.grow_factor).ceil() as u64)
                .max(current_units + 1);
            let extra = target - current_units;
            self.actions_issued += 1;
            if extra > device_headroom {
                return Some(TuneAction::Migrate {
                    module: module.to_string(),
                    units: target,
                });
            }
            return Some(TuneAction::Resize {
                module: module.to_string(),
                from_units: current_units,
                to_units: target,
            });
        }
        if usage < self.config.low_watermark && current_units > self.config.min_units {
            let target = ((current_units as f64 * self.config.shrink_factor).floor() as u64)
                .max(self.config.min_units);
            if target < current_units {
                self.actions_issued += 1;
                return Some(TuneAction::Resize {
                    module: module.to_string(),
                    from_units: current_units,
                    to_units: target,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overloaded_module_grows() {
        let mut tuner = FineTuner::new(TunerConfig::default());
        let action = tuner.evaluate_usage("A1", 0.95, 4, 100).unwrap();
        match action {
            TuneAction::Resize {
                from_units: 4,
                to_units,
                ..
            } => assert!(to_units > 4),
            other => panic!("expected grow, got {other:?}"),
        }
    }

    #[test]
    fn idle_module_shrinks() {
        let mut tuner = FineTuner::new(TunerConfig::default());
        let action = tuner.evaluate_usage("A1", 0.1, 8, 100).unwrap();
        match action {
            TuneAction::Resize {
                from_units: 8,
                to_units,
                ..
            } => assert!(to_units < 8),
            other => panic!("expected shrink, got {other:?}"),
        }
    }

    #[test]
    fn in_band_module_untouched() {
        let mut tuner = FineTuner::new(TunerConfig::default());
        assert!(tuner.evaluate_usage("A1", 0.7, 4, 100).is_none());
        assert_eq!(tuner.actions_issued, 0);
    }

    #[test]
    fn saturated_on_full_device_migrates() {
        let mut tuner = FineTuner::new(TunerConfig::default());
        let action = tuner.evaluate_usage("A1", 1.2, 4, 0).unwrap();
        assert!(matches!(action, TuneAction::Migrate { units, .. } if units > 4));
        assert!(tuner.slo_violations > 0);
    }

    #[test]
    fn never_shrinks_below_minimum() {
        let mut tuner = FineTuner::new(TunerConfig::default());
        assert!(tuner.evaluate_usage("A1", 0.01, 1, 100).is_none());
    }

    #[test]
    fn convergence_loop_settles_in_band() {
        // A module that really needs 6 units, initially allocated 16:
        // the loop shrink-converges into the band without oscillating
        // forever.
        let mut units = 16u64;
        let need = 6.0;
        let mut tuner = FineTuner::new(TunerConfig::default());
        for round in 0..20 {
            let usage = need / units as f64;
            match tuner.evaluate_usage("A1", usage, units, 1000) {
                Some(TuneAction::Resize { to_units, .. }) => units = to_units,
                Some(TuneAction::Migrate { units: u, .. }) => units = u,
                None => {
                    assert!(round > 0, "initial allocation was already wrong");
                    break;
                }
            }
        }
        let final_usage = need / units as f64;
        assert!(
            (0.35..=1.0).contains(&final_usage),
            "converged to units={units}, usage={final_usage}"
        );
    }
}
