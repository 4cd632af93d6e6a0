//! Energy accounting for a transition.
//!
//! The paper motivates link preservation with energy: breaking a link
//! forces the pair to re-establish (re-pair, re-key) a secure wireless
//! session — "the extensive change of local connectivity may result in
//! significant overhead and delay for re-pairing the wireless links"
//! (Sec. I), and preserving links "saves a lot of energy on updating new
//! connections" (Sec. IV-A). This module turns those qualitative claims
//! into a simple, auditable cost model so methods can be compared on a
//! single energy number.

use crate::TransitionMetrics;
use std::fmt;

/// A linear energy model for one transition.
///
/// Total energy =
/// `motion_cost_per_meter · D`
/// `+ link_setup_cost · (broken links + new links)`
/// `+ idle_cost_per_robot · n` (fixed per-robot overhead, e.g. keeping
/// radios on for the duration).
///
/// Defaults follow common small-UGV ballpark figures: 2 J per metre of
/// travel, 50 J per wireless (re-)pairing handshake, no idle term. The
/// absolute numbers matter less than the ratio — the model is for
/// comparing methods under the *same* assumptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Joules per metre of robot travel.
    pub motion_cost_per_meter: f64,
    /// Joules per link (re-)establishment handshake.
    pub link_setup_cost: f64,
    /// Fixed joules per robot for the whole transition.
    pub idle_cost_per_robot: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            motion_cost_per_meter: 2.0,
            link_setup_cost: 50.0,
            idle_cost_per_robot: 0.0,
        }
    }
}

/// Energy breakdown of one transition under an [`EnergyModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Energy spent moving (`motion_cost_per_meter · D`).
    pub motion: f64,
    /// Energy spent re-pairing links (broken + new, each one handshake).
    pub link_maintenance: f64,
    /// Fixed idle overhead.
    pub idle: f64,
}

impl EnergyReport {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.motion + self.link_maintenance + self.idle
    }
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} J (motion {:.0} J, link maintenance {:.0} J, idle {:.0} J)",
            self.total(),
            self.motion,
            self.link_maintenance,
            self.idle
        )
    }
}

impl EnergyModel {
    /// Evaluates the model on a transition's metrics for `n` robots.
    ///
    /// Broken links = `initial_links − preserved_links`; each broken
    /// link and each new link costs one handshake (the broken pair tears
    /// down state, the new pair runs the full pairing).
    pub fn evaluate(&self, metrics: &TransitionMetrics, robots: usize) -> EnergyReport {
        let broken = metrics.initial_links - metrics.preserved_links;
        EnergyReport {
            motion: self.motion_cost_per_meter * metrics.total_distance,
            link_maintenance: self.link_setup_cost * (broken + metrics.new_links) as f64,
            idle: self.idle_cost_per_robot * robots as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(d: f64, initial: usize, preserved: usize, new_links: usize) -> TransitionMetrics {
        TransitionMetrics {
            total_distance: d,
            stable_link_ratio: preserved as f64 / initial.max(1) as f64,
            global_connectivity: 1,
            preserved_links: preserved,
            initial_links: initial,
            new_links,
            audit_pieces: 1,
            audit_checks: 1,
            violations: Vec::new(),
            disconnected_intervals: Vec::new(),
        }
    }

    #[test]
    fn default_model_costs() {
        let m = metrics(1000.0, 100, 90, 15);
        let report = EnergyModel::default().evaluate(&m, 50);
        assert_eq!(report.motion, 2000.0);
        assert_eq!(report.link_maintenance, 50.0 * 25.0); // 10 broken + 15 new
        assert_eq!(report.idle, 0.0);
        assert_eq!(report.total(), 3250.0);
    }

    #[test]
    fn preserving_links_saves_energy() {
        // Same distance, different preservation: the high-L run is
        // cheaper — the paper's energy argument in one assert.
        let model = EnergyModel::default();
        let high_l = model.evaluate(&metrics(10_000.0, 400, 390, 20), 144);
        let low_l = model.evaluate(&metrics(10_000.0, 400, 100, 320), 144);
        assert!(high_l.total() < low_l.total());
    }

    #[test]
    fn crossover_depends_on_model() {
        // A slightly longer path that preserves everything beats a
        // shorter path that breaks the network — until motion is made
        // expensive enough.
        let cheap_motion = EnergyModel {
            motion_cost_per_meter: 1.0,
            link_setup_cost: 100.0,
            idle_cost_per_robot: 0.0,
        };
        let long_safe = metrics(11_000.0, 400, 400, 0);
        let short_breaky = metrics(10_000.0, 400, 200, 250);
        assert!(
            cheap_motion.evaluate(&long_safe, 144).total()
                < cheap_motion.evaluate(&short_breaky, 144).total()
        );

        let expensive_motion = EnergyModel {
            motion_cost_per_meter: 100.0,
            link_setup_cost: 1.0,
            idle_cost_per_robot: 0.0,
        };
        assert!(
            expensive_motion.evaluate(&long_safe, 144).total()
                > expensive_motion.evaluate(&short_breaky, 144).total()
        );
    }

    #[test]
    fn idle_term_scales_with_robots() {
        let model = EnergyModel {
            idle_cost_per_robot: 10.0,
            ..Default::default()
        };
        let m = metrics(0.0, 0, 0, 0);
        assert_eq!(model.evaluate(&m, 10).idle, 100.0);
        assert_eq!(model.evaluate(&m, 144).idle, 1440.0);
    }

    #[test]
    fn display_nonempty() {
        let r = EnergyModel::default().evaluate(&metrics(1.0, 1, 1, 0), 3);
        assert!(!r.to_string().is_empty());
    }
}
