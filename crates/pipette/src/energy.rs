//! Per-event energy model.
//!
//! Replaces the paper's McPAT + Micron DDR3L models with an event-count
//! model whose per-event constants sit in the ratios McPAT reports for a
//! 22 nm out-of-order core. Fig. 11 compares *relative* energy across
//! program variants, which depends on event mixes and runtime — both of
//! which this model captures.

/// Energy constants in picojoules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Per issued micro-op (rename/schedule/execute/retire).
    pub uop_pj: f64,
    /// Per conditional branch (adds predictor + possible flush cost).
    pub branch_pj: f64,
    /// Extra energy for a misprediction flush.
    pub mispredict_pj: f64,
    /// Per L1 access.
    pub l1_pj: f64,
    /// Per L2 access.
    pub l2_pj: f64,
    /// Per L3 access.
    pub l3_pj: f64,
    /// Per DRAM line transfer.
    pub dram_pj: f64,
    /// Per queue operation (register-file sized structure).
    pub queue_pj: f64,
    /// Per RA operation.
    pub ra_pj: f64,
    /// Static/leakage per core per cycle.
    pub static_core_pj_per_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            uop_pj: 60.0,
            branch_pj: 15.0,
            mispredict_pj: 600.0,
            l1_pj: 25.0,
            l2_pj: 90.0,
            l3_pj: 400.0,
            dram_pj: 15_000.0,
            queue_pj: 8.0,
            ra_pj: 12.0,
            static_core_pj_per_cycle: 120.0,
        }
    }
}

/// Energy totals in picojoules, by component.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core dynamic energy (uops, branches, queue ops, RA ops).
    pub core_dynamic_pj: f64,
    /// Cache energy (L1+L2+L3).
    pub cache_pj: f64,
    /// DRAM energy.
    pub dram_pj: f64,
    /// Static/leakage energy.
    pub static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_pj(&self) -> f64 {
        self.core_dynamic_pj + self.cache_pj + self.dram_pj + self.static_pj
    }

    /// Adds another breakdown.
    pub fn add(&mut self, other: &EnergyBreakdown) {
        self.core_dynamic_pj += other.core_dynamic_pj;
        self.cache_pj += other.cache_pj;
        self.dram_pj += other.dram_pj;
        self.static_pj += other.static_pj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut a = EnergyBreakdown {
            core_dynamic_pj: 1.0,
            cache_pj: 2.0,
            dram_pj: 3.0,
            static_pj: 4.0,
        };
        let b = a;
        a.add(&b);
        assert_eq!(a.total_pj(), 20.0);
    }

    #[test]
    fn dram_dominates_per_event() {
        let m = EnergyModel::default();
        assert!(m.dram_pj > m.l3_pj && m.l3_pj > m.l2_pj && m.l2_pj > m.l1_pj);
        assert!(m.queue_pj < m.uop_pj, "queue ops must be cheap");
    }
}
