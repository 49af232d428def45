//! Photonic energy-per-bit model — the PSCAN side of the Fig. 5 comparison.
//!
//! Energy per transported bit decomposes into:
//!
//! * **Laser**: continuous-wave electrical power (optical output scaled by
//!   wall-plug efficiency), sized so the link budget closes for the given
//!   node count, amortized over the aggregate data rate;
//! * **Thermal tuning**: static microheater power holding every ring on its
//!   resonance, also amortized over the data rate;
//! * **Modulator**: dynamic energy per modulated bit;
//! * **Receiver**: dynamic energy per detected bit;
//! * **SerDes/clocking**: per-bit energy of the dual-clock FIFO and
//!   serializer at each active tap.
//!
//! This mirrors the PhoenixSim decomposition the paper used (§III-C), with
//! constants from the same era of device literature.

use serde::Serialize;

use crate::devices::{Laser, Modulator, Photodiode};
use crate::units::OpticalPower;
use crate::waveguide::ChipLayout;
use crate::wdm::WavelengthPlan;

/// Per-component energy/power breakdown for a PSCAN configuration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EnergyBreakdown {
    /// Laser electrical power amortized per bit, in picojoules.
    pub laser_pj_per_bit: f64,
    /// Ring thermal tuning amortized per bit, in picojoules.
    pub tuning_pj_per_bit: f64,
    /// Modulator dynamic energy per bit, in picojoules.
    pub modulator_pj_per_bit: f64,
    /// Receiver dynamic energy per bit, in picojoules.
    pub receiver_pj_per_bit: f64,
    /// SerDes + dual-clock FIFO energy per bit, in picojoules.
    pub serdes_pj_per_bit: f64,
}

impl EnergyBreakdown {
    /// Total energy per bit in picojoules.
    pub fn total_pj_per_bit(&self) -> f64 {
        self.laser_pj_per_bit
            + self.tuning_pj_per_bit
            + self.modulator_pj_per_bit
            + self.receiver_pj_per_bit
            + self.serdes_pj_per_bit
    }
}

/// Energy model for a full PSCAN bus.
#[derive(Debug, Clone, Serialize)]
pub struct PhotonicEnergyModel {
    /// Device models.
    pub modulator: Modulator,
    /// Receiver model.
    pub photodiode: Photodiode,
    /// Laser wall-plug efficiency (output power is solved from the budget).
    pub laser_efficiency: f64,
    /// Waveguide loss model.
    pub waveguide_loss_db_per_cm: f64,
    /// WDM plan (per-wavelength rate, lambda count).
    pub plan: WavelengthPlan,
    /// SerDes + FIFO electrical energy per bit at each active tap, pJ.
    /// Representative of a 10 Gb/s SerDes lane: ~0.3 pJ/bit.
    pub serdes_pj_per_bit: f64,
    /// Optical power margin added above exact closure, in dB.
    pub margin_db: f64,
}

impl Default for PhotonicEnergyModel {
    fn default() -> Self {
        PhotonicEnergyModel {
            modulator: Modulator::default(),
            photodiode: Photodiode::default(),
            laser_efficiency: 0.1,
            waveguide_loss_db_per_cm: 0.3,
            plan: WavelengthPlan::paper_320g(),
            serdes_pj_per_bit: 0.3,
            margin_db: 3.0,
        }
    }
}

impl PhotonicEnergyModel {
    /// Per-wavelength laser output needed to close one span when the bus is
    /// divided by `repeaters` O-E-O repeaters, or `None` if it would exceed
    /// a practical +15 dBm on-chip launch ceiling. Loss grows linearly in
    /// dB (exponentially in watts) with span length, so splitting a long
    /// bus can *reduce* total laser power.
    fn span_laser(&self, layout: &ChipLayout, repeaters: usize) -> Option<OpticalPower> {
        const MAX_LAUNCH_DBM: f64 = 15.0;
        let span_nodes = layout.nodes.div_ceil(repeaters + 1);
        let span_mm = layout.bus_length_mm() / (repeaters + 1) as f64;
        let span_loss = self.modulator.pass_loss().db() * span_nodes as f64
            + self.waveguide_loss_db_per_cm * span_mm / 10.0;
        let fixed = self.modulator.insertion_loss.db() + self.modulator.ring.drop_loss.db() + 1.0; // coupler
        let need = self.photodiode.sensitivity.dbm() + span_loss + fixed + self.margin_db;
        (need <= MAX_LAUNCH_DBM).then(|| OpticalPower::from_dbm(need))
    }

    /// The energy-optimal repeater count and per-wavelength laser output:
    /// repeaters trade O-E-O conversion energy against the exponential
    /// laser-power cost of a long unrepeatered span. Minimizes total
    /// energy/bit over 0..=8 repeaters.
    pub fn required_laser(&self, layout: &ChipLayout) -> (OpticalPower, usize) {
        (0..=8usize)
            .filter_map(|r| {
                self.span_laser(layout, r).map(|p| {
                    let e = self.breakdown_for(layout, p, r).total_pj_per_bit();
                    (p, r, e)
                })
            })
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite energies"))
            .map(|(p, r, _)| (p, r))
            .unwrap_or_else(|| {
                panic!(
                    "no feasible laser power for {} nodes on {} mm bus",
                    layout.nodes,
                    layout.bus_length_mm()
                )
            })
    }

    /// Energy breakdown for a gather (SCA) in which every tap contributes and
    /// the head-end receiver detects the full aggregate stream, at the
    /// energy-optimal repeater count.
    pub fn sca_energy(&self, layout: &ChipLayout) -> EnergyBreakdown {
        let (laser_per_lambda, repeaters) = self.required_laser(layout);
        self.breakdown_for(layout, laser_per_lambda, repeaters)
    }

    fn breakdown_for(
        &self,
        layout: &ChipLayout,
        laser_per_lambda: OpticalPower,
        repeaters: usize,
    ) -> EnergyBreakdown {
        let lambdas = self.plan.data_lambdas as f64;
        let agg_bps = self.plan.aggregate_gbps() * 1e9;

        // Continuous powers (watts).
        let laser_elec_w = Laser {
            output: laser_per_lambda,
            wall_plug_efficiency: self.laser_efficiency,
        }
        .electrical_watts()
            * lambdas
            * (repeaters + 1) as f64;

        let total_rings = layout.nodes * self.plan.rings_per_tap();
        let tuning_w = total_rings as f64 * self.modulator.ring.tuning_power_uw * 1e-6;

        // Dynamic, already per-bit (convert fJ -> pJ).
        let modulator_pj = self.modulator.energy_fj_per_bit * 1e-3;
        // Receiver energy: final detector plus one extra O-E-O per repeater.
        let receiver_pj = self.photodiode.energy_fj_per_bit * 1e-3 * (1.0 + repeaters as f64);

        EnergyBreakdown {
            laser_pj_per_bit: laser_elec_w / agg_bps * 1e12,
            tuning_pj_per_bit: tuning_w / agg_bps * 1e12,
            modulator_pj_per_bit: modulator_pj,
            receiver_pj_per_bit: receiver_pj,
            serdes_pj_per_bit: self.serdes_pj_per_bit * (1.0 + repeaters as f64),
        }
    }

    /// Convenience: total pJ/bit for an SCA on a square die of `die_mm` with
    /// `nodes` taps.
    pub fn sca_pj_per_bit(&self, die_mm: f64, nodes: usize) -> f64 {
        self.sca_energy(&ChipLayout::square(die_mm, nodes))
            .total_pj_per_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums() {
        let b = EnergyBreakdown {
            laser_pj_per_bit: 0.1,
            tuning_pj_per_bit: 0.2,
            modulator_pj_per_bit: 0.3,
            receiver_pj_per_bit: 0.4,
            serdes_pj_per_bit: 0.5,
        };
        assert!((b.total_pj_per_bit() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn laser_power_feasible_for_paper_sizes() {
        let m = PhotonicEnergyModel::default();
        for nodes in [16, 64, 256, 1024] {
            let layout = ChipLayout::square(20.0, nodes);
            let (p, reps) = m.required_laser(&layout);
            assert!(p.dbm() <= 15.0, "launch {p} for {nodes} nodes");
            assert!(reps <= 3, "{reps} repeaters for {nodes} nodes");
        }
    }

    #[test]
    fn energy_stays_sub_pj_scale() {
        // The PSCAN energy/bit in Fig. 5 is order ~1 pJ/bit; sanity-band it.
        let m = PhotonicEnergyModel::default();
        for nodes in [16, 64, 256, 1024] {
            let e = m.sca_pj_per_bit(20.0, nodes);
            assert!(
                (0.05..10.0).contains(&e),
                "energy/bit {e} pJ out of band for {nodes} nodes"
            );
        }
    }

    #[test]
    fn more_nodes_cost_more_tuning() {
        let m = PhotonicEnergyModel::default();
        let e64 = m.sca_energy(&ChipLayout::square(20.0, 64));
        let e1024 = m.sca_energy(&ChipLayout::square(20.0, 1024));
        assert!(e1024.tuning_pj_per_bit > e64.tuning_pj_per_bit);
    }

    #[test]
    fn dynamic_terms_are_node_count_independent() {
        let m = PhotonicEnergyModel::default();
        let a = m.sca_energy(&ChipLayout::square(20.0, 16));
        let b = m.sca_energy(&ChipLayout::square(20.0, 256));
        assert_eq!(a.modulator_pj_per_bit, b.modulator_pj_per_bit);
    }
}
