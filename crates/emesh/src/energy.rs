//! ORION-style electronic network energy accounting — the mesh side of the
//! Fig. 5 comparison.
//!
//! The paper: "The number of link repeater stages is calculated based on the
//! ORION router model ... The chip size was fixed to 2 cm × 2 cm in all
//! simulations. Therefore, the link-repeater stages are inversely related to
//! the number of network nodes." We charge each flit a per-router traversal
//! energy (buffer write + read, crossbar, arbitration) and a per-link energy
//! proportional to the physical hop length — which shrinks as the node count
//! grows on the fixed die, exactly the inverse relation the paper notes.

use serde::Serialize;

/// Raw event counts accumulated by the mesh simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EnergyCounters {
    /// Flits injected at source NIs.
    pub injections: u64,
    /// Flits ejected at sinks / memory interfaces.
    pub ejections: u64,
    /// Inter-router link traversals (flit-hops).
    pub link_hops: u64,
    /// Router datapath traversals (buffer r/w + crossbar + arbiter), which
    /// includes ejection passes.
    pub router_traversals: u64,
}

impl EnergyCounters {
    /// Element-wise accumulate.
    pub fn add(&mut self, other: &EnergyCounters) {
        self.injections += other.injections;
        self.ejections += other.ejections;
        self.link_hops += other.link_hops;
        self.router_traversals += other.router_traversals;
    }
}

/// ORION-flavoured energy parameters (45 nm-era constants).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OrionParams {
    /// Buffer write energy, pJ per bit.
    pub buf_write_pj_per_bit: f64,
    /// Buffer read energy, pJ per bit.
    pub buf_read_pj_per_bit: f64,
    /// Crossbar traversal energy, pJ per bit.
    pub xbar_pj_per_bit: f64,
    /// Arbitration energy, pJ per bit (amortized over the flit).
    pub arb_pj_per_bit: f64,
    /// Repeatered global link energy, pJ per bit per millimetre.
    pub link_pj_per_bit_mm: f64,
    /// Flit width in bits (paper mesh: 32-bit router datapath; Table III
    /// uses 64-bit flits — both supported via this field).
    pub flit_bits: u64,
    /// Die edge in millimetres (fixed 20 mm).
    pub die_mm: f64,
}

impl Default for OrionParams {
    fn default() -> Self {
        OrionParams {
            buf_write_pj_per_bit: 0.12,
            buf_read_pj_per_bit: 0.10,
            xbar_pj_per_bit: 0.10,
            arb_pj_per_bit: 0.02,
            link_pj_per_bit_mm: 0.25,
            flit_bits: 64,
            die_mm: 20.0,
        }
    }
}

impl OrionParams {
    /// Per-flit router traversal energy in pJ.
    pub fn router_pj_per_flit(&self) -> f64 {
        (self.buf_write_pj_per_bit
            + self.buf_read_pj_per_bit
            + self.xbar_pj_per_bit
            + self.arb_pj_per_bit)
            * self.flit_bits as f64
    }

    /// Physical hop length on a fixed die with `nodes` routers: die edge /
    /// mesh side. More nodes → shorter hops → fewer repeater stages.
    pub fn hop_mm(&self, nodes: usize) -> f64 {
        let side = (nodes as f64).sqrt();
        self.die_mm / side
    }

    /// Per-flit link traversal energy in pJ for a mesh of `nodes`.
    pub fn link_pj_per_flit(&self, nodes: usize) -> f64 {
        self.link_pj_per_bit_mm * self.hop_mm(nodes) * self.flit_bits as f64
    }

    /// Total energy in joules for a run's counters on a mesh of `nodes`.
    pub fn total_j(&self, c: &EnergyCounters, nodes: usize) -> f64 {
        let router = self.router_pj_per_flit() * c.router_traversals as f64;
        let link = self.link_pj_per_flit(nodes) * c.link_hops as f64;
        // Injection charges one buffer write.
        let inj = self.buf_write_pj_per_bit * self.flit_bits as f64 * c.injections as f64;
        (router + link + inj) * 1e-12
    }

    /// Energy per *payload* bit in pJ, given the payload bits actually
    /// delivered (headers and hop counts are overhead, which is the point).
    pub fn pj_per_payload_bit(&self, c: &EnergyCounters, nodes: usize, payload_bits: u64) -> f64 {
        assert!(payload_bits > 0, "no payload delivered");
        self.total_j(c, nodes) * 1e12 / payload_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_energy_is_sum_of_stages() {
        let p = OrionParams::default();
        let per_bit = 0.12 + 0.10 + 0.10 + 0.02;
        assert!((p.router_pj_per_flit() - per_bit * 64.0).abs() < 1e-9);
    }

    #[test]
    fn hops_shrink_with_node_count() {
        let p = OrionParams::default();
        assert!((p.hop_mm(16) - 5.0).abs() < 1e-12); // 20 mm / 4
        assert!((p.hop_mm(1024) - 0.625).abs() < 1e-12); // 20 mm / 32
        assert!(p.link_pj_per_flit(1024) < p.link_pj_per_flit(16));
    }

    #[test]
    fn total_energy_scales_with_traffic() {
        let p = OrionParams::default();
        let c1 = EnergyCounters {
            router_traversals: 100,
            link_hops: 100,
            ..Default::default()
        };
        let e1 = p.total_j(&c1, 64);
        let c2 = EnergyCounters {
            router_traversals: 200,
            link_hops: 200,
            ..Default::default()
        };
        let e2 = p.total_j(&c2, 64);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn per_payload_bit_includes_overhead() {
        // Two flits moved but only one is payload: energy/payload-bit must
        // exceed energy/flit-bit.
        let p = OrionParams::default();
        let c = EnergyCounters {
            injections: 2,
            ejections: 2,
            link_hops: 12,
            router_traversals: 14,
        };
        let per_payload = p.pj_per_payload_bit(&c, 16, 64);
        let per_all_bits = p.total_j(&c, 16) * 1e12 / 128.0;
        assert!(per_payload > per_all_bits);
    }

    #[test]
    fn counters_accumulate() {
        let mut a = EnergyCounters {
            injections: 1,
            ejections: 2,
            link_hops: 3,
            router_traversals: 4,
        };
        a.add(&a.clone());
        assert_eq!(a.link_hops, 6);
        assert_eq!(a.router_traversals, 8);
    }
}
