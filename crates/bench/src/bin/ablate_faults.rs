//! Degradation sweep for the resilience layer: fault rate → completion
//! cycles, energy, and recovery retries on *both* fabrics.
//!
//! The electronic mesh runs the Table III transpose under transient flit
//! corruption (NACK/retransmit at the memory interface) plus occasional
//! link outages; the photonic machine runs a sequence of SCA writebacks
//! under BER-style word corruption (CRC + bounded link-layer retry, with
//! whole-pass SCA re-issue above it). Rate 0 is the golden baseline — by
//! construction it is bit-identical to a machine with no fault layer.
//!
//! ```text
//! cargo run --release -p bench --bin ablate_faults [--quick]
//! ```

use bench::jobs::{AblateFaultsSpec, Family};
use bench::{f, BenchError, Experiment};

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("ablate_faults");
    let quick = ex.quick();
    let spec = AblateFaultsSpec::preset(quick);
    let (procs, gathers) = (spec.procs, spec.gathers);
    let interrupt = ex.interrupt();
    // The sweep itself lives in [`bench::jobs`] so the supervised paths
    // (`run_batch`, `psyncd`) produce byte-identical rows.
    let (points, _) = spec
        .run(false, interrupt.as_ref())
        .map_err(|e| BenchError::run("ablate_faults", e))?;

    let cells: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0e}", p.rate),
                p.mesh_cycles.to_string(),
                f(p.mesh_energy_uj, 3),
                p.mesh_retransmits.to_string(),
                p.mesh_link_down_events.to_string(),
                p.pscan_bus_slots.to_string(),
                p.pscan_retries.to_string(),
                p.total_retries.to_string(),
            ]
        })
        .collect();
    // Self-checks the CI smoke job relies on: no data loss anywhere in the
    // sweep, and the harshest rate visibly exercised the recovery paths.
    for p in &points {
        assert_eq!(
            p.mesh_dropped_elements, 0,
            "retry budget exhausted at rate {}",
            p.rate
        );
    }
    let last = points.last().expect("non-empty sweep");
    assert!(
        last.total_retries > 0,
        "top rate produced no retries — fault layer inert?"
    );
    if !quick {
        // The committed full-size sweep must show a monotone degradation
        // curve; the quick CI workload is too small to guarantee separation
        // at the low-rate end.
        for w in points.windows(2) {
            assert!(
                w[1].total_retries >= w[0].total_retries,
                "retries not monotone: rate {} -> {}",
                w[0].rate,
                w[1].rate
            );
        }
    }

    ex.table(
        &format!(
            "Degradation sweep: fault rate vs completion/energy/retries \
             (P = {procs} transpose; {gathers} × 64-slot SCA writebacks)"
        ),
        &[
            "rate",
            "mesh cycles",
            "mesh energy (uJ)",
            "retransmits",
            "link outages",
            "pscan bus slots",
            "pscan retries",
            "total retries",
        ],
        &cells,
    )
    .note(
        "rate 0 rows are the golden baseline: the fault layer at rate 0 is\n\
         bit-identical to no fault layer at all (enforced by tests).\n",
    )
    .rows(&points)
    .run()
}
