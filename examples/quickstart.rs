//! Quickstart: build a PSCAN, run the paper's Fig. 4 interleave, and check
//! that two spatially separate processors splice one gap-free burst in
//! flight.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pscan::compiler::{CpCompiler, GatherSpec};
use pscan::network::{Pscan, PscanConfig};

fn main() {
    // A PSCAN with 3 taps on a 2 cm die: P0 and P1 transmit, P2's end of
    // the bus hosts the receiver.
    let pscan = Pscan::new(PscanConfig {
        nodes: 3,
        ..Default::default()
    });

    // The Fig. 4 schedule: P0 owns wavefronts {0,1} and {4,5}; P1 owns
    // {2,3}. Slot -> source-node map:
    let spec = GatherSpec {
        slot_source: vec![0, 0, 1, 1, 0, 0],
    };

    // Compile to per-node Communication Programs and show them.
    let cps = CpCompiler.compile_gather(&spec, 3);
    for (n, cp) in cps.iter().enumerate() {
        println!("P{n} CP: {:?} ({} bits)", cp.entries(), cp.encoded_bits());
    }

    // P0 holds a,b,e,f; P1 holds c,d.
    let data = vec![vec![0xA, 0xB, 0xE, 0xF], vec![0xC, 0xD], vec![]];
    let out = pscan
        .gather(&spec, &data)
        .expect("collision-free by construction");

    let burst: Vec<u64> = out.received.iter().map(|w| w.unwrap()).collect();
    println!("\nreceived burst: {burst:x?}");
    println!(
        "bus utilization during burst: {:.0}%",
        out.utilization * 100.0
    );
    println!(
        "first wavefront arrived at {:?}, last at {:?}",
        out.first_arrival, out.last_arrival
    );
    assert_eq!(burst, vec![0xA, 0xB, 0xC, 0xD, 0xE, 0xF]);
    println!("\nThe receiver saw one gap-free six-cycle burst, \"as if from a single source\".");
}
