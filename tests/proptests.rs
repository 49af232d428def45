//! Property-based tests over the core invariants:
//!
//! * any slot→node map compiles to collision-free CPs whose SCA reproduces
//!   the map's data exactly and gap-free;
//! * scatter∘gather is the identity on payloads;
//! * the FFT agrees with the naive DFT on random signals;
//! * the mesh delivers every packet of random traffic exactly once;
//! * a gather survives per-node clock drift inside ±half a slot and is
//!   corrupted by drift past it;
//! * the Model II machine's spectra match the monolithic FFT for any k.

use fft::complex::max_error;
use fft::{dft_reference, fft_in_place, Complex64};
use photonics::waveguide::ChipLayout;
use photonics::wdm::WavelengthPlan;
use proptest::prelude::*;
use pscan::bus::BusSim;
use pscan::compiler::{CpCompiler, GatherSpec, ScatterSpec};
use pscan::network::{Pscan, PscanConfig};

/// A random slot→node map over `nodes` nodes with `slots` slots.
fn slot_map(nodes: usize, slots: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..nodes, slots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_gather_spec_is_collision_free_and_exact(
        map in slot_map(8, 96),
    ) {
        let nodes = 8;
        let spec = GatherSpec { slot_source: map.clone() };
        let cps = CpCompiler.compile_gather(&spec, nodes);
        prop_assert!(CpCompiler::audit_disjoint(&cps).is_ok());

        // Node n's data: its global slot indices, so the coalesced burst
        // must be 0,1,2,... in slot order.
        let mut data = vec![Vec::new(); nodes];
        for (slot, &n) in map.iter().enumerate() {
            data[n].push(slot as u64);
        }
        let pscan = Pscan::new(PscanConfig { nodes, ..Default::default() });
        let out = pscan.gather(&spec, &data).unwrap();
        prop_assert_eq!(out.utilization, 1.0, "SCA must be gap-free");
        for (slot, w) in out.received.iter().enumerate() {
            prop_assert_eq!(w.unwrap(), slot as u64);
        }
    }

    #[test]
    fn scatter_then_gather_roundtrips(
        map in slot_map(6, 64),
    ) {
        let nodes = 6;
        let burst: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let pscan = Pscan::new(PscanConfig { nodes, ..Default::default() });

        // Scatter by the map, then gather by the same map: identity.
        let sspec = ScatterSpec { slot_dest: map.clone() };
        let delivered = pscan.scatter(&sspec, &burst).unwrap().delivered;
        let gspec = GatherSpec { slot_source: map };
        let out = pscan.gather(&gspec, &delivered).unwrap();
        let back: Vec<u64> = out.received.iter().map(|w| w.unwrap()).collect();
        prop_assert_eq!(back, burst);
    }

    #[test]
    fn fft_matches_dft_on_random_signals(
        res in prop::collection::vec(-100.0f64..100.0, 64),
        ims in prop::collection::vec(-100.0f64..100.0, 64),
    ) {
        let x: Vec<Complex64> = res
            .iter()
            .zip(&ims)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect();
        let mut y = x.clone();
        fft_in_place(&mut y);
        let r = dft_reference(&x);
        prop_assert!(max_error(&y, &r) < 1e-6);
    }

    #[test]
    fn blocked_fft_equals_monolithic_on_random_input(
        res in prop::collection::vec(-10.0f64..10.0, 256),
        k_pow in 0u32..=8,
    ) {
        let x: Vec<Complex64> = res.iter().map(|&r| Complex64::new(r, -r * 0.5)).collect();
        let k = 1usize << k_pow;
        let blocked = fft::BlockedFft::new(256, k).run(&x);
        let mut mono = x.clone();
        fft_in_place(&mut mono);
        prop_assert!(max_error(&blocked, &mono) < 1e-7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mesh_delivers_random_traffic_exactly_once(
        seeds in prop::collection::vec(0u8..16, 10),
    ) {
        use emesh::flit::Packet;
        use emesh::mesh::{Mesh, MeshConfig, RoutingPolicy};
        use emesh::topology::{MemifPlacement, Topology};

        let cfg = MeshConfig {
            topology: Topology::square(16, MemifPlacement::SingleCorner),
            t_r: 1,
            policy: RoutingPolicy::MinimalAdaptive,
            memif: Default::default(),
            buffer_depth: 2,
            max_cycles: 1 << 22,
            threads: 1,
        };
        let mut mesh = Mesh::new(cfg);
        mesh.collect_sink_words(true);
        let mut expected = [0u64; 16];
        for (i, &s) in seeds.iter().enumerate() {
            let src = (s as u32 + 1) % 16;
            let dst = (s as u32 * 7 + i as u32) % 16;
            if src == dst || dst == 0 || src == 0 {
                continue;
            }
            mesh.inject_packet(src, &Packet::with_header(dst, i as u64, vec![i as u64; 3]));
            expected[dst as usize] += 3;
        }
        let res = mesh.run().unwrap();
        #[allow(clippy::needless_range_loop)] // n is the node id under test
        for n in 0..16 {
            prop_assert_eq!(res.sink_delivered[n], expected[n], "node {}", n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sub_half_slot_drift_never_corrupts(
        drifts in prop::collection::vec(-49i64..=49, 8),
    ) {
        // §III-A margin property: with every node's calibration error inside
        // ±half a 100 ps slot, any interleaved gather stays perfect.
        let mut bus = BusSim::new(ChipLayout::square(20.0, 8), WavelengthPlan::paper_320g());
        for (n, &d) in drifts.iter().enumerate() {
            bus.set_timing_error(n, d);
        }
        let spec = GatherSpec::interleaved(8, 2, 4);
        let cps = pscan::compiler::CpCompiler.compile_gather(&spec, 8);
        let data: Vec<Vec<u64>> = (0..8).map(|n| vec![n as u64; 8]).collect();
        let out = bus.gather(&cps, &data).unwrap();
        prop_assert_eq!(out.utilization, 1.0);
    }

    #[test]
    fn past_half_slot_drift_always_corrupts(
        victim in 0usize..8,
        extra in 51i64..400,
        sign in prop::bool::ANY,
    ) {
        // And past the window, a fine (1-slot-per-node) interleave always
        // breaks: either a collision or a gap.
        let mut bus = BusSim::new(ChipLayout::square(20.0, 8), WavelengthPlan::paper_320g());
        bus.set_timing_error(victim, if sign { extra } else { -extra });
        let spec = GatherSpec::interleaved(8, 1, 4);
        let cps = pscan::compiler::CpCompiler.compile_gather(&spec, 8);
        let data: Vec<Vec<u64>> = (0..8).map(|n| vec![n as u64; 4]).collect();
        match bus.gather(&cps, &data) {
            Err(pscan::bus::BusError::Collision { .. }) => {}
            Ok(out) => prop_assert!(out.utilization < 1.0, "drift must corrupt"),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn model2_machine_numerics_for_random_k(
        k_pow in 0u32..=5,
        seed in 0u64..1000,
    ) {
        use psync::model2::run_model2_rows;
        let n = 128usize;
        let procs = 4usize;
        let rows: Vec<Vec<Complex64>> = (0..procs)
            .map(|p| {
                (0..n)
                    .map(|i| {
                        let v = ((p as u64 * 131 + i as u64 * 7 + seed) % 97) as f64 / 97.0;
                        Complex64::new(v - 0.5, (v * 2.0).sin())
                    })
                    .collect()
            })
            .collect();
        let run = run_model2_rows(procs, n, 1 << k_pow, &rows);
        for (p, row) in rows.iter().enumerate() {
            let mut reference = row.clone();
            fft_in_place(&mut reference);
            prop_assert!(
                max_error(&run.spectra[p], &reference) < 1e-3,
                "proc {}", p
            );
        }
    }
}
