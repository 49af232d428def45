//! Property tests over the bus's per-node timing-error model and Model II
//! numerics:
//!
//! * a gather survives per-node clock drift inside ±half a slot and is
//!   corrupted by drift past it;
//! * the Model II machine's spectra match the monolithic FFT for any k.

use fft::complex::max_error;
use fft::{fft_in_place, Complex64};
use photonics::waveguide::ChipLayout;
use photonics::wdm::WavelengthPlan;
use proptest::prelude::*;
use pscan::bus::BusSim;
use pscan::compiler::GatherSpec;

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
