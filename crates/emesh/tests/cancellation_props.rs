//! Property tests for cancellation determinism (ISSUE 7 satellite).
//!
//! Cancellation must be an *observer*, not a participant: interrupting a
//! run at an arbitrary cycle may not perturb what a fresh, uninterrupted
//! rerun of the same configuration produces, and the cancellation payload
//! itself (cycle reached, partial progress counters, energy) must be a
//! deterministic function of the configuration and the bound.
//!
//! The deterministic [`Interrupt::with_cycle_bound`] source stands in for
//! the wall-clock sources here: token and deadline cancellations go
//! through the exact same poll site and error path, differing only in
//! *when* they fire, which is precisely what these properties quantify
//! over.

use emesh::mesh::{Mesh, MeshConfig, MeshError, RoutingPolicy};
use emesh::workloads::load_transpose;
use proptest::prelude::*;
use sim_core::cancel::{CancelCause, CancelToken, Interrupt};

/// A small transpose mesh: big enough to run for hundreds of cycles,
/// small enough for dozens of proptest cases.
fn build(procs: usize, row_len: usize) -> Mesh {
    let cfg = MeshConfig::table3(procs, 1).with_policy(RoutingPolicy::MinimalAdaptive);
    let mut mesh = load_transpose(cfg, procs, row_len);
    mesh.collect_sink_words(true);
    mesh
}

/// Every deterministic observable of a completed run, as one string.
fn fingerprint(mesh: &mut Mesh) -> String {
    let res = mesh.run().expect("uncancelled transpose completes");
    let nodes = res.sink_delivered.len() as u32;
    let words: Vec<Vec<u64>> = (0..nodes).map(|n| mesh.sink_words(n).to_vec()).collect();
    format!("{res:?}|{words:?}")
}

/// Run with a deterministic cycle bound installed; `Err` when the bound
/// fired, `Ok` when it fell past the final poll site (e.g. in the
/// trailing DRAM-drain window) and the run completed normally.
fn run_bounded(procs: usize, row_len: usize, bound: u64) -> Result<String, MeshError> {
    let mut mesh = build(procs, row_len);
    mesh.set_interrupt(Interrupt::new().with_cycle_bound(bound));
    match mesh.run() {
        Err(e) => Err(e),
        Ok(res) => {
            let nodes = res.sink_delivered.len() as u32;
            let words: Vec<Vec<u64>> = (0..nodes).map(|n| mesh.sink_words(n).to_vec()).collect();
            Ok(format!("{res:?}|{words:?}"))
        }
    }
}

/// Run to the deterministic cycle bound and return the full error payload.
fn cancelled_at(procs: usize, row_len: usize, bound: u64) -> MeshError {
    run_bounded(procs, row_len, bound).expect_err("cycle bound must cancel the run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cancelling at a random mid-run cycle, then rerunning the same
    /// configuration on a fresh mesh with no interrupt, reproduces the
    /// never-cancelled fingerprint exactly — cancellation leaves no
    /// residue in any observable. The cancellation payload itself is also
    /// deterministic: repeating the cancelled run gives the identical
    /// structured error.
    #[test]
    fn mid_run_cancel_leaves_no_residue(
        row_len in 8usize..48,
        bound_sel in 0u64..u64::MAX,
    ) {
        let procs = 16;
        let baseline = fingerprint(&mut build(procs, row_len));
        let cycles = build(procs, row_len)
            .run()
            .expect("completes")
            .cycles;
        prop_assert!(cycles > 1, "a {row_len}-word transpose takes cycles");
        let bound = 1 + bound_sel % (cycles - 1);

        match run_bounded(procs, row_len, bound) {
            Err(err) => {
                match &err {
                    MeshError::Cancelled { at_cycle, cause, .. } => {
                        prop_assert_eq!(*cause, CancelCause::CycleReached { bound });
                        prop_assert!(*at_cycle >= bound, "fired before the bound");
                        prop_assert!(*at_cycle <= cycles, "fired after completion");
                    }
                    other => prop_assert!(false, "expected Cancelled, got {other:?}"),
                }
                // The cancellation payload is itself deterministic...
                let again = cancelled_at(procs, row_len, bound);
                prop_assert_eq!(format!("{err:?}"), format!("{again:?}"));
            }
            // The bound fell past the final poll site (the run's trailing
            // drain has no serviced cycles left to poll on): the run must
            // then complete *exactly* as an uninterrupted one.
            Ok(fp) => prop_assert_eq!(&fp, &baseline),
        }

        // And a fresh uncancelled rerun is exact.
        prop_assert_eq!(&fingerprint(&mut build(procs, row_len)), &baseline);
    }

    /// Bound 0 cancels before any cycle is serviced: no flits have moved,
    /// every flit is still pending injection.
    #[test]
    fn cancel_at_cycle_zero_is_a_clean_preemption(row_len in 8usize..48) {
        match cancelled_at(16, row_len, 0) {
            MeshError::Cancelled { at_cycle, cause, in_flight, pending_inject, .. } => {
                prop_assert_eq!(at_cycle, 0);
                prop_assert_eq!(cause, CancelCause::CycleReached { bound: 0 });
                prop_assert_eq!(in_flight, 0, "no flit can be in flight at cycle 0");
                prop_assert!(pending_inject > 0, "the workload is still queued");
            }
            other => prop_assert!(false, "expected Cancelled, got {other:?}"),
        }
    }

    /// An armed interrupt that never fires — an unreachable cycle bound
    /// plus an untripped token — is invisible: the run completes with a
    /// fingerprint identical to a run with no interrupt installed.
    #[test]
    fn unfired_interrupt_is_invisible(row_len in 8usize..48) {
        let baseline = fingerprint(&mut build(16, row_len));
        let token = CancelToken::new();
        let mut mesh = build(16, row_len);
        mesh.set_interrupt(
            Interrupt::new()
                .with_cycle_bound(u64::MAX)
                .with_token(&token),
        );
        prop_assert_eq!(&fingerprint(&mut mesh), &baseline);
    }

    /// A token tripped *before* the watch is armed is invisible (stale
    /// cancellations cannot leak into a new run), while tripping it after
    /// arming cancels the run with the token cause.
    #[test]
    fn pre_armed_trip_is_invisible_and_post_armed_trip_cancels(row_len in 8usize..48) {
        let baseline = fingerprint(&mut build(16, row_len));

        let stale = CancelToken::new();
        stale.cancel();
        let mut mesh = build(16, row_len);
        mesh.set_interrupt(Interrupt::new().with_token(&stale));
        prop_assert_eq!(&fingerprint(&mut mesh), &baseline);

        let live = CancelToken::new();
        let mut mesh = build(16, row_len);
        let interrupt = Interrupt::new().with_token(&live);
        live.cancel();
        mesh.set_interrupt(interrupt);
        match mesh.run() {
            Err(MeshError::Cancelled { at_cycle, cause, .. }) => {
                prop_assert_eq!(cause, CancelCause::Cancelled);
                prop_assert_eq!(at_cycle, 0, "tripped before the run started");
            }
            other => prop_assert!(false, "expected Cancelled, got {other:?}"),
        }
    }
}
