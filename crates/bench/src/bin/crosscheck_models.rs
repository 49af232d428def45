//! Conformance oracle: every §V closed form differentially validated
//! against the cycle-accurate fabric that implements it (DESIGN.md §12).
//!
//! Six check families sweep (N, P, k, fault-rate) operating points:
//!
//! 1. `eq11` / `eq14` — the Model II machine ([`psync::run_model2_rows`])
//!    vs Eq. 11's total time and Eq. 14's efficiency, with `t_dk`
//!    recovered from the machine's own serialized measurement.
//! 2. `table3` — the SCA gather span and closed-form writeback cycles
//!    (Eqs. 23/24; 1,081,344 at paper scale).
//! 3. `eq21` / `eq22` — the wormhole mesh scatter vs the delivery closed
//!    form `P·F + P·√P·t_r` and its efficiency ratio.
//! 4. `fig11` — the Fig. 11 ideal curve vs Eq. 11 evaluated at the Eq. 19
//!    balance point (two independent derivations of the same curve).
//! 5. `eq20` — the required-bandwidth classification vs Eq. 15's
//!    compute-bound predicate, plus the SCA's sustained line rate vs the
//!    WDM plan's nominal bandwidth.
//! 6. `crc` — fault-rate sweep through the reliable-gather path, holding
//!    the retry/backoff/error accounting identities from outside.
//!
//! The harness exits nonzero on any divergence; rows land in
//! `results/crosscheck_models.json` shaped for `scripts/perf_gate.py`
//! (keyed on `policy`/`threads`, `cycles` as the deterministic witness).
//!
//! ```text
//! cargo run --release -p bench --bin crosscheck_models [--quick]
//! ```

use std::time::Instant;

use analytic::model::{FftParams, ModelIi};
use analytic::table3::Table3Params;
use bench::crosscheck::{
    check, check_exact_u64, eq21_scatter_cycles, failures, sca_writeback, witness, CheckRow,
    TOL_CLOSED_FORM, TOL_EQ21_MESH, TOL_LINE_RATE,
};
use bench::jobs::{CrosscheckSpec, Family};
use bench::{f, BenchError, Experiment};
use emesh::mesh::RoutingPolicy;
use emesh::workloads::eq21_delivery_cycles;
use pscan::compiler::GatherSpec;
use pscan::faults::PscanFaultConfig;
use pscan::network::{Pscan, PscanConfig};

/// Check 1: Eq. 11/14 vs the overlapped Model II machine, the
/// `crosscheck_models` job family's rows at its preset grid.
fn check_eq11_model2(quick: bool, rows_out: &mut Vec<CheckRow>) {
    let rows = CrosscheckSpec::preset(quick)
        .timed_rows(None)
        .expect("no interrupt installed");
    for (r, wall) in rows {
        rows_out.push(check(
            &r.check,
            &r.point,
            r.measured,
            r.predicted,
            r.tol,
            r.witness,
            wall,
        ));
    }
}

/// Check 2: Table III — SCA gather span and closed-form writeback cycles.
fn check_table3_pscan(quick: bool, rows_out: &mut Vec<CheckRow>) {
    let (procs, row_len) = if quick { (32, 32) } else { (1024, 1024) };
    let point = format!("P={procs},N={row_len}");
    eprintln!("crosscheck: table3 gather at {point} ...");
    let t0 = Instant::now();
    let wb = sca_writeback(procs, row_len).expect("gather compiles and runs");
    let wall = t0.elapsed().as_secs_f64();

    // A gap-free SCA moving S samples at one word per slot spans exactly S
    // slots at the terminus.
    let payload = (procs * row_len) as u64;
    rows_out.push(check_exact_u64(
        "table3_span",
        &point,
        wb.span_slots(),
        payload,
        wall,
    ));
    rows_out.push(check(
        "table3_utilization",
        &point,
        wb.utilization,
        1.0,
        0.0,
        payload,
        wall,
    ));

    // With DRAM-row headers added, the total equals Eqs. 23/24.
    let t3 = Table3Params {
        n: row_len as u64,
        p: procs as u64,
        ..Default::default()
    };
    rows_out.push(check_exact_u64(
        "table3_cycles",
        &point,
        payload + wb.header_slots,
        t3.pscan_cycles(),
        wall,
    ));
}

/// Check 3: Eq. 21/22 vs the wormhole mesh scatter.
fn check_eq21_mesh(quick: bool, rows_out: &mut Vec<CheckRow>) {
    let blocks: &[usize] = if quick {
        &[16, 64]
    } else {
        &[16, 64, 128, 256]
    };
    let nodes = 64usize;
    for &block in blocks {
        let point = format!("nodes={nodes},block={block}");
        eprintln!("crosscheck: eq21 mesh scatter at {point} ...");
        let t0 = Instant::now();
        let cycles = eq21_scatter_cycles(nodes, block, RoutingPolicy::Xy, None, None)
            .expect("scatter completes");
        let wall = t0.elapsed().as_secs_f64();
        let p = (nodes - 1) as u64;
        let flits = block as u64 + 1; // payload + header
        let predicted = eq21_delivery_cycles(p, flits, 1);
        rows_out.push(check(
            "eq21_delivery",
            &point,
            cycles as f64,
            predicted as f64,
            TOL_EQ21_MESH,
            cycles,
            wall,
        ));
        // Eq. 22 as a ratio: delivery efficiency = serial-injection bound /
        // actual, predicted by F/(F + √P·t_r) in Eq. 21's integer form.
        let measured_eta = (p * flits) as f64 / cycles as f64;
        let predicted_eta = (p * flits) as f64 / predicted as f64;
        rows_out.push(check(
            "eq22_efficiency",
            &point,
            measured_eta,
            predicted_eta,
            TOL_EQ21_MESH,
            witness(measured_eta),
            wall,
        ));
    }
}

/// Check 4: Fig. 11's ideal curve vs Eq. 11 at the Eq. 19 balance point.
fn check_fig11_ideal(rows_out: &mut Vec<CheckRow>) {
    let params = FftParams::default();
    let t0 = Instant::now();
    for k in [1u64, 2, 4, 8, 16, 32, 64] {
        let point = format!("P={},N={},k={k}", params.p, params.n);
        let t_ck = params.t_ck_ns(k);
        let model = ModelIi {
            p: params.p,
            t_dk: t_ck / params.p as f64, // Eq. 19 balance
            t_ck,
            k,
        };
        let predicted = params.t_c_ns(k) / (model.total_time() + params.t_cf_ns(k));
        let measured = analytic::fig11::psync_efficiency(&params, k, 0.0);
        let wall = t0.elapsed().as_secs_f64();
        rows_out.push(check(
            "fig11_ideal",
            &point,
            measured,
            predicted,
            TOL_CLOSED_FORM,
            witness(measured),
            wall,
        ));
    }
}

/// Check 5: Eq. 20's bandwidth requirement vs Eq. 15's boundedness
/// predicate, plus the SCA's sustained line rate vs the plan's nominal.
fn check_eq20_bandwidth(rows_out: &mut Vec<CheckRow>) {
    let params = FftParams::default();
    let delivered_gbps = PscanConfig::paper_default().plan.aggregate_gbps();
    let t0 = Instant::now();
    for k in [1u64, 2, 4, 8, 16, 32, 64] {
        let point = format!("P={},N={},k={k},W={delivered_gbps}", params.p, params.n);
        let required = params.required_bandwidth_gbps(k);
        // Independent classification through Eq. 15: deliver blocks at the
        // plan's line rate and ask the model which side of the knee we're on.
        let block_bits = (params.block_samples(k) * params.sample_bits) as f64;
        let model = ModelIi {
            p: params.p,
            t_dk: block_bits / delivered_gbps, // ns at W Gb/s
            t_ck: params.t_ck_ns(k),
            k,
        };
        let agree = model.is_compute_bound() == (required <= delivered_gbps);
        let wall = t0.elapsed().as_secs_f64();
        rows_out.push(check(
            "eq20_boundedness",
            &point,
            if agree { 1.0 } else { 0.0 },
            1.0,
            0.0,
            witness(required),
            wall,
        ));
    }

    // Sustained line rate: a gap-free SCA burst must deliver the plan's
    // aggregate bandwidth (the +1 fencepost slot is the only slack).
    let procs = 32usize;
    let words = 64usize;
    let point = format!("P={procs},slots={}", procs * words);
    eprintln!("crosscheck: eq20 line rate at {point} ...");
    let t1 = Instant::now();
    let wb = sca_writeback(procs, words).expect("gather runs");
    let measured_gbps = wb.bits as f64 / (wb.span_ps as f64 * 1e-12) / 1e9;
    rows_out.push(check(
        "eq20_line_rate",
        &point,
        measured_gbps,
        delivered_gbps,
        TOL_LINE_RATE,
        wb.bits,
        t1.elapsed().as_secs_f64(),
    ));
}

/// Check 6: CRC/retry accounting identities across a fault-rate sweep.
fn check_crc_accounting(rows_out: &mut Vec<CheckRow>) {
    let procs = 16usize;
    let spec = GatherSpec::interleaved(procs, 4, 1); // 64-slot burst
    let burst = spec.total_slots();
    let data: Vec<Vec<u64>> = (0..procs).map(|p| vec![p as u64 * 3 + 1; 4]).collect();
    for rate in [0.0, 1e-2, 5e-2] {
        let point = format!("P={procs},burst={burst},rate={rate}");
        eprintln!("crosscheck: crc accounting at {point} ...");
        let t0 = Instant::now();
        let mut pscan = Pscan::new(PscanConfig::paper_default().with_nodes(procs));
        pscan.set_faults(PscanFaultConfig {
            seed: 0xFA,
            word_error_rate: rate,
            max_retries: 256,
            ..Default::default()
        });
        let out = pscan
            .gather_reliable(&spec, &data)
            .expect("retry budget covers the swept rates");
        let wall = t0.elapsed().as_secs_f64();
        // Per-CP error attribution must account for every corrupted word.
        rows_out.push(check_exact_u64(
            "crc_error_attribution",
            &point,
            out.errors_by_node.iter().sum::<u64>(),
            out.corrupted_words,
            wall,
        ));
        // Bus occupancy decomposes exactly into bursts + backoff waits.
        rows_out.push(check_exact_u64(
            "crc_slot_accounting",
            &point,
            out.slots_on_bus,
            u64::from(out.attempts) * burst + out.backoff_slots,
            wall,
        ));
        // Retries are attempts minus the accepted pass.
        rows_out.push(check_exact_u64(
            "crc_retries",
            &point,
            u64::from(out.retries),
            u64::from(out.attempts) - 1,
            wall,
        ));
        if rate == 0.0 {
            // Rate 0 is exactly one clean pass with nothing corrupted.
            rows_out.push(check_exact_u64(
                "crc_clean_pass",
                &point,
                u64::from(out.attempts) + out.corrupted_words + out.backoff_slots,
                1,
                wall,
            ));
        }
    }
}

fn main() -> Result<(), BenchError> {
    let ex = Experiment::new("crosscheck_models");
    let quick = ex.quick();

    let mut rows: Vec<CheckRow> = Vec::new();
    check_eq11_model2(quick, &mut rows);
    check_table3_pscan(quick, &mut rows);
    check_eq21_mesh(quick, &mut rows);
    check_fig11_ideal(&mut rows);
    check_eq20_bandwidth(&mut rows);
    check_crc_accounting(&mut rows);

    let bad = failures(&rows);
    assert!(
        bad.is_empty(),
        "conformance violated — {} divergence(s):\n  {}",
        bad.len(),
        bad.join("\n  ")
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                f(r.measured, 6),
                f(r.predicted, 6),
                format!("{:.1e}", r.rel_err),
                format!("{:.0e}", r.tol),
                "ok".to_string(),
            ]
        })
        .collect();
    ex.table(
        "Cross-model conformance (§V closed forms vs cycle-accurate fabrics)",
        &[
            "check [point]",
            "measured",
            "predicted",
            "rel err",
            "tol",
            "",
        ],
        &table,
    )
    .note(format!(
        "{} checks, 0 divergences (invariants {})",
        rows.len(),
        if sim_core::invariants::ENABLED {
            "ON"
        } else {
            "compiled out"
        }
    ))
    .rows(&rows)
    .run()
}
