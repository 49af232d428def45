//! Pinned observables of the sequential mesh executor.
//!
//! Every deterministic observable of a run — completion cycle, energy and
//! memory-interface counters, fault statistics, the latency histogram,
//! per-node sink deliveries and payload words, and the per-router forward
//! heatmap — is rendered and reduced to a 64-bit FNV-1a fingerprint. The
//! constants below were recorded from the service loop the golden transpose
//! tests pin; any change to service order, fault evaluation, latency or
//! telemetry bookkeeping moves at least one of them.
//!
//! Grid: 3 transpose sizes × 2 routing policies × fault injection on/off,
//! uniform-random permutation traffic under both policies, and one
//! instrumented run (telemetry + latency, with and without faults) whose
//! rendered result and full telemetry dump are pinned separately. A thread
//! request above 1 must reproduce the same values and say that it ran
//! sequentially.
//!
//! A second grid leaves the square single-corner mesh: a non-square 6×5
//! mesh and the 6×5 torus, at buffer depths 1 and 4 and at `t_r = 3`,
//! under both policies, with memory-interface traffic and a second wave
//! injected after the first drains. Two more runs of that workload wake
//! routers 64 or more cycles ahead (`t_p = 80`, and 100-cycle link
//! outages), past the wake wheel's window, so its overflow heap is pinned
//! too.

use emesh::flit::Packet;
use emesh::memif::MemifConfig;
use emesh::mesh::{Mesh, MeshConfig, MeshRunResult, RoutingPolicy, RunWarning};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::{load_transpose, load_uniform_random};
use emesh::MeshFaultConfig;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every deterministic observable of a run, in one bundle whose `Debug`
/// rendering is fingerprinted.
#[derive(Debug)]
#[allow(dead_code)] // fields are read only through `Debug`
struct Observables {
    cycles: u64,
    energy: String,
    memif_stats: String,
    fault_stats: String,
    latency: String,
    sink_delivered: Vec<u64>,
    sink_last_cycle: Vec<u64>,
    router_forwards: Vec<u64>,
    sink_words: Vec<Vec<u64>>,
}

impl Observables {
    fn fingerprint(&self) -> u64 {
        fnv1a64(format!("{self:?}").as_bytes())
    }
}

fn observe(mesh: &Mesh, res: &MeshRunResult) -> Observables {
    let nodes = res.sink_delivered.len();
    Observables {
        cycles: res.cycles,
        energy: format!("{:?}", res.energy),
        memif_stats: format!("{:?}", res.memif_stats),
        fault_stats: format!("{:?}", res.faults),
        latency: format!("{:?}", res.latency),
        sink_delivered: res.sink_delivered.clone(),
        sink_last_cycle: res.sink_last_cycle.clone(),
        router_forwards: res.router_forwards.clone(),
        sink_words: (0..nodes as u32)
            .map(|n| mesh.sink_words(n).to_vec())
            .collect(),
    }
}

/// A transpose run and the warnings it raised, with `threads` requested.
fn run_transpose(
    procs: usize,
    row_len: usize,
    policy: RoutingPolicy,
    faults: bool,
    threads: usize,
) -> (Observables, Vec<RunWarning>) {
    let cfg = MeshConfig::table3(procs, 1)
        .with_policy(policy)
        .with_threads(threads);
    let mut mesh = load_transpose(cfg, procs, row_len);
    mesh.collect_sink_words(true);
    if faults {
        mesh.enable_faults(MeshFaultConfig {
            seed: 7,
            corrupt_rate: 0.01,
            max_retransmits: 16,
            ..Default::default()
        });
    }
    let res = mesh.run().expect("transpose completes");
    (observe(&mesh, &res), res.warnings)
}

/// `(procs, row_len, policy, faults, cycles, observables fingerprint)`.
/// Transpose traffic to the single corner interface only ever heads west
/// or north, so the west-first adaptive policy never has a choice and both
/// policies pin the same values.
#[rustfmt::skip]
const TRANSPOSE_GRID: [(usize, usize, RoutingPolicy, bool, u64, u64); 12] = [
    (16, 16, RoutingPolicy::Xy, false, 957, 0x3a57_b008_5d56_24ce),
    (16, 16, RoutingPolicy::Xy, true, 975, 0x98df_3f23_4863_faf7),
    (16, 16, RoutingPolicy::MinimalAdaptive, false, 957, 0x3a57_b008_5d56_24ce),
    (16, 16, RoutingPolicy::MinimalAdaptive, true, 975, 0x98df_3f23_4863_faf7),
    (16, 64, RoutingPolicy::Xy, false, 3822, 0x5572_fc37_8471_28dd),
    (16, 64, RoutingPolicy::Xy, true, 3900, 0x7874_a741_c87e_63b5),
    (16, 64, RoutingPolicy::MinimalAdaptive, false, 3822, 0x5572_fc37_8471_28dd),
    (16, 64, RoutingPolicy::MinimalAdaptive, true, 3900, 0x7874_a741_c87e_63b5),
    (64, 32, RoutingPolicy::Xy, false, 7011, 0x62bd_c3b6_704a_5069),
    (64, 32, RoutingPolicy::Xy, true, 7470, 0x9247_4b56_868f_2c76),
    (64, 32, RoutingPolicy::MinimalAdaptive, false, 7011, 0x62bd_c3b6_704a_5069),
    (64, 32, RoutingPolicy::MinimalAdaptive, true, 7470, 0x9247_4b56_868f_2c76),
];

#[test]
fn transpose_grid_matches_pinned_observables() {
    let mut got = Vec::new();
    for (procs, row_len, policy, faults, _, _) in TRANSPOSE_GRID {
        let (obs, _) = run_transpose(procs, row_len, policy, faults, 1);
        got.push((
            procs,
            row_len,
            policy,
            faults,
            obs.cycles,
            obs.fingerprint(),
        ));
    }
    assert_eq!(got, TRANSPOSE_GRID.to_vec());
}

/// `(policy, cycles, observables fingerprint)` of 64-node uniform-random
/// permutation traffic (8 words per packet, 3 packets per node, seed 42).
const UNIFORM_RANDOM: [(RoutingPolicy, u64, u64); 2] = [
    (RoutingPolicy::Xy, 193, 0x3961_d55b_271d_2c8e),
    (RoutingPolicy::MinimalAdaptive, 247, 0xdfe7_3fd7_0307_717a),
];

#[test]
fn uniform_random_matches_pinned_observables() {
    let mut got = Vec::new();
    for (policy, _, _) in UNIFORM_RANDOM {
        let cfg = MeshConfig::table3(64, 1).with_policy(policy);
        let (mut mesh, _) = load_uniform_random(cfg, 8, 3, 42);
        mesh.collect_sink_words(true);
        let res = mesh.run().expect("random traffic drains");
        let obs = observe(&mesh, &res);
        assert!(obs.sink_delivered.iter().sum::<u64>() > 0);
        got.push((policy, obs.cycles, obs.fingerprint()));
    }
    assert_eq!(got, UNIFORM_RANDOM.to_vec());
}

/// Uniform-random traffic plus two packets per node to its nearest memory
/// interface on a 6×5 grid, run to completion; then a second wave injected
/// mid-run and drained. Returns both completion cycles and the fingerprint
/// of both runs' observables (or of the error, should a run fail).
fn run_geometry(torus: bool, policy: RoutingPolicy, depth: usize, t_r: u64) -> (u64, u64, u64) {
    let topology = Topology::rect(6, 5, MemifPlacement::FourCorners).with_torus(torus);
    let cfg = MeshConfig::paper_default()
        .with_topology(topology)
        .with_policy(policy)
        .with_buffers(depth)
        .with_t_r(t_r)
        .with_max_cycles(1 << 20);
    run_two_waves(cfg, None)
}

/// The two-wave workload of [`run_geometry`] on `cfg`, with `faults`
/// attached when given.
fn run_two_waves(cfg: MeshConfig, faults: Option<MeshFaultConfig>) -> (u64, u64, u64) {
    let topology = cfg.topology;
    let (mut mesh, mut id) = load_uniform_random(cfg, 8, 4, 42);
    mesh.collect_sink_words(true);
    if let Some(f) = faults {
        mesh.enable_faults(f);
    }
    mesh.track_latency(4, 256);
    let n = topology.nodes() as u32;
    for src in 0..n {
        for k in 0..2u64 {
            let memif = topology.nearest_memif(src);
            let addr = u64::from(src) * 8 + k;
            mesh.inject_packet(src, &Packet::with_header(memif, id, vec![addr]));
            id += 1;
        }
    }
    let mut cycles = [0u64; 2];
    let mut rendered = String::new();
    for (wave, done) in cycles.iter_mut().enumerate() {
        if wave == 1 {
            for src in (0..n).step_by(3) {
                let dest = (src * 7 + 1) % n;
                if dest != src {
                    mesh.inject_packet(src, &Packet::with_header(dest, id, vec![id; 3]));
                    id += 1;
                }
            }
        }
        match mesh.run() {
            Ok(res) => {
                *done = res.cycles;
                rendered += &format!("{:?}", observe(&mesh, &res));
            }
            Err(e) => rendered += &format!("{e:?}"),
        }
    }
    (cycles[0], cycles[1], fnv1a64(rendered.as_bytes()))
}

/// `(torus, policy, buffer depth, t_r, first-wave cycles, second-wave
/// cycles, fingerprint)`. On the torus the adaptive policy takes the
/// deterministic shortest-direction route, so both policies pin the same
/// values there.
#[rustfmt::skip]
const GEOMETRY_GRID: [(bool, RoutingPolicy, usize, u64, u64, u64, u64); 12] = [
    (false, RoutingPolicy::Xy, 1, 1, 245, 261, 0x81b8_80c0_bdac_22af),
    (false, RoutingPolicy::Xy, 4, 1, 104, 118, 0x75e3_9f76_d2d5_6360),
    (false, RoutingPolicy::Xy, 2, 3, 209, 233, 0x6bd4_67fa_0665_a4bc),
    (false, RoutingPolicy::MinimalAdaptive, 1, 1, 250, 266, 0x8539_9d95_f83a_d22b),
    (false, RoutingPolicy::MinimalAdaptive, 4, 1, 129, 143, 0x1d34_8a08_171e_a84a),
    (false, RoutingPolicy::MinimalAdaptive, 2, 3, 222, 246, 0xa6e1_ce1e_777c_0be8),
    (true, RoutingPolicy::Xy, 1, 1, 199, 213, 0xe74f_1994_a559_3056),
    (true, RoutingPolicy::Xy, 4, 1, 98, 110, 0x08f2_38a6_c38e_7259),
    (true, RoutingPolicy::Xy, 2, 3, 243, 263, 0x72a0_0990_491b_c865),
    (true, RoutingPolicy::MinimalAdaptive, 1, 1, 199, 213, 0xe74f_1994_a559_3056),
    (true, RoutingPolicy::MinimalAdaptive, 4, 1, 98, 110, 0x08f2_38a6_c38e_7259),
    (true, RoutingPolicy::MinimalAdaptive, 2, 3, 243, 263, 0x72a0_0990_491b_c865),
];

#[test]
fn geometry_grid_matches_pinned_observables() {
    let got: Vec<_> = GEOMETRY_GRID
        .iter()
        .map(|&(torus, policy, depth, t_r, ..)| {
            let (first, second, fp) = run_geometry(torus, policy, depth, t_r);
            (torus, policy, depth, t_r, first, second, fp)
        })
        .collect();
    assert_eq!(got, GEOMETRY_GRID.to_vec());
}

/// `(case, first-wave cycles, second-wave cycles, fingerprint)` of runs
/// whose wakeups land 64 or more cycles ahead of the cycle being serviced:
/// beyond the wake wheel's window, so they take its overflow path. A
/// 6×5 mesh with `t_p = 80` at every memory interface (a blocked ejection
/// sleeps until the reorder unit frees), and the same mesh at `t_p = 1`
/// with transient link outages lasting 100 cycles.
#[rustfmt::skip]
const FAR_WAKES: [(&str, u64, u64, u64); 2] = [
    ("t_p=80", 1398, 1412, 0x0b13_d665_8dfe_cf72),
    ("link_down_cycles=100", 1918, 2130, 0x96a5_f354_c2bc_9b13),
];

#[test]
fn far_future_wakes_match_pinned_observables() {
    let cfg = |t_p: u64| {
        MeshConfig::paper_default()
            .with_topology(Topology::rect(6, 5, MemifPlacement::FourCorners))
            .with_memif(MemifConfig {
                t_p,
                ..Default::default()
            })
            .with_max_cycles(1 << 20)
    };
    let outages = MeshFaultConfig {
        seed: 5,
        link_down_rate: 0.05,
        link_down_cycles: 100,
        ..Default::default()
    };
    let runs = [
        ("t_p=80", run_two_waves(cfg(80), None)),
        ("link_down_cycles=100", run_two_waves(cfg(1), Some(outages))),
    ];
    let got: Vec<_> = runs
        .iter()
        .map(|&(case, (first, second, fp))| (case, first, second, fp))
        .collect();
    assert_eq!(got, FAR_WAKES.to_vec());
}

/// An instrumented run: telemetry registry, latency histogram, and (when
/// `faults` is set) corruption + transient link outages + retransmission,
/// all attached at once. Returns the fingerprints of the observables, of
/// the rendered result, and of the full telemetry metrics dump.
fn run_instrumented(faults: bool) -> (u64, u64, u64) {
    let cfg = MeshConfig::table3(16, 2).with_policy(RoutingPolicy::MinimalAdaptive);
    let mut mesh = load_transpose(cfg, 16, 48);
    mesh.collect_sink_words(true);
    mesh.enable_telemetry();
    mesh.track_latency(4, 512);
    if faults {
        mesh.enable_faults(MeshFaultConfig {
            seed: 11,
            corrupt_rate: 0.008,
            link_down_rate: 0.002,
            link_down_cycles: 6,
            max_retransmits: 32,
            nack_delay: 5,
            ..Default::default()
        });
    }
    let res = mesh.run().expect("instrumented transpose completes");
    if faults {
        let stats = res.faults.expect("fault layer attached");
        assert!(stats.corrupted_flits > 0 && stats.link_down_events > 0);
    }
    let obs = observe(&mesh, &res).fingerprint();
    let rendered = fnv1a64(format!("{res:?}").as_bytes());
    let metrics = fnv1a64(
        mesh.telemetry()
            .expect("telemetry enabled")
            .metrics_json()
            .as_bytes(),
    );
    (obs, rendered, metrics)
}

/// `(observables, rendered result, telemetry dump)` fingerprints of the
/// instrumented run without faults.
const INSTRUMENTED: (u64, u64, u64) = (
    0xbdcb_f83c_80a4_661b,
    0x274a_cd46_48ad_32b7,
    0xd42a_c388_f6a1_1129,
);

/// The same with corruption, link outages and retransmission attached.
const INSTRUMENTED_FAULTED: (u64, u64, u64) = (
    0x2f00_2ba2_37ab_565b,
    0x2bb6_11be_c029_9619,
    0xa4e6_cd10_2a84_1712,
);

#[test]
fn instrumented_run_matches_pinned_fingerprints() {
    let got = run_instrumented(false);
    assert_eq!(got, INSTRUMENTED);
}

#[test]
fn faulted_instrumented_run_matches_pinned_fingerprints() {
    let got = run_instrumented(true);
    assert_eq!(got, INSTRUMENTED_FAULTED);
}

/// Requesting worker threads is not an error and changes no observable:
/// the run is sequential and reports so in the structured warning list.
/// A one-thread request leaves the list empty.
#[test]
fn thread_request_runs_sequentially_with_a_structured_warning() {
    let (procs, row_len, policy, faults, cycles, fingerprint) = TRANSPOSE_GRID[1];
    let (obs, warnings) = run_transpose(procs, row_len, policy, faults, 1);
    assert_eq!((obs.cycles, obs.fingerprint()), (cycles, fingerprint));
    assert_eq!(warnings, vec![]);
    let (obs, warnings) = run_transpose(procs, row_len, policy, faults, 4);
    assert_eq!((obs.cycles, obs.fingerprint()), (cycles, fingerprint));
    assert_eq!(warnings, vec![RunWarning::SequentialOnly { requested: 4 }]);
    // The warning renders as a sentence for run summaries.
    assert!(warnings[0].to_string().contains("sequential"));
}
