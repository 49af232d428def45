//! `fft2d`: one §V-B distributed 2-D FFT per request (`psync::run_fft2d`).
//!
//! n = 256 on P = 16 processors, with an input matrix drawn from the seed.
//! pscan, memory (head-node DRAM streaming), the FFT kernels
//! (`Node::fft_rows`) and the psync phases share the work; emesh is idle.
//!
//! The traced request drives the six phases through `Machine`'s public
//! calls, as `run_fft2d` does, and must produce bit-identical output.
//! Memory and pscan time are measured afterwards, outside the request's
//! timed window, by replaying each phase's exact inputs through a fresh
//! `HeadNode` and a standalone `Pscan` in the same order.

use fft::complex::max_error;
use fft::fft2d::Matrix;
use fft::Complex64;
use pscan::compiler::{GatherSpec, ScatterSpec};
use pscan::network::{Pscan, PscanConfig};
use psync::fft_app::phase_names::{COL_FFT, DELIVER, REDELIVER, ROW_FFT, TRANSPOSE, WRITEBACK};
use psync::head::HeadNode;
use psync::sample::{decode_all, encode_all, encode_sample};
use psync::{run_fft2d, Machine, MachineConfig, PhaseTiming};
use sim_core::rng::child_seed;

use crate::{RequestView, Tracer, Workload};

/// Matrix edge.
pub const N: usize = 256;
/// Processors on the bus.
pub const PROCS: usize = 16;
const ROWS_PER: usize = N / PROCS;
const AREA: usize = N * N;

/// The `fft2d` workload.
#[derive(Debug)]
pub struct Fft2dWorkload {
    input: Matrix,
    /// The monolithic FFT of the input: the numerical reference.
    pub reference: Matrix,
    /// `run_fft2d`'s output on the warm-up request: every later request,
    /// traced or not, must match it bit for bit.
    pub expected: Matrix,
    replay: Option<Replay>,
}

/// What a traced request leaves for the replay and the counters.
#[derive(Debug)]
struct Replay {
    phases: Vec<PhaseTiming>,
    row_hits: u64,
    accesses: u64,
    multiplies: u64,
    transpose_words: Vec<Vec<u64>>,
    final_words: Vec<Vec<u64>>,
}

/// Uniform samples in [-1, 1) from the seed's SplitMix64 stream.
fn input(seed: u64) -> Matrix {
    let mut k = 0u64;
    let mut next = || {
        k += 1;
        (child_seed(seed, k) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    Matrix::from_fn(N, N, |_, _| Complex64::new(next(), next()))
}

fn machine_config() -> MachineConfig {
    MachineConfig::paper_default(PROCS, 2 * AREA)
}

/// DRAM region A (the problem, row-major) and region B (the transpose).
fn regions() -> (Vec<u64>, Vec<u64>) {
    let a = (0..AREA as u64).collect();
    let b = (0..AREA as u64).map(|k| AREA as u64 + k).collect();
    (a, b)
}

fn deliver_spec() -> ScatterSpec {
    ScatterSpec::blocked(PROCS, ROWS_PER * N)
}

/// Slot `k` of either writeback comes from the owner of row `k mod n`.
fn writeback_spec() -> GatherSpec {
    GatherSpec {
        slot_source: (0..AREA).map(|k| (k % N) / ROWS_PER).collect(),
    }
}

fn load(m: &mut Machine, delivered: Vec<Vec<u64>>) {
    for (node, words) in delivered.into_iter().enumerate() {
        m.nodes[node].load_data(decode_all(&words));
    }
}

/// Each node's rows, column by column: the transpose writeback stream.
fn column_words(m: &Machine) -> Vec<Vec<u64>> {
    (0..PROCS)
        .map(|p| {
            let mut words = Vec::with_capacity(ROWS_PER * N);
            for c in 0..N {
                for r in 0..ROWS_PER {
                    words.push(encode_sample(m.nodes[p].data[r * N + c]));
                }
            }
            words
        })
        .collect()
}

impl Workload for Fft2dWorkload {
    type Output = Matrix;

    fn setup(seed: u64) -> Self {
        let input = input(seed);
        let reference = fft::Fft2d::new(N, N).forward(&input);
        let expected = run_fft2d(PROCS, &input).output;
        Fft2dWorkload {
            input,
            reference,
            expected,
            replay: None,
        }
    }

    fn run(&mut self) -> Matrix {
        run_fft2d(PROCS, &self.input).output
    }

    fn run_traced(&mut self, tr: &mut Tracer) -> Matrix {
        let input = &self.input;
        let mut m = tr.span("psync.setup", |_| {
            let mut m = Machine::new(machine_config());
            m.head.fill(0, &encode_all(&input.data));
            m
        });
        let (addrs_a, addrs_b) = tr.span("psync.setup", |_| regions());
        let deliver = tr.span("psync.setup", |_| deliver_spec());

        let words = tr.span("psync.scatter", |_| {
            m.scatter_from_memory(DELIVER, &addrs_a, &deliver)
        });
        tr.span("psync.marshal", |_| load(&mut m, words));
        tr.span("psync.compute", |tr| {
            m.compute_phase(ROW_FFT, |node| tr.span("fft", |_| node.fft_rows(N)))
        });
        let transpose_words = tr.span("psync.marshal", |_| column_words(&m));
        tr.span("psync.gather", |_| {
            m.gather_to_memory(TRANSPOSE, &writeback_spec(), &transpose_words, &addrs_b)
        });
        let words = tr.span("psync.scatter", |_| {
            m.scatter_from_memory(REDELIVER, &addrs_b, &deliver)
        });
        tr.span("psync.marshal", |_| load(&mut m, words));
        tr.span("psync.compute", |tr| {
            m.compute_phase(COL_FFT, |node| tr.span("fft", |_| node.fft_rows(N)))
        });
        let final_words = tr.span("psync.marshal", |_| column_words(&m));
        tr.span("psync.gather", |_| {
            m.gather_to_memory(WRITEBACK, &writeback_spec(), &final_words, &addrs_a)
        });
        let stats = m.head.dram_stats();
        let multiplies = m.nodes.iter().map(|n| n.multiplies).sum();
        let (output, phases) = tr.span("psync.marshal", move |_| {
            let output = Matrix {
                rows: N,
                cols: N,
                data: decode_all(m.head.read_region(0, AREA)),
            };
            (output, std::mem::take(&mut m.phases))
        });
        self.replay = Some(Replay {
            phases,
            row_hits: stats.hits,
            accesses: stats.accesses,
            multiplies,
            transpose_words,
            final_words,
        });
        output
    }

    fn account(&mut self, _out: &Matrix, tr: &mut Tracer) {
        let Some(r) = self.replay.take() else {
            return;
        };
        let cfg = machine_config();
        let mut head = HeadNode::new(cfg.dram, cfg.dram_words);
        head.fill(0, &encode_all(&self.input.data));
        let pscan = Pscan::new(PscanConfig {
            nodes: cfg.procs,
            die_mm: cfg.die_mm,
            plan: cfg.plan.clone(),
        });
        let (addrs_a, addrs_b) = regions();
        let (deliver, writeback) = (deliver_spec(), writeback_spec());
        // The machine's DRAM and bus calls, in phase order.
        let mut replay_cycles = 0;
        for (src, dst, words) in [
            (&addrs_a, &addrs_b, &r.transpose_words),
            (&addrs_b, &addrs_a, &r.final_words),
        ] {
            let (burst, cycles) = tr.span("memory", |_| head.stream_out(src.iter().copied()));
            replay_cycles += cycles;
            let scattered = tr.span("pscan", |_| pscan.scatter(&deliver, &burst));
            std::hint::black_box(scattered.ok());
            let gathered = tr.span("pscan", |_| pscan.gather(&writeback, words));
            let received: Vec<u64> = gathered
                .map(|g| g.received.into_iter().map(|w| w.unwrap_or(0)).collect())
                .unwrap_or_default();
            replay_cycles += tr.span("memory", |_| {
                head.stream_in(dst.iter().copied().zip(received))
            });
        }
        let sum = |f: fn(&PhaseTiming) -> u64| r.phases.iter().map(f).sum::<u64>() as f64;
        tr.count("psync.bus_slots", sum(|p| p.bus_slots));
        tr.count("memory.dram_cycles", sum(|p| p.dram_cycles));
        // Equal to `memory.dram_cycles` when the replay repeats the
        // request's DRAM traffic exactly.
        tr.count("memory.replay_dram_cycles", replay_cycles as f64);
        tr.count("memory.row_hits", r.row_hits as f64);
        tr.count("memory.accesses", r.accesses as f64);
        tr.count("fft.multiplies", r.multiplies as f64);
    }

    fn layer_metrics(r: &RequestView) -> Vec<(&'static str, f64)> {
        let (scatter, gather, compute) = (
            r.ms("psync.scatter"),
            r.ms("psync.gather"),
            r.ms("psync.compute"),
        );
        let (pscan, memory, fft) = (r.ms("pscan"), r.ms("memory"), r.ms("fft"));
        // psync's own time, measured directly: set-up, marshalling, and the
        // compute phase outside the FFT kernels. What the scatter and gather
        // phases add around pscan and memory is below the replay's noise, so
        // it is not estimated by subtracting the replay.
        let psync_self = r.ms("psync.setup") + r.ms("psync.marshal") + compute - fft;
        let slots = r.counter("psync.bus_slots");
        let accesses = r.counter("memory.accesses");
        let multiplies = r.counter("fft.multiplies");
        vec![
            ("psync.scatter_ms", scatter),
            ("psync.gather_ms", gather),
            ("psync.compute_ms", compute),
            ("psync.self_ms", psync_self),
            ("psync.bus_slots", slots),
            ("pscan.ms", pscan),
            ("pscan.ns_per_slot", pscan * 1e6 / slots),
            ("memory.ms", memory),
            ("memory.dram_cycles", r.counter("memory.dram_cycles")),
            (
                "memory.row_hit_ratio",
                r.counter("memory.row_hits") / accesses,
            ),
            ("memory.ns_per_access", memory * 1e6 / accesses),
            ("fft.ms", fft),
            ("fft.multiplies", multiplies),
            ("fft.ns_per_multiply", fft * 1e6 / multiplies),
        ]
    }

    fn check(&self, out: &Matrix) -> bool {
        let same_bits = |a: &Complex64, b: &Complex64| {
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
        };
        out.data.len() == self.reference.data.len()
            && out.data.len() == self.expected.data.len()
            && out.data.iter().zip(&self.expected.data).all(|(a, b)| same_bits(a, b))
            // The wire format quantizes to f32 at each of four transports;
            // spectrum magnitudes grow with n (psync's own bound).
            && max_error(&out.data, &self.reference.data) < 1e-3 * N as f64
    }
}
