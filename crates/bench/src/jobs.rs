//! Typed experiment job specifications shared by the standalone harness
//! binaries, the supervised batch driver (`run_batch`), and the experiment
//! daemon (`psyncd`).
//!
//! [`JobSpec`] is the one request surface: a versioned
//! ([`SCHEMA_VERSION`]) enum covering every experiment family the
//! supervision layer can route —
//!
//! * **`table3`** — the Table III transpose (PSCAN closed form plus the
//!   `t_p = 1`/`t_p = 4` mesh simulations), the reference workload whose
//!   supervised result file is byte-identical to the direct
//!   `table3_transpose` bin;
//! * **`perf_mesh`** — one mesh transpose at a chosen routing policy and
//!   thread count, reduced to its deterministic witness (cycles and flit
//!   moves; the `perf_mesh` bin adds wall-clock around the same core);
//! * **`ablate_faults`** — the fault-rate degradation sweep over both
//!   fabrics (shared point functions with the `ablate_faults` bin);
//! * **`crosscheck_models`** — the Eq. 11/14 conformance checks of the
//!   cycle-accurate Model II machine against the §V closed forms;
//! * **`full_matrix`** — the complete 21-row ablation matrix under the
//!   multi-fidelity engine ([`crate::fidelity`]): each row answered from
//!   the validated closed form where an envelope covers it, simulated
//!   where not, with a [`crate::fidelity::FidelityDecision`] on every row;
//! * **`collectives`** — all-to-all / all-gather / all-reduce traffic on
//!   both fabrics over a chosen mesh/torus geometry (shared cores with the
//!   `collectives` bin).
//!
//! Every family's result is a deterministic JSON document, which is what
//! makes the exact result cache ([`crate::cache`]) sound: the cache key is
//! [`JobSpec::canonical_json`] (plus the deadline bits), and a hit returns
//! the exact bytes a fresh run would have produced.
//!
//! [`supervised_work`] packages a spec as a [`crate::supervisor`] job body
//! with cache lookup, per-job cancellation, and partial-progress
//! reporting — the single code path `run_batch` and `psyncd` both route
//! through.

use std::sync::Arc;

use analytic::surrogate::{
    mesh_scatter_cycles, model2_point, table3_writeback_cycles, Model2TimingParams,
};
use analytic::table3::{
    table3_pscan_cycles, Table3Params, PAPER_MESH_WRITEBACK_TP1, PAPER_MESH_WRITEBACK_TP4,
};
use emesh::collectives::run_mesh_collective;
use emesh::energy::OrionParams;
use emesh::mesh::{MeshConfig, MeshError, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::{load_scatter, load_transpose};
use emesh::{MeshFaultConfig, MeshFaultStats};
use fft::Complex64;
use pscan::compiler::GatherSpec;
use pscan::faults::PscanFaultConfig;
use pscan::network::{Pscan, PscanConfig};
use psync::collectives::run_sca_collective;
use psync::machine::{Machine, MachineConfig, MachineError};
use rayon::prelude::*;
use serde::{Serialize, Value};
use sim_core::cancel::{CancelToken, Interrupt, Progress};
use sim_core::collective::Collective;
use sim_core::telemetry::Registry;

use crate::cache::{fnv1a64, ResultCache};
use crate::fidelity::{
    decide, record_decision, FidelityDecision, FidelityPolicy, PointConfig, ValidationRegistry,
};
use crate::supervisor::{JobSuccess, Work, WorkError};

/// Version of the [`JobSpec`] request schema. Bumped when a field changes
/// meaning; embedded in [`JobSpec::canonical_json`] so cache keys from
/// different schema generations can never collide.
///
/// v2: the `full_matrix` family and its `fidelity` field — results now
/// depend on the fidelity policy, so specs carrying one must never share a
/// cache generation with v1 keys that could not express it.
///
/// v3: the `collectives` family (all-to-all / all-gather / all-reduce over
/// both fabrics) and rectangular/torus geometry fields. Purely additive:
/// every schema-2 request body still parses (see the
/// `schema2_requests_still_parse` test), but cache generations must not mix.
pub const SCHEMA_VERSION: u32 = 3;

// ---------------------------------------------------------------------------
// Per-family specifications
// ---------------------------------------------------------------------------

/// The Table III workload configuration: everything that determines the
/// resulting cycle counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table3Spec {
    /// Mesh/PSCAN processor count `P` (a perfect square for the mesh).
    pub procs: usize,
    /// Samples per processor row, `N`.
    pub row_len: usize,
    /// Worker threads requested of the mesh. The executor is sequential,
    /// so results are bit-identical for any value.
    pub threads: usize,
}

impl Table3Spec {
    /// The `--quick` configuration (256 processors, 256-sample rows).
    pub fn quick() -> Self {
        Table3Spec {
            procs: 256,
            row_len: 256,
            threads: 1,
        }
    }

    /// The full paper configuration (P = 1024, N = 1024).
    pub fn paper() -> Self {
        Table3Spec {
            procs: 1024,
            row_len: 1024,
            threads: 1,
        }
    }

    /// Canonical JSON of this spec alone (the [`JobSpec::canonical_json`]
    /// envelope adds the schema version and family tag).
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("Table3Spec serializes")
    }
}

/// One mesh-transpose performance point, reduced to deterministic fields.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PerfMeshSpec {
    /// Mesh processor count (a perfect square).
    pub procs: usize,
    /// Samples per processor row.
    pub row_len: usize,
    /// Routing policy: `"MinimalAdaptive"` or `"Xy"`.
    pub policy: String,
    /// Memory port service time `t_p`.
    pub t_p: u64,
    /// Worker threads (bit-identical results for any value).
    pub threads: usize,
}

impl PerfMeshSpec {
    /// The `--quick` configuration.
    pub fn quick() -> Self {
        PerfMeshSpec {
            procs: 256,
            row_len: 256,
            policy: "MinimalAdaptive".to_string(),
            t_p: 1,
            threads: 1,
        }
    }

    /// The full paper-scale configuration (the 2²⁰-element transpose).
    pub fn paper() -> Self {
        PerfMeshSpec {
            procs: 1024,
            row_len: 1024,
            ..PerfMeshSpec::quick()
        }
    }

    /// Parse the policy string.
    pub fn routing_policy(&self) -> Result<RoutingPolicy, String> {
        match self.policy.as_str() {
            "MinimalAdaptive" | "minimal_adaptive" => Ok(RoutingPolicy::MinimalAdaptive),
            "Xy" | "xy" => Ok(RoutingPolicy::Xy),
            other => Err(format!(
                "unknown routing policy {other:?} (expected MinimalAdaptive or Xy)"
            )),
        }
    }
}

/// The fault-injection degradation sweep over both fabrics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AblateFaultsSpec {
    /// Word/flit error probabilities to sweep, each in `[0, 1)`.
    pub rates: Vec<f64>,
    /// Mesh processor count for the transpose (a perfect square).
    pub procs: usize,
    /// Samples per processor row.
    pub row_len: usize,
    /// SCA writeback bursts on the photonic machine.
    pub gathers: usize,
    /// Mesh worker threads.
    pub threads: usize,
}

impl AblateFaultsSpec {
    /// The `--quick` configuration the `ablate_faults` bin uses.
    pub fn quick() -> Self {
        AblateFaultsSpec {
            rates: FAULT_RATES.to_vec(),
            procs: 16,
            row_len: 16,
            gathers: 4,
            threads: 1,
        }
    }

    /// The full configuration the `ablate_faults` bin uses.
    pub fn paper() -> Self {
        AblateFaultsSpec {
            procs: 64,
            row_len: 64,
            gathers: 16,
            ..AblateFaultsSpec::quick()
        }
    }
}

/// The Eq. 11/14 conformance check: the overlapped Model II machine vs the
/// §V closed forms, at a grid of block counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrosscheckSpec {
    /// Processor count.
    pub procs: usize,
    /// Samples per row.
    pub n: usize,
    /// Blocks-per-row values to check.
    pub ks: Vec<usize>,
}

impl CrosscheckSpec {
    /// The `--quick` grid the `crosscheck_models` bin uses for check 1.
    pub fn quick() -> Self {
        CrosscheckSpec {
            procs: 8,
            n: 64,
            ks: vec![1, 4, 8],
        }
    }

    /// The full grid the `crosscheck_models` bin uses for check 1.
    pub fn paper() -> Self {
        CrosscheckSpec {
            procs: 16,
            n: 1024,
            ks: vec![1, 8, 64],
        }
    }
}

/// The 21-row ablation matrix under the multi-fidelity engine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FullMatrixSpec {
    /// Point sizing: `"quick"` (per-PR) or `"paper"` (full scale).
    pub scale: String,
    /// Fidelity policy, in [`FidelityPolicy::parse`] spelling
    /// (`analytic` / `cycle_accurate` / `auto` / `auto:<rel_err>`). Part
    /// of the canonical JSON, so runs at different fidelities can never
    /// share a cache entry.
    pub fidelity: String,
    /// Also run the all-cycle-accurate reference pass and attach
    /// per-row disagreement columns.
    pub reference: bool,
}

impl FullMatrixSpec {
    /// The `--quick` configuration: small points, Auto fidelity, with the
    /// cycle-accurate reference pass (cheap at this scale, and it is what
    /// lets CI assert every analytic row sits inside its envelope).
    pub fn quick() -> Self {
        FullMatrixSpec {
            scale: "quick".to_string(),
            fidelity: "auto".to_string(),
            reference: true,
        }
    }

    /// The full-scale configuration: paper-size points, Auto fidelity, no
    /// reference pass — the whole point is that full scale no longer costs
    /// a full simulation sweep.
    pub fn paper() -> Self {
        FullMatrixSpec {
            scale: "paper".to_string(),
            fidelity: "auto".to_string(),
            reference: false,
        }
    }

    /// Parse the fidelity field.
    pub fn policy(&self) -> Result<FidelityPolicy, String> {
        FidelityPolicy::parse(&self.fidelity)
    }
}

/// The collective-traffic comparison: all three collectives on both
/// fabrics over one mesh/torus geometry.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CollectivesSpec {
    /// Mesh width (columns).
    pub width: usize,
    /// Mesh height (rows).
    pub height: usize,
    /// Wrap the mesh edges into a torus.
    pub torus: bool,
    /// Payload words per node per block.
    pub words: usize,
    /// Mesh worker threads (bit-identical results for any value).
    pub threads: usize,
}

impl CollectivesSpec {
    /// The `--quick` configuration (4×4 mesh, 4-word blocks).
    pub fn quick() -> Self {
        CollectivesSpec {
            width: 4,
            height: 4,
            torus: false,
            words: 4,
            threads: 1,
        }
    }

    /// The full configuration (16×16 mesh, 64-word blocks).
    pub fn paper() -> Self {
        CollectivesSpec {
            width: 16,
            height: 16,
            words: 64,
            ..CollectivesSpec::quick()
        }
    }

    /// The mesh topology this spec describes (memory interface in the
    /// single corner, as in the Table III runs).
    pub fn topology(&self) -> Topology {
        Topology::rect(self.width, self.height, MemifPlacement::SingleCorner).with_torus(self.torus)
    }
}

// ---------------------------------------------------------------------------
// The unified JobSpec enum
// ---------------------------------------------------------------------------

/// A typed experiment request: one variant per routable experiment family.
///
/// This is the single request surface shared by `run_batch`, the `psyncd`
/// daemon, and the direct harness binaries — anything that can run under
/// the supervisor pool is expressed as a `JobSpec`.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// The Table III transpose (reference workload).
    Table3(Table3Spec),
    /// One deterministic mesh performance point.
    PerfMesh(PerfMeshSpec),
    /// The fault-rate degradation sweep.
    AblateFaults(AblateFaultsSpec),
    /// The Model II conformance checks.
    CrosscheckModels(CrosscheckSpec),
    /// The 21-row multi-fidelity ablation matrix.
    FullMatrix(FullMatrixSpec),
    /// The collective-traffic comparison on both fabrics.
    Collectives(CollectivesSpec),
}

impl JobSpec {
    /// The wire name of this spec's experiment family.
    pub fn family(&self) -> &'static str {
        match self {
            JobSpec::Table3(_) => "table3",
            JobSpec::PerfMesh(_) => "perf_mesh",
            JobSpec::AblateFaults(_) => "ablate_faults",
            JobSpec::CrosscheckModels(_) => "crosscheck_models",
            JobSpec::FullMatrix(_) => "full_matrix",
            JobSpec::Collectives(_) => "collectives",
        }
    }

    /// Every routable family name, in wire spelling.
    pub const FAMILIES: [&'static str; 6] = [
        "table3",
        "perf_mesh",
        "ablate_faults",
        "crosscheck_models",
        "full_matrix",
        "collectives",
    ];

    /// The preset spec for `family`: the quick or full configuration the
    /// corresponding harness bin runs. `None` for an unknown family.
    pub fn preset(family: &str, quick: bool) -> Option<JobSpec> {
        let spec = match family {
            "table3" => JobSpec::Table3(if quick {
                Table3Spec::quick()
            } else {
                Table3Spec::paper()
            }),
            "perf_mesh" => JobSpec::PerfMesh(if quick {
                PerfMeshSpec::quick()
            } else {
                PerfMeshSpec::paper()
            }),
            "ablate_faults" => JobSpec::AblateFaults(if quick {
                AblateFaultsSpec::quick()
            } else {
                AblateFaultsSpec::paper()
            }),
            "crosscheck_models" => JobSpec::CrosscheckModels(if quick {
                CrosscheckSpec::quick()
            } else {
                CrosscheckSpec::paper()
            }),
            "full_matrix" => JobSpec::FullMatrix(if quick {
                FullMatrixSpec::quick()
            } else {
                FullMatrixSpec::paper()
            }),
            "collectives" => JobSpec::Collectives(if quick {
                CollectivesSpec::quick()
            } else {
                CollectivesSpec::paper()
            }),
            _ => return None,
        };
        Some(spec)
    }

    /// Canonical JSON for config hashing and the wire: a versioned envelope
    /// with a stable field order, so equal specs always serialize to equal
    /// bytes.
    pub fn canonical_json(&self) -> String {
        let spec = match self {
            JobSpec::Table3(s) => serde_json::to_string(s),
            JobSpec::PerfMesh(s) => serde_json::to_string(s),
            JobSpec::AblateFaults(s) => serde_json::to_string(s),
            JobSpec::CrosscheckModels(s) => serde_json::to_string(s),
            JobSpec::FullMatrix(s) => serde_json::to_string(s),
            JobSpec::Collectives(s) => serde_json::to_string(s),
        }
        .expect("job specs serialize");
        format!(
            "{{\"schema\":{SCHEMA_VERSION},\"family\":\"{}\",\"spec\":{spec}}}",
            self.family()
        )
    }

    /// Parse a spec from a decoded JSON object, e.g. the `spec` field of a
    /// daemon `submit` request:
    ///
    /// ```json
    /// {"family": "table3", "preset": "quick", "procs": 64, "row_len": 16}
    /// ```
    ///
    /// `family` selects the variant; the optional `preset`
    /// (`"quick"`/`"paper"`, default quick) supplies defaults; any known
    /// field then overrides its default. Unknown fields are **ignored** —
    /// newer clients can decorate requests without breaking older daemons.
    ///
    /// # Errors
    /// A human-readable message naming the offending field (surfaced on the
    /// wire as a `bad_spec` error).
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        if v.as_object().is_none() {
            return Err("spec must be a JSON object".to_string());
        }
        let family = v
            .get("family")
            .and_then(Value::as_str)
            .ok_or_else(|| "spec.family must be a string".to_string())?;
        let quick = match v.get("preset").and_then(Value::as_str) {
            None => true,
            Some("quick") => true,
            Some("paper") | Some("full") => false,
            Some(other) => {
                return Err(format!(
                    "spec.preset {other:?} unknown (expected \"quick\" or \"paper\")"
                ))
            }
        };
        let mut spec = JobSpec::preset(family, quick).ok_or_else(|| {
            format!(
                "unknown family {family:?} (expected one of {:?})",
                JobSpec::FAMILIES
            )
        })?;
        let usize_field = |key: &str, default: usize| -> Result<usize, String> {
            match v.get(key) {
                None => Ok(default),
                Some(f) => f
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| format!("spec.{key} must be a non-negative integer")),
            }
        };
        match &mut spec {
            JobSpec::Table3(s) => {
                s.procs = usize_field("procs", s.procs)?;
                s.row_len = usize_field("row_len", s.row_len)?;
                s.threads = usize_field("threads", s.threads)?;
            }
            JobSpec::PerfMesh(s) => {
                s.procs = usize_field("procs", s.procs)?;
                s.row_len = usize_field("row_len", s.row_len)?;
                s.threads = usize_field("threads", s.threads)?;
                if let Some(t) = v.get("t_p") {
                    s.t_p = t
                        .as_u64()
                        .ok_or_else(|| "spec.t_p must be a non-negative integer".to_string())?;
                }
                if let Some(p) = v.get("policy") {
                    s.policy = p
                        .as_str()
                        .ok_or_else(|| "spec.policy must be a string".to_string())?
                        .to_string();
                }
            }
            JobSpec::AblateFaults(s) => {
                s.procs = usize_field("procs", s.procs)?;
                s.row_len = usize_field("row_len", s.row_len)?;
                s.gathers = usize_field("gathers", s.gathers)?;
                s.threads = usize_field("threads", s.threads)?;
                if let Some(r) = v.get("rates") {
                    let items = r
                        .as_array()
                        .ok_or_else(|| "spec.rates must be an array of numbers".to_string())?;
                    s.rates = items
                        .iter()
                        .map(|x| {
                            x.as_f64()
                                .ok_or_else(|| "spec.rates must be an array of numbers".to_string())
                        })
                        .collect::<Result<_, _>>()?;
                }
            }
            JobSpec::FullMatrix(s) => {
                if let Some(f) = v.get("fidelity") {
                    s.fidelity = f
                        .as_str()
                        .ok_or_else(|| "spec.fidelity must be a string".to_string())?
                        .to_string();
                }
                if let Some(r) = v.get("reference") {
                    s.reference = r
                        .as_bool()
                        .ok_or_else(|| "spec.reference must be a boolean".to_string())?;
                }
                // `scale` follows the preset; an explicit field overrides.
                if let Some(sc) = v.get("scale") {
                    s.scale = sc
                        .as_str()
                        .ok_or_else(|| "spec.scale must be a string".to_string())?
                        .to_string();
                }
            }
            JobSpec::Collectives(s) => {
                s.width = usize_field("width", s.width)?;
                s.height = usize_field("height", s.height)?;
                s.words = usize_field("words", s.words)?;
                s.threads = usize_field("threads", s.threads)?;
                if let Some(t) = v.get("torus") {
                    s.torus = t
                        .as_bool()
                        .ok_or_else(|| "spec.torus must be a boolean".to_string())?;
                }
            }
            JobSpec::CrosscheckModels(s) => {
                s.procs = usize_field("procs", s.procs)?;
                s.n = usize_field("n", s.n)?;
                if let Some(k) = v.get("ks") {
                    let items = k
                        .as_array()
                        .ok_or_else(|| "spec.ks must be an array of integers".to_string())?;
                    s.ks = items
                        .iter()
                        .map(|x| {
                            x.as_u64()
                                .and_then(|n| usize::try_from(n).ok())
                                .ok_or_else(|| {
                                    "spec.ks must be an array of non-negative integers".to_string()
                                })
                        })
                        .collect::<Result<_, _>>()?;
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Reject configurations the fabrics would panic on, so a bad request
    /// is a structured error instead of a `Panicked` job report.
    pub fn validate(&self) -> Result<(), String> {
        let mesh_geometry = |procs: usize, row_len: usize, threads: usize| {
            if procs == 0 || row_len == 0 {
                return Err("procs and row_len must be positive".to_string());
            }
            let side = (procs as f64).sqrt() as usize;
            if side * side != procs {
                return Err(format!("procs must be a perfect square, got {procs}"));
            }
            if threads == 0 {
                return Err("threads must be at least 1".to_string());
            }
            Ok(())
        };
        match self {
            JobSpec::Table3(s) => mesh_geometry(s.procs, s.row_len, s.threads),
            JobSpec::PerfMesh(s) => {
                mesh_geometry(s.procs, s.row_len, s.threads)?;
                s.routing_policy().map(|_| ())
            }
            JobSpec::AblateFaults(s) => {
                mesh_geometry(s.procs, s.row_len, s.threads)?;
                if s.gathers == 0 {
                    return Err("gathers must be at least 1".to_string());
                }
                if s.rates.is_empty() {
                    return Err("rates must be non-empty".to_string());
                }
                for &r in &s.rates {
                    if !r.is_finite() || !(0.0..1.0).contains(&r) {
                        return Err(format!("rates must be finite in [0, 1), got {r}"));
                    }
                }
                Ok(())
            }
            JobSpec::CrosscheckModels(s) => {
                if s.procs == 0 || s.n == 0 {
                    return Err("procs and n must be positive".to_string());
                }
                if !s.n.is_power_of_two() {
                    return Err(format!("n must be a power of two, got {}", s.n));
                }
                if s.ks.is_empty() {
                    return Err("ks must be non-empty".to_string());
                }
                for &k in &s.ks {
                    if k == 0 || k > s.n || !k.is_power_of_two() {
                        return Err(format!(
                            "each k must be a power of two in [1, n={}], got {k}",
                            s.n
                        ));
                    }
                }
                Ok(())
            }
            JobSpec::FullMatrix(s) => {
                if s.scale != "quick" && s.scale != "paper" {
                    return Err(format!(
                        "scale must be \"quick\" or \"paper\", got {:?}",
                        s.scale
                    ));
                }
                s.policy().map(|_| ()).map_err(|e| format!("fidelity: {e}"))
            }
            JobSpec::Collectives(s) => {
                if s.width < 2 || s.height < 2 {
                    return Err(format!(
                        "width and height must each be at least 2 (a corner memif \
                         must leave collective participants), got {}x{}",
                        s.width, s.height
                    ));
                }
                if s.words == 0 {
                    return Err("words must be at least 1".to_string());
                }
                if s.threads == 0 {
                    return Err("threads must be at least 1".to_string());
                }
                Ok(())
            }
        }
    }

    /// Run the experiment this spec describes to its deterministic result
    /// JSON (the bytes the cache stores and the daemon streams), plus any
    /// telemetry registries when `tracing`.
    ///
    /// # Errors
    /// A classified [`WorkError`]: `Cancelled` when the interrupt fired,
    /// `Fatal` for everything else.
    pub fn run(
        &self,
        tracing: bool,
        interrupt: Option<&Interrupt>,
    ) -> Result<(String, Vec<Registry>), WorkError> {
        match self {
            JobSpec::Table3(s) => {
                let (row, regs) = run_table3(s, tracing, interrupt).map_err(classify_mesh)?;
                let json = serde_json::to_string_pretty(&row).map_err(serialize_err)?;
                Ok((json, regs))
            }
            JobSpec::PerfMesh(s) => {
                let policy = s
                    .routing_policy()
                    .map_err(|detail| WorkError::Fatal { detail })?;
                let point =
                    perf_mesh_point(s.procs, s.row_len, policy, s.t_p, s.threads, interrupt)
                        .map_err(classify_mesh)?;
                let row = PerfMeshRow {
                    procs: s.procs,
                    row_len: s.row_len,
                    elements: s.procs * s.row_len,
                    policy: s.policy.clone(),
                    t_p: s.t_p,
                    threads: s.threads,
                    cycles: point.cycles,
                    flit_moves: point.flit_moves,
                };
                let json = serde_json::to_string_pretty(&row).map_err(serialize_err)?;
                Ok((json, Vec::new()))
            }
            JobSpec::AblateFaults(s) => {
                let points = run_ablate_faults(s, interrupt)?;
                let json = serde_json::to_string_pretty(&points).map_err(serialize_err)?;
                Ok((json, Vec::new()))
            }
            JobSpec::CrosscheckModels(s) => {
                let rows = run_crosscheck_model2(s, interrupt)?;
                let json = serde_json::to_string_pretty(&rows).map_err(serialize_err)?;
                Ok((json, Vec::new()))
            }
            JobSpec::FullMatrix(s) => {
                let reg = tracing.then(Registry::new);
                let (result, _timing) = run_full_matrix(s, interrupt, reg.as_ref())?;
                let json = serde_json::to_string_pretty(&result).map_err(serialize_err)?;
                Ok((json, reg.into_iter().collect()))
            }
            JobSpec::Collectives(s) => {
                let (rows, regs) = run_collectives(s, tracing, interrupt)?;
                let json = serde_json::to_string_pretty(&rows).map_err(serialize_err)?;
                Ok((json, regs))
            }
        }
    }
}

/// Classify a fabric error for the supervisor. A watchdog `NoProgress` is
/// `Fatal` like every other non-cancel error: fault draws are deterministic,
/// so the same spec fails the same way again.
fn classify_mesh(e: MeshError) -> WorkError {
    match &e {
        MeshError::Cancelled { .. } => WorkError::Cancelled {
            detail: e.to_string(),
        },
        _ => WorkError::Fatal {
            detail: e.to_string(),
        },
    }
}

fn classify_machine(e: MachineError) -> WorkError {
    match &e {
        MachineError::Cancelled { .. } => WorkError::Cancelled {
            detail: e.to_string(),
        },
        _ => WorkError::Fatal {
            detail: e.to_string(),
        },
    }
}

fn serialize_err(e: serde_json::Error) -> WorkError {
    WorkError::Fatal {
        detail: format!("serialize result rows: {e}"),
    }
}

// ---------------------------------------------------------------------------
// table3 family
// ---------------------------------------------------------------------------

/// One Table III result row, serialized to `results/table3.json` (direct
/// run) or `results/batch/table3.json` (supervised run) — the field set and
/// order are the byte-identity contract between the two paths.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Processor count.
    pub procs: usize,
    /// Samples per row.
    pub row_len: usize,
    /// PSCAN SCA writeback, closed form Eq. (23)/(24).
    pub pscan_cycles: u64,
    /// Simulated mesh writeback at `t_p = 1`.
    pub mesh_cycles_tp1: u64,
    /// Simulated mesh writeback at `t_p = 4`.
    pub mesh_cycles_tp4: u64,
    /// `mesh_cycles_tp1 / pscan_cycles`.
    pub multiplier_tp1: f64,
    /// `mesh_cycles_tp4 / pscan_cycles`.
    pub multiplier_tp4: f64,
    /// The paper's Table III multiplier at `t_p = 1`.
    pub paper_multiplier_tp1: f64,
    /// The paper's Table III multiplier at `t_p = 4`.
    pub paper_multiplier_tp4: f64,
}

/// Simulate the mesh transpose writeback at `t_p`, optionally instrumented
/// and optionally under an interrupt (cancellation surfaces as
/// [`MeshError::Cancelled`]).
pub fn mesh_transpose_cycles(
    cfg: &Table3Spec,
    t_p: u64,
    tracing: bool,
    interrupt: Option<&Interrupt>,
) -> Result<(u64, Option<Registry>), MeshError> {
    let mesh_cfg = MeshConfig::table3(cfg.procs, t_p).with_threads(cfg.threads);
    let mut mesh = load_transpose(mesh_cfg, cfg.procs, cfg.row_len);
    if tracing {
        mesh.enable_telemetry();
    }
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    let res = mesh.run()?;
    let s = res.memif_stats[0];
    assert_eq!(
        s.elements as usize,
        cfg.procs * cfg.row_len,
        "lost elements"
    );
    Ok((res.cycles, mesh.take_telemetry()))
}

/// Run the complete Table III workload: the PSCAN closed form plus the two
/// mesh simulations (`t_p = 1` and `t_p = 4`, in parallel), assembled into
/// the canonical row.
///
/// With `interrupt` installed, each mesh polls its own clone; a deadline or
/// token cancels both, and the `t_p = 1` error is the one reported (index
/// order, so the failure is deterministic). Telemetry registries (when
/// `tracing`) come back alongside the row in `t_p` order.
pub fn run_table3(
    cfg: &Table3Spec,
    tracing: bool,
    interrupt: Option<&Interrupt>,
) -> Result<(Table3Row, Vec<Registry>), MeshError> {
    let params = Table3Params {
        n: cfg.row_len as u64,
        p: cfg.procs as u64,
        ..Default::default()
    };
    let pscan = params.pscan_cycles();

    // The two t_p points are independent simulations: run them in parallel.
    let mesh_runs: Vec<Result<(u64, Option<Registry>), MeshError>> = [1u64, 4]
        .into_par_iter()
        .map(|t_p| {
            eprintln!(
                "simulating mesh transpose (P = {}, N = {}, t_p = {t_p})...",
                cfg.procs, cfg.row_len
            );
            // Trace only the t_p = 1 run: one fully-instrumented mesh is
            // what the trace viewer wants, not two interleaved ones.
            mesh_transpose_cycles(cfg, t_p, tracing && t_p == 1, interrupt)
        })
        .collect();
    let mut cycles = Vec::new();
    let mut registries = Vec::new();
    for run in mesh_runs {
        let (c, reg) = run?;
        cycles.push(c);
        registries.extend(reg);
    }
    let (mesh1, mesh4) = (cycles[0], cycles[1]);

    let row = Table3Row {
        procs: cfg.procs,
        row_len: cfg.row_len,
        pscan_cycles: pscan,
        mesh_cycles_tp1: mesh1,
        mesh_cycles_tp4: mesh4,
        multiplier_tp1: mesh1 as f64 / pscan as f64,
        multiplier_tp4: mesh4 as f64 / pscan as f64,
        paper_multiplier_tp1: PAPER_MESH_WRITEBACK_TP1 as f64 / table3_pscan_cycles() as f64,
        paper_multiplier_tp4: PAPER_MESH_WRITEBACK_TP4 as f64 / table3_pscan_cycles() as f64,
    };
    Ok((row, registries))
}

// ---------------------------------------------------------------------------
// perf_mesh family
// ---------------------------------------------------------------------------

/// Deterministic witness of one mesh performance point.
#[derive(Debug, Clone, Serialize)]
pub struct PerfMeshRow {
    /// Processor count.
    pub procs: usize,
    /// Samples per row.
    pub row_len: usize,
    /// Total elements moved.
    pub elements: usize,
    /// Routing policy name.
    pub policy: String,
    /// Memory port service time.
    pub t_p: u64,
    /// Worker threads.
    pub threads: usize,
    /// Simulated completion cycles.
    pub cycles: u64,
    /// Router traversals (the scheduler-work witness).
    pub flit_moves: u64,
}

/// Measured core of one `perf_mesh` point: deterministic witness plus the
/// wall-clock of the `run()` call (construction excluded, matching the
/// `perf_mesh` bin's historical timing window).
#[derive(Debug, Clone, Copy)]
pub struct MeshPerfPoint {
    /// Simulated completion cycles (bit-identical for any thread count).
    pub cycles: u64,
    /// Router traversals.
    pub flit_moves: u64,
    /// Wall-clock seconds of the simulation itself.
    pub wall_s: f64,
}

/// Run one mesh transpose and report its deterministic witness and wall
/// time. Shared by the `perf_mesh` bin and the `perf_mesh` job family.
pub fn perf_mesh_point(
    procs: usize,
    row_len: usize,
    policy: RoutingPolicy,
    t_p: u64,
    threads: usize,
    interrupt: Option<&Interrupt>,
) -> Result<MeshPerfPoint, MeshError> {
    let cfg = MeshConfig::table3(procs, t_p)
        .with_policy(policy)
        .with_threads(threads);
    let mut mesh = load_transpose(cfg, procs, row_len);
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    let t0 = std::time::Instant::now();
    let res = mesh.run()?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(MeshPerfPoint {
        cycles: res.cycles,
        flit_moves: res.energy.router_traversals,
        wall_s,
    })
}

// ---------------------------------------------------------------------------
// collectives family
// ---------------------------------------------------------------------------

/// One collective-traffic result row (field order is the
/// `results/collectives.json` byte contract). `cycles` is the fabric's
/// native sequential unit: mesh cycles on the electronic side, bus slots
/// on the photonic side.
#[derive(Debug, Clone, Serialize)]
pub struct CollectiveRow {
    /// Collective wire label (`alltoall` / `allgather` / `allreduce`).
    pub collective: String,
    /// `"mesh"` or `"sca"`.
    pub fabric: String,
    /// Geometry label: the mesh topology (`"4x4"`, `"4x4t"`, …) or the
    /// SCA processor count (`"p16"`).
    pub geometry: String,
    /// Participating nodes.
    pub participants: u64,
    /// Payload words per node per block.
    pub words: usize,
    /// Executed phases.
    pub phases: usize,
    /// Mesh completion cycles, or SCA bus slots.
    pub cycles: u64,
    /// Golden-determinism fingerprint of the full run observables.
    pub fingerprint: u64,
}

/// Run one collective on the electronic mesh described by `spec`.
pub fn collective_mesh_row(
    spec: &CollectivesSpec,
    collective: Collective,
    telemetry: Option<&Registry>,
) -> Result<CollectiveRow, MeshError> {
    let cfg = MeshConfig {
        topology: spec.topology(),
        t_r: 1,
        policy: RoutingPolicy::Xy,
        memif: Default::default(),
        buffer_depth: 2,
        max_cycles: 1 << 30,
        threads: spec.threads,
    };
    let res = run_mesh_collective(collective, cfg, spec.words, telemetry)?;
    Ok(CollectiveRow {
        collective: collective.label().to_string(),
        fabric: "mesh".to_string(),
        geometry: spec.topology().label(),
        participants: res.participants,
        words: spec.words,
        phases: res.phases.len(),
        cycles: res.cycles,
        fingerprint: res.fingerprint(),
    })
}

/// Run one collective on the photonic SCA machine sized to `spec` (every
/// `width × height` processor participates; the head node hosts memory).
pub fn collective_sca_row(
    spec: &CollectivesSpec,
    collective: Collective,
    tracing: bool,
) -> Result<(CollectiveRow, Option<Registry>), MachineError> {
    let procs = spec.width * spec.height;
    let dram_words = procs * procs * spec.words;
    let mut machine = Machine::new(MachineConfig::paper_default(procs, dram_words));
    if tracing {
        machine.enable_telemetry();
    }
    let res = run_sca_collective(&mut machine, collective, spec.words)?;
    let row = CollectiveRow {
        collective: collective.label().to_string(),
        fabric: "sca".to_string(),
        geometry: format!("p{procs}"),
        participants: res.participants as u64,
        words: spec.words,
        phases: res.phase_names.len(),
        cycles: res.bus_slots,
        fingerprint: res.fingerprint(),
    };
    Ok((row, machine.take_telemetry()))
}

/// Run all three collectives on both fabrics: six deterministic rows in
/// [`Collective::ALL`] × (mesh, sca) order. The interrupt is polled
/// between rows, so cancellation is collective-granular.
pub fn run_collectives(
    spec: &CollectivesSpec,
    tracing: bool,
    interrupt: Option<&Interrupt>,
) -> Result<(Vec<CollectiveRow>, Vec<Registry>), WorkError> {
    let mut rows = Vec::with_capacity(Collective::ALL.len() * 2);
    let mut regs = Vec::new();
    let mesh_reg = tracing.then(Registry::new);
    let mut intr = interrupt.cloned();
    for collective in Collective::ALL {
        if let Some(cause) = intr.as_mut().and_then(|i| i.check(rows.len() as u64)) {
            return Err(WorkError::Cancelled {
                detail: format!("collectives cancelled after {} rows: {cause:?}", rows.len()),
            });
        }
        rows.push(collective_mesh_row(spec, collective, mesh_reg.as_ref()).map_err(classify_mesh)?);
        let (row, reg) = collective_sca_row(spec, collective, tracing).map_err(classify_machine)?;
        rows.push(row);
        regs.extend(reg);
    }
    regs.extend(mesh_reg);
    Ok((rows, regs))
}

// ---------------------------------------------------------------------------
// ablate_faults family
// ---------------------------------------------------------------------------

/// Word/flit error probabilities the `ablate_faults` bin sweeps. Spacing is
/// ≥ 2× so the retry counts separate cleanly under the fixed seeds.
pub const FAULT_RATES: &[f64] = &[0.0, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2];

/// One point of the degradation sweep (field order is the
/// `results/ablate_faults.json` byte contract).
#[derive(Debug, Clone, Serialize)]
pub struct FaultPoint {
    /// Swept error probability.
    pub rate: f64,
    // Electronic mesh, Table III transpose.
    /// Completion cycles.
    pub mesh_cycles: u64,
    /// Orion energy estimate, microjoules.
    pub mesh_energy_uj: f64,
    /// Flits corrupted in flight.
    pub mesh_corrupted_flits: u64,
    /// NACK-triggered retransmissions.
    pub mesh_retransmits: u64,
    /// Link outage events.
    pub mesh_link_down_events: u64,
    /// Elements lost past the retry budget (must be 0).
    pub mesh_dropped_elements: u64,
    // Photonic machine, SCA writeback sequence.
    /// Bus slots consumed.
    pub pscan_bus_slots: u64,
    /// Link-layer retries.
    pub pscan_retries: u64,
    /// Words corrupted by the injected faults.
    pub pscan_corrupted_words: u64,
    /// Gathers abandoned past the retry budget (must be 0).
    pub pscan_giveups: u64,
    /// Headline: recovery actions across both fabrics.
    pub total_retries: u64,
}

/// Mesh half of one sweep point: the Table III transpose under transient
/// flit corruption plus occasional link outages.
pub fn mesh_fault_point(
    rate: f64,
    procs: usize,
    row_len: usize,
    threads: usize,
    interrupt: Option<&Interrupt>,
) -> Result<(u64, f64, MeshFaultStats), MeshError> {
    let cfg = MeshConfig::table3(procs, 1).with_threads(threads);
    let mut mesh = load_transpose(cfg, procs, row_len);
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    mesh.enable_faults(MeshFaultConfig {
        seed: 0xFA_u64,
        corrupt_rate: rate,
        link_down_rate: rate / 10.0,
        max_retransmits: 64,
        ..Default::default()
    });
    let res = mesh.run()?;
    let energy_uj = OrionParams::default().total_j(&res.energy, procs) * 1e6;
    Ok((res.cycles, energy_uj, res.faults.expect("layer attached")))
}

/// Machine half of one sweep point: `gathers` SCA writebacks of one 64-slot
/// burst each. Bursts are kept small so even the harshest swept rate stays
/// recoverable within the link-layer retry budget (CRC granularity =
/// burst). Returns `(bus_slots, retries, corrupted_words, giveups)`.
pub fn machine_fault_point(
    rate: f64,
    gathers: usize,
    interrupt: Option<&Interrupt>,
) -> Result<(u64, u64, u64, u64), MachineError> {
    const NODES: usize = 8;
    let spec = GatherSpec::interleaved(NODES, 4, 2); // 64 slots
    let burst = spec.total_slots() as usize;
    let mut m = Machine::new(MachineConfig::paper_default(NODES, gathers * burst));
    if let Some(intr) = interrupt {
        m.set_interrupt(intr.clone());
    }
    m.enable_faults(PscanFaultConfig {
        seed: 0xFA_u64,
        word_error_rate: rate,
        max_retries: 256,
        ..Default::default()
    });
    for g in 0..gathers {
        let words: Vec<Vec<u64>> = (0..NODES)
            .map(|n| vec![(g * NODES + n) as u64; burst / NODES])
            .collect();
        let addrs: Vec<u64> = (0..burst as u64).map(|k| (g * burst) as u64 + k).collect();
        // Swept rates stay within the retry budget; only a cancellation
        // (or a genuinely exhausted budget) propagates.
        m.try_gather_to_memory(&format!("wb{g}"), &spec, &words, &addrs)?;
    }
    let bus_slots: u64 = m.phases.iter().map(|p| p.bus_slots).sum();
    let retries: u64 = m.phases.iter().map(|p| p.retries).sum();
    let stats = m.fault_stats().expect("layer attached");
    Ok((bus_slots, retries, stats.injected, stats.giveups))
}

/// The full degradation sweep: every rate in the spec, both fabrics, in
/// parallel across rates (order preserved).
pub fn run_ablate_faults(
    spec: &AblateFaultsSpec,
    interrupt: Option<&Interrupt>,
) -> Result<Vec<FaultPoint>, WorkError> {
    spec.rates
        .par_iter()
        .map(|&rate| {
            eprintln!("rate = {rate:.0e}...");
            let (mesh_cycles, mesh_energy_uj, ms) =
                mesh_fault_point(rate, spec.procs, spec.row_len, spec.threads, interrupt)
                    .map_err(classify_mesh)?;
            let (pscan_bus_slots, pscan_retries, pscan_corrupted_words, pscan_giveups) =
                machine_fault_point(rate, spec.gathers, interrupt).map_err(classify_machine)?;
            Ok(FaultPoint {
                rate,
                mesh_cycles,
                mesh_energy_uj,
                mesh_corrupted_flits: ms.corrupted_flits,
                mesh_retransmits: ms.retransmits,
                mesh_link_down_events: ms.link_down_events,
                mesh_dropped_elements: ms.dropped_elements,
                pscan_bus_slots,
                pscan_retries,
                pscan_corrupted_words,
                pscan_giveups,
                total_retries: ms.retransmits + pscan_retries,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// crosscheck_models family
// ---------------------------------------------------------------------------

/// One Eq. 11/14 conformance row (deterministic: no wall-clock fields, so
/// repeated runs produce identical bytes the cache can vouch for).
#[derive(Debug, Clone, Serialize)]
pub struct CrosscheckRow {
    /// Which identity was checked (`eq11_total_time` / `eq14_efficiency`).
    pub check: String,
    /// Operating point, `P=..,N=..,k=..`.
    pub point: String,
    /// Machine-side measurement.
    pub measured: f64,
    /// Closed-form prediction.
    pub predicted: f64,
    /// `|measured − predicted| / |predicted|`.
    pub rel_err: f64,
    /// Tolerance the row is held to.
    pub tol: f64,
    /// `rel_err <= tol`.
    pub pass: bool,
    /// Fixed-point witness of the measured value.
    pub witness: u64,
}

/// Deterministic test signal: one `n`-sample row per processor (same
/// generator as the `crosscheck_models` bin).
pub fn crosscheck_signal_rows(procs: usize, n: usize) -> Vec<Vec<Complex64>> {
    (0..procs)
        .map(|p| {
            (0..n)
                .map(|i| {
                    Complex64::new(
                        ((p * 31 + i) as f64 * 0.1).sin(),
                        ((i * 17 + p) as f64 * 0.05).cos(),
                    )
                })
                .collect()
        })
        .collect()
}

/// The Eq. 11/14 conformance checks at every `k` in the spec, polled for
/// cancellation between points (the machine runs are short; per-point
/// granularity keeps cancellation prompt without threading an interrupt
/// through `run_model2_rows`).
pub fn run_crosscheck_model2(
    spec: &CrosscheckSpec,
    interrupt: Option<&Interrupt>,
) -> Result<Vec<CrosscheckRow>, WorkError> {
    use crate::crosscheck::{predict_model2, witness, TOL_ALGEBRAIC};
    let rows = crosscheck_signal_rows(spec.procs, spec.n);
    let mut intr = interrupt.cloned();
    let mut out = Vec::new();
    for (done, &k) in spec.ks.iter().enumerate() {
        if let Some(cause) = intr.as_mut().and_then(|i| i.check(done as u64)) {
            return Err(WorkError::Cancelled {
                detail: format!("crosscheck Cancelled after {done} point(s) ({cause})"),
            });
        }
        let point = format!("P={},N={},k={k}", spec.procs, spec.n);
        eprintln!("crosscheck: eq11 machine at {point} ...");
        let run = psync::run_model2_rows(spec.procs, spec.n, k, &rows);
        let pred = predict_model2(spec.procs, spec.n, k, run.serialized_seconds);
        let mut push = |check: &str, measured: f64, predicted: f64| {
            let rel_err = if predicted == 0.0 {
                measured.abs()
            } else {
                (measured - predicted).abs() / predicted.abs()
            };
            out.push(CrosscheckRow {
                check: check.to_string(),
                point: point.clone(),
                measured,
                predicted,
                rel_err,
                tol: TOL_ALGEBRAIC,
                pass: rel_err <= TOL_ALGEBRAIC,
                witness: witness(measured),
            });
        };
        push(
            "eq11_total_time",
            run.overlapped_seconds,
            pred.overlapped_seconds,
        );
        push("eq14_efficiency", run.efficiency, pred.efficiency);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// full_matrix family
// ---------------------------------------------------------------------------

/// Static definition of one matrix row: which model family, at which
/// operating point, under which delivery policy and fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPointSpec {
    /// Row number, 1-based and stable across scales.
    pub id: usize,
    /// Model family (a `ci/validation_envelopes.json` family name).
    pub family: &'static str,
    /// Processor / mesh-node count.
    pub p: u64,
    /// Size parameter: FFT length (model2), block words (mesh), row
    /// length (table3).
    pub n: u64,
    /// Blocks per row (model2 families; 1 elsewhere).
    pub k: u64,
    /// Injected fault rate (cycle-accurate only — no closed form exists).
    pub fault_rate: f64,
    /// Delivery policy (`"sca"`, `"Xy"`, `"MinimalAdaptive"`).
    pub policy: &'static str,
}

impl MatrixPointSpec {
    /// The point's coordinates in the fidelity registry's key space.
    pub fn point_config(&self) -> PointConfig {
        PointConfig {
            family: self.family.to_string(),
            p: self.p,
            n: self.n,
            fault_rate: self.fault_rate,
            policy: self.policy.to_string(),
        }
    }

    /// Human-readable operating point, crosscheck-style.
    pub fn point_label(&self) -> String {
        let mut s = format!("P={},N={}", self.p, self.n);
        if self.family.starts_with("model2") {
            s.push_str(&format!(",k={}", self.k));
        }
        if self.fault_rate > 0.0 {
            s.push_str(&format!(",rate={:.0e}", self.fault_rate));
        }
        s
    }
}

/// The 21-row ablation matrix (perf-gate shaped: every historical sweep
/// dimension represented).
///
/// Rows 1–18 sweep the three validated families across their regions —
/// Model II Eq. 11 total time (P × k grid), Eq. 14 efficiency, the Eq. 21
/// mesh scatter across block sizes, and the Table III PSCAN writeback —
/// and are analytic-answerable under `auto`. Rows 19–21 are deliberately
/// outside every validated region (an unvalidated mesh geometry, an
/// unvalidated routing policy, a nonzero fault rate), so any policy that
/// consults the registry must take the cycle-accurate fallback there: the
/// matrix itself guarantees the fallback path is exercised on every run.
pub fn matrix_points(quick: bool) -> Vec<MatrixPointSpec> {
    let n_fft = if quick { 64 } else { 1024 };
    let mut rows = Vec::with_capacity(21);
    let mut id = 0;
    let mut push = |family, p, n, k, fault_rate, policy| {
        id += 1;
        rows.push(MatrixPointSpec {
            id,
            family,
            p,
            n,
            k,
            fault_rate,
            policy,
        });
    };
    // 1–6: Eq. 11 overlapped time, P × k.
    for p in [4u64, 8, 16] {
        for k in [1u64, 8] {
            push("model2_eq11", p, n_fft, k, 0.0, "sca");
        }
    }
    // 7–9: Eq. 14 efficiency at k = 4.
    for p in [4u64, 8, 16] {
        push("model2_eq14", p, n_fft, 4, 0.0, "sca");
    }
    // 10–14: Eq. 21 mesh scatter across block sizes.
    for block in [16u64, 32, 64, 128, 256] {
        push("mesh_eq21", 64, block, 1, 0.0, "Xy");
    }
    // 15–18: Table III PSCAN writeback.
    let t3: [(u64, u64); 4] = if quick {
        [(32, 32), (32, 64), (64, 32), (64, 64)]
    } else {
        [(128, 128), (256, 256), (512, 512), (1024, 1024)]
    };
    for (p, n) in t3 {
        push("table3_pscan", p, n, 1, 0.0, "sca");
    }
    // 19–21: outside validated territory — cycle-accurate fallbacks.
    push("mesh_eq21", 16, 8, 1, 0.0, "Xy"); // unvalidated geometry
    push("mesh_eq21", 64, 16, 1, 0.0, "MinimalAdaptive"); // unvalidated policy
    push("mesh_eq21", 16, 8, 1, 1e-2, "Xy"); // faulted fabric
    rows
}

/// One answered matrix row. Every field is deterministic — wall-clock
/// lives in [`FullMatrixTiming`], outside the cacheable result.
#[derive(Debug, Clone, Serialize)]
pub struct MatrixRow {
    /// Row number (1–21).
    pub id: usize,
    /// Model family.
    pub family: String,
    /// Operating point label.
    pub point: String,
    /// Processor / node count.
    pub p: u64,
    /// Size parameter.
    pub n: u64,
    /// Blocks per row.
    pub k: u64,
    /// Injected fault rate.
    pub fault_rate: f64,
    /// Delivery policy.
    pub policy: String,
    /// The fidelity that answered this row (`decision.chosen`).
    pub fidelity: String,
    /// The answered quantity.
    pub value: f64,
    /// What `value` measures (`seconds`, `cycles`, `efficiency`).
    pub unit: String,
    /// The validated envelope attached to an analytic answer — the error
    /// bar within which the cycle-accurate fabric is known to agree.
    pub envelope_rel_err: Option<f64>,
    /// The full audit record of the fidelity selection.
    pub decision: FidelityDecision,
    /// The all-cycle-accurate reference value (reference runs only).
    pub reference_value: Option<f64>,
    /// `|value − reference| / |reference|` (reference runs only).
    pub reference_rel_err: Option<f64>,
    /// Whether an analytic answer landed inside its envelope against the
    /// measured reference (`None` for cycle-accurate rows).
    pub within_envelope: Option<bool>,
}

/// The deterministic result document of a `full_matrix` job.
#[derive(Debug, Clone, Serialize)]
pub struct FullMatrixResult {
    /// Point sizing used.
    pub scale: String,
    /// Requested fidelity policy (wire spelling).
    pub fidelity: String,
    /// Whether the reference pass ran.
    pub reference: bool,
    /// Rows answered from the closed forms.
    pub analytic_rows: usize,
    /// Rows answered by simulation.
    pub cycle_accurate_rows: usize,
    /// The 21 rows.
    pub rows: Vec<MatrixRow>,
}

/// Wall-clock accounting of one matrix run, kept out of the result
/// document so cached bytes stay machine-independent. The `full_matrix`
/// bin derives its speedup assertions from these.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullMatrixTiming {
    /// Wall seconds of the fidelity-selected pass (all 21 rows).
    pub selected_wall_s: f64,
    /// Wall seconds spent inside analytic evaluations alone.
    pub analytic_wall_s: f64,
    /// Wall seconds of the cycle-accurate reference pass (all rows).
    pub reference_wall_s: f64,
    /// Reference wall seconds over just the analytic-answered rows — the
    /// simulation time the fast path actually displaced.
    pub reference_analytic_wall_s: f64,
}

/// Evaluate one matrix point analytically (the validated closed forms).
/// Returns `(value, unit)`.
fn analytic_value(pt: &MatrixPointSpec) -> Result<(f64, &'static str), WorkError> {
    match pt.family {
        "model2_eq11" => Ok((
            model2_point(pt.p, pt.n, pt.k, &Model2TimingParams::default()).overlapped_seconds,
            "seconds",
        )),
        "model2_eq14" => Ok((
            model2_point(pt.p, pt.n, pt.k, &Model2TimingParams::default()).efficiency,
            "efficiency",
        )),
        "mesh_eq21" => Ok((mesh_scatter_cycles(pt.p, pt.n, 1) as f64, "cycles")),
        "table3_pscan" => Ok((table3_writeback_cycles(pt.p, pt.n) as f64, "cycles")),
        other => Err(WorkError::Fatal {
            detail: format!("no closed form for family {other:?}"),
        }),
    }
}

/// Evaluate one matrix point on its cycle-accurate fabric. Returns
/// `(value, unit)`.
fn cycle_accurate_value(
    pt: &MatrixPointSpec,
    interrupt: Option<&Interrupt>,
) -> Result<(f64, &'static str), WorkError> {
    match pt.family {
        "model2_eq11" | "model2_eq14" => {
            let (procs, n, k) = (pt.p as usize, pt.n as usize, pt.k as usize);
            let rows = crosscheck_signal_rows(procs, n);
            let run = psync::run_model2_rows(procs, n, k, &rows);
            if pt.family == "model2_eq11" {
                Ok((run.overlapped_seconds, "seconds"))
            } else {
                Ok((run.efficiency, "efficiency"))
            }
        }
        "mesh_eq21" => {
            let policy = match pt.policy {
                "Xy" => RoutingPolicy::Xy,
                "MinimalAdaptive" => RoutingPolicy::MinimalAdaptive,
                other => {
                    return Err(WorkError::Fatal {
                        detail: format!("unknown mesh policy {other:?}"),
                    })
                }
            };
            let cfg = MeshConfig {
                topology: Topology::square(pt.p as usize, MemifPlacement::SingleCorner),
                t_r: 1,
                policy,
                memif: Default::default(),
                buffer_depth: 2,
                max_cycles: 1 << 30,
                threads: 1,
            };
            let mut mesh = load_scatter(cfg, pt.n as usize, pt.k as usize);
            if pt.fault_rate > 0.0 {
                mesh.enable_faults(MeshFaultConfig {
                    seed: 0xFA_u64,
                    corrupt_rate: pt.fault_rate,
                    link_down_rate: pt.fault_rate / 10.0,
                    max_retransmits: 64,
                    ..Default::default()
                });
            }
            if let Some(intr) = interrupt {
                mesh.set_interrupt(intr.clone());
            }
            let res = mesh.run().map_err(classify_mesh)?;
            Ok((res.cycles as f64, "cycles"))
        }
        "table3_pscan" => {
            let (procs, row_len) = (pt.p as usize, pt.n as usize);
            let pscan = Pscan::new(PscanConfig::paper_default().with_nodes(procs));
            let spec = GatherSpec {
                slot_source: (0..procs * row_len).map(|k| k % procs).collect(),
            };
            let data: Vec<Vec<u64>> = (0..procs).map(|p| vec![p as u64; row_len]).collect();
            let out = pscan.gather(&spec, &data).map_err(|e| WorkError::Fatal {
                detail: format!("pscan gather: {e}"),
            })?;
            // The measured writeback: the SCA's slot span plus one header
            // slot per DRAM row — the same composition the conformance
            // oracle holds equal to Eqs. 23/24.
            let span_slots =
                out.last_arrival.since(out.first_arrival).as_ps() / pscan.slot().as_ps() + 1;
            let t3 = Table3Params {
                n: pt.n,
                p: pt.p,
                ..Default::default()
            };
            let headers = ((procs * row_len) as u64).div_ceil(t3.s_r / t3.s_b);
            Ok(((span_slots + headers) as f64, "cycles"))
        }
        other => Err(WorkError::Fatal {
            detail: format!("no fabric for family {other:?}"),
        }),
    }
}

/// Run the full matrix under `spec`'s fidelity policy.
///
/// Per row: consult the validation registry ([`decide`]), evaluate on the
/// chosen path, and — when `spec.reference` — also evaluate the
/// cycle-accurate reference and attach the disagreement columns. Rows the
/// selected pass already simulated reuse that value as their reference
/// (the fabrics are deterministic, so rerunning them would produce the
/// same number and twice the bill). Decisions are recorded on `telemetry`
/// when given; the interrupt is polled between rows and threaded into the
/// mesh runs.
pub fn run_full_matrix(
    spec: &FullMatrixSpec,
    interrupt: Option<&Interrupt>,
    telemetry: Option<&Registry>,
) -> Result<(FullMatrixResult, FullMatrixTiming), WorkError> {
    let policy = spec
        .policy()
        .map_err(|detail| WorkError::Fatal { detail })?;
    let registry = ValidationRegistry::builtin();
    let quick = spec.scale == "quick";
    let points = matrix_points(quick);

    let mut intr = interrupt.cloned();
    let mut rows = Vec::with_capacity(points.len());
    let mut timing = FullMatrixTiming::default();
    for (done, pt) in points.iter().enumerate() {
        if let Some(cause) = intr.as_mut().and_then(|i| i.check(done as u64)) {
            return Err(WorkError::Cancelled {
                detail: format!("full_matrix Cancelled after {done} row(s) ({cause})"),
            });
        }
        let decision = decide(policy, &pt.point_config(), &registry);
        if let Some(reg) = telemetry {
            record_decision(reg, &decision);
        }
        eprintln!(
            "full_matrix: row {:>2} {} [{}] -> {} ({})",
            pt.id,
            pt.family,
            pt.point_label(),
            decision.chosen,
            decision.reason
        );
        let t0 = std::time::Instant::now();
        let (value, unit) = if decision.is_analytic() {
            analytic_value(pt)?
        } else {
            cycle_accurate_value(pt, interrupt)?
        };
        let row_wall = t0.elapsed().as_secs_f64();
        timing.selected_wall_s += row_wall;
        if decision.is_analytic() {
            timing.analytic_wall_s += row_wall;
        }

        let (reference_value, reference_rel_err, within_envelope) = if spec.reference {
            let (ref_value, ref_wall) = if decision.is_analytic() {
                let t1 = std::time::Instant::now();
                let (v, _) = cycle_accurate_value(pt, interrupt)?;
                let w = t1.elapsed().as_secs_f64();
                timing.reference_analytic_wall_s += w;
                (v, w)
            } else {
                (value, row_wall)
            };
            timing.reference_wall_s += ref_wall;
            let rel = if ref_value == 0.0 {
                (value - ref_value).abs()
            } else {
                (value - ref_value).abs() / ref_value.abs()
            };
            let inside = decision.envelope_rel_err.map(|env| rel <= env + 1e-12);
            (Some(ref_value), Some(rel), inside)
        } else {
            (None, None, None)
        };

        rows.push(MatrixRow {
            id: pt.id,
            family: pt.family.to_string(),
            point: pt.point_label(),
            p: pt.p,
            n: pt.n,
            k: pt.k,
            fault_rate: pt.fault_rate,
            policy: pt.policy.to_string(),
            fidelity: decision.chosen.clone(),
            value,
            unit: unit.to_string(),
            envelope_rel_err: decision.envelope_rel_err,
            decision,
            reference_value,
            reference_rel_err,
            within_envelope,
        });
    }

    let analytic_rows = rows.iter().filter(|r| r.fidelity == "analytic").count();
    let result = FullMatrixResult {
        scale: spec.scale.clone(),
        fidelity: spec.fidelity.clone(),
        reference: spec.reference,
        analytic_rows,
        cycle_accurate_rows: rows.len() - analytic_rows,
        rows,
    };
    Ok((result, timing))
}

// ---------------------------------------------------------------------------
// Supervised execution: the shared work-closure builder
// ---------------------------------------------------------------------------

/// The cache key for `spec` under `timeout_s`: FNV-1a over the canonical
/// spec JSON plus the deadline bits. The deadline is part of the key so a
/// run cancelled at 0 s can never poison (or be served from) the untimed
/// entry.
pub fn cache_key(spec: &JobSpec, timeout_s: Option<f64>) -> u64 {
    fnv1a64(
        format!(
            "{}|timeout={:?}",
            spec.canonical_json(),
            timeout_s.map(f64::to_bits)
        )
        .as_bytes(),
    )
}

/// Package `spec` as a supervised job body: single-flight cache lookup
/// keyed on [`cache_key`], simulation on miss, structured error
/// classification — the one code path `run_batch` and `psyncd` both route
/// jobs through.
///
/// * `job_token` — an optional per-job cancel source (the daemon's `cancel`
///   verb). The watch is armed **now**, at build time, so a cancel that
///   lands while the job is still queued is honored before any simulation
///   starts. It composes with whatever interrupt the supervisor arms
///   (per-job deadline + batch-wide cancel).
/// * `progress` — an optional probe every fabric poll publishes its
///   position to (the daemon's `progress` event stream).
pub fn supervised_work(
    spec: JobSpec,
    timeout_s: Option<f64>,
    cache: Arc<ResultCache>,
    job_token: Option<&CancelToken>,
    progress: Option<Progress>,
) -> Arc<Work> {
    let watch = job_token.map(CancelToken::watch);
    Arc::new(move |interrupt| {
        let mut intr = interrupt.unwrap_or_default();
        if let Some(w) = &watch {
            if w.is_cancelled() {
                return Err(WorkError::Cancelled {
                    detail: "job cancelled before the attempt started".to_string(),
                });
            }
            intr = intr.with_watch(w.clone());
        }
        if let Some(p) = &progress {
            intr = intr.with_progress(p.clone());
        }
        let intr = intr.is_armed().then_some(&intr);
        let key = cache_key(&spec, timeout_s);
        let (entry, cached) =
            cache.get_or_build(key, || spec.run(false, intr).map(|(json, _)| json))?;
        Ok(JobSuccess {
            json: entry.result_json.clone(),
            cached,
            fingerprint: entry.fingerprint,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::cancel::CancelCause;

    fn tiny() -> Table3Spec {
        Table3Spec {
            procs: 16,
            row_len: 8,
            threads: 1,
        }
    }

    #[test]
    fn uninterrupted_run_produces_consistent_row() {
        let (row, regs) = run_table3(&tiny(), false, None).expect("tiny transpose completes");
        assert_eq!(row.procs, 16);
        assert!(row.pscan_cycles > 0);
        assert!(row.mesh_cycles_tp1 > 0);
        assert!(row.multiplier_tp1 > 0.0);
        assert!(regs.is_empty(), "no tracing requested");
    }

    #[test]
    fn interrupt_is_ignored_when_nothing_fires() {
        let idle = Interrupt::new().with_cycle_bound(u64::MAX);
        let (a, _) = run_table3(&tiny(), false, None).unwrap();
        let (b, _) = run_table3(&tiny(), false, Some(&idle)).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "an armed-but-silent interrupt must not perturb the numbers"
        );
    }

    #[test]
    fn cycle_bound_cancels_with_structured_error() {
        let intr = Interrupt::new().with_cycle_bound(0);
        let err = run_table3(&tiny(), false, Some(&intr)).expect_err("bound 0 fires immediately");
        match err {
            MeshError::Cancelled { cause, .. } => {
                assert_eq!(cause, CancelCause::CycleReached { bound: 0 });
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        assert!(err.to_string().contains("Cancelled"));
    }

    #[test]
    fn canonical_json_is_stable() {
        assert_eq!(
            Table3Spec::quick().canonical_json(),
            r#"{"procs":256,"row_len":256,"threads":1}"#
        );
        assert_eq!(
            JobSpec::Table3(Table3Spec::quick()).canonical_json(),
            r#"{"schema":3,"family":"table3","spec":{"procs":256,"row_len":256,"threads":1}}"#
        );
        assert_eq!(
            JobSpec::Collectives(CollectivesSpec::quick()).canonical_json(),
            r#"{"schema":3,"family":"collectives","spec":{"width":4,"height":4,"torus":false,"words":4,"threads":1}}"#
        );
    }

    #[test]
    fn schema2_requests_still_parse() {
        // Exact request bodies schema-2 clients sent (including ones that
        // decorated the spec with the old schema number — unknown fields
        // are ignored by contract). The v3 bump is additive only.
        for body in [
            r#"{"family":"table3","procs":64,"row_len":64}"#,
            r#"{"schema":2,"family":"table3","preset":"quick"}"#,
            r#"{"family":"perf_mesh","policy":"xy","t_p":4,"procs":16,"row_len":4}"#,
            r#"{"family":"ablate_faults","rates":[0.0,0.01],"procs":16,"row_len":8,"gathers":2}"#,
            r#"{"family":"crosscheck_models","procs":8,"n":64,"ks":[1,4]}"#,
            r#"{"family":"full_matrix","fidelity":"auto:0.05","reference":true}"#,
        ] {
            let spec = parse(body).unwrap_or_else(|e| panic!("{body}: {e}"));
            spec.validate().expect("schema-2 bodies stay valid");
        }
    }

    #[test]
    fn from_value_parses_collectives_geometry() {
        let spec = parse(r#"{"family":"collectives","width":8,"height":2,"torus":true,"words":3}"#)
            .unwrap();
        match &spec {
            JobSpec::Collectives(s) => {
                assert_eq!((s.width, s.height, s.torus, s.words), (8, 2, true, 3));
                assert_eq!(s.topology().label(), "8x2t");
            }
            other => panic!("expected Collectives, got {other:?}"),
        }
        let err = parse(r#"{"family":"collectives","width":1}"#).unwrap_err();
        assert!(err.contains("at least 2"), "{err}");
        let err = parse(r#"{"family":"collectives","torus":3}"#).unwrap_err();
        assert!(err.contains("torus"), "{err}");
    }

    #[test]
    fn presets_cover_every_family() {
        for family in JobSpec::FAMILIES {
            for quick in [true, false] {
                let spec = JobSpec::preset(family, quick).expect("preset exists");
                assert_eq!(spec.family(), family);
                spec.validate().expect("presets validate");
                assert!(spec.canonical_json().contains(family));
            }
        }
        assert!(JobSpec::preset("nonsense", true).is_none());
    }

    fn parse(s: &str) -> Result<JobSpec, String> {
        JobSpec::from_value(&serde_json::from_str(s).expect("test specs are valid JSON"))
    }

    #[test]
    fn from_value_applies_preset_then_overrides() {
        let spec = parse(r#"{"family":"table3","procs":16,"row_len":8}"#).unwrap();
        assert_eq!(
            spec,
            JobSpec::Table3(Table3Spec {
                procs: 16,
                row_len: 8,
                threads: 1
            })
        );
        let spec = parse(r#"{"family":"table3","preset":"paper"}"#).unwrap();
        assert_eq!(spec, JobSpec::Table3(Table3Spec::paper()));
    }

    #[test]
    fn from_value_tolerates_unknown_fields() {
        let spec = parse(
            r#"{"family":"table3","procs":16,"row_len":8,"future_field":{"x":1},"note":"hi"}"#,
        )
        .unwrap();
        assert_eq!(spec.family(), "table3");
    }

    #[test]
    fn from_value_parses_every_family() {
        let pm = parse(r#"{"family":"perf_mesh","policy":"xy","t_p":4,"procs":16,"row_len":4}"#)
            .unwrap();
        match &pm {
            JobSpec::PerfMesh(s) => {
                assert_eq!(s.routing_policy().unwrap(), RoutingPolicy::Xy);
                assert_eq!(s.t_p, 4);
            }
            other => panic!("expected PerfMesh, got {other:?}"),
        }
        let af = parse(
            r#"{"family":"ablate_faults","rates":[0.0,0.01],"procs":16,"row_len":8,"gathers":2}"#,
        )
        .unwrap();
        match &af {
            JobSpec::AblateFaults(s) => assert_eq!(s.rates, vec![0.0, 0.01]),
            other => panic!("expected AblateFaults, got {other:?}"),
        }
        let cc = parse(r#"{"family":"crosscheck_models","procs":4,"n":16,"ks":[1,2]}"#).unwrap();
        match &cc {
            JobSpec::CrosscheckModels(s) => assert_eq!(s.ks, vec![1, 2]),
            other => panic!("expected CrosscheckModels, got {other:?}"),
        }
        let fm =
            parse(r#"{"family":"full_matrix","fidelity":"auto:0.1","reference":false}"#).unwrap();
        match &fm {
            JobSpec::FullMatrix(s) => {
                assert_eq!(s.fidelity, "auto:0.1");
                assert!(!s.reference);
                assert_eq!(s.scale, "quick");
            }
            other => panic!("expected FullMatrix, got {other:?}"),
        }
    }

    #[test]
    fn from_value_rejects_bad_specs_with_named_fields() {
        for (bad, needle) in [
            (r#"{"procs":16}"#, "family"),
            (r#"{"family":"warp_drive"}"#, "unknown family"),
            (r#"{"family":"table3","preset":"slow"}"#, "preset"),
            (r#"{"family":"table3","procs":"many"}"#, "procs"),
            (r#"{"family":"table3","procs":15}"#, "perfect square"),
            (r#"{"family":"table3","procs":0}"#, "positive"),
            (r#"{"family":"table3","threads":0}"#, "threads"),
            (r#"{"family":"perf_mesh","policy":"warp"}"#, "policy"),
            (r#"{"family":"ablate_faults","rates":[2.0]}"#, "rates"),
            (r#"{"family":"ablate_faults","rates":[]}"#, "rates"),
            (r#"{"family":"ablate_faults","gathers":0}"#, "gathers"),
            (r#"{"family":"crosscheck_models","ks":[3]}"#, "power of two"),
            (r#"{"family":"crosscheck_models","n":100}"#, "power of two"),
            (r#"{"family":"full_matrix","fidelity":"warp"}"#, "fidelity"),
            (r#"{"family":"full_matrix","scale":"huge"}"#, "scale"),
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad}: {err:?} lacks {needle:?}");
        }
        assert!(JobSpec::from_value(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn collectives_family_runs_both_fabrics_deterministically() {
        let spec = CollectivesSpec::quick();
        let (rows, regs) = run_collectives(&spec, false, None).expect("quick collectives run");
        assert_eq!(rows.len(), 6, "3 collectives x 2 fabrics");
        assert!(regs.is_empty(), "no tracing requested");
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].fabric, "mesh");
            assert_eq!(pair[1].fabric, "sca");
            assert_eq!(pair[0].collective, pair[1].collective);
            assert!(pair[0].cycles > 0 && pair[1].cycles > 0);
        }
        let (again, _) = run_collectives(&spec, false, None).unwrap();
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{} {}",
                a.collective, a.fabric
            );
        }
        // The torus variant is a different deterministic result, not a crash.
        let torus = CollectivesSpec {
            torus: true,
            ..spec
        };
        let (trows, _) = run_collectives(&torus, false, None).unwrap();
        assert_eq!(trows[0].geometry, "4x4t");
        assert_ne!(trows[0].fingerprint, rows[0].fingerprint);
    }

    #[test]
    fn canonical_json_distinguishes_specs_and_is_reparseable() {
        let a = JobSpec::Table3(tiny());
        let b = JobSpec::Table3(Table3Spec {
            procs: 64,
            ..tiny()
        });
        assert_ne!(a.canonical_json(), b.canonical_json());
        assert_ne!(cache_key(&a, None), cache_key(&b, None));
        assert_ne!(cache_key(&a, None), cache_key(&a, Some(1.0)));
        // The canonical envelope itself parses as JSON.
        let v = serde_json::from_str(&a.canonical_json()).unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("family").and_then(Value::as_str), Some("table3"));
    }

    #[test]
    fn matrix_composition_is_21_rows_with_3_forced_fallbacks() {
        let registry = ValidationRegistry::builtin();
        let auto = FidelityPolicy::auto();
        for quick in [true, false] {
            let points = matrix_points(quick);
            assert_eq!(points.len(), 21);
            assert!(points.iter().enumerate().all(|(i, p)| p.id == i + 1));
            let analytic = points
                .iter()
                .filter(|p| decide(auto, &p.point_config(), &registry).is_analytic())
                .count();
            // Rows 19–21 (unvalidated geometry, unvalidated policy, faults)
            // must fall back to cycle-accurate at either scale.
            assert_eq!(analytic, 18, "quick={quick}");
            assert_eq!(points.iter().filter(|p| p.fault_rate > 0.0).count(), 1);
        }
    }

    #[test]
    fn full_matrix_runs_without_reference_and_labels_every_row() {
        let spec = FullMatrixSpec {
            reference: false,
            ..FullMatrixSpec::quick()
        };
        let (result, timing) = run_full_matrix(&spec, None, None).unwrap();
        assert_eq!(result.rows.len(), 21);
        assert_eq!(result.analytic_rows, 18);
        assert_eq!(result.cycle_accurate_rows, 3);
        for row in &result.rows {
            assert!(row.value > 0.0, "row {} has no answer", row.id);
            assert_eq!(row.fidelity, row.decision.chosen);
            assert_eq!(
                row.fidelity == "analytic",
                row.envelope_rel_err.is_some(),
                "row {}: analytic answers carry envelopes, simulated ones don't",
                row.id
            );
            assert!(row.reference_value.is_none());
            assert!(row.within_envelope.is_none());
        }
        assert!(timing.selected_wall_s > 0.0);
        assert!(timing.analytic_wall_s <= timing.selected_wall_s);
        // Determinism: a second run produces byte-identical result JSON.
        let (again, _) = run_full_matrix(&spec, None, None).unwrap();
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn tiny_specs_run_to_deterministic_json() {
        let specs = [
            JobSpec::Table3(tiny()),
            JobSpec::PerfMesh(PerfMeshSpec {
                procs: 16,
                row_len: 4,
                policy: "Xy".to_string(),
                t_p: 1,
                threads: 1,
            }),
            JobSpec::AblateFaults(AblateFaultsSpec {
                rates: vec![0.0, 0.01],
                procs: 16,
                row_len: 8,
                gathers: 2,
                threads: 1,
            }),
            JobSpec::CrosscheckModels(CrosscheckSpec {
                procs: 4,
                n: 16,
                ks: vec![1, 2],
            }),
        ];
        for spec in specs {
            let (a, regs) = spec.run(false, None).expect("tiny spec runs");
            let (b, _) = spec.run(false, None).expect("rerun");
            assert_eq!(
                a,
                b,
                "{}: result bytes must be deterministic",
                spec.family()
            );
            assert!(regs.is_empty());
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn crosscheck_rows_pass_their_tolerance() {
        let rows = run_crosscheck_model2(
            &CrosscheckSpec {
                procs: 4,
                n: 16,
                ks: vec![1, 4],
            },
            None,
        )
        .unwrap();
        assert_eq!(rows.len(), 4, "two checks per k");
        for r in &rows {
            assert!(r.pass, "{}@{}: rel_err {}", r.check, r.point, r.rel_err);
        }
    }

    #[test]
    fn supervised_work_caches_and_honors_job_token() {
        let cache = Arc::new(ResultCache::new());
        let spec = JobSpec::Table3(tiny());
        let work = supervised_work(spec.clone(), None, Arc::clone(&cache), None, None);
        let first = work(None).expect("tiny job runs");
        assert!(!first.cached);
        let again = work(None).expect("cache hit");
        assert!(again.cached);
        assert_eq!(first.json, again.json, "byte-identical from the cache");
        assert_eq!(first.fingerprint, again.fingerprint);

        // A token cancelled while the job is still queued prevents any run.
        let token = CancelToken::new();
        let cancelled = supervised_work(
            JobSpec::Table3(Table3Spec {
                procs: 64,
                ..tiny()
            }),
            None,
            Arc::clone(&cache),
            Some(&token),
            None,
        );
        token.cancel();
        match cancelled(None) {
            Err(WorkError::Cancelled { detail }) => {
                assert!(detail.contains("before the attempt"), "{detail}")
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn supervised_work_reports_progress() {
        let cache = Arc::new(ResultCache::new());
        let probe = Progress::new();
        let work = supervised_work(
            JobSpec::Table3(tiny()),
            None,
            cache,
            None,
            Some(probe.clone()),
        );
        work(None).expect("tiny job runs");
        assert!(probe.polls() > 0, "fabric polls published progress");
        assert!(probe.cycle().is_some());
    }

    /// A mesh whose XY path from node 15 to the corner memif crosses a
    /// router killed at cycle 0, with retransmission off: the watchdog
    /// converts the livelock into `NoProgress`.
    fn wedged_mesh_error() -> MeshError {
        use emesh::flit::Packet;
        use emesh::memif::MemifConfig;
        use emesh::mesh::Mesh;
        use emesh::RouterKill;

        let mut m = Mesh::new(MeshConfig {
            topology: Topology::square(16, MemifPlacement::SingleCorner),
            t_r: 1,
            policy: RoutingPolicy::Xy,
            memif: MemifConfig::default(),
            buffer_depth: 2,
            max_cycles: 1 << 24,
            threads: 1,
        });
        m.enable_faults(MeshFaultConfig {
            router_kills: vec![RouterKill {
                router: 13,
                at_cycle: 0,
            }],
            retransmit: false,
            watchdog_cycles: 500,
            ..Default::default()
        });
        for e in 0..4u64 {
            m.inject_packet(15, &Packet::with_header(0, e, vec![e]));
        }
        m.run()
            .expect_err("the killed router wedges the only XY path")
    }

    #[test]
    fn no_progress_replays_identically_and_is_fatal_after_one_attempt() {
        use crate::supervisor::{JobError, Supervisor, SupervisorConfig};

        let first = wedged_mesh_error();
        assert!(
            matches!(first, MeshError::NoProgress { .. }),
            "expected NoProgress, got {first:?}"
        );
        // Same cycle, same diagnostic: running it again changes nothing.
        assert_eq!(wedged_mesh_error(), first);
        let detail = first.to_string();
        match classify_mesh(first) {
            WorkError::Fatal { detail: d } => assert_eq!(d, detail),
            other => panic!("expected Fatal, got {other:?}"),
        }

        let sup = Supervisor::new(SupervisorConfig {
            workers: 1,
            queue_cap: 1,
        });
        sup.submit(
            "wedged",
            None,
            Arc::new(|_| Err(classify_mesh(wedged_mesh_error()))),
        )
        .unwrap();
        let reports = sup.shutdown();
        assert_eq!(reports[0].attempts, 1);
        assert_eq!(
            reports[0].result.as_ref().unwrap_err(),
            &JobError::Failed { detail }
        );
    }
}
