//! Typed experiment job specifications shared by the standalone harness
//! binaries, the supervised batch driver (`run_batch`), and the experiment
//! daemon (`psyncd`).
//!
//! [`JobSpec`] is the one request surface: a versioned
//! (`SCHEMA_VERSION`) enum with one variant per experiment family, each a
//! spec type implementing [`Family`] (wire name, presets, field overrides,
//! validation and run):
//!
//! * **`table3`** — the Table III transpose (PSCAN closed form plus the
//!   `t_p = 1`/`t_p = 4` mesh simulations), byte-identical to the direct
//!   `table3_transpose` bin;
//! * **`perf_mesh`** — one mesh transpose at a chosen routing policy,
//!   reduced to its deterministic witness (cycles and flit moves);
//! * **`ablate_faults`** — the fault-rate degradation sweep over both
//!   fabrics;
//! * **`crosscheck_models`** — the Eq. 11/14 conformance checks of the
//!   cycle-accurate Model II machine against the §V closed forms;
//! * **`full_matrix`** — the 21-row ablation matrix under the
//!   multi-fidelity engine ([`crate::fidelity`]), with a
//!   [`crate::fidelity::FidelityDecision`] on every row;
//! * **`collectives`** — all-to-all / all-gather / all-reduce traffic on
//!   both fabrics over a chosen mesh/torus geometry.
//!
//! Every family's result is a deterministic JSON document, which is what
//! makes the exact result cache ([`crate::cache`]) sound: the cache key is
//! `JobSpec::canonical_json` (plus the deadline bits), and a hit returns
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
use emesh::mesh::{MeshConfig, MeshError, MeshRunResult, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::load_transpose;
use emesh::{MeshFaultConfig, MeshFaultStats};
use fft::Complex64;
use pscan::compiler::GatherSpec;
use pscan::faults::PscanFaultConfig;
use psync::collectives::run_sca_collective;
use psync::machine::{Machine, MachineConfig, MachineError};
use rayon::prelude::*;
use serde::{Serialize, Value};
use sim_core::cancel::{CancelToken, Interrupt, Progress};
use sim_core::collective::Collective;
use sim_core::telemetry::Registry;

use crate::cache::{fnv1a64, ResultCache};
use crate::crosscheck::{
    eq21_scatter_cycles, predict_model2, rel_err, sca_writeback, witness, TOL_ALGEBRAIC,
};
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
pub(crate) const SCHEMA_VERSION: u32 = 3;

// ---------------------------------------------------------------------------
// The family contract and the JobSpec enum
// ---------------------------------------------------------------------------

/// What a family's run returns: its rows plus any telemetry registries.
pub(crate) type RunResult<T> = Result<(T, Vec<Registry>), WorkError>;

/// One experiment family: a spec type with its wire name, presets, field
/// overrides, validation and run.
pub trait Family: Serialize + Sized {
    /// The wire name: the `family` field of requests and canonical JSON.
    const NAME: &'static str;
    /// The [`JobSpec`] variant that holds this family.
    const VARIANT: fn(Self) -> JobSpec;
    /// What a run returns; [`JobSpec::run`] serializes it.
    type Rows: Serialize + 'static;

    /// The quick (per-PR) or paper-scale configuration.
    fn preset(quick: bool) -> Self;

    /// Override every field `v` carries; a wrong-typed value is a
    /// `spec.<field> must be …` error.
    fn set_fields(&mut self, v: &Value) -> Result<(), String>;

    /// Reject configurations the fabrics would panic on or could not hold,
    /// with a message naming the offending field.
    fn validate(&self) -> Result<(), String>;

    /// Run the experiment (telemetry registries only when `tracing`):
    /// `Cancelled` when the interrupt fired, `Fatal` for everything else.
    fn run(&self, tracing: bool, interrupt: Option<&Interrupt>) -> RunResult<Self::Rows>;
}

/// A spec field type [`set`] reads from a request value.
trait Field: Sized {
    /// What a JSON value of this type is called ("number").
    const NOUN: &'static str;
    /// `v` as this type, if it is one.
    const READ: fn(&Value) -> Option<Self>;
    /// The "must be …" phrase of a wrong-typed value's error.
    fn want() -> String {
        format!("a {}", Self::NOUN)
    }
}

impl Field for usize {
    const NOUN: &'static str = "non-negative integer";
    const READ: fn(&Value) -> Option<Self> = |v| v.as_u64()?.try_into().ok();
}

impl Field for u64 {
    const NOUN: &'static str = "non-negative integer";
    const READ: fn(&Value) -> Option<Self> = Value::as_u64;
}

impl Field for f64 {
    const NOUN: &'static str = "number";
    const READ: fn(&Value) -> Option<Self> = Value::as_f64;
}

impl Field for bool {
    const NOUN: &'static str = "boolean";
    const READ: fn(&Value) -> Option<Self> = Value::as_bool;
}

impl Field for String {
    const NOUN: &'static str = "string";
    const READ: fn(&Value) -> Option<Self> = |v| v.as_str().map(str::to_string);
}

impl<T: Field> Field for Vec<T> {
    const NOUN: &'static str = "array";
    const READ: fn(&Value) -> Option<Self> = |v| v.as_array()?.iter().map(T::READ).collect();
    fn want() -> String {
        format!("an array of {}s", T::NOUN)
    }
}

/// Override `*slot` with field `key` of `v` when `v` has it. Absent fields
/// keep the preset; unknown fields are never looked at.
fn set<T: Field>(v: &Value, key: &str, slot: &mut T) -> Result<(), String> {
    if let Some(x) = v.get(key) {
        *slot = T::READ(x).ok_or_else(|| format!("spec.{key} must be {}", T::want()))?;
    }
    Ok(())
}

/// `Err` naming `what` unless `value` is known (no overflow) and at most
/// `max`.
fn at_most(what: &str, value: Option<usize>, max: usize) -> Result<(), String> {
    match value {
        Some(v) if v <= max => Ok(()),
        _ => Err(format!("{what} must be at most {max}")),
    }
}

/// [`Family`] with its row type erased, for [`JobSpec`]'s one `match`.
trait DynFamily: Serialize {
    fn name(&self) -> &'static str;
    fn check(&self) -> Result<(), String>;
    fn run_rows(&self, tracing: bool, intr: Option<&Interrupt>) -> RunResult<Box<dyn Serialize>>;
}

impl<F: Family> DynFamily for F {
    fn name(&self) -> &'static str {
        F::NAME
    }
    fn check(&self) -> Result<(), String> {
        self.validate()
    }
    fn run_rows(&self, tracing: bool, intr: Option<&Interrupt>) -> RunResult<Box<dyn Serialize>> {
        let (rows, regs) = self.run(tracing, intr)?;
        Ok((Box::new(rows), regs))
    }
}

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

/// A family's preset with a request's fields applied (not yet validated).
type Parser = fn(&Value, bool) -> Result<JobSpec, String>;

fn parse<F: Family>(v: &Value, quick: bool) -> Result<JobSpec, String> {
    let mut spec = F::preset(quick);
    spec.set_fields(v)?;
    Ok(F::VARIANT(spec))
}

/// Every family's wire name and parser, in wire-listing order.
const FAMILY_TABLE: [(&str, Parser); 6] = [
    (Table3Spec::NAME, parse::<Table3Spec>),
    (PerfMeshSpec::NAME, parse::<PerfMeshSpec>),
    (AblateFaultsSpec::NAME, parse::<AblateFaultsSpec>),
    (CrosscheckSpec::NAME, parse::<CrosscheckSpec>),
    (FullMatrixSpec::NAME, parse::<FullMatrixSpec>),
    (CollectivesSpec::NAME, parse::<CollectivesSpec>),
];

impl JobSpec {
    /// The family behind this variant.
    fn family_impl(&self) -> &dyn DynFamily {
        match self {
            JobSpec::Table3(s) => s,
            JobSpec::PerfMesh(s) => s,
            JobSpec::AblateFaults(s) => s,
            JobSpec::CrosscheckModels(s) => s,
            JobSpec::FullMatrix(s) => s,
            JobSpec::Collectives(s) => s,
        }
    }

    fn parser(family: &str) -> Option<Parser> {
        let entry = FAMILY_TABLE.iter().find(|(name, _)| *name == family);
        entry.map(|&(_, parse)| parse)
    }

    /// The wire name of this spec's experiment family.
    pub fn family(&self) -> &'static str {
        self.family_impl().name()
    }

    /// Every routable family name, in wire spelling.
    pub fn families() -> impl Iterator<Item = &'static str> {
        FAMILY_TABLE.iter().map(|&(name, _)| name)
    }

    /// The preset spec for `family`: the quick or full configuration the
    /// corresponding harness bin runs. `None` for an unknown family.
    pub fn preset(family: &str, quick: bool) -> Option<JobSpec> {
        Self::parser(family)?(&Value::Null, quick).ok()
    }

    /// Canonical JSON for config hashing and the wire: a versioned envelope
    /// with a stable field order, so equal specs always serialize to equal
    /// bytes.
    pub(crate) fn canonical_json(&self) -> String {
        let spec = serde_json::to_string(self.family_impl()).expect("job specs serialize");
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
            None | Some("quick") => true,
            Some("paper" | "full") => false,
            Some(other) => {
                return Err(format!(
                    "spec.preset {other:?} unknown (expected \"quick\" or \"paper\")"
                ))
            }
        };
        let parse = Self::parser(family).ok_or_else(|| {
            let known: Vec<_> = Self::families().collect();
            format!("unknown family {family:?} (expected one of {known:?})")
        })?;
        let spec = parse(v, quick)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Reject configurations the fabrics would panic on, so a bad request
    /// is a structured error instead of a `Panicked` job report.
    pub fn validate(&self) -> Result<(), String> {
        self.family_impl().check()
    }

    /// Run the experiment this spec describes to its deterministic result
    /// JSON (the bytes the cache stores and the daemon streams), plus any
    /// telemetry registries when `tracing`.
    ///
    /// # Errors
    /// A classified [`WorkError`]: `Cancelled` when the interrupt fired,
    /// `Fatal` for an invalid spec and everything else.
    pub fn run(&self, tracing: bool, interrupt: Option<&Interrupt>) -> RunResult<String> {
        let family = self.family_impl();
        family
            .check()
            .map_err(|detail| WorkError::Fatal { detail })?;
        let (rows, regs) = family.run_rows(tracing, interrupt)?;
        let json = serde_json::to_string_pretty(&*rows).map_err(|e| WorkError::Fatal {
            detail: format!("serialize result rows: {e}"),
        })?;
        Ok((json, regs))
    }
}

/// Classify a fabric error for the supervisor: `Cancelled` when the
/// interrupt fired, else `Fatal`. A watchdog `NoProgress` is `Fatal` too:
/// fault draws are deterministic, so the same spec fails the same way again.
fn classify(cancelled: bool, e: impl std::fmt::Display) -> WorkError {
    let detail = e.to_string();
    if cancelled {
        WorkError::Cancelled { detail }
    } else {
        WorkError::Fatal { detail }
    }
}

fn classify_mesh(e: MeshError) -> WorkError {
    classify(matches!(e, MeshError::Cancelled { .. }), e)
}

fn classify_machine(e: MachineError) -> WorkError {
    classify(matches!(e, MachineError::Cancelled { .. }), e)
}

/// The between-rows cancellation poll of the multi-row families: `done`
/// rows are finished, and `done` is the position the interrupt sees.
fn poll_between_rows(
    intr: &mut Option<Interrupt>,
    family: &str,
    done: usize,
) -> Result<(), WorkError> {
    match intr.as_mut().and_then(|i| i.check(done as u64)) {
        Some(cause) => Err(WorkError::Cancelled {
            detail: format!("{family} Cancelled after {done} row(s) ({cause})"),
        }),
        None => Ok(()),
    }
}

/// Parse a routing-policy name (`MinimalAdaptive`/`minimal_adaptive`,
/// `Xy`/`xy`).
fn parse_routing_policy(name: &str) -> Result<RoutingPolicy, String> {
    match name {
        "MinimalAdaptive" | "minimal_adaptive" => Ok(RoutingPolicy::MinimalAdaptive),
        "Xy" | "xy" => Ok(RoutingPolicy::Xy),
        other => Err(format!(
            "unknown routing policy {other:?} (expected MinimalAdaptive or Xy)"
        )),
    }
}

/// Largest mesh a transpose family accepts: 16× the paper's P = 1024.
const MAX_MESH_PROCS: usize = 1 << 14;
/// Largest transpose a mesh family accepts: 16× the paper's 2²⁰ elements.
const MAX_MESH_ELEMENTS: usize = 1 << 24;

/// The geometry checks of the mesh-transpose families.
fn mesh_geometry(procs: usize, row_len: usize, threads: usize) -> Result<(), String> {
    if procs == 0 || row_len == 0 {
        return Err("procs and row_len must be positive".to_string());
    }
    at_most("procs", Some(procs), MAX_MESH_PROCS)?;
    let elements = procs.checked_mul(row_len);
    at_most("procs × row_len", elements, MAX_MESH_ELEMENTS)?;
    if procs.isqrt().pow(2) != procs {
        return Err(format!("procs must be a perfect square, got {procs}"));
    }
    if threads == 0 {
        return Err("threads must be at least 1".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// table3 family
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

impl Family for Table3Spec {
    const NAME: &'static str = "table3";
    const VARIANT: fn(Self) -> JobSpec = JobSpec::Table3;
    type Rows = Table3Row;

    /// Quick: P = N = 256. Paper: P = N = 1024.
    fn preset(quick: bool) -> Self {
        let side = if quick { 256 } else { 1024 };
        Table3Spec {
            procs: side,
            row_len: side,
            threads: 1,
        }
    }

    fn set_fields(&mut self, v: &Value) -> Result<(), String> {
        set(v, "procs", &mut self.procs)?;
        set(v, "row_len", &mut self.row_len)?;
        set(v, "threads", &mut self.threads)
    }

    fn validate(&self) -> Result<(), String> {
        mesh_geometry(self.procs, self.row_len, self.threads)
    }

    fn run(&self, tracing: bool, interrupt: Option<&Interrupt>) -> RunResult<Table3Row> {
        run_table3(self, tracing, interrupt).map_err(classify_mesh)
    }
}

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
            let mesh_cfg = MeshConfig::table3(cfg.procs, t_p).with_threads(cfg.threads);
            let mut mesh = load_transpose(mesh_cfg, cfg.procs, cfg.row_len);
            if let Some(intr) = interrupt {
                mesh.set_interrupt(intr.clone());
            }
            // Trace only the t_p = 1 run: one fully-instrumented mesh is
            // what the trace viewer wants, not two interleaved ones.
            if tracing && t_p == 1 {
                mesh.enable_telemetry();
            }
            let res = mesh.run()?;
            let elements = res.memif_stats[0].elements as usize;
            assert_eq!(elements, cfg.procs * cfg.row_len, "lost elements");
            Ok((res.cycles, mesh.take_telemetry()))
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

/// Largest `t_p` `perf_mesh` accepts (the paper runs 1 and 4).
const MAX_T_P: usize = 1 << 10;

impl Family for PerfMeshSpec {
    const NAME: &'static str = "perf_mesh";
    const VARIANT: fn(Self) -> JobSpec = JobSpec::PerfMesh;
    type Rows = PerfMeshRow;

    /// Quick: the 256 × 256 transpose. Paper: the 2²⁰-element one. Both
    /// minimal adaptive at `t_p = 1`.
    fn preset(quick: bool) -> Self {
        let side = if quick { 256 } else { 1024 };
        PerfMeshSpec {
            procs: side,
            row_len: side,
            policy: "MinimalAdaptive".to_string(),
            t_p: 1,
            threads: 1,
        }
    }

    fn set_fields(&mut self, v: &Value) -> Result<(), String> {
        set(v, "procs", &mut self.procs)?;
        set(v, "row_len", &mut self.row_len)?;
        set(v, "threads", &mut self.threads)?;
        set(v, "t_p", &mut self.t_p)?;
        set(v, "policy", &mut self.policy)
    }

    fn validate(&self) -> Result<(), String> {
        mesh_geometry(self.procs, self.row_len, self.threads)?;
        at_most("t_p", usize::try_from(self.t_p).ok(), MAX_T_P)?;
        parse_routing_policy(&self.policy).map(|_| ())
    }

    fn run(&self, _tracing: bool, interrupt: Option<&Interrupt>) -> RunResult<PerfMeshRow> {
        let policy =
            parse_routing_policy(&self.policy).map_err(|detail| WorkError::Fatal { detail })?;
        let (procs, row_len, t_p) = (self.procs, self.row_len, self.t_p);
        let (res, _) = perf_mesh_point(procs, row_len, policy, t_p, self.threads, interrupt)
            .map_err(classify_mesh)?;
        let row = PerfMeshRow {
            procs,
            row_len,
            elements: procs * row_len,
            policy: self.policy.clone(),
            t_p,
            threads: self.threads,
            cycles: res.cycles,
            flit_moves: res.energy.router_traversals,
        };
        Ok((row, Vec::new()))
    }
}

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

/// Run one mesh transpose: its result and the wall-clock seconds of the
/// `run()` call (construction excluded, the `perf_mesh` bin's historical
/// timing window). Shared by the `perf_mesh` bin and the `perf_mesh` job
/// family.
pub fn perf_mesh_point(
    procs: usize,
    row_len: usize,
    policy: RoutingPolicy,
    t_p: u64,
    threads: usize,
    interrupt: Option<&Interrupt>,
) -> Result<(MeshRunResult, f64), MeshError> {
    let cfg = MeshConfig::table3(procs, t_p)
        .with_policy(policy)
        .with_threads(threads);
    let mut mesh = load_transpose(cfg, procs, row_len);
    if let Some(intr) = interrupt {
        mesh.set_interrupt(intr.clone());
    }
    let t0 = std::time::Instant::now();
    let res = mesh.run()?;
    Ok((res, t0.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------------
// collectives family
// ---------------------------------------------------------------------------

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

/// Largest block `collectives` accepts: 16× the paper's 64 words.
const MAX_COLLECTIVE_WORDS: usize = 1 << 10;
/// Largest SCA head-node DRAM `collectives` accepts: 16× the paper
/// preset's 256² × 64 words.
const MAX_SCA_DRAM_WORDS: usize = 1 << 26;

impl CollectivesSpec {
    /// The mesh topology this spec describes (memory interface in the
    /// single corner, as in the Table III runs).
    pub fn topology(&self) -> Topology {
        Topology::rect(self.width, self.height, MemifPlacement::SingleCorner).with_torus(self.torus)
    }

    /// Head-node DRAM words the SCA machine needs, a block from every
    /// processor to every processor; `None` on overflow.
    fn sca_dram_words(&self) -> Option<usize> {
        let procs = self.width.checked_mul(self.height)?;
        procs.checked_mul(procs)?.checked_mul(self.words)
    }
}

impl Family for CollectivesSpec {
    const NAME: &'static str = "collectives";
    const VARIANT: fn(Self) -> JobSpec = JobSpec::Collectives;
    type Rows = Vec<CollectiveRow>;

    /// Quick: a 4×4 mesh with 4-word blocks. Paper: 16×16 with 64-word
    /// blocks.
    fn preset(quick: bool) -> Self {
        let (side, words) = if quick { (4, 4) } else { (16, 64) };
        CollectivesSpec {
            width: side,
            height: side,
            torus: false,
            words,
            threads: 1,
        }
    }

    fn set_fields(&mut self, v: &Value) -> Result<(), String> {
        set(v, "width", &mut self.width)?;
        set(v, "height", &mut self.height)?;
        set(v, "words", &mut self.words)?;
        set(v, "threads", &mut self.threads)?;
        set(v, "torus", &mut self.torus)
    }

    fn validate(&self) -> Result<(), String> {
        if self.width < 2 || self.height < 2 {
            return Err(format!(
                "width and height must each be at least 2 (a corner memif \
                 must leave collective participants), got {}x{}",
                self.width, self.height
            ));
        }
        if self.words == 0 {
            return Err("words must be at least 1".to_string());
        }
        if self.threads == 0 {
            return Err("threads must be at least 1".to_string());
        }
        at_most("words", Some(self.words), MAX_COLLECTIVE_WORDS)?;
        let dram = self.sca_dram_words();
        at_most("(width × height)² × words", dram, MAX_SCA_DRAM_WORDS)
    }

    fn run(&self, tracing: bool, interrupt: Option<&Interrupt>) -> RunResult<Vec<CollectiveRow>> {
        run_collectives(self, tracing, interrupt)
    }
}

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
    let cfg = MeshConfig::paper_default()
        .with_topology(spec.topology())
        .with_policy(RoutingPolicy::Xy)
        .with_max_cycles(1 << 30)
        .with_threads(spec.threads);
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
///
/// # Panics
/// If the machine's DRAM size overflows `usize`, which no spec that passes
/// [`Family::validate`] does.
pub fn collective_sca_row(
    spec: &CollectivesSpec,
    collective: Collective,
    tracing: bool,
) -> Result<(CollectiveRow, Option<Registry>), MachineError> {
    let procs = spec.width * spec.height;
    let dram_words = spec
        .sca_dram_words()
        .expect("SCA DRAM size overflows usize; validate the spec first");
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
        poll_between_rows(&mut intr, CollectivesSpec::NAME, rows.len())?;
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

/// Most SCA writeback bursts `ablate_faults` accepts: 64× the paper's 16.
const MAX_GATHERS: usize = 1 << 10;

impl Family for AblateFaultsSpec {
    const NAME: &'static str = "ablate_faults";
    const VARIANT: fn(Self) -> JobSpec = JobSpec::AblateFaults;
    type Rows = Vec<FaultPoint>;

    /// The configurations the `ablate_faults` bin runs. Quick: a 16 × 16
    /// transpose and 4 bursts. Paper: 64 × 64 and 16 bursts.
    fn preset(quick: bool) -> Self {
        let (side, gathers) = if quick { (16, 4) } else { (64, 16) };
        AblateFaultsSpec {
            rates: FAULT_RATES.to_vec(),
            procs: side,
            row_len: side,
            gathers,
            threads: 1,
        }
    }

    fn set_fields(&mut self, v: &Value) -> Result<(), String> {
        set(v, "procs", &mut self.procs)?;
        set(v, "row_len", &mut self.row_len)?;
        set(v, "gathers", &mut self.gathers)?;
        set(v, "threads", &mut self.threads)?;
        set(v, "rates", &mut self.rates)
    }

    fn validate(&self) -> Result<(), String> {
        mesh_geometry(self.procs, self.row_len, self.threads)?;
        if self.gathers == 0 {
            return Err("gathers must be at least 1".to_string());
        }
        at_most("gathers", Some(self.gathers), MAX_GATHERS)?;
        if self.rates.is_empty() {
            return Err("rates must be non-empty".to_string());
        }
        for &r in &self.rates {
            if !r.is_finite() || !(0.0..1.0).contains(&r) {
                return Err(format!("rates must be finite in [0, 1), got {r}"));
            }
        }
        Ok(())
    }

    /// Every rate, both fabrics, in parallel across rates (order kept).
    fn run(&self, _tracing: bool, interrupt: Option<&Interrupt>) -> RunResult<Vec<FaultPoint>> {
        let points = self
            .rates
            .par_iter()
            .map(|&rate| {
                eprintln!("rate = {rate:.0e}...");
                let (mesh_cycles, mesh_energy_uj, ms) =
                    mesh_fault_point(rate, self.procs, self.row_len, self.threads, interrupt)
                        .map_err(classify_mesh)?;
                let (pscan_bus_slots, pscan_retries, pscan_corrupted_words, pscan_giveups) =
                    machine_fault_point(rate, self.gathers, interrupt).map_err(classify_machine)?;
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
            .collect::<Result<_, WorkError>>()?;
        Ok((points, Vec::new()))
    }
}

/// Word/flit error probabilities the `ablate_faults` bin sweeps. Spacing is
/// ≥ 2× so the retry counts separate cleanly under the fixed seeds.
pub(crate) const FAULT_RATES: &[f64] = &[0.0, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2];

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

/// The mesh fault model at error probability `rate`: transient flit
/// corruption plus link outages at a tenth of that rate.
fn mesh_faults(rate: f64) -> MeshFaultConfig {
    MeshFaultConfig {
        seed: 0xFA_u64,
        corrupt_rate: rate,
        link_down_rate: rate / 10.0,
        max_retransmits: 64,
        ..Default::default()
    }
}

/// Mesh half of one sweep point: the Table III transpose under transient
/// flit corruption plus occasional link outages.
pub(crate) fn mesh_fault_point(
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
    mesh.enable_faults(mesh_faults(rate));
    let res = mesh.run()?;
    let energy_uj = OrionParams::default().total_j(&res.energy, procs) * 1e6;
    Ok((res.cycles, energy_uj, res.faults.expect("layer attached")))
}

/// Machine half of one sweep point: `gathers` SCA writebacks of one 64-slot
/// burst each. Bursts are kept small so even the harshest swept rate stays
/// recoverable within the link-layer retry budget (CRC granularity =
/// burst). Returns `(bus_slots, retries, corrupted_words, giveups)`.
pub(crate) fn machine_fault_point(
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

// ---------------------------------------------------------------------------
// crosscheck_models family
// ---------------------------------------------------------------------------

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

/// Largest signal `crosscheck_models` accepts, `procs × n` samples: 16×
/// the paper grid's 16 × 1024.
const MAX_MODEL2_SAMPLES: usize = 1 << 18;

impl Family for CrosscheckSpec {
    const NAME: &'static str = "crosscheck_models";
    const VARIANT: fn(Self) -> JobSpec = JobSpec::CrosscheckModels;
    type Rows = Vec<CrosscheckRow>;

    /// The grids the `crosscheck_models` bin uses for its check 1.
    fn preset(quick: bool) -> Self {
        if quick {
            CrosscheckSpec {
                procs: 8,
                n: 64,
                ks: vec![1, 4, 8],
            }
        } else {
            CrosscheckSpec {
                procs: 16,
                n: 1024,
                ks: vec![1, 8, 64],
            }
        }
    }

    fn set_fields(&mut self, v: &Value) -> Result<(), String> {
        set(v, "procs", &mut self.procs)?;
        set(v, "n", &mut self.n)?;
        set(v, "ks", &mut self.ks)
    }

    fn validate(&self) -> Result<(), String> {
        if self.procs == 0 || self.n == 0 {
            return Err("procs and n must be positive".to_string());
        }
        let samples = self.procs.checked_mul(self.n);
        at_most("procs × n", samples, MAX_MODEL2_SAMPLES)?;
        if !self.n.is_power_of_two() {
            return Err(format!("n must be a power of two, got {}", self.n));
        }
        if self.ks.is_empty() {
            return Err("ks must be non-empty".to_string());
        }
        for &k in &self.ks {
            if k == 0 || k > self.n || !k.is_power_of_two() {
                return Err(format!(
                    "each k must be a power of two in [1, n={}], got {k}",
                    self.n
                ));
            }
        }
        Ok(())
    }

    fn run(&self, _tracing: bool, interrupt: Option<&Interrupt>) -> RunResult<Vec<CrosscheckRow>> {
        let rows = self.timed_rows(interrupt)?;
        Ok((rows.into_iter().map(|(row, _)| row).collect(), Vec::new()))
    }
}

impl CrosscheckSpec {
    /// Both checks at every `k`, each row paired with the wall seconds of
    /// the machine run it checks (the `crosscheck_models` bin rates its
    /// witness against them). Polled for cancellation between points (the
    /// machine runs are short; per-point granularity keeps cancellation
    /// prompt without threading an interrupt through `run_model2_rows`).
    ///
    /// # Errors
    /// [`WorkError::Cancelled`] when `interrupt` fires between points.
    pub fn timed_rows(
        &self,
        interrupt: Option<&Interrupt>,
    ) -> Result<Vec<(CrosscheckRow, f64)>, WorkError> {
        let signal = crosscheck_signal_rows(self.procs, self.n);
        let mut intr = interrupt.cloned();
        let mut rows = Vec::new();
        for &k in &self.ks {
            poll_between_rows(&mut intr, Self::NAME, rows.len())?;
            let point = format!("P={},N={},k={k}", self.procs, self.n);
            eprintln!("crosscheck: eq11 machine at {point} ...");
            let t0 = std::time::Instant::now();
            let run = psync::run_model2_rows(self.procs, self.n, k, &signal);
            let wall = t0.elapsed().as_secs_f64();
            let pred = predict_model2(self.procs, self.n, k, run.serialized_seconds);
            for (check, measured, predicted) in [
                (
                    "eq11_total_time",
                    run.overlapped_seconds,
                    pred.overlapped_seconds,
                ),
                ("eq14_efficiency", run.efficiency, pred.efficiency),
            ] {
                let rel_err = rel_err(measured, predicted);
                let row = CrosscheckRow {
                    check: check.to_string(),
                    point: point.clone(),
                    measured,
                    predicted,
                    rel_err,
                    tol: TOL_ALGEBRAIC,
                    pass: rel_err <= TOL_ALGEBRAIC,
                    witness: witness(measured),
                };
                rows.push((row, wall));
            }
        }
        Ok(rows)
    }
}

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
pub(crate) fn crosscheck_signal_rows(procs: usize, n: usize) -> Vec<Vec<Complex64>> {
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

// ---------------------------------------------------------------------------
// full_matrix family
// ---------------------------------------------------------------------------

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

impl Family for FullMatrixSpec {
    const NAME: &'static str = "full_matrix";
    const VARIANT: fn(Self) -> JobSpec = JobSpec::FullMatrix;
    type Rows = FullMatrixResult;

    /// Auto fidelity at either scale. Quick runs the cycle-accurate
    /// reference pass (cheap at this scale, and it lets CI assert every
    /// analytic row sits inside its envelope); paper does not — the point
    /// is that full scale no longer costs a full simulation sweep.
    fn preset(quick: bool) -> Self {
        FullMatrixSpec {
            scale: if quick { "quick" } else { "paper" }.to_string(),
            fidelity: "auto".to_string(),
            reference: quick,
        }
    }

    fn set_fields(&mut self, v: &Value) -> Result<(), String> {
        set(v, "fidelity", &mut self.fidelity)?;
        set(v, "reference", &mut self.reference)?;
        set(v, "scale", &mut self.scale)
    }

    fn validate(&self) -> Result<(), String> {
        if self.scale != "quick" && self.scale != "paper" {
            return Err(format!(
                "scale must be \"quick\" or \"paper\", got {:?}",
                self.scale
            ));
        }
        FidelityPolicy::parse(&self.fidelity)
            .map(|_| ())
            .map_err(|e| format!("fidelity: {e}"))
    }

    fn run(&self, tracing: bool, interrupt: Option<&Interrupt>) -> RunResult<FullMatrixResult> {
        let reg = tracing.then(Registry::new);
        let (result, _timing) = run_full_matrix(self, interrupt, reg.as_ref())?;
        Ok((result, reg.into_iter().collect()))
    }
}

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
    pub(crate) fn point_label(&self) -> String {
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
            let policy =
                parse_routing_policy(pt.policy).map_err(|detail| WorkError::Fatal { detail })?;
            let faults = (pt.fault_rate > 0.0).then(|| mesh_faults(pt.fault_rate));
            let cycles =
                eq21_scatter_cycles(pt.p as usize, pt.n as usize, policy, faults, interrupt)
                    .map_err(classify_mesh)?;
            Ok((cycles as f64, "cycles"))
        }
        "table3_pscan" => {
            // The measured writeback: the SCA's slot span plus one header
            // slot per DRAM row — the same composition the conformance
            // oracle holds equal to Eqs. 23/24.
            let wb = sca_writeback(pt.p as usize, pt.n as usize).map_err(|e| WorkError::Fatal {
                detail: format!("pscan gather: {e}"),
            })?;
            Ok(((wb.span_slots() + wb.header_slots) as f64, "cycles"))
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
    let policy =
        FidelityPolicy::parse(&spec.fidelity).map_err(|detail| WorkError::Fatal { detail })?;
    let registry = ValidationRegistry::builtin();
    let quick = spec.scale == "quick";
    let points = matrix_points(quick);

    let mut intr = interrupt.cloned();
    let mut rows = Vec::with_capacity(points.len());
    let mut timing = FullMatrixTiming::default();
    for pt in &points {
        poll_between_rows(&mut intr, FullMatrixSpec::NAME, rows.len())?;
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
            let rel = rel_err(value, ref_value);
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
pub(crate) fn cache_key(spec: &JobSpec, timeout_s: Option<f64>) -> u64 {
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
/// keyed on `cache_key`, simulation on miss, structured error
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

    /// The canonical wire bytes of every preset (6 families x quick/paper).
    const PRESET_JSON: [(&str, bool, &str); 12] = [
        (
            "table3",
            true,
            r#"{"schema":3,"family":"table3","spec":{"procs":256,"row_len":256,"threads":1}}"#,
        ),
        (
            "table3",
            false,
            r#"{"schema":3,"family":"table3","spec":{"procs":1024,"row_len":1024,"threads":1}}"#,
        ),
        (
            "perf_mesh",
            true,
            r#"{"schema":3,"family":"perf_mesh","spec":{"procs":256,"row_len":256,"policy":"MinimalAdaptive","t_p":1,"threads":1}}"#,
        ),
        (
            "perf_mesh",
            false,
            r#"{"schema":3,"family":"perf_mesh","spec":{"procs":1024,"row_len":1024,"policy":"MinimalAdaptive","t_p":1,"threads":1}}"#,
        ),
        (
            "ablate_faults",
            true,
            r#"{"schema":3,"family":"ablate_faults","spec":{"rates":[0.0,0.001,0.002,0.005,0.01,0.02,0.05],"procs":16,"row_len":16,"gathers":4,"threads":1}}"#,
        ),
        (
            "ablate_faults",
            false,
            r#"{"schema":3,"family":"ablate_faults","spec":{"rates":[0.0,0.001,0.002,0.005,0.01,0.02,0.05],"procs":64,"row_len":64,"gathers":16,"threads":1}}"#,
        ),
        (
            "crosscheck_models",
            true,
            r#"{"schema":3,"family":"crosscheck_models","spec":{"procs":8,"n":64,"ks":[1,4,8]}}"#,
        ),
        (
            "crosscheck_models",
            false,
            r#"{"schema":3,"family":"crosscheck_models","spec":{"procs":16,"n":1024,"ks":[1,8,64]}}"#,
        ),
        (
            "full_matrix",
            true,
            r#"{"schema":3,"family":"full_matrix","spec":{"scale":"quick","fidelity":"auto","reference":true}}"#,
        ),
        (
            "full_matrix",
            false,
            r#"{"schema":3,"family":"full_matrix","spec":{"scale":"paper","fidelity":"auto","reference":false}}"#,
        ),
        (
            "collectives",
            true,
            r#"{"schema":3,"family":"collectives","spec":{"width":4,"height":4,"torus":false,"words":4,"threads":1}}"#,
        ),
        (
            "collectives",
            false,
            r#"{"schema":3,"family":"collectives","spec":{"width":16,"height":16,"torus":false,"words":64,"threads":1}}"#,
        ),
    ];

    #[test]
    fn canonical_json_is_stable() {
        for (family, quick, json) in PRESET_JSON {
            let spec = JobSpec::preset(family, quick).expect("preset exists");
            assert_eq!(spec.canonical_json(), json, "{family} quick={quick}");
        }
    }

    #[test]
    fn canonical_spec_fields_round_trip_through_from_value() {
        for (family, quick, json) in PRESET_JSON {
            let envelope: Value = serde_json::from_str(json).unwrap();
            let Some(Value::Object(fields)) = envelope.get("spec").cloned() else {
                panic!("{json}: spec is not an object");
            };
            let mut body = vec![("family".to_string(), Value::Str(family.to_string()))];
            body.extend(fields);
            assert_eq!(
                JobSpec::from_value(&Value::Object(body)),
                Ok(JobSpec::preset(family, quick).unwrap()),
                "{family} quick={quick}"
            );
        }
    }

    /// FNV-1a of `run(false, None)`'s result JSON for one small spec per
    /// family (the specs perfbench's `service` workload submits), so a
    /// family's result bytes cannot drift unnoticed.
    #[test]
    fn small_spec_results_are_pinned() {
        for (body, fnv) in [
            (
                r#"{"family":"table3","procs":16,"row_len":8}"#,
                0xd5ad_0164_6db0_5fb2_u64,
            ),
            (
                r#"{"family":"perf_mesh","procs":16,"row_len":16}"#,
                0x0fe1_ee3b_143b_2e6f,
            ),
            (
                r#"{"family":"ablate_faults","procs":16,"row_len":16,"gathers":4,"rates":[0.0,0.01]}"#,
                0x39e7_a54b_8dcd_aff4,
            ),
            (
                r#"{"family":"crosscheck_models","procs":8,"n":64,"ks":[1,8]}"#,
                0x1a20_205e_c868_a59f,
            ),
            (
                r#"{"family":"full_matrix","fidelity":"analytic","reference":false}"#,
                0x84b9_1e0d_c422_bcf9,
            ),
            (
                r#"{"family":"collectives","width":4,"height":4,"words":4}"#,
                0x9f57_e79e_4a2f_cfab,
            ),
        ] {
            let (json, _) = parse(body).unwrap().run(false, None).unwrap();
            assert_eq!(fnv1a64(json.as_bytes()), fnv, "{body}");
        }
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
        for family in JobSpec::families() {
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
        assert_eq!(spec, JobSpec::Table3(Table3Spec::preset(false)));
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
                assert_eq!(parse_routing_policy(&s.policy).unwrap(), RoutingPolicy::Xy);
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

    /// Specs whose sizes overflowed `usize` arithmetic in validation, or
    /// passed it while asking for more memory than any host has. Each must
    /// be a `bad_spec`-style error naming a field, never a panic. Only
    /// parsed, never run.
    #[test]
    fn oversized_specs_are_named_errors_not_panics() {
        for (body, field) in [
            (
                r#"{"family":"perf_mesh","procs":18446744073709551615,"row_len":1}"#,
                "procs",
            ),
            (
                r#"{"family":"table3","procs":4611686018427387904,"row_len":1}"#,
                "procs",
            ),
            (
                r#"{"family":"table3","procs":1024,"row_len":18446744073709551615}"#,
                "row_len",
            ),
            (
                r#"{"family":"perf_mesh","t_p":18446744073709551615}"#,
                "t_p",
            ),
            (
                r#"{"family":"ablate_faults","gathers":18446744073709551615}"#,
                "gathers",
            ),
            (
                r#"{"family":"crosscheck_models","procs":4294967296,"n":4294967296,"ks":[1]}"#,
                "procs",
            ),
            (
                r#"{"family":"collectives","width":65536,"height":65536}"#,
                "width",
            ),
            (
                r#"{"family":"collectives","words":18446744073709551615}"#,
                "words",
            ),
        ] {
            let parsed = std::panic::catch_unwind(|| parse(body))
                .unwrap_or_else(|_| panic!("{body}: validation panicked"));
            let err = parsed.expect_err(body);
            assert!(err.contains(field), "{body}: {err:?} lacks {field:?}");
        }
    }

    /// Every family's small spec stops with `Cancelled` under a cycle
    /// bound of 0, and a between-rows poll reports its cause in words.
    #[test]
    fn every_family_cancels_with_a_readable_cause() {
        for body in [
            r#"{"family":"table3","procs":16,"row_len":8}"#,
            r#"{"family":"perf_mesh","procs":16,"row_len":4}"#,
            r#"{"family":"ablate_faults","procs":16,"row_len":8,"gathers":2,"rates":[0.0]}"#,
            r#"{"family":"crosscheck_models","procs":4,"n":16,"ks":[1,2]}"#,
            r#"{"family":"full_matrix","reference":false}"#,
            r#"{"family":"collectives"}"#,
        ] {
            let intr = Interrupt::new().with_cycle_bound(0);
            match parse(body).unwrap().run(false, Some(&intr)) {
                Err(WorkError::Cancelled { .. }) => {}
                other => panic!("{body}: expected Cancelled, got {other:?}"),
            }
        }
        let expired = Interrupt::new()
            .with_deadline(sim_core::cancel::Deadline::after(std::time::Duration::ZERO));
        match run_collectives(&CollectivesSpec::preset(true), false, Some(&expired)) {
            Err(WorkError::Cancelled { detail }) => {
                assert!(detail.contains("deadline exceeded"), "{detail}")
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn collectives_family_runs_both_fabrics_deterministically() {
        let spec = CollectivesSpec::preset(true);
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
            ..FullMatrixSpec::preset(true)
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
        let spec = CrosscheckSpec {
            procs: 4,
            n: 16,
            ks: vec![1, 4],
        };
        let (rows, _) = spec.run(false, None).unwrap();
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
