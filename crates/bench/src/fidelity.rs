//! The multi-fidelity selection engine (DESIGN.md §15): decide, per sweep
//! point, whether the §V closed forms ([`analytic::surrogate`]) may answer
//! in place of a cycle-accurate simulation.
//!
//! The decision is grounded in the conformance oracle: every analytic
//! answer must be covered by a [`ValidationEnvelope`] — a model family, the
//! config region the oracle actually swept (P range, FFT-size range, fault
//! rate, policy set), and the crosscheck tolerance the fabrics were held to
//! inside it. The envelope catalog lives in code
//! ([`crate::crosscheck::envelope_catalog`]) and is serialized to
//! `ci/validation_envelopes.json`, whose bytes a unit test pins against the
//! catalog — the registry is machine-checked, not documentation.
//!
//! Every selection produces a [`FidelityDecision`] naming what was
//! requested, what was chosen, the envelope attached (if any), and a
//! human-readable reason — recorded in telemetry
//! (`record_decision`) and embedded in result rows so each number in a
//! sweep is auditable back to the validation that authorized it.

use serde::{Serialize, Value};
use sim_core::telemetry::Registry;

/// Default Auto-mode envelope ceiling: an analytic answer is acceptable
/// when its validated envelope is within 50 % — loose enough to admit the
/// mesh's 35 % Eq. 21 bracket, tight enough to reject an unvalidated model.
pub(crate) const DEFAULT_MAX_ENVELOPE_REL_ERR: f64 = 0.5;

/// How a sweep point may be answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FidelityPolicy {
    /// Prefer the closed form wherever a validated envelope covers the
    /// point, regardless of how loose the envelope is; fall back to the
    /// simulator only where no validation exists at all.
    Analytic,
    /// Always simulate.
    CycleAccurate,
    /// Answer analytically only when the covering envelope is tighter than
    /// `max_envelope_rel_err`; otherwise simulate.
    Auto {
        /// Loosest acceptable envelope (relative error).
        max_envelope_rel_err: f64,
    },
}

impl FidelityPolicy {
    /// The default policy: Auto at `DEFAULT_MAX_ENVELOPE_REL_ERR`.
    pub fn auto() -> Self {
        FidelityPolicy::Auto {
            max_envelope_rel_err: DEFAULT_MAX_ENVELOPE_REL_ERR,
        }
    }

    /// Parse the wire/CLI spelling: `analytic`, `cycle_accurate`, `auto`,
    /// or `auto:<max_envelope_rel_err>`.
    ///
    /// # Errors
    /// A human-readable message naming the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "analytic" => Ok(FidelityPolicy::Analytic),
            "cycle_accurate" => Ok(FidelityPolicy::CycleAccurate),
            "auto" => Ok(FidelityPolicy::auto()),
            other => {
                if let Some(t) = other.strip_prefix("auto:") {
                    let max = t
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| {
                            format!(
                                "auto threshold must be a finite non-negative number, got {t:?}"
                            )
                        })?;
                    return Ok(FidelityPolicy::Auto {
                        max_envelope_rel_err: max,
                    });
                }
                Err(format!(
                    "unknown fidelity {other:?} (expected \"analytic\", \"cycle_accurate\", \
                     \"auto\", or \"auto:<rel_err>\")"
                ))
            }
        }
    }

    /// The canonical wire spelling ([`FidelityPolicy::parse`]'s inverse).
    pub fn wire(&self) -> String {
        match self {
            FidelityPolicy::Analytic => "analytic".to_string(),
            FidelityPolicy::CycleAccurate => "cycle_accurate".to_string(),
            FidelityPolicy::Auto {
                max_envelope_rel_err,
            } if *max_envelope_rel_err == DEFAULT_MAX_ENVELOPE_REL_ERR => "auto".to_string(),
            FidelityPolicy::Auto {
                max_envelope_rel_err,
            } => format!("auto:{max_envelope_rel_err}"),
        }
    }
}

/// The configuration region one envelope was validated over. Bounds are
/// inclusive: the oracle checked the endpoints themselves, so a point *at*
/// the validated maximum is covered and one beyond it is not.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ValidatedRegion {
    /// Smallest processor (or mesh-node) count checked.
    pub p_min: u64,
    /// Largest processor (or mesh-node) count checked.
    pub p_max: u64,
    /// Smallest size parameter checked (FFT length, block words, row
    /// length — whatever the family's `n` means).
    pub n_min: u64,
    /// Largest size parameter checked.
    pub n_max: u64,
    /// The only fault rate validated (the closed forms model fault-free
    /// fabrics, so this is 0).
    pub fault_rate: f64,
    /// Policies the oracle exercised (`"sca"` for the photonic bus,
    /// routing-policy names for the mesh).
    pub policies: Vec<String>,
}

impl ValidatedRegion {
    /// Whether `point` lies inside this region; `Err` carries the first
    /// violated bound, spelled for a decision audit trail.
    pub fn covers(&self, point: &PointConfig) -> Result<(), String> {
        if point.p < self.p_min || point.p > self.p_max {
            return Err(format!(
                "P={} outside validated [{}, {}]",
                point.p, self.p_min, self.p_max
            ));
        }
        if point.n < self.n_min || point.n > self.n_max {
            return Err(format!(
                "N={} outside validated [{}, {}]",
                point.n, self.n_min, self.n_max
            ));
        }
        if point.fault_rate != self.fault_rate {
            return Err(format!(
                "fault_rate={} not validated (closed forms hold at {})",
                point.fault_rate, self.fault_rate
            ));
        }
        if !self.policies.iter().any(|p| p == &point.policy) {
            return Err(format!(
                "policy {:?} not in validated set {:?}",
                point.policy, self.policies
            ));
        }
        Ok(())
    }
}

/// One machine-checked validation claim: inside `region`, model `family`'s
/// closed form tracks its cycle-accurate fabric within `rel_err`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ValidationEnvelope {
    /// Model family (`model2_eq11`, `model2_eq14`, `mesh_eq21`,
    /// `table3_pscan`).
    pub family: String,
    /// The `bench::crosscheck` check the envelope descends from.
    pub check: String,
    /// The envelope: the crosscheck tolerance the oracle holds the fabric
    /// to inside `region` (0 = exact integer identity).
    pub rel_err: f64,
    /// Where the claim was validated.
    pub region: ValidatedRegion,
    /// Which constant/job pins the claim in CI.
    pub source: String,
}

/// One sweep point, reduced to the coordinates the registry is keyed on.
#[derive(Debug, Clone, PartialEq)]
pub struct PointConfig {
    /// Model family requested (a [`ValidationEnvelope::family`] name).
    pub family: String,
    /// Processor / mesh-node count.
    pub p: u64,
    /// Size parameter (FFT length, block words, row length).
    pub n: u64,
    /// Injected fault rate.
    pub fault_rate: f64,
    /// Delivery policy (`"sca"`, `"Xy"`, `"MinimalAdaptive"`, …).
    pub policy: String,
}

/// The envelope catalog, versioned for the serialized form.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ValidationRegistry {
    /// Schema version of `ci/validation_envelopes.json`.
    pub schema: u32,
    /// Every validated envelope.
    pub envelopes: Vec<ValidationEnvelope>,
}

/// Schema version of the serialized registry.
pub(crate) const REGISTRY_SCHEMA_VERSION: u32 = 1;

impl ValidationRegistry {
    /// The in-code catalog: [`crate::crosscheck::envelope_catalog`] under
    /// the current schema version.
    pub fn builtin() -> Self {
        ValidationRegistry {
            schema: REGISTRY_SCHEMA_VERSION,
            envelopes: crate::crosscheck::envelope_catalog(),
        }
    }

    /// The envelope covering `point`, or a reason string explaining the
    /// miss (no such family, or the nearest same-family region bound the
    /// point violates).
    pub(crate) fn lookup_with_reason(
        &self,
        point: &PointConfig,
    ) -> Result<&ValidationEnvelope, String> {
        let mut last_miss = None;
        for env in &self.envelopes {
            if env.family != point.family {
                continue;
            }
            match env.region.covers(point) {
                Ok(()) => return Ok(env),
                Err(miss) => last_miss = Some(miss),
            }
        }
        Err(match last_miss {
            Some(miss) => miss,
            None => format!("no validated envelope for family {:?}", point.family),
        })
    }

    /// Serialize as the committed `ci/validation_envelopes.json` contents
    /// (pretty JSON plus a trailing newline).
    pub fn to_json_pretty(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("registry serializes");
        s.push('\n');
        s
    }

    /// Parse a serialized registry, verifying the schema version.
    ///
    /// # Errors
    /// A message naming the malformed field (the vendored deserializer is
    /// accessor-based, so every field is checked explicitly).
    pub(crate) fn from_json(s: &str) -> Result<Self, String> {
        let v = serde_json::from_str(s).map_err(|e| format!("registry JSON: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or("registry.schema must be an integer")?;
        if schema != u64::from(REGISTRY_SCHEMA_VERSION) {
            return Err(format!(
                "registry schema {schema} unsupported (expected {REGISTRY_SCHEMA_VERSION})"
            ));
        }
        let envelopes = v
            .get("envelopes")
            .and_then(Value::as_array)
            .ok_or("registry.envelopes must be an array")?
            .iter()
            .map(parse_envelope)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ValidationRegistry {
            schema: REGISTRY_SCHEMA_VERSION,
            envelopes,
        })
    }

    /// Load and parse the committed registry file, trying the workspace
    /// `ci/` directory first (harness binaries run from the workspace
    /// root) and the crate-relative path second (unit tests run from the
    /// crate directory).
    ///
    /// # Errors
    /// The IO or parse failure, with the path tried.
    pub fn load_committed() -> Result<Self, String> {
        let (contents, path) = read_committed()?;
        Self::from_json(&contents).map_err(|e| format!("{path}: {e}"))
    }
}

/// Relative location of the serialized registry.
pub const REGISTRY_RELATIVE_PATH: &str = "ci/validation_envelopes.json";

/// Read the committed registry bytes and the path they came from.
///
/// # Errors
/// The IO failure for the workspace-root path when neither candidate reads.
pub(crate) fn read_committed() -> Result<(String, String), String> {
    let candidates = [
        REGISTRY_RELATIVE_PATH.to_string(),
        format!(
            "{}/../../{REGISTRY_RELATIVE_PATH}",
            env!("CARGO_MANIFEST_DIR")
        ),
    ];
    let mut first_err = None;
    for path in &candidates {
        match std::fs::read_to_string(path) {
            Ok(contents) => return Ok((contents, path.clone())),
            Err(e) => {
                first_err.get_or_insert_with(|| format!("{path}: {e}"));
            }
        }
    }
    Err(first_err.expect("at least one candidate attempted"))
}

fn parse_envelope(v: &Value) -> Result<ValidationEnvelope, String> {
    let field_str = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("envelope.{key} must be a string"))
    };
    let family = field_str("family")?;
    let check = field_str("check")?;
    let rel_err = v
        .get("rel_err")
        .and_then(Value::as_f64)
        .ok_or("envelope.rel_err must be a number")?;
    let r = v.get("region").ok_or("envelope.region missing")?;
    let bound = |key: &str| -> Result<u64, String> {
        r.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("region.{key} must be a non-negative integer"))
    };
    let policies = r
        .get("policies")
        .and_then(Value::as_array)
        .ok_or("region.policies must be an array")?
        .iter()
        .map(|p| {
            p.as_str()
                .map(str::to_string)
                .ok_or_else(|| "region.policies must be strings".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ValidationEnvelope {
        family,
        check,
        rel_err,
        region: ValidatedRegion {
            p_min: bound("p_min")?,
            p_max: bound("p_max")?,
            n_min: bound("n_min")?,
            n_max: bound("n_max")?,
            fault_rate: r
                .get("fault_rate")
                .and_then(Value::as_f64)
                .ok_or("region.fault_rate must be a number")?,
            policies,
        },
        source: field_str("source")?,
    })
}

/// The structured outcome of one fidelity selection — embedded in result
/// rows and recorded in telemetry so every sweep answer is auditable.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FidelityDecision {
    /// The policy the caller asked for, in wire spelling.
    pub requested: String,
    /// What will answer the point: `"analytic"` or `"cycle_accurate"`.
    pub chosen: String,
    /// The point's model family.
    pub family: String,
    /// The validated envelope attached to an analytic answer (`None` on
    /// the cycle-accurate path).
    pub envelope_rel_err: Option<f64>,
    /// Why this fidelity was chosen.
    pub reason: String,
}

impl FidelityDecision {
    /// Whether the analytic fast path answers this point.
    pub fn is_analytic(&self) -> bool {
        self.chosen == "analytic"
    }
}

/// Select the fidelity for `point` under `policy`, consulting `registry`.
///
/// `CycleAccurate` always simulates. `Analytic` and `Auto` answer from the
/// closed form only when a validated envelope covers the point — there is
/// no closed form for unvalidated territory (faulted fabrics, unchecked
/// policies, out-of-range sizes), so both fall back to the simulator with
/// the registry's miss reason in the decision. `Auto` additionally rejects
/// envelopes looser than its ceiling.
pub fn decide(
    policy: FidelityPolicy,
    point: &PointConfig,
    registry: &ValidationRegistry,
) -> FidelityDecision {
    let requested = policy.wire();
    let decision = |chosen: &str, envelope: Option<f64>, reason: String| FidelityDecision {
        requested: requested.clone(),
        chosen: chosen.to_string(),
        family: point.family.clone(),
        envelope_rel_err: envelope,
        reason,
    };
    match policy {
        FidelityPolicy::CycleAccurate => decision(
            "cycle_accurate",
            None,
            "requested cycle_accurate".to_string(),
        ),
        FidelityPolicy::Analytic => match registry.lookup_with_reason(point) {
            Ok(env) => decision(
                "analytic",
                Some(env.rel_err),
                format!("validated by {} (envelope {:.0e})", env.check, env.rel_err),
            ),
            Err(miss) => decision(
                "cycle_accurate",
                None,
                format!("no closed form applies: {miss}"),
            ),
        },
        FidelityPolicy::Auto {
            max_envelope_rel_err,
        } => match registry.lookup_with_reason(point) {
            Ok(env) if env.rel_err <= max_envelope_rel_err => decision(
                "analytic",
                Some(env.rel_err),
                format!("validated by {} (envelope {:.0e})", env.check, env.rel_err),
            ),
            Ok(env) => decision(
                "cycle_accurate",
                None,
                format!(
                    "envelope {:.0e} looser than auto ceiling {max_envelope_rel_err:.0e}",
                    env.rel_err
                ),
            ),
            Err(miss) => decision(
                "cycle_accurate",
                None,
                format!("outside validation: {miss}"),
            ),
        },
    }
}

/// Record `decision` in `registry` as a labeled counter
/// (`fidelity.decision{chosen=..,family=..,requested=..}`), so a traced
/// sweep exposes its fast-path/fallback mix as metrics.
pub(crate) fn record_decision(registry: &Registry, decision: &FidelityDecision) {
    registry.counter_add_labeled(
        "fidelity.decision",
        &[
            ("chosen", decision.chosen.clone()),
            ("family", decision.family.clone()),
            ("requested", decision.requested.clone()),
        ],
        1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model2_point_at(p: u64, n: u64) -> PointConfig {
        PointConfig {
            family: "model2_eq11".to_string(),
            p,
            n,
            fault_rate: 0.0,
            policy: "sca".to_string(),
        }
    }

    #[test]
    fn policy_wire_round_trips() {
        for s in ["analytic", "cycle_accurate", "auto", "auto:0.1"] {
            let p = FidelityPolicy::parse(s).unwrap();
            assert_eq!(p.wire(), s, "round trip {s}");
            assert_eq!(FidelityPolicy::parse(&p.wire()).unwrap(), p);
        }
        assert_eq!(
            FidelityPolicy::parse("auto:0.5").unwrap(),
            FidelityPolicy::auto(),
            "the default ceiling spelled explicitly is the same policy"
        );
    }

    #[test]
    fn policy_rejects_bad_spellings() {
        for bad in ["quantum", "auto:", "auto:nan", "auto:-1", "Analytic"] {
            assert!(FidelityPolicy::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn builtin_registry_serializes_and_reparses_identically() {
        let reg = ValidationRegistry::builtin();
        let json = reg.to_json_pretty();
        let back = ValidationRegistry::from_json(&json).expect("round trip");
        assert_eq!(back, reg);
    }

    #[test]
    fn committed_registry_matches_builtin_byte_for_byte() {
        // The machine check: ci/validation_envelopes.json is generated from
        // the in-code catalog (`full_matrix --write-envelopes`) and must
        // never drift from it.
        let (committed, path) = read_committed().expect("committed registry readable");
        assert_eq!(
            committed,
            ValidationRegistry::builtin().to_json_pretty(),
            "{path} is stale — regenerate with \
             `cargo run -p bench --bin full_matrix -- --write-envelopes`"
        );
        let parsed = ValidationRegistry::load_committed().expect("parses");
        assert_eq!(parsed, ValidationRegistry::builtin());
    }

    #[test]
    fn from_json_names_the_malformed_field() {
        assert!(ValidationRegistry::from_json("{}")
            .unwrap_err()
            .contains("schema"));
        assert!(
            ValidationRegistry::from_json(r#"{"schema":99,"envelopes":[]}"#)
                .unwrap_err()
                .contains("schema 99")
        );
        assert!(
            ValidationRegistry::from_json(r#"{"schema":1,"envelopes":[{}]}"#)
                .unwrap_err()
                .contains("family")
        );
        assert!(ValidationRegistry::from_json("not json").is_err());
    }

    #[test]
    fn region_bounds_are_inclusive() {
        let reg = ValidationRegistry::builtin();
        let env = reg
            .lookup_with_reason(&model2_point_at(16, 1024))
            .expect("the validated maximum is covered");
        assert_eq!(env.family, "model2_eq11");
        assert!(reg.lookup_with_reason(&model2_point_at(32, 1024)).is_err());
        assert!(reg.lookup_with_reason(&model2_point_at(16, 2048)).is_err());
    }

    #[test]
    fn auto_decisions_cover_all_outcomes() {
        let reg = ValidationRegistry::builtin();
        // In-region, tight envelope: analytic with the error bar attached.
        let d = decide(FidelityPolicy::auto(), &model2_point_at(8, 64), &reg);
        assert!(d.is_analytic());
        assert_eq!(d.envelope_rel_err, Some(crate::crosscheck::TOL_ALGEBRAIC));
        // Out of region: fallback with the violated bound in the reason.
        let d = decide(FidelityPolicy::auto(), &model2_point_at(512, 64), &reg);
        assert!(!d.is_analytic());
        assert!(d.reason.contains("P=512"), "{}", d.reason);
        // Envelope looser than the ceiling: fallback names both numbers.
        let mesh = PointConfig {
            family: "mesh_eq21".to_string(),
            p: 64,
            n: 16,
            fault_rate: 0.0,
            policy: "Xy".to_string(),
        };
        let d = decide(
            FidelityPolicy::Auto {
                max_envelope_rel_err: 0.1,
            },
            &mesh,
            &reg,
        );
        assert!(!d.is_analytic());
        assert!(d.reason.contains("looser"), "{}", d.reason);
        // Forced cycle-accurate never consults the registry.
        let d = decide(FidelityPolicy::CycleAccurate, &model2_point_at(8, 64), &reg);
        assert!(!d.is_analytic());
        assert_eq!(d.envelope_rel_err, None);
    }

    #[test]
    fn forced_analytic_still_falls_back_without_validation() {
        // There is no closed form for a faulted fabric; Analytic cannot
        // conjure one, so the decision documents the forced fallback.
        let reg = ValidationRegistry::builtin();
        let faulted = PointConfig {
            fault_rate: 1e-2,
            ..model2_point_at(8, 64)
        };
        let d = decide(FidelityPolicy::Analytic, &faulted, &reg);
        assert!(!d.is_analytic());
        assert!(d.reason.contains("fault_rate"), "{}", d.reason);
    }

    #[test]
    fn decisions_land_in_telemetry() {
        let reg = ValidationRegistry::builtin();
        let telemetry = Registry::new();
        let d = decide(FidelityPolicy::auto(), &model2_point_at(8, 64), &reg);
        record_decision(&telemetry, &d);
        record_decision(&telemetry, &d);
        let json = telemetry.metrics_json();
        assert!(
            json.contains("fidelity.decision{chosen=analytic,family=model2_eq11,requested=auto}"),
            "{json}"
        );
    }
}
