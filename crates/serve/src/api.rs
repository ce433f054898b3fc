//! Wire format of the `/v1` API: JSON → [`Query`]/[`DesignSpec`] parsing
//! and domain → JSON response building.
//!
//! The response builders are `pub` and deterministic on their inputs, so
//! the integration tests (and the bench harness) can assert that a served
//! body is **bit-identical** to serializing a direct library call — the
//! serving layer adds transport, never numerics.

use scpg::analysis::{OperatingPoint, TableRow};
use scpg::budget::{BudgetSolution, Headline};
use scpg::service::{Query, QueryLimits};
use scpg::Mode;
use scpg_jobs::{LibraryLimits, LibraryUploadError};
use scpg_json::Json;
use scpg_liberty::EvalBackend;
use scpg_power::{VariationConfig, VariationStudy};
use scpg_technique::{
    AreaReport, DelayReport, ResolvedParams, TechniqueError, TechniquePoint, TechniqueRegistry,
};
use scpg_units::{Energy, Frequency, Power, Voltage};

use crate::designs::{DesignKind, DesignSpec};

/// Parses the optional `design` object of a request body. A missing
/// field means the default served design (the paper's 16×16 multiplier).
///
/// A `library` selector — `{"kind": "builtin"}` (default) or
/// `{"kind": "uploaded", "id": "<from POST /v1/libraries>"}` — and a
/// `backend` string (`"analytical"` | `"table"`) are accepted inside the
/// `design` object or at the body top level, so every analysis endpoint
/// can target an uploaded NLDM library without restating the circuit.
/// An uploaded library defaults to the `table` backend (that is what the
/// tables are for); the built-in kit defaults to `analytical`.
///
/// # Errors
///
/// A human-readable refusal (maps to `422`).
pub fn parse_design(body: &Json, limits: &QueryLimits) -> Result<DesignSpec, String> {
    let mut spec =
        match body.get("design") {
            None | Some(Json::Null) => DesignSpec::default_multiplier(),
            Some(design) => {
                let kind_key = design
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("design.kind must be \"multiplier\", \"chain\" or \"netlist\"")?;
                let size_field = |field: &str, default: usize| -> Result<usize, String> {
                    match design.get(field) {
                        None => Ok(default),
                        Some(v) => v.as_u64().map(|n| n as usize).ok_or_else(|| {
                            format!("design.{field} must be a non-negative integer")
                        }),
                    }
                };
                let kind = match kind_key {
                    "multiplier" => DesignKind::Multiplier {
                        bits: size_field("bits", 16)?,
                    },
                    "chain" => DesignKind::Chain {
                        length: size_field("length", 16)?,
                    },
                    "netlist" => {
                        let id = design.get("id").and_then(Json::as_str).ok_or(
                            "design.id must be a netlist id string (from POST /v1/netlists)",
                        )?;
                        DesignKind::Netlist { id: id.to_string() }
                    }
                    other => return Err(format!("unknown design.kind {other:?}")),
                };
                let defaults = match &kind {
                    DesignKind::Chain { length } => DesignSpec::chain(*length),
                    _ => DesignSpec::default_multiplier(),
                };
                let e_dyn = match design.get("e_dyn_pj") {
                    None => defaults.e_dyn,
                    Some(v) => Energy::from_pj(
                        v.as_f64()
                            .ok_or("design.e_dyn_pj must be a number (picojoules)")?,
                    ),
                };
                let vdd = match design.get("vdd_mv") {
                    None => defaults.vdd,
                    Some(v) => Voltage::from_mv(
                        v.as_f64()
                            .ok_or("design.vdd_mv must be a number (millivolts)")?,
                    ),
                };
                DesignSpec {
                    kind,
                    e_dyn,
                    vdd,
                    ..DesignSpec::default_multiplier()
                }
            }
        };
    let lookup = |field: &str| {
        body.get("design")
            .and_then(|d| d.get(field))
            .or_else(|| body.get(field))
    };
    if let Some(library) = lookup("library") {
        let kind = library
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("library.kind must be \"builtin\" or \"uploaded\"")?;
        match kind {
            "builtin" => spec.library = None,
            "uploaded" => {
                let id = library
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("library.id must be a library id string (from POST /v1/libraries)")?;
                spec.library = Some(id.to_string());
                // Uploaded libraries default to their tables; an explicit
                // backend below still overrides.
                spec.backend = EvalBackend::Table;
            }
            other => return Err(format!("unknown library.kind {other:?}")),
        }
    }
    if let Some(backend) = lookup("backend") {
        let key = backend
            .as_str()
            .ok_or("backend must be \"analytical\" or \"table\"")?;
        spec.backend = EvalBackend::parse(key)
            .ok_or_else(|| format!("unknown backend {key:?} (analytical | table)"))?;
    }
    spec.validate(limits)?;
    Ok(spec)
}

fn parse_frequencies(body: &Json) -> Result<Vec<Frequency>, String> {
    let list = body
        .get("frequencies_hz")
        .and_then(Json::as_array)
        .ok_or("frequencies_hz must be an array of numbers (hertz)")?;
    list.iter()
        .map(|v| {
            v.as_f64()
                .map(Frequency::new)
                .ok_or_else(|| "frequencies_hz entries must be numbers".to_string())
        })
        .collect()
}

/// Parses a `/v1/sweep` body into its design and validated query.
///
/// # Errors
///
/// A human-readable refusal (maps to `422`).
pub fn parse_sweep(body: &Json, limits: &QueryLimits) -> Result<(DesignSpec, Query), String> {
    let spec = parse_design(body, limits)?;
    let mode = match body.get("mode") {
        None => Mode::Scpg,
        Some(v) => {
            let key = v.as_str().ok_or("mode must be a string")?;
            Mode::from_key(key)
                .ok_or_else(|| format!("unknown mode {key:?} (no_pg | scpg | scpg_max)"))?
        }
    };
    let query = Query::Sweep {
        frequencies: parse_frequencies(body)?,
        mode,
    };
    query.validate(limits).map_err(|e| e.to_string())?;
    Ok((spec, query))
}

/// Parses a `/v1/table` body.
///
/// # Errors
///
/// A human-readable refusal (maps to `422`).
pub fn parse_table(body: &Json, limits: &QueryLimits) -> Result<(DesignSpec, Query), String> {
    let spec = parse_design(body, limits)?;
    let query = Query::Table {
        frequencies: parse_frequencies(body)?,
    };
    query.validate(limits).map_err(|e| e.to_string())?;
    Ok((spec, query))
}

/// Parses a `/v1/headline` body. Bracket defaults mirror the paper's
/// harvester story: 100 Hz … 50 MHz.
///
/// # Errors
///
/// A human-readable refusal (maps to `422`).
pub fn parse_headline(body: &Json, limits: &QueryLimits) -> Result<(DesignSpec, Query), String> {
    let spec = parse_design(body, limits)?;
    let budget = body
        .get("budget_w")
        .and_then(Json::as_f64)
        .ok_or("budget_w must be a number (watts)")?;
    let lo = body
        .get("lo_hz")
        .map(|v| v.as_f64().ok_or("lo_hz must be a number"))
        .transpose()?
        .unwrap_or(100.0);
    let hi = body
        .get("hi_hz")
        .map(|v| v.as_f64().ok_or("hi_hz must be a number"))
        .transpose()?
        .unwrap_or(50.0e6);
    let query = Query::Headline {
        budget: Power::new(budget),
        lo: Frequency::new(lo),
        hi: Frequency::new(hi),
    };
    query.validate(limits).map_err(|e| e.to_string())?;
    Ok((spec, query))
}

/// Parses a `/v1/variation` body into its design and Monte-Carlo config.
///
/// # Errors
///
/// A human-readable refusal (maps to `422`).
pub fn parse_variation(
    body: &Json,
    limits: &QueryLimits,
) -> Result<(DesignSpec, VariationConfig), String> {
    let spec = parse_design(body, limits)?;
    let defaults = VariationConfig::default();
    let samples = match body.get("samples") {
        None => 8,
        Some(v) => v.as_u64().ok_or("samples must be a non-negative integer")? as usize,
    };
    if samples == 0 || samples > limits.max_variation_samples {
        return Err(format!(
            "samples {samples} outside 1..={}",
            limits.max_variation_samples
        ));
    }
    let sigma_mv = match body.get("sigma_mv") {
        None => defaults.sigma_vt.as_mv(),
        Some(v) => v.as_f64().ok_or("sigma_mv must be a number (millivolts)")?,
    };
    if !sigma_mv.is_finite() || !(0.0..=200.0).contains(&sigma_mv) {
        return Err(format!("sigma_mv {sigma_mv} outside 0..=200"));
    }
    let seed = match body.get("seed") {
        None => defaults.seed,
        Some(v) => v.as_u64().ok_or("seed must be a non-negative integer")?,
    };
    Ok((
        spec,
        VariationConfig {
            sigma_vt: Voltage::from_mv(sigma_mv),
            samples,
            seed,
        },
    ))
}

/// One requested technique of a `/v1/compare` body: a registered name
/// plus its resolved (defaulted, validated) parameters.
#[derive(Debug, Clone)]
pub struct CompareTechnique {
    /// The technique's registry name.
    pub name: String,
    /// Parameters after defaulting and schema validation;
    /// [`ResolvedParams::canonical`] is the params component of compare
    /// cache keys.
    pub params: ResolvedParams,
}

/// Parses a `/v1/compare` body: design, frequency sweep, and the list of
/// techniques to bake off. `techniques` entries are either registered
/// names (`"scpg"`) or `{"name": ..., "params": {...}}` objects; an
/// omitted field compares **all** registered techniques at their default
/// parameters. Admission bounds `techniques × frequencies` by the same
/// `max_sweep_points` limit a sweep obeys.
///
/// # Errors
///
/// A human-readable refusal (maps to `422`).
pub fn parse_compare(
    body: &Json,
    limits: &QueryLimits,
    registry: &TechniqueRegistry,
) -> Result<(DesignSpec, Vec<Frequency>, Vec<CompareTechnique>), String> {
    let spec = parse_design(body, limits)?;
    let frequencies = parse_frequencies(body)?;
    // The frequency list obeys the sweep admission rules (non-empty,
    // inside the served band, bounded count).
    Query::Sweep {
        frequencies: frequencies.clone(),
        mode: Mode::Scpg,
    }
    .validate(limits)
    .map_err(|e| e.to_string())?;
    let techniques = match body.get("techniques") {
        None | Some(Json::Null) => registry
            .iter()
            .map(|t| {
                Ok(CompareTechnique {
                    name: t.name().to_string(),
                    params: scpg_technique::resolve_params(t.params(), None)
                        .map_err(|e| e.to_string())?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        Some(v) => {
            let list = v
                .as_array()
                .ok_or("techniques must be an array of names or {name, params} objects")?;
            if list.is_empty() {
                return Err(
                    "techniques must be non-empty (omit the field to compare all registered \
                     techniques)"
                        .to_string(),
                );
            }
            list.iter()
                .map(|entry| {
                    let (name, params) = match entry {
                        Json::Str(s) => (s.as_str(), None),
                        obj => {
                            let name = obj.get("name").and_then(Json::as_str).ok_or(
                                "techniques entries must be a name string or a {name, params} \
                                 object",
                            )?;
                            (name, obj.get("params"))
                        }
                    };
                    let tech = registry.get(name).ok_or_else(|| {
                        format!("unknown technique {name:?} (known: {:?})", registry.names())
                    })?;
                    let params = scpg_technique::resolve_params(tech.params(), params)
                        .map_err(|e| e.to_string())?;
                    Ok(CompareTechnique {
                        name: name.to_string(),
                        params,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?
        }
    };
    let total = techniques.len() * frequencies.len();
    if total > limits.max_sweep_points {
        return Err(format!(
            "techniques × frequencies = {total} points exceeds max_sweep_points {}",
            limits.max_sweep_points
        ));
    }
    Ok((spec, frequencies, techniques))
}

/// One technique operating point as JSON — the same field set and order
/// as [`point_json`], so the `scpg` technique's compare points serialize
/// **byte-identically** to the sweep endpoint's for the same design and
/// frequencies.
pub fn technique_point_json(p: &TechniquePoint) -> Json {
    Json::object([
        ("frequency_hz", Json::Num(p.frequency.value())),
        ("mode", Json::from(p.mode.as_str())),
        ("duty", Json::Num(p.duty)),
        ("power_w", Json::Num(p.power.value())),
        ("energy_per_op_j", Json::Num(p.energy_per_op.value())),
        ("gated", Json::Bool(p.gated)),
    ])
}

/// One compare row from already-serialized point fragments. Batch
/// compare jobs checkpoint [`technique_point_json`] fragments chunk by
/// chunk and assemble through this exact path, so a chunked compare
/// result is bit-identical to the interactive response.
pub fn compare_row_with_points(
    name: &str,
    params: &ResolvedParams,
    area: &AreaReport,
    delay: &DelayReport,
    points: Vec<Json>,
) -> Json {
    Json::object([
        ("technique", Json::from(name)),
        ("params", Json::from(params.canonical())),
        (
            "area",
            Json::object([
                ("cells", Json::from(area.cells)),
                ("area_um2", Json::Num(area.area.as_um2())),
                ("overhead_frac", Json::Num(area.overhead_frac)),
            ]),
        ),
        (
            "delay",
            Json::object([
                ("min_period_s", Json::Num(delay.min_period.value())),
                ("f_max_hz", Json::Num(delay.f_max.value())),
            ]),
        ),
        ("points", Json::Arr(points)),
    ])
}

/// The `/v1/compare` response document from assembled rows.
pub fn compare_response_with_rows(spec: &DesignSpec, rows: Vec<Json>) -> Json {
    Json::object([
        ("design", Json::from(spec.key())),
        ("techniques", Json::Arr(rows)),
    ])
}

/// The JSON error body for a refused technique prepare. An
/// [`TechniqueError::AlreadyTransformed`] refusal additionally carries
/// machine-readable `already_transformed`, `technique` and `marker`
/// fields, so clients can tell "you tried to double-gate" apart from
/// ordinary validation failures.
pub fn technique_error_body(err: &TechniqueError) -> Vec<u8> {
    let mut fields = vec![("error".to_string(), Json::from(err.to_string()))];
    if let TechniqueError::AlreadyTransformed { technique, marker } = err {
        fields.push(("already_transformed".to_string(), Json::Bool(true)));
        fields.push(("technique".to_string(), Json::from(technique.as_str())));
        fields.push(("marker".to_string(), Json::from(marker.as_str())));
    }
    Json::Obj(fields).write().into_bytes()
}

/// The `GET /v1/designs` technique listing: name, one-line summary and
/// the full parameter schema of every registered technique, in
/// registration order.
pub fn technique_summaries(registry: &TechniqueRegistry) -> Vec<Json> {
    registry
        .iter()
        .map(|t| {
            Json::object([
                ("name", Json::from(t.name())),
                ("summary", Json::from(t.summary())),
                ("params", scpg_technique::params_schema_json(t.params())),
            ])
        })
        .collect()
}

/// Ceiling on `cycles` for `/v1/activity`: with 64 lanes this bounds one
/// request at 16k simulated vectors, comfortably interactive even on the
/// event-engine fallback.
pub const MAX_ACTIVITY_CYCLES: usize = 256;

/// A parsed `/v1/activity` request: stimulus shape for bulk activity
/// extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityRequest {
    /// Clock cycles per lane.
    pub cycles: usize,
    /// Independent stimulus lanes (1..=64, one per machine-word bit).
    pub lanes: usize,
    /// Stimulus seed; responses are deterministic in it, hence cacheable.
    pub seed: u64,
}

/// Parses a `/v1/activity` body into its design and stimulus shape.
///
/// # Errors
///
/// A human-readable refusal (maps to `422`).
pub fn parse_activity(
    body: &Json,
    limits: &QueryLimits,
) -> Result<(DesignSpec, ActivityRequest), String> {
    let spec = parse_design(body, limits)?;
    let cycles = match body.get("cycles") {
        None => 32,
        Some(v) => v.as_u64().ok_or("cycles must be a non-negative integer")? as usize,
    };
    if cycles == 0 || cycles > MAX_ACTIVITY_CYCLES {
        return Err(format!("cycles {cycles} outside 1..={MAX_ACTIVITY_CYCLES}"));
    }
    let lanes = match body.get("lanes") {
        None => 16,
        Some(v) => v.as_u64().ok_or("lanes must be a non-negative integer")? as usize,
    };
    if !(1..=64).contains(&lanes) {
        return Err(format!("lanes {lanes} outside 1..=64"));
    }
    let seed = match body.get("seed") {
        None => 0,
        Some(v) => v.as_u64().ok_or("seed must be a non-negative integer")?,
    };
    Ok((
        spec,
        ActivityRequest {
            cycles,
            lanes,
            seed,
        },
    ))
}

/// A parsed analysis request, as both the interactive endpoints and
/// batch jobs consume it. The route table picks the parser.
pub(crate) enum ApiRequest {
    /// `/v1/sweep`, `/v1/table` or `/v1/headline`.
    Query { spec: DesignSpec, query: Query },
    Variation {
        spec: DesignSpec,
        cfg: VariationConfig,
    },
    Activity {
        spec: DesignSpec,
        request: ActivityRequest,
    },
    Compare {
        spec: DesignSpec,
        frequencies: Vec<Frequency>,
        techniques: Vec<CompareTechnique>,
    },
}

impl ApiRequest {
    /// The design the request analyses.
    pub(crate) fn design(&self) -> &DesignSpec {
        match self {
            ApiRequest::Query { spec, .. }
            | ApiRequest::Variation { spec, .. }
            | ApiRequest::Activity { spec, .. }
            | ApiRequest::Compare { spec, .. } => spec,
        }
    }
}

/// The `/v1/activity` response document. Deliberately engine-free: the
/// body must be byte-identical whether the bit-parallel fast path or the
/// event-engine fallback produced it (the engine is visible in traces and
/// `/metrics` counters instead).
pub fn activity_response(spec: &DesignSpec, report: &scpg::ActivityReport) -> Json {
    Json::object([
        ("design", Json::from(spec.key())),
        ("lanes", Json::from(report.lanes)),
        ("cycles", Json::from(report.cycles)),
        ("nets", Json::from(report.nets)),
        ("total_toggles", Json::from(report.total_toggles)),
        (
            "unknown_transitions",
            Json::from(report.unknown_transitions),
        ),
        ("duration_ps", Json::from(report.duration_ps)),
        (
            "switching_probability",
            Json::Num(report.switching_probability),
        ),
    ])
}

/// One operating point as JSON.
pub fn point_json(p: &OperatingPoint) -> Json {
    Json::object([
        ("frequency_hz", Json::Num(p.frequency.value())),
        ("mode", Json::from(p.mode.key())),
        ("duty", Json::Num(p.duty)),
        ("power_w", Json::Num(p.power.value())),
        ("energy_per_op_j", Json::Num(p.energy_per_op.value())),
        ("gated", Json::Bool(p.gated)),
    ])
}

/// The `/v1/sweep` response document, assembled from already-serialized
/// point fragments. Batch jobs checkpoint [`point_json`] fragments chunk
/// by chunk and assemble them through this exact path, so a chunked job
/// result is bit-identical to the interactive [`sweep_response`].
pub fn sweep_response_with_points(spec: &DesignSpec, mode: Mode, points: Vec<Json>) -> Json {
    Json::object([
        ("design", Json::from(spec.key())),
        ("mode", Json::from(mode.key())),
        ("points", Json::Arr(points)),
    ])
}

/// The `/v1/sweep` response document.
pub fn sweep_response(spec: &DesignSpec, mode: Mode, points: &[OperatingPoint]) -> Json {
    sweep_response_with_points(spec, mode, points.iter().map(point_json).collect())
}

/// One comparison-table row as JSON.
pub fn row_json(row: &TableRow) -> Json {
    Json::object([
        ("no_pg", point_json(&row.no_pg)),
        ("scpg", point_json(&row.scpg)),
        ("scpg_max", point_json(&row.scpg_max)),
        ("saving_scpg", Json::Num(row.saving_scpg)),
        ("saving_max", Json::Num(row.saving_max)),
    ])
}

/// The `/v1/table` response document from serialized row fragments; see
/// [`sweep_response_with_points`] for why this split exists.
pub fn table_response_with_rows(spec: &DesignSpec, rows: Vec<Json>) -> Json {
    Json::object([
        ("design", Json::from(spec.key())),
        ("rows", Json::Arr(rows)),
    ])
}

/// The `/v1/table` response document.
pub fn table_response(spec: &DesignSpec, rows: &[TableRow]) -> Json {
    table_response_with_rows(spec, rows.iter().map(row_json).collect())
}

fn solution_json(s: &BudgetSolution) -> Json {
    Json::object([
        ("point", point_json(&s.point)),
        ("budget_w", Json::Num(s.budget.value())),
    ])
}

/// The `/v1/headline` response document. `headline` is `null` when the
/// budget is unsatisfiable even at the bracket floor.
pub fn headline_response(spec: &DesignSpec, headline: Option<&Headline>) -> Json {
    let inner = match headline {
        None => Json::Null,
        Some(h) => Json::object([
            ("no_pg", solution_json(&h.no_pg)),
            ("scpg", solution_json(&h.scpg)),
            ("scpg_max", solution_json(&h.scpg_max)),
            ("speedup_scpg", Json::Num(h.speedup_scpg)),
            ("speedup_max", Json::Num(h.speedup_max)),
            ("energy_gain_scpg", Json::Num(h.energy_gain_scpg)),
            ("energy_gain_max", Json::Num(h.energy_gain_max)),
        ]),
    };
    Json::object([("design", Json::from(spec.key())), ("headline", inner)])
}

/// The `/v1/variation` response document: the study's headline spread
/// statistics plus the per-die samples (fully deterministic for a given
/// seed, hence cacheable).
pub fn variation_response(spec: &DesignSpec, study: &VariationStudy) -> Json {
    let samples: Vec<Json> = study
        .samples
        .iter()
        .map(|s| {
            Json::object([
                ("dvt_v", Json::Num(s.dvt.value())),
                ("f_subthreshold_hz", Json::Num(s.f_subthreshold.value())),
                (
                    "f_above_threshold_hz",
                    Json::Num(s.f_above_threshold.value()),
                ),
                ("e_subthreshold_j", Json::Num(s.e_subthreshold.value())),
                ("v_min_of_die_v", Json::Num(s.v_min_of_die.value())),
            ])
        })
        .collect();
    Json::object([
        ("design", Json::from(spec.key())),
        ("v_min_nominal_v", Json::Num(study.v_min_nominal.value())),
        ("cv_f_subthreshold", Json::Num(study.cv_f_subthreshold())),
        (
            "cv_f_above_threshold",
            Json::Num(study.cv_f_above_threshold()),
        ),
        (
            "f_spread_subthreshold",
            Json::Num(study.f_spread_subthreshold()),
        ),
        ("v_min_skew_v", Json::Num(study.v_min_skew().value())),
        ("samples", Json::Arr(samples)),
    ])
}

/// The `GET /v1/designs` discovery document: supported design kinds,
/// the registered low-power techniques (with parameter schemas, see
/// [`technique_summaries`]), the server's resource limits, and summaries
/// of every uploaded netlist and Liberty library currently registered.
pub fn designs_response(
    limits: &QueryLimits,
    netlists: Vec<Json>,
    libraries: Vec<Json>,
    library_limits: LibraryLimits,
    techniques: Vec<Json>,
) -> Json {
    Json::object([
        (
            "kinds",
            Json::Arr(vec![
                Json::from("multiplier"),
                Json::from("chain"),
                Json::from("netlist"),
            ]),
        ),
        ("techniques", Json::Arr(techniques)),
        (
            "limits",
            Json::object([
                ("max_sweep_points", Json::from(limits.max_sweep_points)),
                ("max_table_points", Json::from(limits.max_table_points)),
                (
                    "max_variation_samples",
                    Json::from(limits.max_variation_samples),
                ),
                (
                    "max_multiplier_bits",
                    Json::from(limits.max_multiplier_bits),
                ),
                ("max_chain_length", Json::from(limits.max_chain_length)),
                ("max_netlist_gates", Json::from(limits.max_netlist_gates)),
                ("max_netlist_bytes", Json::from(limits.max_netlist_bytes)),
                ("min_frequency_hz", Json::Num(limits.min_frequency.value())),
                ("max_frequency_hz", Json::Num(limits.max_frequency.value())),
                (
                    "max_library_bytes",
                    Json::from(library_limits.max_source_bytes),
                ),
                ("max_library_cells", Json::from(library_limits.max_cells)),
                (
                    "max_library_table_points",
                    Json::from(library_limits.max_table_points),
                ),
                ("max_libraries", Json::from(library_limits.max_libraries)),
                (
                    "max_loaded_libraries",
                    Json::from(library_limits.max_loaded),
                ),
            ]),
        ),
        ("netlists", Json::Arr(netlists)),
        ("libraries", Json::Arr(libraries)),
    ])
}

/// A JSON error body: `{"error": "..."}`.
pub fn error_body(message: &str) -> Vec<u8> {
    Json::object([("error", Json::from(message))])
        .write()
        .into_bytes()
}

/// The JSON error body for a refused netlist upload. Parse failures
/// additionally carry machine-readable `line`, `column` and `token`
/// fields so clients can point at the offending source location.
pub fn upload_error_body(err: &scpg_jobs::UploadError) -> Vec<u8> {
    let mut fields = vec![("error".to_string(), Json::from(err.to_string()))];
    if let scpg_jobs::UploadError::Parse {
        line,
        column,
        token,
        ..
    } = err
    {
        fields.push(("line".to_string(), Json::from(*line)));
        fields.push(("column".to_string(), Json::from(*column)));
        fields.push(("token".to_string(), Json::from(token.as_str())));
    }
    Json::Obj(fields).write().into_bytes()
}

/// The JSON error body for a refused Liberty-library upload. Parse
/// failures carry machine-readable `line`, `column` and `token` fields
/// pointing at the offending source location.
pub fn library_error_body(err: &LibraryUploadError) -> Vec<u8> {
    let mut fields = vec![("error".to_string(), Json::from(err.to_string()))];
    if let LibraryUploadError::Parse {
        line,
        column,
        token,
        ..
    } = err
    {
        fields.push(("line".to_string(), Json::from(*line)));
        fields.push(("column".to_string(), Json::from(*column)));
        fields.push(("token".to_string(), Json::from(token.as_str())));
    }
    Json::Obj(fields).write().into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> QueryLimits {
        QueryLimits::default()
    }

    #[test]
    fn missing_design_means_the_default_multiplier() {
        let body = Json::parse(r#"{"frequencies_hz": [10000]}"#).unwrap();
        let (spec, query) = parse_sweep(&body, &limits()).unwrap();
        assert_eq!(spec, DesignSpec::default_multiplier());
        assert_eq!(
            query,
            Query::Sweep {
                frequencies: vec![Frequency::new(10000.0)],
                mode: Mode::Scpg
            }
        );
    }

    #[test]
    fn design_fields_override_defaults() {
        let body = Json::parse(
            r#"{"design": {"kind": "multiplier", "bits": 8, "e_dyn_pj": 1.5, "vdd_mv": 500},
                "mode": "scpg_max", "frequencies_hz": [1e6]}"#,
        )
        .unwrap();
        let (spec, query) = parse_sweep(&body, &limits()).unwrap();
        assert_eq!(spec.kind, DesignKind::Multiplier { bits: 8 });
        assert_eq!(spec.e_dyn, Energy::from_pj(1.5));
        assert_eq!(spec.vdd, Voltage::from_mv(500.0));
        assert!(matches!(
            query,
            Query::Sweep {
                mode: Mode::ScpgMax,
                ..
            }
        ));
    }

    #[test]
    fn bad_bodies_are_refused_with_reasons() {
        for (body, needle) in [
            (r#"{}"#, "frequencies_hz"),
            (r#"{"frequencies_hz": "x"}"#, "frequencies_hz"),
            (
                r#"{"frequencies_hz": [1e6], "mode": "warp"}"#,
                "unknown mode",
            ),
            (
                r#"{"frequencies_hz": [1e6], "design": {"kind": "fpga"}}"#,
                "unknown design.kind",
            ),
            (
                r#"{"frequencies_hz": [1e6], "design": {"kind": "multiplier", "bits": 512}}"#,
                "bits",
            ),
            (r#"{"frequencies_hz": []}"#, "non-empty"),
            (r#"{"frequencies_hz": [-5]}"#, "admissible band"),
        ] {
            let parsed = Json::parse(body).unwrap();
            let err = parse_sweep(&parsed, &limits()).expect_err(body);
            assert!(err.contains(needle), "{body} → {err}");
        }
    }

    #[test]
    fn headline_defaults_and_validation() {
        let body = Json::parse(r#"{"budget_w": 30e-6}"#).unwrap();
        let (_, query) = parse_headline(&body, &limits()).unwrap();
        assert_eq!(
            query,
            Query::Headline {
                budget: Power::new(30e-6),
                lo: Frequency::new(100.0),
                hi: Frequency::new(50.0e6),
            }
        );
        let bad = Json::parse(r#"{"budget_w": -1}"#).unwrap();
        assert!(parse_headline(&bad, &limits()).is_err());
        let missing = Json::parse(r#"{}"#).unwrap();
        assert!(parse_headline(&missing, &limits()).is_err());
    }

    #[test]
    fn variation_parses_and_caps_samples() {
        let body = Json::parse(
            r#"{"design": {"kind": "chain", "length": 8}, "samples": 4, "sigma_mv": 25, "seed": 7}"#,
        )
        .unwrap();
        let (spec, cfg) = parse_variation(&body, &limits()).unwrap();
        assert_eq!(spec.kind, DesignKind::Chain { length: 8 });
        assert_eq!(cfg.samples, 4);
        assert_eq!(cfg.sigma_vt, Voltage::from_mv(25.0));
        assert_eq!(cfg.seed, 7);

        let over = Json::parse(r#"{"samples": 100000}"#).unwrap();
        assert!(parse_variation(&over, &limits())
            .expect_err("cap")
            .contains("samples"));
    }

    #[test]
    fn responses_serialize_real_numbers_bit_exactly() {
        let p = OperatingPoint {
            frequency: Frequency::from_mhz(1.0),
            mode: Mode::Scpg,
            duty: 0.375,
            power: Power::new(1.0 / 3.0 * 1e-6),
            energy_per_op: Energy::new(2.3e-12),
            gated: true,
        };
        let spec = DesignSpec::default_multiplier();
        let doc = sweep_response(&spec, Mode::Scpg, &[p]);
        let text = doc.write();
        let back = Json::parse(&text).unwrap();
        let point = &back.get("points").unwrap().as_array().unwrap()[0];
        assert_eq!(
            point.get("power_w").unwrap().as_f64().unwrap().to_bits(),
            p.power.value().to_bits()
        );
        assert_eq!(point.get("gated").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("mode").unwrap().as_str(), Some("scpg"));
    }

    #[test]
    fn netlist_designs_parse_and_validate() {
        let body = Json::parse(
            r#"{"frequencies_hz": [1e6], "design": {"kind": "netlist", "id": "abc123"}}"#,
        )
        .unwrap();
        let (spec, _) = parse_sweep(&body, &limits()).unwrap();
        assert_eq!(
            spec.kind,
            DesignKind::Netlist {
                id: "abc123".into()
            }
        );
        let missing =
            Json::parse(r#"{"frequencies_hz": [1e6], "design": {"kind": "netlist"}}"#).unwrap();
        assert!(parse_sweep(&missing, &limits())
            .expect_err("id required")
            .contains("design.id"));
        let bad_id = Json::parse(
            r#"{"frequencies_hz": [1e6], "design": {"kind": "netlist", "id": "../../etc"}}"#,
        )
        .unwrap();
        assert!(parse_sweep(&bad_id, &limits()).is_err());
    }

    #[test]
    fn upload_parse_errors_carry_location_fields() {
        let err = scpg_jobs::UploadError::Parse {
            line: 7,
            column: 3,
            token: "QQ".into(),
            message: "unexpected token".into(),
        };
        let body = upload_error_body(&err);
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(v.get("error").unwrap().as_str().is_some());
        assert_eq!(v.get("line").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("column").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("token").unwrap().as_str(), Some("QQ"));
    }

    #[test]
    fn designs_response_lists_kinds_limits_netlists_and_techniques() {
        let registry = TechniqueRegistry::standard();
        let doc = designs_response(
            &limits(),
            vec![Json::object([("id", Json::from("abc"))])],
            vec![Json::object([("id", Json::from("def"))])],
            LibraryLimits::default(),
            technique_summaries(&registry),
        );
        assert_eq!(doc.get("kinds").unwrap().as_array().unwrap().len(), 3);
        let lim = doc.get("limits").unwrap();
        assert_eq!(lim.get("max_netlist_gates").unwrap().as_u64(), Some(20_000));
        assert_eq!(
            lim.get("max_netlist_bytes").unwrap().as_u64(),
            Some(512 * 1024)
        );
        assert_eq!(
            lim.get("max_library_bytes").unwrap().as_u64(),
            Some(1024 * 1024)
        );
        assert_eq!(lim.get("max_libraries").unwrap().as_u64(), Some(32));
        assert_eq!(doc.get("netlists").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(doc.get("libraries").unwrap().as_array().unwrap().len(), 1);
        let techs = doc.get("techniques").unwrap().as_array().unwrap();
        assert_eq!(techs.len(), 5);
        assert_eq!(techs[1].get("name").unwrap().as_str(), Some("scpg"));
        assert!(techs[1].get("summary").unwrap().as_str().is_some());
        // Every schema is a (possibly empty) parameter array.
        for t in techs {
            assert!(t.get("params").unwrap().as_array().is_some());
        }
    }

    #[test]
    fn compare_parses_defaults_names_and_param_objects() {
        let registry = TechniqueRegistry::standard();
        // Omitted techniques field: all registered, default params.
        let body = Json::parse(r#"{"frequencies_hz": [1e6]}"#).unwrap();
        let (_, freqs, techs) = parse_compare(&body, &limits(), &registry).unwrap();
        assert_eq!(freqs, vec![Frequency::new(1e6)]);
        assert_eq!(
            techs.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(),
            ["baseline", "scpg", "ctsg", "ddcg", "lector"]
        );
        // Mixed name strings and {name, params} objects.
        let body = Json::parse(
            r#"{"frequencies_hz": [1e6],
                "techniques": ["baseline", {"name": "ctsg", "params": {"clusters": 2}}]}"#,
        )
        .unwrap();
        let (_, _, techs) = parse_compare(&body, &limits(), &registry).unwrap();
        assert_eq!(techs.len(), 2);
        assert_eq!(techs[1].params.canonical(), "clusters=2,header=auto");
    }

    #[test]
    fn compare_refusals_name_the_problem() {
        let registry = TechniqueRegistry::standard();
        for (body, needle) in [
            (r#"{"frequencies_hz": []}"#, "non-empty"),
            (
                r#"{"frequencies_hz": [1e6], "techniques": []}"#,
                "non-empty",
            ),
            (
                r#"{"frequencies_hz": [1e6], "techniques": ["warp"]}"#,
                "unknown technique",
            ),
            (
                r#"{"frequencies_hz": [1e6], "techniques": [{"params": {}}]}"#,
                "name string",
            ),
            (
                r#"{"frequencies_hz": [1e6], "techniques": [{"name": "ctsg", "params": {"clusters": 99}}]}"#,
                "clusters",
            ),
        ] {
            let parsed = Json::parse(body).unwrap();
            let err = parse_compare(&parsed, &limits(), &registry).expect_err(body);
            assert!(err.contains(needle), "{body} → {err}");
        }
        // techniques × frequencies is bounded by max_sweep_points.
        let mut lim = limits();
        lim.max_sweep_points = 5;
        let body = Json::parse(r#"{"frequencies_hz": [1e6, 2e6]}"#).unwrap();
        let err = parse_compare(&body, &lim, &registry).expect_err("4×2 > 5");
        assert!(err.contains("max_sweep_points"), "{err}");
    }

    #[test]
    fn technique_point_serializes_like_a_sweep_point() {
        // The byte-identity anchor: for equal numbers, the two point
        // serializers must emit identical text.
        let op = OperatingPoint {
            frequency: Frequency::from_mhz(1.0),
            mode: Mode::Scpg,
            duty: 0.375,
            power: Power::new(1.0 / 3.0 * 1e-6),
            energy_per_op: Energy::new(2.3e-12),
            gated: true,
        };
        let tp = TechniquePoint {
            frequency: op.frequency,
            mode: op.mode.key().to_string(),
            duty: op.duty,
            power: op.power,
            energy_per_op: op.energy_per_op,
            gated: op.gated,
        };
        assert_eq!(point_json(&op).write(), technique_point_json(&tp).write());
    }

    #[test]
    fn technique_error_bodies_are_structured_for_double_gating() {
        let err = TechniqueError::AlreadyTransformed {
            technique: "scpg".to_string(),
            marker: "scpg control instance `scpg_hdr`".to_string(),
        };
        let body = technique_error_body(&err);
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v.get("already_transformed").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("technique").unwrap().as_str(), Some("scpg"));
        assert!(v.get("marker").unwrap().as_str().unwrap().contains("scpg_"));
        // Ordinary failures stay plain error bodies.
        let plain = technique_error_body(&TechniqueError::Unsupported("x".into()));
        let v = Json::parse(std::str::from_utf8(&plain).unwrap()).unwrap();
        assert!(v.get("already_transformed").is_none());
    }

    #[test]
    fn error_body_is_json() {
        let body = error_body("it \"broke\"");
        let v = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("it \"broke\""));
    }
}
