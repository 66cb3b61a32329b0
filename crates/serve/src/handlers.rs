//! Endpoint handlers: each request is *resolved* up front (parsed,
//! validated, defaults filled in) into a canonical cache key plus a
//! deferred compute closure. The key is
//! `<route>|<canonical string of the fully-resolved parameters>`
//! ([`faultline_core::query::canonical_string`]), so equivalent
//! spellings share a cache entry while any semantic difference —
//! including the seed — gets its own.
//!
//! [`prepare_with_work`] also bounds what a cache miss of the request
//! costs, from the resolved parameters alone and without running the
//! engine. The server computes a miss under [`INLINE_WORK`] on its
//! event loop and parks every other miss on the worker pool.
//!
//! The bound counts *visit units* ([`faultline_analysis::work`]): a
//! robot of geometric expansion `κ` makes `t = ln(e X) / ln κ` turns
//! out to extent `X`. The exact scan behind `/v1/supremum` evaluates
//! each of the fleet's `n (1 + t)` turning points in the window
//! against every robot, plus a fixed overhead of 8 units:
//! `n (n + 8) (1 + t)` units. A scenario costs
//! [`Document::work`]. `/v1/cr` computes in closed form (0 units);
//! `/v1/table1` and `/v1/optimize` always park.
//!
//! [`admit`] turns the bound into an admission rule: work that no
//! worker could finish within the request timeout is refused with a
//! 400 before it computes or parks.

use std::sync::LazyLock;
use std::time::Duration;

use faultline_analysis::scenario::{results_to_json, Scenario};
use faultline_analysis::supremum::SupremumQuery;
use faultline_analysis::table1;
use faultline_analysis::work::{self, turn_density, turns, OVERHEAD};
use faultline_core::query::canonical_string;
use faultline_core::CrQuery;
use faultline_opt::OptimizeConfig;
use faultline_scenario::Document;

use crate::http::Request;
use crate::router::Route;
use crate::ServeError;

/// Computes a response body.
pub type Compute = Box<dyn FnOnce() -> Result<Vec<u8>, ServeError> + Send>;

/// A resolved request: cache key plus the deferred computation.
pub struct Prepared {
    /// Canonical cache key of the fully-resolved parameters.
    pub cache_key: String,
    /// Computes the response body: on the event loop for a miss under
    /// [`INLINE_WORK`], on the worker pool otherwise.
    pub compute: Compute,
}

/// The work bound, in visit units, under which a cache miss computes
/// inline on the event loop. Calibrated in release on a shared 2-vCPU
/// x86-64 host, where a unit costs 0.022 µs (supremum) and 0.017 µs
/// (scenario) in the median: over a grid of strategies, fleets,
/// targets and extents, the longest inline compute took 0.21 ms, a few
/// pool round trips.
pub const INLINE_WORK: f64 = 6000.0;

/// Refuses a request whose finite work bound exceeds what one worker
/// computes within `timeout` ([`work::admit`]: 7.5e8 units at 60 s).
/// An infinite bound means the route has no bound yet, and parks.
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] naming the bound and the limit.
pub fn admit(work: f64, timeout: Duration) -> Result<(), ServeError> {
    work::admit(work, timeout).map_err(ServeError::BadRequest)
}

/// The named scenario presets served by `POST /v1/scenario` with
/// `{"name": ...}`; `(name, scenario JSON)`. The `randomized` preset
/// uses the seedable sweep strategy, so requests may pass an explicit
/// `"seed"` alongside the name.
pub const SCENARIO_PRESETS: &[(&str, &str)] = &[
    ("smoke", r#"{"n": 3, "f": 1, "targets": [2.0, -4.5]}"#),
    ("two-group", r#"{"n": 4, "f": 2, "targets": [1.5, -3.0, 8.0]}"#),
    ("proportional", r#"{"n": 5, "f": 2, "targets": [2.0, -6.0, 12.0]}"#),
    ("explicit-faults", r#"{"n": 4, "f": 2, "targets": [3.0, -5.0], "faulty": [0, 2]}"#),
    (
        "randomized",
        r#"{"n": 3, "f": 1, "strategy": "randomized-sweep", "targets": [2.0, -4.5, 7.0]}"#,
    ),
    // n = 2f + 1 with f Byzantine liars and an f + 1 = 3 claim quorum:
    // the canonical regime in which no coalition of liars can confirm
    // a false position. Lie coins are seed-driven, so requests may
    // pass an explicit "seed" alongside the name.
    (
        "byzantine",
        r#"{"n": 5, "f": 2, "targets": [2.0, -6.0, 12.0], "fault_plan": ["Reliable", "Reliable", "Reliable", {"Byzantine": {"lie_rate": 0.75}}, {"Byzantine": {"lie_rate": 0.75}}], "quorum": 3}"#,
    ),
    // One probabilistically-faulty sensor among reliable peers; each
    // of its visits detects independently with probability 1/2 on the
    // seeded coin stream.
    (
        "p-faulty",
        r#"{"n": 3, "f": 1, "targets": [2.0, -4.5, 7.0], "fault_plan": [{"PFaulty": {"detect_probability": 0.5}}, "Reliable", "Reliable"]}"#,
    ),
];

fn key_for(route: Route, resolved: &serde::Value) -> String {
    format!("{}|{}", route.label(), canonical_string(resolved))
}

fn to_resolved_value<T: serde::Serialize>(value: &T) -> Result<serde::Value, ServeError> {
    serde::to_value(value)
        .map_err(|e| ServeError::Internal(format!("cannot serialize resolved request: {e}")))
}

fn json_body(text: String) -> Vec<u8> {
    let mut bytes = text.into_bytes();
    if bytes.last() != Some(&b'\n') {
        bytes.push(b'\n');
    }
    bytes
}

/// Resolves a request on a compute route into a [`Prepared`] job.
///
/// # Errors
///
/// As [`prepare_with_work`].
pub fn prepare(route: Route, request: &Request) -> Result<Prepared, ServeError> {
    prepare_with_work(route, request).map(|(prepared, _)| prepared)
}

/// Resolves a request on a compute route into a [`Prepared`] job and
/// the work bound of its computation, in visit units (see the module
/// docs): a function of the resolved request, so one cache key always
/// has one bound. Infinite for the routes that always park.
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] for malformed or invalid
/// parameters; the compute closure reports its own failures.
pub fn prepare_with_work(route: Route, request: &Request) -> Result<(Prepared, f64), ServeError> {
    match route {
        Route::Cr => Ok((prepare_cr(request)?, 0.0)),
        Route::Table1 => Ok((prepare_table1(request)?, f64::INFINITY)),
        Route::Scenario => prepare_scenario(request),
        Route::Supremum => prepare_supremum(request),
        Route::Optimize => Ok((prepare_optimize(request)?, f64::INFINITY)),
        Route::Healthz | Route::Metrics => {
            Err(ServeError::Internal(format!("{} is not a compute route", route.label())))
        }
    }
}

/// The exact scan of `n` robots making `turns` turns each.
fn scan_work(n: usize, turns: f64) -> f64 {
    let n = n as f64;
    n * (n + OVERHEAD) * (1.0 + turns)
}

fn required_usize(request: &Request, name: &str) -> Result<usize, ServeError> {
    let raw = request
        .query_param(name)
        .ok_or_else(|| ServeError::BadRequest(format!("missing query parameter `{name}`")))?;
    raw.parse().map_err(|_| {
        ServeError::BadRequest(format!("query parameter `{name}` must be a non-negative integer"))
    })
}

/// The response body for a `/v1/cr` query: the single source of truth
/// shared by the request path and the startup memo tier, so both
/// produce byte-identical documents.
///
/// # Errors
///
/// Rejects invalid `(n, f)` with a 400-mapped error.
pub fn cr_body(query: &CrQuery) -> Result<Vec<u8>, ServeError> {
    let report = query.evaluate().map_err(|e| ServeError::BadRequest(e.to_string()))?;
    serde_json::to_string_pretty(&report)
        .map(json_body)
        .map_err(|e| ServeError::Internal(format!("serialization failed: {e}")))
}

fn prepare_cr(request: &Request) -> Result<Prepared, ServeError> {
    let query = CrQuery { n: required_usize(request, "n")?, f: required_usize(request, "f")? };
    // Serialize eagerly: it is closed-form (microseconds), and doing so
    // rejects invalid (n, f) with a 400 before anything is cached.
    let body = cr_body(&query)?;
    let cache_key = key_for(Route::Cr, &to_resolved_value(&query)?);
    let compute: Compute = Box::new(move || Ok(body));
    Ok(Prepared { cache_key, compute })
}

fn prepare_table1(request: &Request) -> Result<Prepared, ServeError> {
    let measure = match request.query_param("measure") {
        None | Some("false" | "0" | "") => false,
        Some("true" | "1") => true,
        Some(other) => {
            return Err(ServeError::BadRequest(format!(
                "query parameter `measure` must be true or false, got `{other}`"
            )))
        }
    };
    let resolved = serde::Value::Object(vec![("measure".to_owned(), serde::Value::Bool(measure))]);
    let cache_key = key_for(Route::Table1, &resolved);
    let compute: Compute = Box::new(move || {
        let rows = table1::regenerate(measure)?;
        serde_json::to_string_pretty(&rows)
            .map(json_body)
            .map_err(|e| ServeError::Internal(format!("serialization failed: {e}")))
    });
    Ok(Prepared { cache_key, compute })
}

/// [`SCENARIO_PRESETS`], parsed once.
static PRESETS: LazyLock<Vec<(&str, Scenario)>> = LazyLock::new(|| {
    SCENARIO_PRESETS
        .iter()
        .map(|&(name, json)| (name, Scenario::from_json(json).expect("every preset is valid")))
        .collect()
});

/// Looks up a scenario preset by name.
fn preset(name: &str) -> Result<Scenario, ServeError> {
    let (_, scenario) = PRESETS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
        let known: Vec<&str> = SCENARIO_PRESETS.iter().map(|(n, _)| *n).collect();
        ServeError::BadRequest(format!(
            "unknown scenario preset `{name}` (known: {})",
            known.join(", ")
        ))
    })?;
    Ok(scenario.clone())
}

fn prepare_scenario(request: &Request) -> Result<(Prepared, f64), ServeError> {
    if request.body.trim().is_empty() {
        return Err(ServeError::BadRequest(
            "expected a JSON body: {\"name\": ...} or a scenario/trace document".to_owned(),
        ));
    }
    let value: serde::Value = serde_json::from_str(&request.body)
        .map_err(|e| ServeError::BadRequest(format!("malformed JSON body: {e}")))?;
    let document = match named_preset(&value)? {
        Some(scenario) => Document::Legacy(scenario),
        None => Document::from_value(value).map_err(|e| ServeError::BadRequest(e.to_string()))?,
    };
    // The cache key is the canonical form of the *resolved* document,
    // so spelling defaults out (or not) hits the same entry.
    let resolved = match &document {
        Document::Versioned(doc) => to_resolved_value(doc)?,
        Document::Legacy(scenario) => to_resolved_value(scenario)?,
        Document::Trace(trace) => to_resolved_value(trace)?,
    };
    let cache_key = key_for(Route::Scenario, &resolved);
    let work = document.work();
    let compute: Compute = Box::new(move || Ok(json_body(results_to_json(&document.run()?)?)));
    Ok((Prepared { cache_key, compute }, work))
}

/// The validated preset a `{"name": ..., "seed": <optional u64>}` body
/// names, or `None` for a body without `name`.
fn named_preset(value: &serde::Value) -> Result<Option<Scenario>, ServeError> {
    let serde::Value::Object(fields) = value else { return Ok(None) };
    if !fields.iter().any(|(k, _)| k == "name") {
        return Ok(None);
    }
    let mut name = None;
    let mut seed = None;
    for (key, field) in fields {
        match (key.as_str(), field) {
            ("name", serde::Value::String(s)) => name = Some(s.clone()),
            ("name", _) => {
                return Err(ServeError::BadRequest("`name` must be a string".to_owned()))
            }
            ("seed", serde::Value::UInt(s)) => seed = Some(*s),
            ("seed", serde::Value::Int(s)) if *s >= 0 => seed = Some(*s as u64),
            ("seed", _) => {
                return Err(ServeError::BadRequest(
                    "`seed` must be a non-negative integer".to_owned(),
                ))
            }
            (other, _) => {
                return Err(ServeError::BadRequest(format!(
                    "unknown field `{other}` in a named scenario request"
                )))
            }
        }
    }
    let name = name.expect("checked above");
    let mut scenario = preset(&name)?;
    if seed.is_some() {
        scenario.seed = seed;
    }
    scenario.validate().map_err(|e| ServeError::BadRequest(e.to_string()))?;
    Ok(Some(scenario))
}

fn prepare_supremum(request: &Request) -> Result<(Prepared, f64), ServeError> {
    if request.body.trim().is_empty() {
        return Err(ServeError::BadRequest(
            "expected a JSON body with at least {\"n\": ..., \"f\": ...}".to_owned(),
        ));
    }
    let query: SupremumQuery = serde_json::from_str(&request.body)
        .map_err(|e| ServeError::BadRequest(format!("malformed supremum query: {e}")))?;
    query.validate().map_err(|e| ServeError::BadRequest(e.to_string()))?;
    let cache_key = key_for(Route::Supremum, &to_resolved_value(&query)?);
    let density = turn_density(&query.strategy, query.beta, query.n, query.f);
    let work = scan_work(query.n, turns(density, query.xmax));
    let compute: Compute = Box::new(move || {
        let report = query.run()?;
        serde_json::to_string_pretty(&report)
            .map(json_body)
            .map_err(|e| ServeError::Internal(format!("serialization failed: {e}")))
    });
    Ok((Prepared { cache_key, compute }, work))
}

fn prepare_optimize(request: &Request) -> Result<Prepared, ServeError> {
    if request.body.trim().is_empty() {
        return Err(ServeError::BadRequest(
            "expected a JSON body with at least {\"n\": ..., \"f\": ...}".to_owned(),
        ));
    }
    let mut config: OptimizeConfig = serde_json::from_str(&request.body)
        .map_err(|e| ServeError::BadRequest(format!("malformed optimize request: {e}")))?;
    // Validate (n, f) and the window eagerly (400, nothing cached),
    // and pin the resolved defaults into the config so implicit and
    // explicit spellings of the same run share a cache entry.
    config.params().map_err(|e| ServeError::BadRequest(e.to_string()))?;
    config.xmax = Some(config.resolved_xmax().map_err(|e| ServeError::BadRequest(e.to_string()))?);
    config.objective().map_err(|e| ServeError::BadRequest(e.to_string()))?;
    let cache_key = key_for(Route::Optimize, &to_resolved_value(&config)?);
    let compute: Compute = Box::new(move || {
        let report = faultline_opt::run(&config)?;
        serde_json::to_string_pretty(&report)
            .map(json_body)
            .map_err(|e| ServeError::Internal(format!("serialization failed: {e}")))
    });
    Ok(Prepared { cache_key, compute })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_owned(),
            path: path.to_owned(),
            query: query.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            body: String::new(),
            keep_alive: true,
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_owned(),
            path: path.to_owned(),
            query: Vec::new(),
            body: body.to_owned(),
            keep_alive: true,
        }
    }

    #[test]
    fn cr_resolves_and_computes() {
        let prepared =
            prepare(Route::Cr, &get("/v1/cr", &[("n", "3"), ("f", "1")])).expect("valid");
        assert!(prepared.cache_key.starts_with("/v1/cr|"));
        let body = (prepared.compute)().expect("closed form");
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"cr_upper\""), "got: {text}");
    }

    #[test]
    fn cr_rejects_missing_and_invalid_params() {
        assert!(matches!(
            prepare(Route::Cr, &get("/v1/cr", &[("n", "3")])),
            Err(ServeError::BadRequest(_))
        ));
        assert!(
            matches!(
                prepare(Route::Cr, &get("/v1/cr", &[("n", "2"), ("f", "2")])),
                Err(ServeError::BadRequest(_)),
            ),
            "f >= n is invalid"
        );
    }

    #[test]
    fn equivalent_cr_spellings_share_a_key() {
        let a = prepare(Route::Cr, &get("/v1/cr", &[("n", "3"), ("f", "1")])).unwrap();
        let b = prepare(Route::Cr, &get("/v1/cr", &[("f", "1"), ("n", "3")])).unwrap();
        assert_eq!(a.cache_key, b.cache_key, "query order is canonicalized away");
    }

    #[test]
    fn all_presets_are_valid_and_named_requests_resolve() {
        for (name, _) in SCENARIO_PRESETS {
            let prepared = prepare(
                Route::Scenario,
                &post("/v1/scenario", &format!("{{\"name\": \"{name}\"}}")),
            )
            .unwrap_or_else(|e| panic!("preset {name}: {e:?}"));
            assert!(prepared.cache_key.starts_with("/v1/scenario|"));
        }
    }

    #[test]
    fn byzantine_preset_confirms_only_the_true_target() {
        let prepared =
            prepare(Route::Scenario, &post("/v1/scenario", r#"{"name": "byzantine", "seed": 3}"#))
                .unwrap();
        let body = String::from_utf8((prepared.compute)().expect("scenario runs")).unwrap();
        assert!(body.contains("\"confirmed_position\""), "quorum runs record a confirmation");
        assert!(body.contains("\"false_claims\""), "lie_rate 0.75 liars assert false claims");
    }

    #[test]
    fn seeds_produce_distinct_cache_keys() {
        let base = post("/v1/scenario", r#"{"name": "randomized"}"#);
        let k0 = prepare(Route::Scenario, &base).unwrap().cache_key;
        let k7 =
            prepare(Route::Scenario, &post("/v1/scenario", r#"{"name": "randomized", "seed": 7}"#))
                .unwrap()
                .cache_key;
        let k8 =
            prepare(Route::Scenario, &post("/v1/scenario", r#"{"name": "randomized", "seed": 8}"#))
                .unwrap()
                .cache_key;
        assert_ne!(k7, k8);
        assert_ne!(k0, k7);
    }

    #[test]
    fn seed_on_deterministic_preset_is_rejected() {
        let result =
            prepare(Route::Scenario, &post("/v1/scenario", r#"{"name": "smoke", "seed": 1}"#));
        assert!(matches!(result, Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn unknown_preset_lists_known_names() {
        let Err(err) = prepare(Route::Scenario, &post("/v1/scenario", r#"{"name": "nope"}"#))
        else {
            panic!("unknown preset must be rejected")
        };
        assert!(err.message().contains("smoke"), "got: {}", err.message());
    }

    #[test]
    fn full_scenario_document_resolves_defaults_into_key() {
        let explicit = post(
            "/v1/scenario",
            r#"{"n": 3, "f": 1, "strategy": "paper", "targets": [2.0, -4.5]}"#,
        );
        let implicit = post("/v1/scenario", r#"{"n": 3, "f": 1, "targets": [2.0, -4.5]}"#);
        let a = prepare(Route::Scenario, &explicit).unwrap().cache_key;
        let b = prepare(Route::Scenario, &implicit).unwrap().cache_key;
        assert_eq!(a, b, "the default strategy is resolved before keying");
    }

    #[test]
    fn versioned_documents_resolve_defaults_into_key() {
        let implicit =
            post("/v1/scenario", r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0, -4.5]}"#);
        let explicit = post(
            "/v1/scenario",
            r#"{"version": 1, "n": 3, "f": 1, "strategy": "paper", "geometry": "Line",
                "targets": [2.0, -4.5]}"#,
        );
        let a = prepare(Route::Scenario, &implicit).unwrap().cache_key;
        let b = prepare(Route::Scenario, &explicit).unwrap().cache_key;
        assert_eq!(a, b, "resolved defaults key identically");
        // A v1 document with a typo'd field fails loudly instead of
        // falling through to the legacy parser.
        let typo = post("/v1/scenario", r#"{"version": 1, "n": 3, "f": 1, "tragets": [2.0]}"#);
        let Err(err) = prepare(Route::Scenario, &typo) else {
            panic!("typo'd v1 document must be rejected")
        };
        assert!(err.message().contains("tragets"), "got: {}", err.message());
        // Future versions are rejected with the version diagnostic.
        let future = post("/v1/scenario", r#"{"version": 9, "n": 3, "f": 1, "targets": [2.0]}"#);
        let Err(err) = prepare(Route::Scenario, &future) else {
            panic!("future-versioned document must be rejected")
        };
        assert!(err.message().contains("unsupported scenario version 9"), "{}", err.message());
    }

    #[test]
    fn unversioned_bodies_with_versioned_or_unknown_keys_are_400s() {
        // Run without the key, each body would answer a different
        // question than it asks: the first at unit speed, not 0.5.
        for (body, field) in [
            (
                r#"{"n": 3, "f": 1, "targets": [2.0, 4.5],
                    "robots": [{"speed": 0.5}, {"speed": 0.5}, {"speed": 0.5}]}"#,
                "robots",
            ),
            (r#"{"n": 3, "f": 1, "geometry": "HalfLine", "targets": [2.0, 4.5]}"#, "geometry"),
            (r#"{"n": 3, "f": 1, "targets": [2.0, 4.5], "tragets": [1.0]}"#, "tragets"),
        ] {
            let Err(err) = prepare(Route::Scenario, &post("/v1/scenario", body)) else {
                panic!("`{field}` must be rejected")
            };
            assert!(matches!(err, ServeError::BadRequest(_)), "{field}: {err:?}");
            assert!(err.message().contains(&format!("\"{field}\"")), "{}", err.message());
        }
    }

    fn example_scenario(name: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/scenarios")
            .join(name);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    }

    #[test]
    fn preset_files_reproduce_named_presets_byte_for_byte() {
        // Pinned regression: every canned file under examples/scenarios/
        // that mirrors a named preset must produce the *identical*
        // response bytes through POST /v1/scenario. A drifting preset
        // or a lossy DSL float path shows up here first.
        for (name, _) in SCENARIO_PRESETS {
            let named = prepare(
                Route::Scenario,
                &post("/v1/scenario", &format!("{{\"name\": \"{name}\"}}")),
            )
            .unwrap();
            let file_body = example_scenario(&format!("{name}.json"));
            let from_file = prepare(Route::Scenario, &post("/v1/scenario", &file_body)).unwrap();
            let a = (named.compute)().unwrap_or_else(|e| panic!("preset {name}: {e:?}"));
            let b = (from_file.compute)().unwrap_or_else(|e| panic!("file {name}: {e:?}"));
            assert_eq!(a, b, "preset `{name}` and its canned file diverge");
        }
    }

    #[test]
    fn half_line_example_runs_through_post() {
        let body = example_scenario("half_line.json");
        let prepared = prepare(Route::Scenario, &post("/v1/scenario", &body)).unwrap();
        let text = String::from_utf8((prepared.compute)().expect("half-line runs")).unwrap();
        assert!(text.contains("\"detection_time\""), "got: {text}");
        // Deterministic: the same document prepares to the same key
        // and the same bytes.
        let again = prepare(Route::Scenario, &post("/v1/scenario", &body)).unwrap();
        assert_eq!(again.cache_key, prepared.cache_key);
        assert_eq!(String::from_utf8((again.compute)().unwrap()).unwrap(), text);
    }

    #[test]
    fn heterogeneous_example_runs_through_post() {
        let body = example_scenario("heterogeneous.json");
        let prepared = prepare(Route::Scenario, &post("/v1/scenario", &body)).unwrap();
        let text = String::from_utf8((prepared.compute)().expect("heterogeneous runs")).unwrap();
        assert!(text.contains("\"confirmed_position\""), "quorum confirms: {text}");
    }

    #[test]
    fn supremum_body_resolves_defaults() {
        let a = prepare(Route::Supremum, &post("/v1/supremum", r#"{"n": 3, "f": 1}"#)).unwrap();
        let b = prepare(
            Route::Supremum,
            &post("/v1/supremum", r#"{"f": 1, "n": 3, "strategy": "paper"}"#),
        )
        .unwrap();
        assert_eq!(a.cache_key, b.cache_key);
        let body = (a.compute)().expect("small scan");
        assert!(String::from_utf8(body).unwrap().contains("\"measured\""));
    }

    #[test]
    fn optimize_body_resolves_defaults_into_key() {
        let implicit = prepare(
            Route::Optimize,
            &post("/v1/optimize", r#"{"n": 3, "f": 1, "budget": "tiny", "xmax": 8.0}"#),
        )
        .unwrap();
        assert!(implicit.cache_key.starts_with("/v1/optimize|"));
        // Spelling out the default seed is the same resolved request.
        let explicit = prepare(
            Route::Optimize,
            &post("/v1/optimize", r#"{"f": 1, "n": 3, "budget": "tiny", "xmax": 8.0, "seed": 0}"#),
        )
        .unwrap();
        assert_eq!(implicit.cache_key, explicit.cache_key);
        // A different seed is a different entry.
        let seeded = prepare(
            Route::Optimize,
            &post("/v1/optimize", r#"{"n": 3, "f": 1, "budget": "tiny", "xmax": 8.0, "seed": 7}"#),
        )
        .unwrap();
        assert_ne!(implicit.cache_key, seeded.cache_key);
        let body = (implicit.compute)().expect("tiny run");
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"best_found_cr\""), "got: {text}");
    }

    #[test]
    fn optimize_rejects_bad_bodies_before_caching() {
        for body in [
            "",
            "{",
            r#"{"f": 1}"#,
            r#"{"n": 2, "f": 3}"#,
            r#"{"n": 3, "f": 1, "budget": "enormous"}"#,
            r#"{"n": 3, "f": 1, "xmax": 0.5}"#,
        ] {
            assert!(
                matches!(
                    prepare(Route::Optimize, &post("/v1/optimize", body)),
                    Err(ServeError::BadRequest(_))
                ),
                "body `{body}` must be a 400"
            );
        }
    }

    fn work(route: Route, body: &str) -> f64 {
        let path = if route == Route::Supremum { "/v1/supremum" } else { "/v1/scenario" };
        prepare_with_work(route, &post(path, body)).expect("a valid request").1
    }

    /// A legacy scenario body with `targets` targets spread out to
    /// `extent`, alternating sides.
    fn scenario_with(n: usize, f: usize, targets: usize, extent: f64, strategy: &str) -> String {
        let targets: Vec<String> = (1..=targets)
            .map(|i| {
                let x = 1.0 + (extent - 1.0) * i as f64 / targets as f64;
                format!("{:?}", if i % 2 == 0 { x } else { -x })
            })
            .collect();
        format!(
            r#"{{"n": {n}, "f": {f}, "strategy": "{strategy}", "targets": [{}]}}"#,
            targets.join(", ")
        )
    }

    #[test]
    fn the_benchmarked_misses_are_under_the_inline_bound() {
        for &(n, f) in table1::TABLE1_PAIRS {
            for xmax in [4.0, 32.0] {
                let body = format!(r#"{{"n": {n}, "f": {f}, "xmax": {xmax}}}"#);
                assert!(work(Route::Supremum, &body) < INLINE_WORK, "{body}");
            }
        }
        for (name, _) in SCENARIO_PRESETS {
            assert!(work(Route::Scenario, &format!(r#"{{"name": "{name}"}}"#)) < INLINE_WORK);
        }
        for name in ["randomized", "byzantine", "p-faulty"] {
            let body = format!(r#"{{"name": "{name}", "seed": 9007199254740991}}"#);
            assert!(work(Route::Scenario, &body) < INLINE_WORK, "{body}");
        }
        for file in ["half_line.json", "heterogeneous.json"] {
            assert!(work(Route::Scenario, &example_scenario(file)) < INLINE_WORK, "{file}");
        }
        let cr = prepare_with_work(Route::Cr, &get("/v1/cr", &[("n", "30"), ("f", "7")]));
        assert_eq!(cr.expect("closed form").1, 0.0);
    }

    #[test]
    fn large_requests_and_the_optimizer_and_table_routes_always_park() {
        assert!(work(Route::Supremum, r#"{"n": 201, "f": 100, "xmax": 1e9}"#) >= INLINE_WORK);
        assert!(work(Route::Scenario, &scenario_with(41, 20, 50, 60.0, "paper")) >= INLINE_WORK);
        let table1 = prepare_with_work(Route::Table1, &get("/v1/table1", &[])).expect("valid");
        assert_eq!(table1.1, f64::INFINITY);
        let optimize = r#"{"n": 3, "f": 1, "budget": "tiny", "xmax": 8.0}"#;
        let optimize = prepare_with_work(Route::Optimize, &post("/v1/optimize", optimize));
        assert_eq!(optimize.expect("valid").1, f64::INFINITY);
        // A near-unit cone expands too slowly to scan inline.
        let slow = r#"{"n": 3, "f": 1, "strategy": "fixed-beta", "beta": 1e6, "xmax": 1e3}"#;
        assert!(work(Route::Supremum, slow) >= INLINE_WORK);
        // The largest fleets accepted never run inline...
        let (n, f) = (faultline_core::Params::MAX_ROBOTS, faultline_core::Params::MAX_ROBOTS / 2);
        assert!(work(Route::Supremum, &format!(r#"{{"n": {n}, "f": {f}}}"#)) >= INLINE_WORK);
        let largest = format!(r#"{{"n": {n}, "f": {f}, "targets": [2.0]}}"#);
        assert!(work(Route::Scenario, &largest) >= INLINE_WORK);
        // ...and larger ones, up to the integer limit, are refused
        // before anything is built.
        let refusal = |route, path, body: &str| {
            prepare_with_work(route, &post(path, body)).err().map(|error| error.status())
        };
        let huge = format!(r#"{{"n": {}, "f": {}}}"#, usize::MAX, usize::MAX - 1);
        assert_eq!(refusal(Route::Supremum, "/v1/supremum", &huge), Some(400));
        let huge = format!(r#"{{"n": {}, "f": {}, "targets": [2.0]}}"#, usize::MAX, usize::MAX - 1);
        assert_eq!(refusal(Route::Scenario, "/v1/scenario", &huge), Some(400));
        let over = format!(r#"{{"n": {}, "f": 1}}"#, n + 1);
        assert_eq!(refusal(Route::Supremum, "/v1/supremum", &over), Some(400));
        assert_eq!(refusal(Route::Optimize, "/v1/optimize", &over), Some(400));
        let abort = r#"{"n": 1125899906842624, "f": 1}"#;
        assert_eq!(refusal(Route::Supremum, "/v1/supremum", abort), Some(400));
    }

    #[test]
    fn a_cone_that_cannot_expand_is_refused_before_it_parks() {
        // From beta = 1e16, (beta + 1)/(beta - 1) rounds to 1 and the
        // zig-zag never expands: such a body is a 400, not a job.
        for beta in ["1e16", "1e300"] {
            let fixed = format!(r#""n": 3, "f": 1, "strategy": "fixed-beta", "beta": {beta}"#);
            for (route, path, body) in [
                (Route::Supremum, "/v1/supremum", format!("{{{fixed}}}")),
                (Route::Scenario, "/v1/scenario", format!(r#"{{{fixed}, "targets": [5.0]}}"#)),
                (
                    Route::Scenario,
                    "/v1/scenario",
                    format!(r#"{{"version": 1, {fixed}, "targets": [5.0]}}"#),
                ),
            ] {
                let status = prepare_with_work(route, &post(path, &body)).err().map(|e| e.status());
                assert_eq!(status, Some(400), "{body}");
            }
        }
    }

    #[test]
    fn work_no_worker_can_finish_is_refused_and_the_rest_is_admitted() {
        let timeout = Duration::from_secs(60);
        for beta in ["1e6", "1e10"] {
            let fixed = format!(r#""n": 3, "f": 1, "strategy": "fixed-beta", "beta": {beta}"#);
            for (route, body) in [
                (Route::Supremum, format!("{{{fixed}}}")),
                (Route::Scenario, format!(r#"{{{fixed}, "targets": [5.0]}}"#)),
            ] {
                let bound = work(route, &body);
                assert!(bound >= INLINE_WORK, "{body} parks");
                match admit(bound, timeout) {
                    Ok(()) => assert_eq!(beta, "1e6", "{body}: {bound:e} units admitted"),
                    Err(error) => {
                        assert_eq!(beta, "1e10", "{body}: {bound:e} units refused");
                        assert_eq!(error.status(), 400);
                        let message = error.message();
                        assert!(message.contains(&format!("{bound:.1e}")), "{message}");
                        assert!(message.contains("7.5e8") && message.contains("60s"), "{message}");
                    }
                }
            }
        }
        // The routes without a finite bound keep parking.
        assert!(admit(f64::INFINITY, timeout).is_ok());
        assert!(admit(7.5e8, timeout).is_ok(), "the limit itself is admitted");
        assert!(admit(7.6e8, timeout).is_err());
    }

    #[test]
    fn a_refused_huge_float_stays_short() {
        let fault = |kind: String| {
            format!(
                r#"{{"n": 3, "f": 1, "targets": [2.0], "fault_plan": ["Reliable", "Reliable", {kind}]}}"#
            )
        };
        let robot = |spec: String| {
            format!(
                r#"{{"version": 1, "n": 3, "f": 1, "targets": [2.0],
                    "fault_plan": ["Reliable", "Reliable", "Sensor"], "robots": [{{}}, {{}}, {spec}]}}"#
            )
        };
        let mut refused = 0;
        for x in ["1e300", "-1e300"] {
            let fixed_beta = format!(r#""n": 3, "f": 1, "strategy": "fixed-beta", "beta": {x}"#);
            let bodies = [
                (Route::Supremum, format!(r#"{{"n": 3, "f": 1, "xmax": {x}}}"#)),
                (Route::Supremum, format!("{{{fixed_beta}}}")),
                (Route::Scenario, format!(r#"{{"n": 3, "f": 1, "targets": [{x}]}}"#)),
                (Route::Scenario, format!(r#"{{"version": 1, "n": 3, "f": 1, "targets": [{x}]}}"#)),
                (Route::Scenario, format!(r#"{{{fixed_beta}, "targets": [5.0]}}"#)),
                (
                    Route::Scenario,
                    fault(format!(r#"{{"Intermittent": {{"miss_probability": {x}}}}}"#)),
                ),
                (Route::Scenario, fault(format!(r#"{{"Delayed": {{"latency": {x}}}}}"#))),
                (Route::Scenario, fault(format!(r#"{{"SpeedDegraded": {{"factor": {x}}}}}"#))),
                (Route::Scenario, fault(format!(r#"{{"Byzantine": {{"lie_rate": {x}}}}}"#))),
                (
                    Route::Scenario,
                    fault(format!(r#"{{"PFaulty": {{"detect_probability": {x}}}}}"#)),
                ),
                (Route::Scenario, robot(format!(r#"{{"speed": {x}}}"#))),
                (Route::Scenario, robot(format!(r#"{{"activation": {{"DelayedStart": {x}}}}}"#))),
                (
                    Route::Scenario,
                    robot(format!(r#"{{"activation": {{"Seeded": {{"max_delay": {x}}}}}}}"#)),
                ),
                (Route::Scenario, robot(format!(r#"{{"fault_onset": {x}}}"#))),
                (Route::Optimize, format!(r#"{{"n": 3, "f": 1, "xmax": {x}}}"#)),
                (Route::Optimize, format!(r#"{{"n": 3, "f": 1, "detect_probability": {x}}}"#)),
            ];
            for (route, body) in bodies {
                let path = match route {
                    Route::Supremum => "/v1/supremum",
                    Route::Scenario => "/v1/scenario",
                    _ => "/v1/optimize",
                };
                // What the server does with the body: refuse it, or
                // admit it and compute. Only the finite bounds here,
                // all small, are computed.
                let outcome = prepare_with_work(route, &post(path, &body)).and_then(|(p, w)| {
                    admit(w, Duration::from_secs(60))?;
                    if w.is_finite() {
                        (p.compute)()?;
                    }
                    Ok(())
                });
                let Err(error) = outcome else { continue };
                assert_eq!(error.status(), 400, "{body}: {}", error.message());
                assert!(error.message().contains(x), "{body}: {}", error.message());
                let answer = crate::http::error_bytes(400, error.message(), &[], true);
                let head = answer.windows(4).position(|w| w == b"\r\n\r\n").expect("a head") + 4;
                assert!(answer.len() - head < 300, "{body}: {}", String::from_utf8_lossy(&answer));
                refused += 1;
            }
        }
        // All but seven are refused: targets at ±1e300 (both forms),
        // and +1e300 as a latency, a fault onset or the optimizer's
        // window.
        assert_eq!(refused, 25);
    }

    #[test]
    fn one_cache_key_has_one_work_bound() {
        let (_, byzantine) =
            SCENARIO_PRESETS.iter().find(|(name, _)| *name == "byzantine").unwrap();
        let byzantine = byzantine.replacen('{', r#"{"seed": 5, "#, 1);
        let spellings = [
            (
                Route::Supremum,
                r#"{"n": 41, "f": 20, "xmax": 30.0}"#,
                r#"{"xmax": 30, "f": 20, "n": 41, "strategy": "paper"}"#,
            ),
            (Route::Scenario, r#"{"name": "byzantine", "seed": 5}"#, byzantine.as_str()),
            (
                Route::Scenario,
                r#"{"n": 3, "f": 1, "targets": [2.0, -4.5]}"#,
                r#"{"targets": [2, -4.5], "strategy": "paper", "f": 1, "n": 3}"#,
            ),
            (
                Route::Scenario,
                r#"{"version": 1, "n": 3, "f": 1, "targets": [2.0]}"#,
                r#"{"version": 1, "n": 3, "f": 1, "geometry": "Line", "targets": [2]}"#,
            ),
        ];
        for (route, a, b) in spellings {
            let path = if route == Route::Supremum { "/v1/supremum" } else { "/v1/scenario" };
            let (a_prepared, a_work) = prepare_with_work(route, &post(path, a)).expect("valid");
            let (b_prepared, b_work) = prepare_with_work(route, &post(path, b)).expect("valid");
            assert_eq!(a_prepared.cache_key, b_prepared.cache_key, "{a} / {b}");
            assert_eq!(a_work.to_bits(), b_work.to_bits(), "{a} / {b}");
        }
    }

    #[test]
    fn the_work_bound_grows_with_robots_targets_and_extent() {
        let supremum = |strategy: &str, n: usize, f: usize, xmax: f64| {
            let beta = if strategy == "fixed-beta" { r#", "beta": 3.0"# } else { "" };
            work(
                Route::Supremum,
                &format!(
                    r#"{{"n": {n}, "f": {f}, "strategy": "{strategy}"{beta}, "xmax": {xmax}}}"#
                ),
            )
        };
        let windows = [1.5, 4.0, 32.0, 1e3, 1e6, 1e9];
        for strategy in ["paper", "staggered-doubling", "fixed-beta"] {
            for n in [3usize, 5, 11, 41, 101] {
                let f = (n - 1) / 2;
                let row: Vec<f64> = windows.iter().map(|&x| supremum(strategy, n, f, x)).collect();
                assert!(row.windows(2).all(|w| w[0] < w[1]), "{strategy} n={n}: {row:?}");
                if n < 101 {
                    let more = supremum(strategy, 2 * n + 1, n, 1e3);
                    assert!(more > supremum(strategy, n, f, 1e3), "{strategy} n={n}");
                }
            }
        }
        for strategy in ["paper", "herd-doubling", "randomized-sweep"] {
            for (n, f) in [(3, 1), (5, 2), (41, 20)] {
                let grid = |targets, extent| {
                    work(Route::Scenario, &scenario_with(n, f, targets, extent, strategy))
                };
                for extent in [10.0, 1e4, 1e8] {
                    let row: Vec<f64> = [1, 3, 10, 50].iter().map(|&t| grid(t, extent)).collect();
                    assert!(row.windows(2).all(|w| w[0] < w[1]), "{strategy} ({n}, {f}): {row:?}");
                }
                let row: Vec<f64> = [10.0, 1e4, 1e8].iter().map(|&e| grid(3, e)).collect();
                assert!(row.windows(2).all(|w| w[0] < w[1]), "{strategy} ({n}, {f}): {row:?}");
            }
        }
    }

    #[test]
    fn table1_measure_flag_changes_the_key() {
        let plain = prepare(Route::Table1, &get("/v1/table1", &[])).unwrap();
        let measured = prepare(Route::Table1, &get("/v1/table1", &[("measure", "true")])).unwrap();
        assert_ne!(plain.cache_key, measured.cache_key);
        assert!(matches!(
            prepare(Route::Table1, &get("/v1/table1", &[("measure", "yes")])),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn retired_grid_knobs_map_to_the_same_cache_keys() {
        // Every answer is the exact engine's, so the grid knobs old
        // clients may still send select nothing: they key like the
        // same requests without them.
        let table1 = |query: &[(&str, &str)]| {
            prepare(Route::Table1, &get("/v1/table1", query)).unwrap().cache_key
        };
        assert_eq!(
            table1(&[("measure", "true"), ("grid", "1024")]),
            table1(&[("measure", "true")])
        );
        let supremum =
            |body: &str| prepare(Route::Supremum, &post("/v1/supremum", body)).unwrap().cache_key;
        assert_eq!(
            supremum(r#"{"n": 41, "f": 20, "xmax": 300.0, "grid": true, "grid_points": 60000}"#),
            supremum(r#"{"n": 41, "f": 20, "xmax": 300.0}"#)
        );
        let optimize =
            |body: &str| prepare(Route::Optimize, &post("/v1/optimize", body)).unwrap().cache_key;
        let plain = optimize(r#"{"n": 3, "f": 1, "budget": "tiny", "xmax": 8.0}"#);
        for grid in [12, 13] {
            assert_eq!(
                optimize(&format!(
                    r#"{{"n": 3, "f": 1, "budget": "tiny", "xmax": 8.0, "grid_points": {grid}}}"#
                )),
                plain
            );
        }
    }
}
