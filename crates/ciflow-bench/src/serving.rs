//! The machine-readable serving gallery behind `serving_fleet --json`.
//!
//! One `ciflow.serving_gallery.v1` document bundling the serving reference
//! points CI archives alongside the lint report: the fault-free reference
//! run per dataflow (each a `ciflow.serve_report.v1`), the same fleet under
//! the standard adverse fault plan (a `ciflow.resilience_report.v1`), and a
//! deterministic fault sweep over intensity × cluster size. All numbers are
//! virtual-clock model outputs — reruns reproduce the document byte for
//! byte — so the archive doubles as a regression oracle.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::json;
use ciflow::serve::{
    try_fault_serve_in, try_serve_in, ArrivalProcess, RequestClass, ResilienceReport, ServeConfig,
};
use ciflow::sweep::try_fault_sweep_in;
use rpu::RpuConfig;
use std::fmt::Write as _;

/// The reference serving configuration every section runs: the standard ARK
/// mix, closed loop (8 clients, 96 requests), 4 RPUs at 64 GB/s, seed 1.
pub fn reference_config() -> ServeConfig {
    ServeConfig::new(
        4,
        RequestClass::standard_mix(HksBenchmark::ARK),
        ArrivalProcess::ClosedLoop {
            concurrency: 8,
            requests: 96,
        },
    )
    .with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(64.0))
    .with_seed(1)
}

/// The standard adverse fault plan the gallery's resilience section runs,
/// re-exported for `simbench`'s `fleet_serve` workload.
pub use ciflow::serve::standard_fault_plan;

/// Renders the full `ciflow.serving_gallery.v1` document. Panics only if a
/// built-in configuration fails to serve — a bug by construction, since
/// every embedded config validates.
pub fn render_json(session: &Session) -> String {
    let config = reference_config();
    let mut out = String::from("{\"schema\":\"ciflow.serving_gallery.v1\",\"reference\":");
    let mut oc_report = None;
    json::write_array(&mut out, Dataflow::all(), |out, dataflow| {
        let report = try_serve_in(session, &config, dataflow).expect("reference run succeeds");
        report.write_json(out);
        if dataflow == Dataflow::OutputCentric {
            oc_report = Some(report);
        }
    });
    let oc_report = oc_report.expect("the dataflow gallery includes OC");
    let tick = oc_report.makespan_seconds / oc_report.completed as f64;

    let plan = standard_fault_plan(tick);
    let resilience: ResilienceReport =
        try_fault_serve_in(session, &config, &plan, Dataflow::OutputCentric)
            .expect("faulted reference run succeeds");
    assert!(
        resilience.conserves_arrivals(),
        "conservation is structural"
    );
    out.push_str(",\"resilience\":");
    out.push_str(&resilience.to_json());

    let intensities = [0.0, 0.5, 1.0, 2.0];
    let sizes = [2usize, 4];
    let sweep = try_fault_sweep_in(
        session,
        &config,
        &plan,
        Dataflow::OutputCentric,
        &intensities,
        &sizes,
    )
    .expect("fault sweep succeeds");
    out.push_str(",\"fault_sweep\":{\"strategy\":");
    json::write_str(&mut out, &sweep.strategy);
    let _ = write!(out, ",\"seed\":{},\"intensities\":", sweep.seed);
    json::write_array(&mut out, intensities, |out, intensity| {
        let _ = write!(out, "{intensity}");
    });
    out.push_str(",\"cluster_sizes\":");
    json::write_array(&mut out, sizes, json::write_uint);
    out.push_str(",\"points\":");
    json::write_array(&mut out, &sweep.points, |out, p| {
        let _ = write!(
            out,
            "{{\"intensity\":{},\"num_devices\":{},\"offered\":{},\"completed\":{},\
             \"timed_out\":{},\"shed\":{},\"degraded\":{},\"retries\":{},\
             \"goodput_rps\":{},\"throughput_rps\":{},\"mean_availability\":{},\
             \"wasted_seconds\":{},\"p99_ms\":{}}}",
            p.intensity,
            p.num_devices,
            p.offered,
            p.completed,
            p.timed_out,
            p.shed,
            p.degraded,
            p.retries,
            p.goodput_rps,
            p.throughput_rps,
            p.mean_availability,
            p.wasted_seconds,
            p.p99_ms
        );
    });
    out.push_str("}}");
    out
}

/// Validates a rendered serving-gallery document: the schema tags of the
/// envelope and every embedded report are present, the structure balances,
/// and the embedded resilience report conserves arrivals numerically.
/// Returns a description of the first problem found.
pub fn validate_json(json: &str) -> Result<(), String> {
    for key in [
        "\"schema\":\"ciflow.serving_gallery.v1\"",
        "\"schema\":\"ciflow.serve_report.v1\"",
        "\"schema\":\"ciflow.resilience_report.v1\"",
        "\"reference\":[",
        "\"resilience\":{",
        "\"fault_sweep\":{",
        "\"intensities\":[",
        "\"cluster_sizes\":[",
        "\"points\":[",
        "\"goodput_rps\"",
        "\"mean_availability\"",
    ] {
        if !json.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    check_structure(json)?;
    // The resilience section must conserve arrivals: offered = completed +
    // timed_out + shed, read back out of the rendered document.
    let field = |name: &str| -> Result<usize, String> {
        json.split("\"resilience\":{")
            .nth(1)
            .and_then(|rest| rest.split(&format!("\"{name}\":")).nth(1))
            .and_then(|rest| rest.split([',', '}']).next())
            .ok_or_else(|| format!("resilience field {name} not found"))?
            .trim()
            .parse()
            .map_err(|e| format!("resilience field {name} does not parse: {e}"))
    };
    let offered = field("offered")?;
    let timed_out = field("timed_out")?;
    let shed = field("shed")?;
    let completed = json
        .split("\"resilience\":{")
        .nth(1)
        .and_then(|rest| rest.split("\"completed\":").nth(1))
        .and_then(|rest| rest.split([',', '}']).next())
        .ok_or("embedded serve report has no completed field")?
        .trim()
        .parse::<usize>()
        .map_err(|e| format!("completed does not parse: {e}"))?;
    if offered != completed + timed_out + shed {
        return Err(format!(
            "arrival conservation fails in the rendered document: \
             {offered} != {completed} + {timed_out} + {shed}"
        ));
    }
    Ok(())
}

/// Checks structural balance of a rendered JSON document: braces and
/// brackets count only *outside* string literals (an escaped name may
/// legitimately contain `{`, `}` or `\"`), and every string must be
/// closed.
fn check_structure(json: &str) -> Result<(), String> {
    let mut depth = 0i64;
    let mut bracket_depth = 0i64;
    let mut in_string = false;
    let mut string_escape = false;
    for c in json.chars() {
        if in_string {
            match c {
                _ if string_escape => string_escape = false,
                '\\' => string_escape = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced braces".to_string());
                }
            }
            '[' => bracket_depth += 1,
            ']' => {
                bracket_depth -= 1;
                if bracket_depth < 0 {
                    return Err("unbalanced brackets".to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err("unbalanced braces".to_string());
    }
    if bracket_depth != 0 {
        return Err("unbalanced brackets".to_string());
    }
    if in_string {
        return Err("unbalanced quotes".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallery_json_matches_its_schema_and_reproduces() {
        let session = Session::new();
        let json = render_json(&session);
        validate_json(&json).expect("rendered gallery must satisfy its schema");
        let replay = render_json(&session);
        assert_eq!(json, replay, "the gallery document is byte-reproducible");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let session = Session::new();
        let json = render_json(&session);
        assert!(validate_json("").is_err());
        assert!(validate_json(&json.replace('}', "")).is_err());
        assert!(
            validate_json(&json.replace("resilience_report.v1", "resilience_report.v9")).is_err()
        );
        // Breaking conservation in the document is caught numerically.
        let broken = json.replacen("\"offered\":96", "\"offered\":97", 1);
        assert_ne!(broken, json, "the reference offers 96 requests");
        assert!(validate_json(&broken).is_err());
    }

    #[test]
    fn structure_check_ignores_brackets_and_escaped_quotes_inside_strings() {
        // Braces, brackets and escaped quotes inside a quoted name are data,
        // not structure.
        let doc = r#"{"name":"a{b}}c\"d{[","list":[1,{"x":"]"}]}"#;
        assert_eq!(check_structure(doc), Ok(()));
        assert_eq!(check_structure(""), Ok(()));
        for (broken, problem) in [
            (r#"{"name":"a"}}"#, "unbalanced braces"),
            (r#"{"name":"a""#, "unbalanced braces"),
            (r#"{"list":[1,2]]}"#, "unbalanced brackets"),
            (r#"{"list":[1,2}"#, "unbalanced brackets"),
            // An unclosed string swallows the closing brace.
            (r#"{"name":"a}"#, "unbalanced braces"),
            (r#""a}"#, "unbalanced quotes"),
            (r#""a\""#, "unbalanced quotes"),
        ] {
            assert_eq!(
                check_structure(broken),
                Err(problem.to_string()),
                "{broken}"
            );
        }
    }
}
