//! Checks one response line against its by-construction answer. Every
//! check runs outside the timed regions.

use crate::gen::Expect;
use nka_core::api::json::Json;
use nka_qprog::SurfaceProgram;

/// Denotations are compared entrywise to this tolerance (the loop
/// semantics resolves its Neumann series to ~1e-13).
const DENOTATION_TOL: f64 = 1e-7;

/// The response's verdict name (`holds`, `refuted`, `analysis`, …).
pub fn verdict(response: &Json) -> Option<&str> {
    response.get("verdict").and_then(Json::as_str)
}

/// Number of `dead_branch` findings in an `analysis` response.
pub fn dead_branch_findings(response: &Json) -> Option<usize> {
    let findings = response.get("findings")?.as_array()?;
    Some(
        findings
            .iter()
            .filter(|f| f.get("pass").and_then(Json::as_str) == Some("dead_branch"))
            .count(),
    )
}

/// `Ok` when `response` answers as `expect` says it must.
pub fn check(expect: &Expect, response: &str) -> Result<(), String> {
    let json = Json::parse(response).map_err(|e| format!("unparsable response ({e})"))?;
    let got = verdict(&json).ok_or("response without a verdict")?;
    match expect {
        Expect::Verdict(holds) => {
            let want = if *holds { "holds" } else { "refuted" };
            if got == want {
                Ok(())
            } else {
                Err(format!("expected {want}, got {got}"))
            }
        }
        Expect::DeadBranches(n) => match dead_branch_findings(&json) {
            Some(found) if got == "analysis" && found == *n => Ok(()),
            found => Err(format!(
                "expected {n} dead-branch finding(s), got {got} with {found:?}"
            )),
        },
        Expect::Optimized(input) => {
            if got != "optimized" {
                return Err(format!("expected optimized, got {got}"));
            }
            let output = json
                .get("optimized")
                .and_then(Json::as_str)
                .ok_or("optimize response without an optimized program")?;
            let before = SurfaceProgram::parse(input).map_err(|e| e.to_string())?;
            let after = SurfaceProgram::parse(output).map_err(|e| e.to_string())?;
            if before
                .program()
                .denotation()
                .approx_eq(&after.program().denotation(), DENOTATION_TOL)
            {
                Ok(())
            } else {
                Err(format!(
                    "optimized {output:?} changed the denotation of {input:?}"
                ))
            }
        }
    }
}
