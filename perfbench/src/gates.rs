//! Correctness gates: every simulated result is checked, and every
//! mismatch is counted as a failed operation.

use gemmini_mem::json::ToJson;
use gemmini_soc::checkpoint::fnv1a;
use gemmini_soc::run::SocReport;

/// FNV-1a digest of a report's JSON encoding — the same bytes a
/// checkpoint line carries, so any simulated-statistic drift changes it.
pub fn digest(report: &SocReport) -> u64 {
    fnv1a(report.to_json().encode().as_bytes())
}

/// Checks a timing point's report against its recorded digest.
///
/// # Errors
///
/// Describes the mismatch, or a label with no recorded digest.
pub fn check_digest(
    expected: &[(&str, u64)],
    label: &str,
    report: &SocReport,
) -> Result<(), String> {
    let got = digest(report);
    match expected.iter().find(|(l, _)| *l == label) {
        Some(&(_, want)) if want == got => Ok(()),
        Some(&(_, want)) => Err(format!(
            "{label}: report digest {got:#018x}, expected {want:#018x}"
        )),
        None => Err(format!("{label}: no recorded digest (got {got:#018x})")),
    }
}

/// Checks a functional point's output bit for bit against the reference
/// model's.
///
/// # Errors
///
/// Describes the first differing element, or a missing output.
pub fn check_output(label: &str, report: &SocReport, reference: &[i8]) -> Result<(), String> {
    let Some(got) = report.cores.first().and_then(|c| c.output.as_deref()) else {
        return Err(format!("{label}: functional run produced no output"));
    };
    if got.len() != reference.len() {
        return Err(format!(
            "{label}: output has {} elements, reference {}",
            got.len(),
            reference.len()
        ));
    }
    match got.iter().zip(reference).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{label}: output[{i}] = {}, reference {}",
            got[i], reference[i]
        )),
    }
}
