//! Tier-1 guard: every checked-in `results/*.json` artifact must
//! deserialize through the shared schema types in
//! `ferrocim_bench::schema`. A bin that drifts its output shape (or a
//! hand-edited artifact) fails here until the two agree again.

use ferrocim_bench::schema::{
    AblationFeedbackRow, AdaptiveProbe, BaselineOverlap, ComparisonRow, HealthProbe, IvCurve,
    LevelRange, ObserveProbe, ProcessVariationPoint, ProposedArraySummary, ProposedCellRow,
    RegionResult, SparseProbe, VggLayerRow, WriteVerifyRow,
};
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Returns a validator for the artifact name, or `None` for names the
/// schema does not know — which the test treats as a failure, so new
/// artifacts must land together with their schema type.
fn validate(name: &str, text: &str) -> Option<Result<(), serde_json::Error>> {
    fn check<T: serde::Deserialize>(text: &str) -> Result<(), serde_json::Error> {
        serde_json::from_str::<T>(text).map(|_| ())
    }
    Some(match name {
        "ablation_feedback" => check::<Vec<AblationFeedbackRow>>(text),
        "ablation_multilevel" => check::<Vec<Vec<LevelRange>>>(text),
        "ablation_write_verify" => check::<Vec<WriteVerifyRow>>(text),
        "fig1_fefet_iv" => check::<Vec<IvCurve>>(text),
        "fig3_cell_fluctuation" => check::<Vec<RegionResult>>(text),
        "fig4_baseline_overlap" => check::<BaselineOverlap>(text),
        "fig7_proposed_cell" => check::<Vec<ProposedCellRow>>(text),
        "fig8_proposed_array" => check::<ProposedArraySummary>(text),
        "fig9_process_variation" => check::<Vec<ProcessVariationPoint>>(text),
        "probe_adaptive" => check::<AdaptiveProbe>(text),
        "probe_health" => check::<HealthProbe>(text),
        "probe_observe" => check::<ObserveProbe>(text),
        "probe_sparse" => check::<SparseProbe>(text),
        "table1_vgg_structure" => check::<Vec<VggLayerRow>>(text),
        "table2_summary" => check::<Vec<ComparisonRow>>(text),
        _ => return None,
    })
}

#[test]
fn every_results_artifact_matches_its_schema() {
    let dir = results_dir();
    let entries = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("results dir {} must exist: {e}", dir.display()));
    let mut validated = 0usize;
    let mut failures = Vec::new();
    for entry in entries {
        let path = entry.expect("read_dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf8 artifact name")
            .to_string();
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        match validate(&name, &text) {
            None => failures.push(format!(
                "{name}: no schema type — add one to crates/bench/src/schema.rs \
                 and map it in this test"
            )),
            Some(Err(e)) => failures.push(format!("{name}: does not match its schema: {e}")),
            Some(Ok(())) => validated += 1,
        }
    }
    assert!(
        failures.is_empty(),
        "schema violations:\n  {}",
        failures.join("\n  ")
    );
    assert!(
        validated >= 15,
        "expected at least the 15 known artifacts, validated {validated}"
    );
}

/// `probe_sparse` times the circuit every live solve simulates: the
/// paper-default 8-cell row (37 unknowns), on both backends.
#[test]
fn probe_sparse_times_the_paper_default_row() {
    let path = results_dir().join("probe_sparse.json");
    let text = std::fs::read_to_string(&path).expect("probe_sparse.json is checked in");
    let probe: SparseProbe = serde_json::from_str(&text).expect("probe_sparse.json parses");
    let row = probe.paper_row;
    assert_eq!((row.cells_per_row, row.unknowns), (8, 37));
    assert!(row.dense_us_per_mac > 0.0 && row.sparse_us_per_mac > 0.0);
    assert_eq!(row.speedup, row.dense_us_per_mac / row.sparse_us_per_mac);
}
