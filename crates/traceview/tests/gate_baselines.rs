//! Pins the regression gate's counter set to the checked-in trace-diff
//! baselines: every `baselines/probe_*.json` extract must carry exactly
//! the counters `extract_metrics` gates, so flipping a counter's
//! `gated` flag cannot silently widen or narrow the gate.

use ferrocim_traceview::{extract_metrics, metrics_from_json};
use std::collections::BTreeSet;
use std::path::PathBuf;

#[test]
fn baselines_carry_exactly_the_gated_counters() {
    let gated: BTreeSet<&str> = extract_metrics(&[]).into_iter().map(|(n, _)| n).collect();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
    for probe in ["array", "adaptive", "faults", "health", "sparse"] {
        let path = dir.join(format!("probe_{probe}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let doc = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse {}: {e:?}", path.display()));
        let metrics = metrics_from_json(&doc)
            .unwrap_or_else(|e| panic!("{} is not a metrics extract: {e}", path.display()));
        let keys: BTreeSet<&str> = metrics.into_iter().map(|(n, _)| n).collect();
        assert_eq!(keys, gated, "{} key set", path.display());
    }
}
