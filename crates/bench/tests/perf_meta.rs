//! Gates on the committed performance metadata: the repo-root
//! `BENCH_TRAJECTORY.json` must parse and keep its invariants, and
//! every committed baseline file (of `mr2-bench` and `mr2-serve`) must
//! correspond to a declared bench target (an orphan baseline would
//! silently pass the coverage gate while gating nothing).

use std::path::{Path, PathBuf};

use mr2_scenario::json::Json;

fn repo_root() -> PathBuf {
    // crates/bench → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a repo root")
        .to_path_buf()
}

fn trajectory() -> Json {
    let path = repo_root().join("BENCH_TRAJECTORY.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn trajectory_parses_with_expected_schema() {
    let t = trajectory();
    assert_eq!(
        t.get("schema").and_then(Json::as_f64),
        Some(1.0),
        "unknown BENCH_TRAJECTORY.json schema"
    );
    let Some(Json::Arr(entries)) = t.get("entries") else {
        panic!("entries must be an array");
    };
    assert!(!entries.is_empty(), "the trajectory must have data");
}

#[test]
fn trajectory_entries_are_well_formed_and_monotone() {
    let t = trajectory();
    let Some(Json::Arr(entries)) = t.get("entries") else {
        panic!("entries must be an array");
    };
    let mut last_pr = 0.0;
    for (i, e) in entries.iter().enumerate() {
        let pr = e
            .get("pr")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("entry {i}: missing pr"));
        assert!(
            pr > last_pr,
            "entry {i}: pr {pr} not strictly after {last_pr} — keep entries ordered"
        );
        last_pr = pr;
        let Some(Json::Obj(benches)) = e.get("benches") else {
            panic!("entry {i}: benches must be an object");
        };
        assert!(!benches.is_empty(), "entry {i}: no measurements");
        for (id, m) in benches {
            for field in ["before_ns", "after_ns"] {
                let v = m
                    .get(field)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("entry {i} {id}: missing {field}"));
                assert!(
                    v.is_finite() && v > 0.0,
                    "entry {i} {id}: {field} = {v} must be a positive duration"
                );
            }
        }
    }
}

#[test]
fn every_committed_baseline_has_a_bench_target() {
    // A baselines/<name>.json with no [[bench]] target named <name>
    // never runs under the coverage gate: it would assert nothing while
    // looking like it does. For every crate that commits baselines,
    // parse the manifest's [[bench]] names and require a target per
    // baseline file.
    for krate in ["crates/bench", "crates/serve"] {
        let checked = check_baselines(&repo_root().join(krate));
        assert!(checked > 0, "no committed baselines found in {krate}");
    }
}

/// Check one crate's committed baselines against its bench targets;
/// returns how many baselines it checked.
fn check_baselines(manifest_dir: &Path) -> usize {
    let manifest = std::fs::read_to_string(manifest_dir.join("Cargo.toml")).unwrap();
    let mut targets = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
            continue;
        }
        if in_bench {
            if let Some(name) = line
                .strip_prefix("name")
                .and_then(|r| r.trim_start().strip_prefix('='))
            {
                targets.push(name.trim().trim_matches('"').to_string());
            }
        }
    }
    assert!(
        !targets.is_empty(),
        "no [[bench]] targets parsed in {}",
        manifest_dir.display()
    );

    let baselines = manifest_dir.join("benches").join("baselines");
    let mut checked = 0;
    for entry in std::fs::read_dir(&baselines).expect("baselines dir exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        assert!(
            targets.contains(&stem),
            "orphan baseline {}: no [[bench]] target named {stem}",
            path.display()
        );
        // Every baseline target also has its bench source file.
        assert!(
            manifest_dir
                .join("benches")
                .join(format!("{stem}.rs"))
                .exists(),
            "baseline {stem} has a target but no benches/{stem}.rs"
        );
        checked += 1;
    }
    checked
}
