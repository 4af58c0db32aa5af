//! The reproduction, pinned: every figure point of the paper's §5
//! evaluation and the §5.2 error-band table, compared against the golden
//! file next to this test.
//!
//! Each point's `x`, measured response and four estimates are compared
//! by f64 bits; the error-band table by text. A change meant to move the
//! numbers re-pins them in the same diff: on a mismatch the test prints
//! the regenerated golden, to be pasted over `reproduction.golden`.

use mr2_bench::{run_errors, run_experiment, ExperimentId};

const GOLDEN: &str = include_str!("reproduction.golden");

/// One line per point (`<field>=<f64 bits> (<value>)`), then the
/// `run_errors` table.
fn render() -> String {
    let results: Vec<_> = ExperimentId::ALL
        .iter()
        .map(|&id| run_experiment(id))
        .collect();
    let mut out = String::from(
        "# <figure> <field>=<f64 bits> (<value>): x, measured, fork_join, tripathi, aria, herodotou\n",
    );
    for r in &results {
        for p in &r.points {
            out.push_str(r.id.name());
            for (name, v) in [
                ("x", p.x),
                ("measured", p.measured),
                ("fork_join", p.fork_join),
                ("tripathi", p.tripathi),
                ("aria", p.aria),
                ("herodotou", p.herodotou),
            ] {
                out.push_str(&format!(" {name}={:#018x} ({v})", v.to_bits()));
            }
            out.push('\n');
        }
    }
    out.push_str(&run_errors(&results));
    out
}

#[test]
fn figures_and_error_bands_match_the_golden_file() {
    let got = render();
    if got != GOLDEN {
        let moved: Vec<String> = GOLDEN
            .lines()
            .zip(got.lines())
            .filter(|(want, got)| want != got)
            .map(|(want, got)| format!("- {want}\n+ {got}"))
            .collect();
        panic!(
            "the reproduction moved ({} golden lines, {} regenerated):\n{}\n\n\
             regenerated golden:\n{got}",
            GOLDEN.lines().count(),
            got.lines().count(),
            moved.join("\n")
        );
    }
}
