//! Regenerates **Figure 3**: the Figure-2 experiment on a
//! 256-instruction-window machine (all window resources doubled, branch
//! predictor quadrupled, bypassing predictor *not* enlarged), for the
//! paper's selected benchmarks.
//!
//! The paper's finding: a larger window increases both SMB opportunity
//! (perfect SMB improves) and hard communication patterns (realistic
//! NoSQ's average advantage drops from ~2% to ~1%).
//!
//! The grid is one `nosq-lab` campaign — the five presets at window 256
//! × the selected profiles — so this harness only formats the matrix.

use nosq_bench::{dyn_insts, rel_time, suite_geomeans, SuiteTable};
use nosq_lab::{run_campaign, Campaign, Preset, RunOptions};
use nosq_trace::Profile;

struct Row {
    profile: &'static Profile,
    rel: [f64; 4],
}

fn main() {
    let n = dyn_insts();
    // Every preset in bar order on the 256-entry window: column 0 is
    // the ideal baseline and columns 1-4 are the four bars.
    let campaign = Preset::all()
        .into_iter()
        .fold(Campaign::builder("fig3_window256"), |b, p| b.preset(p))
        .window(256)
        .selected_profiles()
        .max_insts(n)
        .build()
        .expect("the Figure-3 campaign is statically valid");
    let result = run_campaign(&campaign, &RunOptions::default());
    let rows: Vec<Row> = campaign
        .profiles
        .iter()
        .enumerate()
        .map(|(p, &profile)| Row {
            profile,
            rel: std::array::from_fn(|c| rel_time(result.report(p, c + 1), result.report(p, 0))),
        })
        .collect();

    let mut table = SuiteTable::new(format!(
        "{:<9} | {:>8} {:>9} {:>9} {:>9}   (256-entry window; relative execution time)",
        "Figure 3", "assoc-sq", "nosq-nd", "nosq-d", "perfect"
    ));
    for r in &rows {
        table.row(
            r.profile.suite,
            format!(
                "{:<9} | {:>8.3} {:>9.3} {:>9.3} {:>9.3}",
                r.profile.name, r.rel[0], r.rel[1], r.rel[2], r.rel[3]
            ),
        );
    }
    let mut summaries = Vec::new();
    for (label, idx) in [
        ("assoc-sq", 0),
        ("nosq-nd", 1),
        ("nosq-d", 2),
        ("perfect", 3),
    ] {
        let values: Vec<_> = rows.iter().map(|r| (r.profile, r.rel[idx])).collect();
        for (suite, g) in suite_geomeans(&values) {
            summaries.push((
                suite,
                format!("{:<9} |   {label} gmean {g:>6.3}", format!("{suite}")),
            ));
        }
    }
    table.print(&summaries);
    println!("(measured at {n} dynamic instructions per configuration)");
}
