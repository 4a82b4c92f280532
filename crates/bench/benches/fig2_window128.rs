//! Regenerates **Figure 2**: execution time of four configurations
//! relative to a conventional processor with an associative store queue
//! and perfect load scheduling, on the 128-instruction-window machine.
//!
//! Bars per benchmark: (i) associative SQ + StoreSets scheduling,
//! (ii) NoSQ without delay, (iii) NoSQ with delay, (iv) perfect SMB.
//!
//! The grid is one `nosq-lab` campaign — the five presets × all 47
//! profiles — so this harness only formats the resulting matrix.

use nosq_bench::{dyn_insts, rel_time, suite_geomeans, write_artifact, SuiteTable};
use nosq_core::ser::{JsonArray, JsonObject};
use nosq_core::SimReport;
use nosq_lab::{run_campaign, Campaign, Preset, RunOptions};
use nosq_trace::Profile;

const CONFIG_NAMES: [&str; 4] = ["assoc-sq", "nosq-nd", "nosq-d", "perfect"];

struct Row {
    profile: &'static Profile,
    ideal_ipc: f64,
    rel: [f64; 4],
    reports: [SimReport; 4],
}

/// `NOSQ_ARTIFACT_DIR` artifacts: one JSON document with the full
/// per-configuration reports, and one CSV with a row per
/// (benchmark, configuration) pair.
fn write_artifacts(rows: &[Row]) {
    let mut json = JsonArray::new();
    let mut csv = format!("benchmark,config,{}\n", SimReport::csv_header());
    for r in rows {
        let mut obj = JsonObject::new();
        obj.field_str("benchmark", r.profile.name)
            .field_str("suite", &r.profile.suite.to_string());
        for (name, report) in CONFIG_NAMES.iter().zip(&r.reports) {
            obj.field_raw(name, &report.to_json());
            csv.push_str(&format!(
                "{},{},{}\n",
                r.profile.name,
                name,
                report.to_csv_row()
            ));
        }
        json.push_raw(&obj.finish());
    }
    write_artifact("fig2_window128.json", &json.finish());
    write_artifact("fig2_window128.csv", &csv);
}

fn main() {
    let n = dyn_insts();
    // Every preset in bar order: column 0 is the ideal baseline and
    // columns 1-4 are the four bars.
    let campaign = Preset::all()
        .into_iter()
        .fold(Campaign::builder("fig2_window128"), |b, p| b.preset(p))
        .all_profiles()
        .max_insts(n)
        .build()
        .expect("the Figure-2 campaign is statically valid");
    let result = run_campaign(&campaign, &RunOptions::default());
    let rows: Vec<Row> = campaign
        .profiles
        .iter()
        .enumerate()
        .map(|(p, &profile)| {
            let ideal = result.report(p, 0);
            let reports: [SimReport; 4] = std::array::from_fn(|c| *result.report(p, c + 1));
            Row {
                profile,
                ideal_ipc: ideal.ipc(),
                rel: std::array::from_fn(|c| rel_time(&reports[c], ideal)),
                reports,
            }
        })
        .collect();

    let mut table = SuiteTable::new(format!(
        "{:<9} | {:>5} {:>5} | {:>8} {:>9} {:>9} {:>9}   (relative execution time; <1 is faster than ideal baseline)",
        "Figure 2", "ipc", "paper", "assoc-sq", "nosq-nd", "nosq-d", "perfect"
    ));
    for r in &rows {
        table.row(
            r.profile.suite,
            format!(
                "{:<9} | {:>5.2} {:>5.2} | {:>8.3} {:>9.3} {:>9.3} {:>9.3}",
                r.profile.name,
                r.ideal_ipc,
                r.profile.baseline_ipc,
                r.rel[0],
                r.rel[1],
                r.rel[2],
                r.rel[3]
            ),
        );
    }
    let mut summaries = Vec::new();
    for (idx, label) in CONFIG_NAMES.iter().enumerate() {
        let values: Vec<_> = rows.iter().map(|r| (r.profile, r.rel[idx])).collect();
        for (suite, g) in suite_geomeans(&values) {
            summaries.push((
                suite,
                format!(
                    "{:<9} |             {label} gmean {g:>6.3}",
                    format!("{suite}")
                ),
            ));
        }
    }
    summaries.sort_by_key(|(s, _)| format!("{s}"));
    table.print(&summaries);
    write_artifacts(&rows);
    println!("(paper: NoSQ-with-delay outperforms the conventional design by ~2% on average;");
    println!(" perfect SMB by ~3.7%; NoSQ-no-delay shows slowdowns on mis-prediction-heavy runs)");
    println!("(measured at {n} dynamic instructions per configuration)");
}
