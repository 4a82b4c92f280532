//! Regenerates **Figure 4**: data-cache reads of NoSQ (with delay)
//! relative to the associative-store-queue baseline, split into
//! out-of-order-core reads and back-end re-execution reads.
//!
//! The paper's finding: because bypassed loads skip the cache in the
//! out-of-order core and the T-SSBF filters most re-executions (~0.7% of
//! loads re-execute), NoSQ reduces data-cache reads roughly in proportion
//! to the bypassing frequency — ~9% on average, up to 40% (mesa.o).
//!
//! The grid is one `nosq-lab` campaign — the StoreSets baseline and
//! NoSQ × the selected profiles — so this harness only formats it.

use nosq_bench::{dyn_insts, SuiteTable};
use nosq_lab::{run_campaign, Campaign, Preset, RunOptions};
use nosq_trace::{Profile, Suite};

struct Row {
    profile: &'static Profile,
    ooo_frac: f64,
    backend_frac: f64,
    reexec_rate: f64,
}

fn main() {
    let n = dyn_insts();
    let campaign = Campaign::builder("fig4_dcache_reads")
        .preset(Preset::BaselineStoresets)
        .preset(Preset::Nosq)
        .selected_profiles()
        .max_insts(n)
        .build()
        .expect("the Figure-4 campaign is statically valid");
    let result = run_campaign(&campaign, &RunOptions::default());
    let rows: Vec<Row> = campaign
        .profiles
        .iter()
        .enumerate()
        .map(|(p, &profile)| {
            let (base, nosq) = (result.report(p, 0), result.report(p, 1));
            let denom = base.dcache_reads().max(1) as f64;
            Row {
                profile,
                ooo_frac: nosq.memory.ooo_dcache_reads as f64 / denom,
                backend_frac: nosq.verification.backend_dcache_reads as f64 / denom,
                reexec_rate: nosq.reexec_rate(),
            }
        })
        .collect();

    let mut table = SuiteTable::new(format!(
        "{:<9} | {:>9} {:>9} {:>9} | {:>8}   (reads relative to assoc-SQ baseline)",
        "Figure 4", "ooo-core", "back-end", "total", "reexec%"
    ));
    for r in &rows {
        table.row(
            r.profile.suite,
            format!(
                "{:<9} | {:>9.3} {:>9.3} {:>9.3} | {:>8.2}",
                r.profile.name,
                r.ooo_frac,
                r.backend_frac,
                r.ooo_frac + r.backend_frac,
                100.0 * r.reexec_rate
            ),
        );
    }
    let summaries: Vec<_> = Suite::all()
        .into_iter()
        .filter_map(|suite| {
            let in_suite: Vec<&Row> = rows.iter().filter(|r| r.profile.suite == suite).collect();
            if in_suite.is_empty() {
                return None;
            }
            let mean = in_suite
                .iter()
                .map(|r| r.ooo_frac + r.backend_frac)
                .sum::<f64>()
                / in_suite.len() as f64;
            Some((
                suite,
                format!("{:<9} |   total amean {mean:>6.3}", format!("{suite}.avg")),
            ))
        })
        .collect();
    table.print(&summaries);
    println!("(paper: ~4% fewer reads for SPECfp, >10% for MediaBench/SPECint, 40% for mesa.o;");
    println!(" only ~0.7% of loads re-execute)");
    println!("(measured at {n} dynamic instructions per configuration)");
}
