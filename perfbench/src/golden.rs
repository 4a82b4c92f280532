//! Golden digests of the deterministic outputs for the seeds the
//! benchmark ships: the default seed, and a held-out seed on which a
//! claim can be re-checked after tuning on the default.

use crate::Checks;

/// The seed the benchmark documents and tunes on.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning.
pub const HELD_OUT_SEED: u64 = 7;

/// `(workload, seed, digest)`: `sweep` digests its artifact bytes,
/// `long` the JSON of its full-run reports (`nosq` then
/// `baseline-storesets`, each in profile order).
const GOLDEN: &[(&str, u64, u64)] = &[
    ("sweep", DEFAULT_SEED, 0x15da_af43_363e_8a60),
    ("sweep", HELD_OUT_SEED, 0x5af3_ab62_7454_fca3),
    ("long", DEFAULT_SEED, 0x1b91_aa8d_a372_9f7b),
    ("long", HELD_OUT_SEED, 0x9218_08c9_666d_d718),
];

/// Checks `digest` against the golden value for `(workload, seed)`, if
/// the seed is one the benchmark ships.
pub fn check(checks: &mut Checks, workload: &str, seed: u64, digest: u64) {
    checks.note(format!(
        "{workload} seed {seed} output digest {digest:#018x}"
    ));
    if let Some(&(_, _, want)) = GOLDEN.iter().find(|g| g.0 == workload && g.1 == seed) {
        checks.op(digest == want, || {
            format!("{workload} seed {seed}: digest {digest:#018x}, golden {want:#018x}")
        });
    }
}
