//! Campaign fingerprints: the cache / journal / job-id key space.
//!
//! A fingerprint condenses everything that determines a campaign's
//! artifact bytes — name, workload seed, every `(profile,
//! configuration)` pair in grid order, and the baseline choice — into
//! one 64-bit FNV-1a hash. Two spec files that resolve to the same
//! campaign (text vs JSON form, alias vs canonical preset names)
//! therefore share a fingerprint, and the daemon serves the second one
//! from cache; any change that could alter a single artifact byte
//! (budget, seed, an extra profile) lands in a different slot.
//!
//! The hash is the workspace's one FNV-1a hasher,
//! [`nosq_wire::Fnv1a`] — no crates.io access, and 64 bits is plenty
//! for a cache key space measured in thousands of campaigns, not
//! billions.

use nosq_lab::Campaign;
use nosq_wire::Fnv1a;

/// The campaign's service identity: a stable hash over every input
/// that determines its deterministic artifact bytes.
pub fn campaign_fingerprint(campaign: &Campaign) -> u64 {
    let mut h = Fnv1a::new();
    h.update(campaign.name.as_bytes()).update(b"\0");
    h.update(&campaign.seed.to_le_bytes());
    // Baseline index, or a sentinel distinct from any index.
    let base = campaign.baseline.map_or(u64::MAX, |b| b as u64);
    h.update(&base.to_le_bytes());
    for profile in &campaign.profiles {
        h.update(profile.name.as_bytes()).update(b"\0");
    }
    for named in &campaign.configs {
        h.update(named.name.as_bytes()).update(b"\0");
        // `SimConfig` derives `Debug` over every field; the debug text
        // is a deterministic function of the full configuration, so
        // hashing it captures any parameter a sweep may have touched.
        h.update(format!("{:?}", named.config).as_bytes());
        h.update(b"\0");
    }
    h.finish()
}

/// A fingerprint rendered as the 16-hex-digit job id the protocol uses.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses a 16-hex-digit job id back into a fingerprint.
pub fn parse_fingerprint(hex: &str) -> Option<u64> {
    if hex.len() == 16 {
        u64::from_str_radix(hex, 16).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nosq_lab::Preset;

    fn campaign(name: &str, insts: u64, seed: u64) -> Campaign {
        Campaign::builder(name)
            .preset(Preset::Nosq)
            .preset(Preset::BaselineStoresets)
            .profiles(["gzip", "gsm.e"])
            .max_insts(insts)
            .seed(seed)
            .build()
            .unwrap()
    }

    /// Fingerprints are job ids and journal keys, so a refactor of the
    /// hasher or of what it folds in must not move them.
    #[test]
    fn fingerprint_is_pinned() {
        let spec = "name = pinned\nconfigs = nosq, baseline-storesets\n\
                    profiles = gzip, gsm.e\nmax_insts = 3000\nbaseline = baseline-storesets\n";
        let campaign = Campaign::from_spec(spec).unwrap();
        assert_eq!(campaign_fingerprint(&campaign), 0x56ab_7353_481a_20e2);
    }

    #[test]
    fn fingerprint_separates_what_artifacts_separate() {
        let base = campaign_fingerprint(&campaign("x", 2000, 42));
        assert_eq!(base, campaign_fingerprint(&campaign("x", 2000, 42)));
        assert_ne!(base, campaign_fingerprint(&campaign("y", 2000, 42)));
        assert_ne!(base, campaign_fingerprint(&campaign("x", 2001, 42)));
        assert_ne!(base, campaign_fingerprint(&campaign("x", 2000, 43)));
    }

    #[test]
    fn spec_form_does_not_matter() {
        let text = "name = same\nconfigs = nosq, assoc-sq\nprofiles = gzip\nmax_insts = 3000\n";
        let json = r#"{"name":"same","configs":["nosq","baseline-storesets"],
                       "profiles":["gzip"],"max_insts":3000}"#;
        let a = Campaign::from_spec(text).unwrap();
        let b = Campaign::from_spec(json).unwrap();
        assert_eq!(campaign_fingerprint(&a), campaign_fingerprint(&b));
    }

    #[test]
    fn hex_roundtrip() {
        let fp = 0x0123_4567_89ab_cdef;
        let hex = fingerprint_hex(fp);
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_fingerprint(&hex), Some(fp));
        assert_eq!(parse_fingerprint("xyz"), None);
        assert_eq!(parse_fingerprint("0123"), None);
    }
}
