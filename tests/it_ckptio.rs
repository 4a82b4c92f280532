//! Durability of the on-disk checkpoint encoding.
//!
//! Three properties, each load-bearing for crash recovery:
//!
//! 1. **Round trip**: serializing a mid-run [`SimCheckpoint`] and
//!    decoding it back resumes bit-identically — the decoded snapshot's
//!    completed run equals the uninterrupted run, and re-encoding it
//!    reproduces the original bytes (the encoding is canonical, so byte
//!    equality is state equality).
//! 2. **Truncation**: *every* proper prefix of a serialized checkpoint
//!    is rejected with an error — no prefix decodes, none panics.
//! 3. **Corruption**: flipping bits anywhere in the buffer is rejected
//!    cleanly. Exhaustive at the envelope layer (every byte of a small
//!    sealed payload, three flip patterns each — `crates/wire` proves
//!    the checksum catches all single-byte substitutions), randomized
//!    plus strided at full checkpoint scale.

use proptest::prelude::*;

use nosq_core::{CkptError, SimConfig, Simulator, StopCondition};
use nosq_trace::{synthesize, Profile, TraceBuffer};

const BUDGET: u64 = 4_000;

fn config(idx: usize) -> SimConfig {
    match idx {
        0 => SimConfig::nosq(BUDGET),
        1 => SimConfig::nosq_no_delay(BUDGET),
        2 => SimConfig::baseline_storesets(BUDGET),
        3 => SimConfig::baseline_perfect(BUDGET),
        _ => SimConfig::perfect_smb(BUDGET),
    }
}

/// The shared workload every test snapshots.
fn workload() -> (nosq_isa::Program, TraceBuffer) {
    let profile = Profile::by_name("g721.e").expect("profile exists");
    let program = synthesize(profile, nosq_bench::SEED);
    let trace = TraceBuffer::record(&program, BUDGET);
    (program, trace)
}

/// A mid-run checkpoint of the workload under `cfg`.
fn take_ckpt(
    program: &nosq_isa::Program,
    trace: &TraceBuffer,
    cfg: &SimConfig,
    snapshot_cycle: u64,
) -> nosq_core::SimCheckpoint {
    let mut sim = Simulator::replay(program, cfg.clone(), trace);
    sim.run_until(StopCondition::Cycles(snapshot_cycle));
    sim.checkpoint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serialize → decode → resume equals the uninterrupted run, and
    /// the decoded snapshot re-encodes to the identical bytes.
    #[test]
    fn serialized_checkpoint_resumes_bit_identically(
        snapshot_cycle in 1u64..5_000,
        cfg_idx in 0usize..5,
    ) {
        let (program, trace) = workload();
        let cfg = config(cfg_idx);
        let ckpt = take_ckpt(&program, &trace, &cfg, snapshot_cycle);
        let uninterrupted = Simulator::replay(&program, cfg.clone(), &trace).run();

        let bytes = ckpt.to_bytes();
        let decoded = nosq_core::SimCheckpoint::from_bytes(&bytes, &cfg)
            .expect("pristine checkpoint decodes");
        prop_assert_eq!(
            decoded.to_bytes(),
            bytes,
            "re-encoding a decoded checkpoint must be canonical"
        );

        let resumed = Simulator::resume(&program, &trace, &decoded).run();
        prop_assert_eq!(
            resumed, uninterrupted,
            "resume from decoded bytes diverged (snapshot at cycle {})",
            snapshot_cycle
        );
    }

    /// Any single corrupted byte anywhere in the serialized checkpoint
    /// is rejected with an error — never a panic, never a bogus decode.
    #[test]
    fn random_corruption_is_rejected(
        snapshot_cycle in 1u64..5_000,
        pos_seed in any::<u64>(),
        flip_raw in 1u64..256,
    ) {
        let flip = flip_raw as u8;
        let (program, trace) = workload();
        let cfg = config(0);
        let ckpt = take_ckpt(&program, &trace, &cfg, snapshot_cycle);
        let mut bytes = ckpt.to_bytes();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(
            nosq_core::SimCheckpoint::from_bytes(&bytes, &cfg).is_err(),
            "corruption at byte {pos} (xor {flip:#04x}) must be rejected"
        );
    }
}

/// Every proper prefix of a serialized checkpoint fails to decode.
/// (The envelope stores the exact payload length, so each wrong length
/// is rejected in O(1) — the full sweep is linear.)
#[test]
fn every_truncation_is_rejected() {
    let (program, trace) = workload();
    let cfg = config(0);
    let bytes = take_ckpt(&program, &trace, &cfg, 700).to_bytes();
    for len in 0..bytes.len() {
        assert!(
            nosq_core::SimCheckpoint::from_bytes(&bytes[..len], &cfg).is_err(),
            "truncation to {len} of {} bytes must be rejected",
            bytes.len()
        );
    }
}

/// The encoding is pinned: the payload is `Machine`'s fields in
/// declaration order, and journals written by earlier builds must keep
/// opening under the same `envelope::VERSION`.
#[test]
fn checkpoint_bytes_are_pinned() {
    let (program, trace) = workload();
    for (idx, len, fnv) in [
        (0, 473_774, 0x3da5_096e_2237_92b9_u64),
        (2, 473_986, 0xb0c7_6e32_8d01_718e),
    ] {
        let bytes = take_ckpt(&program, &trace, &config(idx), 700).to_bytes();
        assert_eq!(
            (bytes.len(), nosq_wire::fnv1a(&bytes)),
            (len, fnv),
            "config {idx}: the checkpoint format changed; if intended, bump \
             nosq_wire::envelope::VERSION and re-pin these values"
        );
    }
}

/// Trailing garbage after a valid checkpoint is rejected too.
#[test]
fn trailing_bytes_are_rejected() {
    let (program, trace) = workload();
    let cfg = config(0);
    let mut bytes = take_ckpt(&program, &trace, &cfg, 700).to_bytes();
    bytes.push(0);
    assert!(nosq_core::SimCheckpoint::from_bytes(&bytes, &cfg).is_err());
}

/// A strided single-byte corruption sweep over a real full-size
/// checkpoint (a prime stride so successive sweeps drift across every
/// envelope region: magic, version, fingerprint, length, payload,
/// checksum).
#[test]
fn strided_corruption_sweep_is_rejected() {
    let (program, trace) = workload();
    let cfg = config(1);
    let bytes = take_ckpt(&program, &trace, &cfg, 900).to_bytes();
    for start in 0..7 {
        for pos in (start..bytes.len()).step_by(997) {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut damaged = bytes.clone();
                damaged[pos] ^= flip;
                assert!(
                    nosq_core::SimCheckpoint::from_bytes(&damaged, &cfg).is_err(),
                    "corruption at byte {pos} (xor {flip:#04x}) must be rejected"
                );
            }
        }
    }
}

/// A checkpoint refuses to open under any configuration other than the
/// one it was taken with, and reports the mismatch as a fingerprint
/// error (not a checksum failure — the bytes themselves are pristine).
#[test]
fn config_mismatch_is_a_fingerprint_error() {
    let (program, trace) = workload();
    let cfg = config(0);
    let bytes = take_ckpt(&program, &trace, &cfg, 700).to_bytes();
    for other_idx in 1..5 {
        let other = config(other_idx);
        let err = nosq_core::SimCheckpoint::from_bytes(&bytes, &other)
            .err()
            .expect("config mismatch must fail to decode");
        match err {
            CkptError::Envelope(nosq_wire::envelope::EnvelopeError::Fingerprint {
                sealed,
                expected,
            }) => {
                assert_eq!(sealed, nosq_core::SimCheckpoint::config_fingerprint(&cfg));
                assert_eq!(
                    expected,
                    nosq_core::SimCheckpoint::config_fingerprint(&other)
                );
            }
            other_err => panic!("expected a fingerprint error, got {other_err:?}"),
        }
    }
}
