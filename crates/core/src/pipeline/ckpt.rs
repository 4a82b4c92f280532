//! Durable on-disk encoding of [`SimCheckpoint`].
//!
//! A checkpoint serializes to a versioned, checksummed [`envelope`]
//! whose payload is the deterministic wire encoding of the checkpoint's
//! [`Machine`], field by field in declaration order. The configuration
//! is not stored: it is *identified* — the envelope's fingerprint is an
//! FNV-1a hash of the config's `Debug` rendering, and
//! [`SimCheckpoint::from_bytes`] requires the caller to supply the same
//! configuration the checkpoint was taken under. Opening a checkpoint
//! against a different configuration fails cleanly instead of resuming
//! a subtly different machine.
//!
//! Decoding validates everything: magic, version, exact length,
//! whole-buffer checksum, config fingerprint, then every field's own
//! range checks (register indices, instruction classes, saturating
//! counters, ring lengths), and last the order of the stream cursor,
//! which a resume traces to. Any truncation or bit-flip yields a
//! [`CkptError`], never a panic and never a silently wrong state —
//! `tests/it_ckptio.rs` proves this exhaustively for every byte
//! boundary and a corruption sweep.

use super::*;

use nosq_wire::envelope::{self, EnvelopeError};
use nosq_wire::{Dec, Enc, Wire, WireError};

impl Wire for LoadMode {
    fn enc(&self, e: &mut Enc) {
        match self {
            LoadMode::Normal => e.put_u8(0),
            LoadMode::Delayed => e.put_u8(1),
            LoadMode::Bypassed { partial } => {
                e.put_u8(2);
                partial.enc(e);
            }
        }
    }

    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match d.take_u8()? {
            0 => Ok(LoadMode::Normal),
            1 => Ok(LoadMode::Delayed),
            2 => Ok(LoadMode::Bypassed {
                partial: bool::dec(d)?,
            }),
            _ => Err(WireError::Invalid("load mode")),
        }
    }
}

nosq_wire::wire_struct!(LoadState {
    mode,
    wait_exec,
    wait_commit,
    ssn_nvul,
    ssn_byp,
    exec_value,
    pred,
    oracle,
    injected
});
nosq_wire::wire_struct!(Entry {
    uid,
    inst,
    class,
    path_snap,
    bpred_snap,
    ras_snap,
    map_reg,
    map_node,
    prev_node,
    srcs,
    issued,
    complete_cycle,
    mispredicted_branch,
    ssn,
    load,
    holds_lq,
    holds_sq,
    store_data_ref
});
nosq_wire::wire_struct!(ReadyCand { pos, class });
nosq_wire::wire_struct!(WheelEntry { ready, pos, class });
nosq_wire::wire_struct!(Waiter {
    pos,
    class,
    srcs,
    next
});
nosq_wire::wire_struct!(Fetched {
    inst,
    uid,
    fetch_cycle,
    path_snap,
    bpred_snap,
    ras_snap,
    mispredicted_branch
});

// `wire_struct!` concatenates fields, so `Machine`'s `front` encodes as
// these four fields inline, in the checkpoint format's order.
nosq_wire::wire_struct!(FrontEnd {
    bpred,
    btb,
    ras,
    path
});

nosq_wire::wire_struct!(Machine {
    clock,
    next_uid,
    stream_next,
    stream_limit,
    stream_done,
    pending,
    fetch_buffer,
    rob,
    backend_exits,
    iq_ready,
    wheel,
    waiters,
    waiter_free,
    node_waiters,
    iq_count,
    lq_used,
    sq_used,
    regs,
    timing_mem,
    hierarchy,
    front,
    fetch_stall_until,
    fetch_stalled_on,
    halt_fetched,
    ssn,
    srq,
    tssbf,
    predictor,
    storesets,
    draining_for_wrap,
    fault_bypass_seen,
    stats,
    done
});

/// Why a serialized checkpoint could not be opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The container itself is damaged or mismatched (truncation,
    /// corruption, wrong version, wrong configuration).
    Envelope(EnvelopeError),
    /// The payload passed the checksum but a field, or the order of the
    /// stream cursor, failed validation — possible only across an
    /// encoding change or a writer bug, since the checksum already
    /// rules out transmission damage.
    Payload(WireError),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Envelope(e) => write!(f, "checkpoint envelope: {e}"),
            CkptError::Payload(e) => write!(f, "checkpoint payload: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<EnvelopeError> for CkptError {
    fn from(e: EnvelopeError) -> CkptError {
        CkptError::Envelope(e)
    }
}

impl From<WireError> for CkptError {
    fn from(e: WireError) -> CkptError {
        CkptError::Payload(e)
    }
}

impl SimCheckpoint {
    /// The fingerprint identifying a [`SimConfig`] on disk. Derived from
    /// the config's `Debug` rendering, so *any* configuration difference
    /// — field value, field added in a later release — changes it.
    pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
        nosq_wire::fnv1a(format!("{cfg:?}").as_bytes())
    }

    /// Serializes the checkpoint into a self-validating envelope.
    ///
    /// The bytes are canonical: two checkpoints of identical simulator
    /// state encode identically, so byte equality of `to_bytes` output
    /// is state equality.
    pub fn to_bytes(&self) -> Vec<u8> {
        envelope::seal(
            SimCheckpoint::config_fingerprint(&self.cfg),
            &nosq_wire::to_bytes(&self.m),
        )
    }

    /// Deserializes a checkpoint sealed by [`SimCheckpoint::to_bytes`].
    ///
    /// `cfg` must be the configuration the checkpoint was taken under
    /// (enforced via [`SimCheckpoint::config_fingerprint`]). Rejects any
    /// truncated, corrupted, version-mismatched, or config-mismatched
    /// input, and any whose stream cursor a resume could not trace to,
    /// with a [`CkptError`]; a successful decode reconstructs the
    /// snapshot bit-identically.
    pub fn from_bytes(bytes: &[u8], cfg: &SimConfig) -> Result<SimCheckpoint, CkptError> {
        let payload = envelope::open(bytes, SimCheckpoint::config_fingerprint(cfg))?;
        let m: Machine = nosq_wire::from_bytes(payload)?;
        let cursor = [m.stats.insts, m.stream_next as u64, m.stream_limit as u64];
        if !cursor.is_sorted() || cursor[2] > cfg.max_insts {
            return Err(CkptError::Payload(WireError::Invalid("stream cursor")));
        }
        let cfg = cfg.clone();
        Ok(SimCheckpoint { cfg, m })
    }
}
