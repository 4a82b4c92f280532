//! The crash-safe append-only journal: completed campaigns *and*
//! mid-job checkpoints.
//!
//! Every completed campaign is appended as one self-verifying record
//! and fsync'd before the daemon reports the job done, so a daemon
//! killed at *any* instant — mid-write included — restarts with every
//! previously completed result intact and re-simulates nothing. The
//! design follows the durable-queue literature the ROADMAP cites: the
//! recovery invariant is that a record either passes its checksum and
//! is replayed, or is discarded along with everything after it (a torn
//! tail can only be the one in-flight append, never a completed
//! record — completion is reported only after `sync_data` returns).
//! The seeded [`FaultIo`](crate::durable::FaultIo) harness drives this
//! invariant through torn writes, short writes, `ENOSPC`, fsync
//! failures, and crash-point schedules in the tests below.
//!
//! Between completions, a running job periodically appends
//! **checkpoint records**: the job's position in its campaign grid,
//! the reports of the jobs already finished, and a sealed
//! [`SimCheckpoint`] of the in-flight simulation. Recovery hands back
//! the *latest valid* checkpoint per campaign (superseded checkpoints
//! and checkpoints of campaigns that later completed are dropped) and
//! the latest completion record per campaign, so a killed daemon — or
//! a killed `nosq run --journal` — resumes a half-finished campaign
//! from its last checkpoint and re-simulates only the tail. Records
//! are never compacted: the journal is append-only by design, and
//! obsolete records cost disk, not correctness. All file writes and
//! fsyncs go through the [`DurableIo`] seam — this module never
//! touches `std::fs` outside its tests. [`JournaledCampaign::run`]
//! writes both kinds of record for the daemon and for `nosq run`;
//! [`CheckpointEntry::recover`] reads checkpoints back.
//!
//! # On-disk format (version 2)
//!
//! ```text
//! "NOSQJRNL" magic (8 bytes)  |  u32 LE version (2)
//! repeated records:
//!   u32 LE payload length  |  u64 LE FNV-1a of payload  |  payload
//! ```
//!
//! A payload is one tag byte followed by its fields. Integers are
//! little-endian; a *blob* is a `u64` length followed by that many
//! bytes; text (names, the spec, artifact file names and contents) is
//! a blob of UTF-8.
//!
//! ```text
//! tag 1, completed campaign:
//!   fingerprint u64 | name | artifact count u64 | count × (file name | contents)
//! tag 2, mid-job checkpoint:
//!   fingerprint u64 | name | spec | job index u64 | completed blob
//!   | state flag u8 (0 = none, 1 = present) | [state blob]
//! ```
//!
//! The `completed` blob is the [`nosq_wire`] encoding of the finished
//! jobs' reports. The `state` blob (absent at a job boundary) is the
//! sealed simulator checkpoint copied verbatim; it is itself
//! independently versioned, checksummed and config-fingerprinted. A
//! record whose checksum holds but whose payload does not decode
//! exactly (unknown tag, a length past the payload's end, non-UTF-8
//! text, trailing bytes) ends the valid prefix like a torn write does.
//! Recovery truncates the file back to the last valid record, so a
//! torn tail is also *physically* removed and the next append starts
//! from a clean boundary.
//!
//! A journal whose header carries another version is refused with an
//! error that names both versions; no older format is read. Version 1
//! journals (JSON payloads with hex-encoded blobs) must be finished
//! with a build that writes version 1, or deleted.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use nosq_check::sync::StdSync;
use nosq_core::{SimCheckpoint, SimReport};
use nosq_lab::{
    artifacts, run_campaign_durable, synthesize_programs, Artifact, Campaign, CampaignResult,
    CkptEvent, ProgressCounters, ResumeState, WorkerContext,
};
use nosq_wire::{fnv1a, Dec, Enc, Wire, WireError};

use crate::durable::{DurableFile, DurableIo, OsIo};
use crate::fingerprint::{campaign_fingerprint, fingerprint_hex};

const MAGIC: &[u8; 8] = b"NOSQJRNL";
const VERSION: u32 = 2;
/// Magic plus version.
const FILE_HEADER: usize = 12;
/// Per-record framing: payload length plus checksum.
const RECORD_HEADER: usize = 12;
/// Sanity bound on one record's payload; a length prefix beyond this is
/// treated as corruption, not an allocation request.
const MAX_RECORD: u32 = 256 * 1024 * 1024;
/// Payload tag of a completed-campaign record.
const TAG_COMPLETED: u8 = 1;
/// Payload tag of a mid-job checkpoint record.
const TAG_CHECKPOINT: u8 = 2;

/// One recovered completed-campaign entry.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// The campaign fingerprint (also the wire job id).
    pub fingerprint: u64,
    /// The campaign name (diagnostic only).
    pub name: String,
    /// The deterministic artifacts, ready to serve.
    pub artifacts: Arc<Vec<Artifact>>,
}

/// One mid-campaign checkpoint: everything needed to resume a
/// half-finished campaign without re-simulating its finished prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The campaign fingerprint (also the wire job id).
    pub fingerprint: u64,
    /// The campaign name (diagnostic only).
    pub name: String,
    /// The campaign spec, verbatim — recovery rebuilds the campaign
    /// from this text, so the journal is self-contained.
    pub spec: String,
    /// Grid index of the in-flight job (jobs `0..job_index` are in
    /// `completed`).
    pub job_index: u64,
    /// Reports of the already-finished grid jobs, in grid order.
    pub completed: Vec<SimReport>,
    /// The sealed [`SimCheckpoint`] bytes of the in-flight job, `None`
    /// at a job boundary (the next job simply starts from scratch).
    pub state: Option<Vec<u8>>,
}

/// What recovery salvaged from a journal.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The latest completion record of each campaign, in append order.
    pub completed: Vec<JournalEntry>,
    /// The latest valid checkpoint of each campaign that never
    /// completed, ordered by fingerprint.
    pub partial: Vec<CheckpointEntry>,
}

/// The append-only journal: an open durable file plus recovery stats.
pub struct Journal {
    file: Box<dyn DurableFile>,
    path: PathBuf,
    records: u64,
    /// Bytes discarded by recovery (0 on a clean open).
    truncated: u64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("records", &self.records)
            .field("truncated", &self.truncated)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens (or creates) the journal at `path` on the real
    /// filesystem; see [`Journal::open_with`].
    pub fn open(path: &Path) -> std::io::Result<(Journal, Recovered)> {
        Journal::open_with(&mut OsIo, path)
    }

    /// Opens (or creates) the journal at `path` through `io`,
    /// validating every record and truncating the file back to the
    /// last intact one. Returns the journal and what recovery
    /// salvaged. A file that is not a journal, or is one of another
    /// format version, is refused with [`InvalidData`] and left
    /// untouched.
    ///
    /// [`InvalidData`]: std::io::ErrorKind::InvalidData
    pub fn open_with(io: &mut dyn DurableIo, path: &Path) -> std::io::Result<(Journal, Recovered)> {
        let mut file = io.open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // A file shorter than magic + version is a torn header write:
        // nothing could have been reported complete yet, so it is
        // treated as empty.
        let (recovered, records, valid_end) = if bytes.len() >= FILE_HEADER {
            check_header(&bytes, path)?;
            recover(&bytes)
        } else {
            (Recovered::default(), 0, 0)
        };

        if valid_end == 0 {
            // Fresh or torn header: rewrite from scratch.
            file.truncate(0)?;
            let mut header = Vec::with_capacity(FILE_HEADER);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            file.append(&header)?;
            file.sync_data()?;
        } else if valid_end < bytes.len() {
            // Torn tail: physically discard it so the next append
            // starts at a record boundary.
            file.truncate(valid_end as u64)?;
            file.sync_data()?;
        }

        let truncated = bytes.len().saturating_sub(valid_end.max(FILE_HEADER)) as u64;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
                records,
                truncated,
            },
            recovered,
        ))
    }

    /// Appends one encoded record and fsyncs. A caller that shares the
    /// journal behind a lock encodes first and holds the lock only for
    /// this call.
    fn append_encoded(&mut self, record: &EncodedRecord) -> std::io::Result<()> {
        self.file.append(&record.0)?;
        self.file.sync_data()?;
        self.records += 1;
        Ok(())
    }

    /// Appends one completed campaign and fsyncs. Only after this
    /// returns may the daemon report the job complete — that ordering
    /// is the whole crash-safety argument.
    pub fn append(
        &mut self,
        fingerprint: u64,
        name: &str,
        artifacts: &[Artifact],
    ) -> std::io::Result<()> {
        self.append_encoded(&EncodedRecord::completed(fingerprint, name, artifacts))
    }

    /// Appends one mid-campaign checkpoint and fsyncs. A later
    /// checkpoint or a completed record for the same campaign
    /// supersedes it at recovery.
    pub fn append_checkpoint(&mut self, entry: &CheckpointEntry) -> std::io::Result<()> {
        self.append_encoded(&EncodedRecord::checkpoint(entry))
    }

    /// Records appended plus records recovered (checkpoints included).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes the recovery pass discarded on open (0 for a clean file).
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated
    }
}

/// One framed, checksummed record, ready to append.
///
/// Encoding is the costly part of an append: a checkpoint carries a
/// simulator snapshot of about half a megabyte. [`JournaledCampaign::run`]
/// therefore encodes before it takes the journal lock, and the lock
/// covers only [`Journal::append_encoded`]'s write and fsync. Only the
/// two encoders below make one.
struct EncodedRecord(Vec<u8>);

impl EncodedRecord {
    /// A completed-campaign record.
    fn completed(fingerprint: u64, name: &str, artifacts: &[Artifact]) -> EncodedRecord {
        // Fixed fields: fingerprint, count, one length prefix for the
        // name and two per artifact.
        let text: usize = artifacts
            .iter()
            .map(|a| 16 + a.file_name.len() + a.contents.len())
            .sum();
        let mut e = EncodedRecord::start(TAG_COMPLETED, 24 + name.len() + text);
        e.put_u64(fingerprint);
        e.put_blob(name.as_bytes());
        e.put_u64(artifacts.len() as u64);
        for a in artifacts {
            e.put_blob(a.file_name.as_bytes());
            e.put_blob(a.contents.as_bytes());
        }
        EncodedRecord::seal(e)
    }

    /// A mid-job checkpoint record. The sealed simulator state is
    /// copied verbatim.
    fn checkpoint(entry: &CheckpointEntry) -> EncodedRecord {
        let completed = nosq_wire::to_bytes(&entry.completed);
        let state = entry.state.as_deref();
        // Fixed fields: fingerprint, job index, state flag and four
        // length prefixes.
        let size = 49
            + entry.name.len()
            + entry.spec.len()
            + completed.len()
            + state.map_or(0, <[u8]>::len);
        let mut e = EncodedRecord::start(TAG_CHECKPOINT, size);
        e.put_u64(entry.fingerprint);
        e.put_blob(entry.name.as_bytes());
        e.put_blob(entry.spec.as_bytes());
        e.put_u64(entry.job_index);
        e.put_blob(&completed);
        match state {
            None => e.put_u8(0),
            Some(state) => {
                e.put_u8(1);
                e.put_blob(state);
            }
        }
        EncodedRecord::seal(e)
    }

    /// An encoder holding a placeholder record header, then `tag`;
    /// `payload` is the expected payload size after the tag.
    fn start(tag: u8, payload: usize) -> Enc {
        let mut e = Enc::with_capacity(RECORD_HEADER + 1 + payload);
        e.put_bytes(&[0; RECORD_HEADER]);
        e.put_u8(tag);
        e
    }

    /// Fills in the record header: payload length and checksum.
    fn seal(e: Enc) -> EncodedRecord {
        let mut bytes = e.into_bytes();
        let (header, payload) = bytes.split_at_mut(RECORD_HEADER);
        let len = u32::try_from(payload.len()).expect("record < 4 GiB");
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
        EncodedRecord(bytes)
    }
}

/// A campaign run under the journal's durability contract: its
/// checkpoints and its completion record are journaled under its
/// fingerprint, with the spec text embedded so that recovery needs
/// nothing but the journal.
#[derive(Clone, Debug)]
pub struct JournaledCampaign {
    /// The campaign fingerprint (also the wire job id).
    pub fingerprint: u64,
    /// The campaign the spec resolves to.
    pub campaign: Campaign,
    /// The spec text, verbatim.
    pub spec: String,
}

impl JournaledCampaign {
    /// Wraps a campaign parsed from `spec`, keyed by its fingerprint.
    pub fn new(campaign: Campaign, spec: String) -> JournaledCampaign {
        JournaledCampaign {
            fingerprint: campaign_fingerprint(&campaign),
            campaign,
            spec,
        }
    }

    /// The journal record of one checkpoint event of this campaign.
    pub fn checkpoint(&self, ev: &CkptEvent<'_>) -> CheckpointEntry {
        CheckpointEntry {
            fingerprint: self.fingerprint,
            name: self.campaign.name.clone(),
            spec: self.spec.clone(),
            job_index: ev.job_index as u64,
            completed: ev.completed.to_vec(),
            state: ev.state.map(SimCheckpoint::to_bytes),
        }
    }

    /// Runs the campaign serially in `ctx` through
    /// [`run_campaign_durable`], from `resume` when given. With a
    /// journal it appends a checkpoint record at every cadence point (a
    /// failed append is a warning), then appends and fsyncs the
    /// completion record, and only then returns the result, the
    /// artifacts and that append's outcome: a caller reports the result
    /// only after an `Ok`. Records are encoded before the lock is
    /// taken. Without a journal (the daemon's un-journaled test mode)
    /// the cadence is 0 and nothing is written.
    pub fn run(
        &self,
        journal: Option<&Mutex<Journal>>,
        ctx: &mut WorkerContext,
        progress: &ProgressCounters<StdSync>,
        ckpt_every: u64,
        resume: Option<ResumeState>,
    ) -> (CampaignResult, Arc<Vec<Artifact>>, std::io::Result<()>) {
        let append = |journal: &Mutex<Journal>, record: EncodedRecord| {
            journal
                .lock()
                .expect("journal poisoned")
                .append_encoded(&record)
        };
        let mut sink = |ev: CkptEvent<'_>| {
            let Some(journal) = journal else { return };
            if let Err(e) = append(journal, EncodedRecord::checkpoint(&self.checkpoint(&ev))) {
                let id = fingerprint_hex(self.fingerprint);
                eprintln!("nosq: warning: checkpoint append failed for {id}: {e}");
            }
        };
        let cadence = if journal.is_some() { ckpt_every } else { 0 };
        let programs = synthesize_programs(&self.campaign, 1);
        let result = run_campaign_durable(
            &self.campaign,
            &programs,
            ctx,
            progress,
            cadence,
            resume,
            &mut sink,
        );
        let files = Arc::new(artifacts(&result));
        let appended = journal.map_or(Ok(()), |journal| {
            let name = &self.campaign.name;
            append(
                journal,
                EncodedRecord::completed(self.fingerprint, name, &files),
            )
        });
        (result, files, appended)
    }
}

impl CheckpointEntry {
    /// Rebuilds the campaign this record checkpoints and its resume
    /// point. A spec that no longer parses, or no longer fingerprints
    /// to the record's key, is an error naming the record's id: the
    /// caller warns and skips the record, since running it would
    /// journal the completion under another key and never supersede
    /// it. A resume point off the grid degrades to no resume point,
    /// and a state blob that does not decode to the job boundary, each
    /// with a warning: recovery may lose work, never correctness.
    pub fn recover(&self) -> Result<(JournaledCampaign, Option<ResumeState>), String> {
        let id = fingerprint_hex(self.fingerprint);
        let campaign = Campaign::from_spec(&self.spec)
            .map_err(|e| format!("cannot resume {id}: its spec no longer parses: {e}"))?;
        let journaled = JournaledCampaign::new(campaign, self.spec.clone());
        if journaled.fingerprint != self.fingerprint {
            let key = fingerprint_hex(journaled.fingerprint);
            return Err(format!(
                "cannot resume {id}: its spec fingerprints to {key}"
            ));
        }
        let (jobs, job_index) = (journaled.campaign.jobs(), self.job_index as usize);
        if job_index > jobs || self.completed.len() != job_index {
            eprintln!("nosq: warning: checkpoint for {id} does not fit the grid; rerunning");
            return Ok((journaled, None));
        }
        let configs = &journaled.campaign.configs;
        let state = self.state.as_deref().filter(|_| job_index < jobs);
        let checkpoint = state.and_then(|bytes| {
            let cfg = &configs[job_index % configs.len()].config;
            // A corrupt snapshot is never resumed (and thus never
            // influences produced bytes); the job restarts instead.
            SimCheckpoint::from_bytes(bytes, cfg)
                .inspect_err(|e| {
                    eprintln!(
                        "nosq: warning: checkpoint state for {id} rejected ({e}); \
                         resuming from job boundary"
                    )
                })
                .ok()
        });
        let resume = ResumeState {
            job_index,
            completed: self.completed.clone(),
            checkpoint,
        };
        Ok((journaled, Some(resume)))
    }
}

enum Record {
    Completed(JournalEntry),
    Checkpoint(CheckpointEntry),
}

fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Refuses a file that is not a journal, or is a journal of another
/// format version. The two get different messages: the first is
/// somebody else's file, the second needs the build that wrote it.
fn check_header(bytes: &[u8], path: &Path) -> std::io::Result<()> {
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(invalid_data(format!(
            "{} is not a nosq journal",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(bytes[MAGIC.len()..FILE_HEADER].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(invalid_data(format!(
            "{} is a version {version} nosq journal; this build reads version {VERSION} only \
             (finish it with a build that reads version {version}, or delete it)",
            path.display()
        )));
    }
    Ok(())
}

/// Replays the records after the file header, stopping at the first
/// one that is short, fails its checksum, or does not decode. Returns
/// what they recover, how many they were, and where the valid prefix
/// ends.
fn recover(bytes: &[u8]) -> (Recovered, u64, usize) {
    let mut completed: Vec<Option<JournalEntry>> = Vec::new();
    let mut latest: BTreeMap<u64, usize> = BTreeMap::new();
    let mut partials: BTreeMap<u64, CheckpointEntry> = BTreeMap::new();
    let mut records = 0u64;
    let mut pos = FILE_HEADER;
    while let Some((record, next)) = read_record(bytes, pos) {
        match record {
            Record::Completed(entry) => {
                // A completed campaign supersedes every checkpoint it
                // ever wrote, and an earlier completion record of the
                // same campaign (the daemon re-simulates a campaign
                // whose cached result was evicted, and journals it
                // again).
                partials.remove(&entry.fingerprint);
                if let Some(older) = latest.insert(entry.fingerprint, completed.len()) {
                    completed[older] = None;
                }
                completed.push(Some(entry));
            }
            Record::Checkpoint(entry) => {
                partials.insert(entry.fingerprint, entry);
            }
        }
        records += 1;
        pos = next;
    }
    let recovered = Recovered {
        completed: completed.into_iter().flatten().collect(),
        partial: partials.into_values().collect(),
    };
    (recovered, records, pos)
}

/// Validates and decodes the record starting at `pos`; `None` on a
/// short, corrupt, or malformed record (recovery stops there).
fn read_record(bytes: &[u8], pos: usize) -> Option<(Record, usize)> {
    let header = bytes.get(pos..pos + RECORD_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if len > MAX_RECORD {
        return None;
    }
    let checksum = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
    let next = pos + RECORD_HEADER + len as usize;
    let payload = bytes.get(pos + RECORD_HEADER..next)?;
    if fnv1a(payload) != checksum {
        return None;
    }
    Some((decode(payload).ok()?, next))
}

/// Decodes one checksummed payload. Every length is checked against
/// the bytes present before anything is allocated, and the payload
/// must be consumed exactly.
fn decode(payload: &[u8]) -> Result<Record, WireError> {
    let mut d = Dec::new(payload);
    let record = match d.take_u8()? {
        TAG_COMPLETED => {
            let fingerprint = d.take_u64()?;
            let name = String::dec(&mut d)?;
            // The count only bounds the loop: each artifact must
            // actually be present before it is pushed.
            let count = d.take_u64()?;
            let mut artifacts = Vec::new();
            for _ in 0..count {
                artifacts.push(Artifact {
                    file_name: String::dec(&mut d)?,
                    contents: String::dec(&mut d)?,
                });
            }
            Record::Completed(JournalEntry {
                fingerprint,
                name,
                artifacts: Arc::new(artifacts),
            })
        }
        TAG_CHECKPOINT => Record::Checkpoint(CheckpointEntry {
            fingerprint: d.take_u64()?,
            name: String::dec(&mut d)?,
            spec: String::dec(&mut d)?,
            job_index: d.take_u64()?,
            completed: nosq_wire::from_bytes(d.take_blob()?)?,
            state: match d.take_u8()? {
                0 => None,
                1 => Some(d.take_blob()?.to_vec()),
                _ => return Err(WireError::Invalid("checkpoint state flag")),
            },
        }),
        _ => return Err(WireError::Invalid("journal record tag")),
    };
    d.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{FaultIo, FaultKind};
    use std::fs::OpenOptions;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nosq-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn artifacts(tag: &str) -> Vec<Artifact> {
        vec![
            Artifact {
                file_name: format!("{tag}.matrix.csv"),
                contents: format!("a,b\n{tag},2\n"),
            },
            Artifact {
                file_name: format!("{tag}.summary.json"),
                contents: format!("{{\"tag\":\"{tag}\"}}"),
            },
        ]
    }

    fn report(seed: u64) -> SimReport {
        SimReport {
            cycles: seed * 10,
            insts: seed * 7,
            ..SimReport::default()
        }
    }

    fn ckpt_entry(fp: u64, job_index: u64, with_state: bool) -> CheckpointEntry {
        CheckpointEntry {
            fingerprint: fp,
            name: format!("camp-{fp}"),
            spec: format!("name = camp-{fp}\nconfigs = nosq\nprofiles = gzip\n"),
            job_index,
            completed: (0..job_index).map(report).collect(),
            state: with_state.then(|| vec![0xab; 64]),
        }
    }

    #[test]
    fn roundtrips_across_reopen() {
        let path = scratch("roundtrip.journal");
        {
            let (mut j, recovered) = Journal::open(&path).unwrap();
            assert!(recovered.completed.is_empty());
            j.append(7, "one", &artifacts("one")).unwrap();
            j.append(9, "two", &artifacts("two")).unwrap();
            assert_eq!(j.records(), 2);
        }
        let (j, recovered) = Journal::open(&path).unwrap();
        assert_eq!(j.records(), 2);
        assert_eq!(j.truncated_bytes(), 0);
        assert_eq!(recovered.completed.len(), 2);
        assert_eq!(recovered.completed[0].fingerprint, 7);
        assert_eq!(recovered.completed[1].name, "two");
        assert_eq!(*recovered.completed[1].artifacts, artifacts("two"));
        assert!(recovered.partial.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = scratch("torn.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(1, "keep", &artifacts("keep")).unwrap();
            j.append(2, "torn", &artifacts("torn")).unwrap();
        }
        // Chop the last record mid-payload, as a crash mid-append would.
        let full = std::fs::metadata(&path).unwrap().len();
        let torn_len = full - 10;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(torn_len).unwrap();
        drop(file);

        let (mut j, recovered) = Journal::open(&path).unwrap();
        assert_eq!(
            recovered.completed.len(),
            1,
            "only the intact record survives"
        );
        assert_eq!(recovered.completed[0].name, "keep");
        assert!(j.truncated_bytes() > 0);
        // The file was physically truncated back to a record boundary,
        // so appends keep working and survive another reopen.
        j.append(3, "after", &artifacts("after")).unwrap();
        drop(j);
        let (_, again) = Journal::open(&path).unwrap();
        assert_eq!(
            again
                .completed
                .iter()
                .map(|e| e.name.as_str())
                .collect::<Vec<_>>(),
            vec!["keep", "after"]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_stops_recovery() {
        let path = scratch("corrupt.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(1, "good", &artifacts("good")).unwrap();
            j.append(2, "bad", &artifacts("bad")).unwrap();
        }
        // Flip one payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovered) = Journal::open(&path).unwrap();
        assert_eq!(recovered.completed.len(), 1);
        assert_eq!(recovered.completed[0].name, "good");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = scratch("foreign.journal");
        std::fs::write(&path, b"this is not a journal file at all").unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("is not a nosq journal"), "{msg}");
        assert!(!msg.contains("version"), "{msg}");
        let _ = std::fs::remove_file(&path);
    }

    /// A journal of another format version is refused by name, not
    /// mistaken for a foreign file, and left as it was.
    #[test]
    fn version_1_journal_is_refused() {
        let path = scratch("v1.journal");
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(b"\x10\0\0\0{\"job\":\"0000\"}");
        std::fs::write(&path, &v1).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("version 1") && msg.contains("version 2"),
            "the error must name the found and expected versions: {msg}"
        );
        assert!(!msg.contains("is not a nosq journal"), "{msg}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            v1,
            "a refused file is untouched"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_header_is_reset() {
        let path = scratch("torn-header.journal");
        std::fs::write(&path, b"NOSQ").unwrap(); // crash before version
        let (mut j, recovered) = Journal::open(&path).unwrap();
        assert!(recovered.completed.is_empty());
        j.append(5, "fresh", &artifacts("fresh")).unwrap();
        drop(j);
        let (_, again) = Journal::open(&path).unwrap();
        assert_eq!(again.completed.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoints_roundtrip_and_supersede() {
        let path = scratch("ckpt.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append_checkpoint(&ckpt_entry(1, 0, true)).unwrap();
            j.append_checkpoint(&ckpt_entry(1, 2, true)).unwrap(); // supersedes
            j.append_checkpoint(&ckpt_entry(2, 1, false)).unwrap(); // boundary
            j.append_checkpoint(&ckpt_entry(3, 1, true)).unwrap();
            j.append(3, "camp-3", &artifacts("done")).unwrap(); // completes 3
        }
        let (_, recovered) = Journal::open(&path).unwrap();
        assert_eq!(recovered.completed.len(), 1);
        assert_eq!(recovered.partial.len(), 2, "campaign 3 completed");
        let one = &recovered.partial[0];
        assert_eq!((one.fingerprint, one.job_index), (1, 2));
        assert_eq!(one.completed.len(), 2);
        assert_eq!(one.completed[1], report(1));
        assert_eq!(one.state.as_deref(), Some(&[0xab; 64][..]));
        assert!(one.spec.contains("camp-1"));
        let two = &recovered.partial[1];
        assert_eq!((two.fingerprint, two.job_index), (2, 1));
        assert!(two.state.is_none(), "boundary checkpoint has no state");
        let _ = std::fs::remove_file(&path);
    }

    /// The durable-queue invariant under the full fault matrix: run a
    /// scripted append sequence against every crash point and every
    /// fault kind; after reboot + recovery, every *acknowledged*
    /// append is present, the recovered records form a prefix of the
    /// acknowledged sequence plus at most nothing — never a corrupt or
    /// partially-applied record.
    #[test]
    fn recovery_is_prefix_or_nothing_under_every_fault() {
        let kinds = [
            FaultKind::TornWrite,
            FaultKind::ShortWrite,
            FaultKind::Enospc,
            FaultKind::SyncFail,
            FaultKind::Crash,
        ];
        let path = PathBuf::from("/virtual/fault.journal");
        for seed in 1..=3u64 {
            for at_op in 0..12u64 {
                for kind in kinds {
                    let io = FaultIo::new(seed).with_fault(at_op, kind);
                    let mut handle = io.clone();
                    let mut acked: Vec<u64> = Vec::new();
                    // Open may itself hit the fault (header write ops).
                    if let Ok((mut j, _)) = Journal::open_with(&mut handle, &path) {
                        for fp in 1..=4u64 {
                            let tag = format!("f{fp}");
                            match j.append(fp, &tag, &artifacts(&tag)) {
                                Ok(()) => acked.push(fp),
                                Err(_) => break,
                            }
                        }
                    }
                    io.reboot();
                    let mut handle = io.clone();
                    let (_, recovered) =
                        Journal::open_with(&mut handle, &path).expect("post-reboot open succeeds");
                    let got: Vec<u64> = recovered.completed.iter().map(|e| e.fingerprint).collect();
                    // Every acknowledged record survived...
                    assert!(
                        got.len() >= acked.len(),
                        "seed {seed} op {at_op} {kind:?}: acked {acked:?} but recovered {got:?}"
                    );
                    assert_eq!(
                        &got[..acked.len()],
                        &acked[..],
                        "seed {seed} op {at_op} {kind:?}"
                    );
                    // ...and anything beyond is a fully-applied record
                    // from the failed append (a torn write that
                    // happened to land completely), in sequence.
                    let expect: Vec<u64> = (1..=got.len() as u64).collect();
                    assert_eq!(got, expect, "seed {seed} op {at_op} {kind:?}");
                    for e in &recovered.completed {
                        assert_eq!(
                            *e.artifacts,
                            artifacts(&format!("f{}", e.fingerprint)),
                            "recovered artifacts must be bit-exact"
                        );
                    }
                }
            }
        }
    }

    /// Same invariant for checkpoint records: recovery never hands
    /// back a corrupt or partially-written checkpoint.
    #[test]
    fn checkpoint_recovery_survives_crash_points() {
        let path = PathBuf::from("/virtual/ckpt-fault.journal");
        for seed in 1..=3u64 {
            for at_op in 2..10u64 {
                let io = FaultIo::new(seed).with_fault(at_op, FaultKind::TornWrite);
                let mut handle = io.clone();
                let mut acked = 0u64;
                if let Ok((mut j, _)) = Journal::open_with(&mut handle, &path) {
                    for step in 1..=4u64 {
                        match j.append_checkpoint(&ckpt_entry(9, step, true)) {
                            Ok(()) => acked = step,
                            Err(_) => break,
                        }
                    }
                }
                io.reboot();
                let mut handle = io.clone();
                let (_, recovered) =
                    Journal::open_with(&mut handle, &path).expect("post-reboot open succeeds");
                match recovered.partial.first() {
                    Some(entry) => {
                        assert_eq!(entry.fingerprint, 9);
                        assert!(
                            entry.job_index >= acked,
                            "seed {seed} op {at_op}: acked step {acked}, recovered {}",
                            entry.job_index
                        );
                        assert_eq!(entry.completed.len() as u64, entry.job_index);
                        assert_eq!(entry.state.as_deref(), Some(&[0xab; 64][..]));
                    }
                    None => assert_eq!(acked, 0, "acked checkpoints cannot vanish"),
                }
            }
        }
    }

    /// One record built by hand: `tag`, then whatever `body` writes,
    /// under a valid length and checksum.
    fn hand_record(tag: u8, body: impl FnOnce(&mut Enc)) -> EncodedRecord {
        let mut e = EncodedRecord::start(tag, 0);
        body(&mut e);
        EncodedRecord::seal(e)
    }

    /// Records whose checksum holds but whose contents lie end the
    /// valid prefix like a torn write: no panic, and the record before
    /// them survives. No length or count is trusted for allocation —
    /// reserving `u64::MAX` artifacts or a blob of a lying length would
    /// abort this test.
    #[test]
    fn lying_payloads_end_the_valid_prefix() {
        type Body = fn(&mut Enc);
        let well_formed: Body = |e| {
            e.put_u64(1);
            e.put_blob(b"x");
            e.put_u64(0);
        };
        let cases: [(&str, u8, Body); 6] = [
            ("blob length past the payload end", TAG_COMPLETED, |e| {
                e.put_u64(1);
                e.put_u64(1000);
                e.put_bytes(b"abc");
            }),
            ("artifact count of u64::MAX", TAG_COMPLETED, |e| {
                e.put_u64(1);
                e.put_blob(b"x");
                e.put_u64(u64::MAX);
                e.put_blob(b"x.csv");
                e.put_blob(b"a,b\n");
            }),
            ("unknown tag", 9, |e| {
                e.put_u64(1);
                e.put_blob(b"x");
                e.put_u64(0);
            }),
            ("non-UTF-8 name", TAG_COMPLETED, |e| {
                e.put_u64(1);
                e.put_blob(&[0xff, 0xfe]);
                e.put_u64(0);
            }),
            ("trailing bytes", TAG_COMPLETED, |e| {
                e.put_u64(1);
                e.put_blob(b"x");
                e.put_u64(0);
                e.put_u8(0);
            }),
            ("checkpoint state flag of 7", TAG_CHECKPOINT, |e| {
                e.put_u64(1);
                e.put_blob(b"x");
                e.put_blob(b"name = x");
                e.put_u64(0);
                e.put_blob(&nosq_wire::to_bytes(&Vec::<SimReport>::new()));
                e.put_u8(7);
            }),
        ];
        // The cases differ from a well-formed record only in the lie.
        let control = hand_record(TAG_COMPLETED, well_formed);
        assert!(decode(&control.0[RECORD_HEADER..]).is_ok());

        for (i, (what, tag, body)) in cases.into_iter().enumerate() {
            let path = scratch(&format!("lying-{i}.journal"));
            {
                let (mut j, _) = Journal::open(&path).unwrap();
                j.append(7, "keep", &artifacts("keep")).unwrap();
                j.append_encoded(&hand_record(tag, body)).unwrap();
                j.append(8, "after", &artifacts("after")).unwrap();
            }
            let (j, recovered) = Journal::open(&path).unwrap();
            assert_eq!(j.records(), 1, "{what}");
            assert!(j.truncated_bytes() > 0, "{what}");
            assert_eq!(recovered.completed.len(), 1, "{what}");
            assert_eq!(recovered.completed[0].name, "keep", "{what}");
            assert_eq!(
                *recovered.completed[0].artifacts,
                artifacts("keep"),
                "{what}"
            );
            assert!(recovered.partial.is_empty(), "{what}");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A checkpoint as the daemon journals it, taken partway through
    /// job 1 of a two-config grid: its job index is not 0, and its
    /// state decodes under the second configuration only.
    fn real_checkpoint() -> CheckpointEntry {
        let spec = "name = real\nconfigs = nosq, baseline-storesets\nprofiles = gzip\n\
                    max_insts = 4000\n";
        let journaled = JournaledCampaign::new(Campaign::from_spec(spec).unwrap(), spec.to_owned());
        let programs = synthesize_programs(&journaled.campaign, 1);
        let progress: ProgressCounters<StdSync> = ProgressCounters::new();
        let mut captured = None;
        let mut sink = |ev: CkptEvent<'_>| {
            if captured.is_none() && ev.job_index == 1 && ev.state.is_some() {
                captured = Some(journaled.checkpoint(&ev));
            }
        };
        let (campaign, ctx) = (&journaled.campaign, &mut WorkerContext::new());
        run_campaign_durable(campaign, &programs, ctx, &progress, 2000, None, &mut sink);
        captured.expect("a 4000-instruction job checkpoints at cadence 2000")
    }

    #[test]
    fn recover_restores_an_intact_mid_job_checkpoint() {
        let entry = real_checkpoint();
        let (journaled, resume) = entry.recover().expect("an intact record recovers");
        let resume = resume.expect("a resume point");
        assert_eq!(
            (journaled.fingerprint, resume.job_index),
            (entry.fingerprint, 1)
        );
        assert_eq!(resume.completed, entry.completed);
        assert!(resume.checkpoint.is_some(), "mid-job state restored");
    }

    #[test]
    fn recover_refuses_a_spec_that_does_not_parse() {
        let spec = "name = real\nconfigs = no-such-preset\n".to_owned();
        let entry = CheckpointEntry {
            spec,
            ..real_checkpoint()
        };
        let err = entry.recover().err().expect("the record is refused");
        let id = fingerprint_hex(entry.fingerprint);
        assert!(
            err.contains(&id) && err.contains("no longer parses"),
            "{err}"
        );
    }

    #[test]
    fn recover_refuses_a_record_keyed_off_its_spec() {
        let mut entry = real_checkpoint();
        entry.fingerprint ^= 1;
        let err = entry.recover().err().expect("the record is refused");
        let (id, key) = (entry.fingerprint, entry.fingerprint ^ 1);
        let named = |fp| err.contains(&fingerprint_hex(fp));
        assert!(
            named(id) && named(key),
            "names the record and its spec: {err}"
        );
    }

    #[test]
    fn recover_reruns_a_resume_point_off_the_grid() {
        let entry = real_checkpoint();
        let (job_index, completed) = (3, vec![report(1); 3]);
        let past_the_grid = CheckpointEntry {
            job_index,
            completed,
            ..entry.clone()
        };
        let short_of_reports = CheckpointEntry {
            completed: Vec::new(),
            ..entry
        };
        for misfit in [past_the_grid, short_of_reports] {
            let (journaled, resume) = misfit.recover().expect("the campaign is rebuilt");
            assert_eq!(journaled.fingerprint, misfit.fingerprint);
            assert!(resume.is_none(), "job {}", misfit.job_index);
        }
    }

    #[test]
    fn recover_resumes_a_corrupt_state_at_its_job_boundary() {
        let mut entry = real_checkpoint();
        let state = entry.state.as_mut().expect("mid-job state");
        let mid = state.len() / 2;
        state[mid] ^= 1;
        let (_, resume) = entry.recover().expect("the campaign is rebuilt");
        let resume = resume.expect("a resume point");
        assert_eq!((resume.job_index, &resume.completed), (1, &entry.completed));
        assert!(
            resume.checkpoint.is_none(),
            "corrupt state is never resumed"
        );
    }

    /// A campaign journaled twice (the daemon re-simulates a campaign
    /// whose cached result was evicted) recovers once, with the later
    /// artifacts, at the later record's place in append order.
    #[test]
    fn recovery_keeps_the_latest_completion_of_each_campaign() {
        let path = scratch("twice.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(7, "twice", &artifacts("first")).unwrap();
            j.append(9, "once", &artifacts("once")).unwrap();
            j.append(7, "twice", &artifacts("second")).unwrap();
        }
        let (j, recovered) = Journal::open(&path).unwrap();
        assert_eq!(j.records(), 3, "recovery keeps every record on disk");
        let got: Vec<u64> = recovered.completed.iter().map(|e| e.fingerprint).collect();
        assert_eq!(got, [9, 7]);
        assert_eq!(*recovered.completed[1].artifacts, artifacts("second"));
        let _ = std::fs::remove_file(&path);
    }

    /// Cutting a real-size checkpoint record at any byte loses that
    /// record only: the records before it are recovered intact, the
    /// cut tail is removed, and the journal takes appends again.
    #[test]
    fn every_truncation_of_a_real_checkpoint_keeps_the_records_before_it() {
        let entry = real_checkpoint();
        let state = entry.state.as_ref().map_or(0, Vec::len);
        assert!(state >= 400 * 1024, "a real snapshot, not {state} bytes");
        let prior = CheckpointEntry {
            job_index: 0,
            completed: Vec::new(),
            state: None,
            ..entry.clone()
        };

        let path = scratch("real-ckpt.journal");
        let boundary = {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(1, "done", &artifacts("done")).unwrap();
            j.append_checkpoint(&prior).unwrap();
            let boundary = std::fs::metadata(&path).unwrap().len() as usize;
            j.append_checkpoint(&entry).unwrap();
            boundary
        };
        let bytes = std::fs::read(&path).unwrap();
        let (whole, records, end) = recover(&bytes);
        assert_eq!((records, end), (3, bytes.len()));
        assert_eq!(
            whole.partial,
            std::slice::from_ref(&entry),
            "the whole record supersedes"
        );

        let done = artifacts("done");
        for cut in boundary..bytes.len() {
            let (got, records, end) = recover(&bytes[..cut]);
            assert_eq!((records, end), (2, boundary), "cut at {cut}");
            assert_eq!(got.partial, std::slice::from_ref(&prior), "cut at {cut}");
            assert_eq!(got.completed.len(), 1, "cut at {cut}");
            assert_eq!(*got.completed[0].artifacts, done, "cut at {cut}");
        }

        // Through the file itself, at a few cuts: header, state, last byte.
        for cut in [boundary + 5, boundary + state / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (mut j, got) = Journal::open(&path).unwrap();
            assert_eq!(j.truncated_bytes(), (cut - boundary) as u64);
            assert_eq!(got.partial, std::slice::from_ref(&prior));
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, boundary);
            j.append_checkpoint(&entry).unwrap();
            drop(j);
            let (_, again) = Journal::open(&path).unwrap();
            assert_eq!(again.partial, std::slice::from_ref(&entry));
        }
        let _ = std::fs::remove_file(&path);
    }
}
