//! The `nosq lint` determinism lint: a source scan for constructs that
//! break the workspace's byte-identical-artifacts contract.
//!
//! Every simulator artifact must be reproducible bit-for-bit across
//! machines, thread counts, and re-runs, so three families of std
//! constructs are forbidden in `crates/` outside an explicit allowlist:
//!
//! * `HashMap` / `HashSet` — iteration order is randomized per process,
//!   so any result that iterates one is silently nondeterministic
//!   (deterministic *keyed lookups* are fine, but must be allowlisted
//!   with a justification);
//! * `SystemTime` / `Instant` — wall-clock reads belong only in the
//!   explicitly nondeterministic timing artifacts;
//! * `std::env` — environment reads are hidden inputs; only the
//!   documented knobs (`NOSQ_ARTIFACT_DIR`, `NOSQ_DYN_INSTS`) and CLI
//!   argument parsing are exempt;
//! * `std::sync::atomic` / `std::thread` — concurrency primitives used
//!   directly bypass the `nosq_check::sync` facade, so `nosq check`
//!   cannot model-check them; only the facade module and the checker's
//!   own scheduler may touch the real things.
//!
//! One extra family is scoped to `crates/serve/` alone: raw file-write
//! and fsync constructs (`OpenOptions`, `fs::write`, `sync_data`, …).
//! The service layer's crash-safety argument holds only if every byte
//! it persists flows through the `DurableIo` facade in `durable.rs` —
//! where the deterministic fault injector can tear, fail, or crash it —
//! so a write that bypasses the facade is untested-by-construction and
//! the lint refuses it.
//!
//! The allowlist lives at the repository root (`lint.allow`): one
//! `path pattern` pair per line, `#` comments. An entry permits a
//! pattern in exactly one file; stale entries (nothing left to permit)
//! are reported so the list cannot rot, and the report distinguishes a
//! pattern that disappeared from an entry whose *file* disappeared —
//! after a refactor splits or moves a file, its allowances must follow
//! the code to the new path. The scan strips `//` comments before
//! matching, so prose mentioning a pattern does not trip it.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The forbidden construct names. Built with `concat!` so this file's
/// own source never contains a matching token.
pub fn patterns() -> &'static [&'static str] {
    &[
        concat!("Hash", "Map"),
        concat!("Hash", "Set"),
        concat!("System", "Time"),
        concat!("Inst", "ant"),
        concat!("std::", "env"),
        concat!("std::sync", "::atomic"),
        concat!("std::", "thread"),
        concat!("std::", "net"),
    ]
}

/// Raw file-write / fsync constructs forbidden under `crates/serve/`
/// only: the service layer must route all persistence through the
/// `DurableIo` facade so the fault-injection suite exercises every
/// write path. Built with `concat!` for the same self-exemption reason
/// as [`patterns`].
pub fn serve_durable_patterns() -> &'static [&'static str] {
    &[
        concat!("Open", "Options"),
        concat!("File::", "create"),
        concat!("fs::", "write"),
        concat!("sync_", "data"),
        concat!("sync_", "all"),
        concat!("set_", "len"),
    ]
}

/// The directory prefix the durable-I/O pattern family applies to.
const SERVE_SCOPE: &str = "crates/serve/";

/// One forbidden-construct occurrence outside the allowlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintFinding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The pattern that matched.
    pub pattern: &'static str,
    /// The offending source line, trimmed.
    pub text: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: `{}` is not allowlisted: {}",
            self.file, self.line, self.pattern, self.text
        )
    }
}

/// A parsed `lint.allow` file.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// `(file, pattern)` pairs, in file order.
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Parses allowlist text: one `path pattern` pair per line,
    /// `#`-to-end-of-line comments, blank lines ignored.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(path), Some(pattern), None) => {
                    entries.push((path.replace('\\', "/"), pattern.to_owned()));
                }
                _ => {
                    return Err(format!(
                        "lint.allow:{}: expected `path pattern`, got `{line}`",
                        idx + 1
                    ));
                }
            }
        }
        Ok(Allowlist { entries })
    }

    /// Loads the allowlist from `path`; a missing file is an empty list.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    /// Whether this list carries an entry for `pattern` in `file`.
    pub fn permits(&self, file: &str, pattern: &str) -> bool {
        self.entries.iter().any(|(f, p)| f == file && p == pattern)
    }

    /// Entries that permitted nothing in a finished scan — stale lines
    /// that need editing. `scanned` is the set of repo-relative files
    /// the scan actually visited, so each stale entry can say whether
    /// its file is merely clean now or gone entirely (moved, split, or
    /// deleted in a refactor).
    pub fn stale(&self, used: &[(String, String)], scanned: &[String]) -> Vec<StaleAllow> {
        self.entries
            .iter()
            .filter(|(f, p)| !used.iter().any(|(uf, up)| uf == f && up == p))
            .map(|(f, p)| StaleAllow {
                entry: format!("{f} {p}"),
                file_scanned: scanned.iter().any(|s| s == f),
            })
            .collect()
    }
}

/// A stale `lint.allow` entry plus why it is stale. The two causes call
/// for different fixes, so the report tells them apart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaleAllow {
    /// The `path pattern` entry text.
    pub entry: String,
    /// Whether the scan visited the entry's file at all. `false` means
    /// the file was moved, split, or deleted — the allowance must
    /// follow the code to its new path, not just be dropped.
    pub file_scanned: bool,
}

impl fmt::Display for StaleAllow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.file_scanned {
            write!(
                f,
                "`{}`: pattern no longer occurs; delete the line",
                self.entry
            )
        } else {
            write!(
                f,
                "`{}`: file no longer exists; move the allowance to wherever the code went",
                self.entry
            )
        }
    }
}

/// The outcome of a lint scan.
#[derive(Clone, Debug, Default)]
pub struct LintResult {
    /// Violations (pattern hits outside the allowlist).
    pub findings: Vec<LintFinding>,
    /// Allowlist entries that permitted nothing (stale).
    pub stale_allows: Vec<StaleAllow>,
    /// Rust files scanned.
    pub files_scanned: usize,
}

impl LintResult {
    /// Whether the tree is clean (stale allowlist entries are warnings,
    /// not failures).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scans every `.rs` file under `root/crates` against `allow`.
pub fn lint_tree(root: &Path, allow: &Allowlist) -> Result<LintResult, String> {
    let crates = root.join("crates");
    let mut files = Vec::new();
    collect_rs_files(&crates, &mut files)
        .map_err(|e| format!("walking {}: {e}", crates.display()))?;
    files.sort();

    let mut result = LintResult::default();
    let mut used: Vec<(String, String)> = Vec::new();
    let mut scanned: Vec<String> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        scanned.push(rel.clone());
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        result.files_scanned += 1;
        let mut active: Vec<&'static str> = patterns().to_vec();
        if rel.starts_with(SERVE_SCOPE) {
            active.extend_from_slice(serve_durable_patterns());
        }
        for (line_idx, raw) in text.lines().enumerate() {
            // Strip line comments so prose does not match; `//` inside
            // a string literal conservatively truncates the line, which
            // can only under-match.
            let code = raw.split("//").next().unwrap_or("");
            for &pattern in &active {
                if !code.contains(pattern) {
                    continue;
                }
                if allow.permits(&rel, pattern) {
                    let key = (rel.clone(), pattern.to_owned());
                    if !used.contains(&key) {
                        used.push(key);
                    }
                } else {
                    result.findings.push(LintFinding {
                        file: rel.clone(),
                        line: line_idx + 1,
                        pattern,
                        text: raw.trim().to_owned(),
                    });
                }
            }
        }
    }
    result.stale_allows = allow.stale(&used, &scanned);
    Ok(result)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            // Build output is the only tree worth skipping under
            // `crates/`; everything else (src, benches, bin, tests)
            // is in scope.
            if name != "target" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, rel: &str, text: &str) {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, text).unwrap();
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nosq-lint-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn flags_forbidden_constructs_and_honors_allowlist() {
        let root = scratch("basic");
        let map = concat!("Hash", "Map");
        write(
            &root,
            "crates/x/src/lib.rs",
            &format!("use std::collections::{map};\n// a {map} in prose is fine\n"),
        );
        let clean = lint_tree(&root, &Allowlist::default()).unwrap();
        assert_eq!(clean.findings.len(), 1);
        assert_eq!(clean.findings[0].pattern, map);
        assert_eq!(clean.findings[0].line, 1);
        assert_eq!(clean.findings[0].file, "crates/x/src/lib.rs");

        let allow = Allowlist::parse(&format!("crates/x/src/lib.rs {map} # keyed only\n")).unwrap();
        let allowed = lint_tree(&root, &allow).unwrap();
        assert!(allowed.is_clean());
        assert!(allowed.stale_allows.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_allowlist_entries_are_reported() {
        let root = scratch("stale");
        write(&root, "crates/x/src/lib.rs", "pub fn f() {}\n");
        let pat = concat!("Inst", "ant");
        // One entry whose file exists but is clean, one whose file was
        // refactored away — the report must tell them apart.
        let allow = Allowlist::parse(&format!(
            "crates/x/src/lib.rs {pat}\ncrates/x/src/old_split.rs {pat}\n"
        ))
        .unwrap();
        let result = lint_tree(&root, &allow).unwrap();
        assert!(result.is_clean());
        assert_eq!(result.stale_allows.len(), 2);
        let clean_file = &result.stale_allows[0];
        assert!(clean_file.file_scanned);
        assert!(clean_file.to_string().contains("delete the line"));
        let gone_file = &result.stale_allows[1];
        assert!(!gone_file.file_scanned);
        assert!(gone_file.to_string().contains("no longer exists"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn direct_concurrency_primitives_are_flagged() {
        let root = scratch("conc");
        let atomics = concat!("std::sync", "::atomic");
        let threads = concat!("std::", "thread");
        write(
            &root,
            "crates/x/src/lib.rs",
            &format!("use {atomics}::AtomicUsize;\nfn go() {{ {threads}::yield_now(); }}\n"),
        );
        let result = lint_tree(&root, &Allowlist::default()).unwrap();
        let hit: Vec<&str> = result.findings.iter().map(|f| f.pattern).collect();
        assert_eq!(hit, vec![atomics, threads]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sockets_are_flagged_outside_the_service_layer() {
        let root = scratch("net");
        let net = concat!("std::", "net");
        write(
            &root,
            "crates/x/src/lib.rs",
            &format!("use {net}::TcpStream;\n"),
        );
        let result = lint_tree(&root, &Allowlist::default()).unwrap();
        assert_eq!(result.findings.len(), 1);
        assert_eq!(result.findings[0].pattern, net);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn raw_file_io_is_flagged_only_inside_the_service_layer() {
        let root = scratch("durable");
        let oo = concat!("Open", "Options");
        let sync = concat!("sync_", "data");
        // The same construct: forbidden under crates/serve/, out of
        // scope everywhere else (other crates have their own story —
        // the lab's artifact writer is not part of the serve crash
        // argument).
        write(
            &root,
            "crates/serve/src/bad.rs",
            &format!("use std::fs::{oo};\nfn f(x: &std::fs::File) {{ x.{sync}(); }}\n"),
        );
        write(
            &root,
            "crates/lab/src/fine.rs",
            &format!("use std::fs::{oo};\n"),
        );
        let result = lint_tree(&root, &Allowlist::default()).unwrap();
        let hits: Vec<(&str, &str)> = result
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.pattern))
            .collect();
        assert_eq!(
            hits,
            vec![
                ("crates/serve/src/bad.rs", oo),
                ("crates/serve/src/bad.rs", sync)
            ]
        );

        let allow = Allowlist::parse(&format!(
            "crates/serve/src/bad.rs {oo}\ncrates/serve/src/bad.rs {sync}\n"
        ))
        .unwrap();
        let allowed = lint_tree(&root, &allow).unwrap();
        assert!(allowed.is_clean());
        assert!(allowed.stale_allows.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn serve_allowances_are_live() {
        // The service layer's socket/thread/clock allowances must stay
        // attached to code that actually uses them — if a refactor
        // moves the daemon's I/O, the entries must follow it (the
        // workspace-clean test would then fail on staleness, and this
        // test documents which entries are load-bearing).
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let allow = Allowlist::load(&root.join("lint.allow")).unwrap();
        let net = concat!("std::", "net");
        for (file, pattern) in [
            ("crates/serve/src/server.rs", net),
            ("crates/serve/src/client.rs", net),
            ("crates/serve/src/server.rs", concat!("std::", "thread")),
            (
                "crates/serve/src/signal.rs",
                concat!("std::sync", "::atomic"),
            ),
            // The DurableIo facade is the one sanctioned home of raw
            // file opens and fsyncs in the service layer.
            ("crates/serve/src/durable.rs", concat!("Open", "Options")),
            ("crates/serve/src/durable.rs", concat!("sync_", "data")),
        ] {
            assert!(
                allow.permits(file, pattern),
                "lint.allow lost the `{file} {pattern}` entry"
            );
        }
        let result = lint_tree(root, &allow).unwrap();
        let stale_serve: Vec<_> = result
            .stale_allows
            .iter()
            .filter(|s| s.to_string().contains("crates/serve"))
            .collect();
        assert!(
            stale_serve.is_empty(),
            "serve allowlist entries no longer match any code: {stale_serve:?}"
        );
    }

    #[test]
    fn malformed_allowlist_is_rejected() {
        assert!(Allowlist::parse("just-a-path\n").is_err());
        assert!(Allowlist::parse("a b c\n").is_err());
        assert!(Allowlist::parse("# only a comment\n\n")
            .unwrap()
            .entries
            .is_empty());
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        // CARGO_MANIFEST_DIR = crates/lab; the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let allow = Allowlist::load(&root.join("lint.allow")).unwrap();
        let result = lint_tree(root, &allow).unwrap();
        assert!(
            result.is_clean(),
            "determinism lint violations:\n{}",
            result
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            result.stale_allows.is_empty(),
            "stale lint.allow entries: {:?}",
            result.stale_allows
        );
        assert!(result.files_scanned > 20);
    }
}
