//! Sweep checkpoint persistence: newline-delimited JSON, one settled
//! point per line.
//!
//! The figure sweeps (Figs. 7–9) are grids of full-SoC simulations; a
//! killed or extended sweep should not pay for points it already
//! finished. This module persists every settled [`SweepResult`] as one
//! JSON line — label, a fingerprint of the design point, wall-clock, and
//! the full payload — flushed as the point completes, so an interrupted
//! sweep loses at most the points that were in flight.
//!
//! One rule says what a file holds for a grid point: **the last
//! decodable line for a label answers it, if its fingerprint matches**
//! ([`Checkpoint::serve`]). A last line with another fingerprint makes
//! the point *stale*, so edited design points (or a changed payload
//! schema) re-run instead of serving stale data; no line makes it
//! *missing*. Resume and shard merge ask that one question.
//!
//! [`Checkpoint::load_quarantining`] is the one loader. In a single
//! temp-file-and-rename rewrite it moves undecodable lines to a `.bad`
//! sidecar and drops lines a later line for the same label shadows, so
//! damage is reported exactly once and repeated resume cycles cannot
//! grow the file. A resumed sweep runs it once more when it finishes.
//!
//! The same files double as the figure binaries' `--json` output and as
//! the shard inputs for multi-host sweeps: merging N shards is "load N
//! checkpoint files, fold reports through `merge_memory_stats`".
//!
//! File format (version 2), one object per line:
//!
//! ```json
//! {"v":2,"label":"private=4 shared=0","fingerprint":1234,"wall_nanos":512000,"payload":{...},"crc32":987654}
//! ```
//!
//! The trailing `crc32` field is an IEEE CRC-32 of the line's own text
//! with the crc field removed (everything up to the `,"crc32":` suffix,
//! re-closed with `}`), so any byte-level damage — a torn write, a bad
//! sector, a flipped digit that would otherwise still parse — is
//! detected on load. Version-1 lines (no crc) still decode, so files
//! written before the bump resume unchanged.
//!
//! A point skipped by attribution-guided pruning ([`crate::prune`])
//! persists the same shape plus a `"pruned"` object naming its evidence
//! (basis label + fingerprint, the swept axis, the basis's dominant
//! bucket and movable-cycle fraction, and the tolerance); its payload is
//! the basis's payload served as a prediction and its `wall_nanos` is 0.
//! A point that timed out under `--point-timeout` persists as a
//! [`FailedEntry`]: the same envelope with a `"failed"` reason string
//! and no payload — a first-class record that the point was attempted
//! and must not wedge the sweep again on resume.
//!
//! [`SweepResult`]: crate::sweep::SweepResult

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use gemmini_mem::json::{FromJson, Json, JsonError, ToJson};

use crate::prune::PruneEvidence;

/// Current checkpoint line format version. Version 2 added the trailing
/// per-line `crc32` field and the payload-less failed-entry shape;
/// version-1 lines (no crc) still decode.
pub const FORMAT_VERSION: u64 = 2;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// IEEE CRC-32 lookup table (polynomial `0xEDB88320`, reflected),
/// generated at compile time — no dependency, no runtime init.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/zip polynomial) over a byte string — the
/// per-line integrity check behind checkpoint self-healing. Unlike the
/// FNV fingerprint (which hashes a design point's *configuration*), this
/// guards the persisted *bytes*: any single-bit flip in a line changes
/// the CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Closes `body` (a serialized JSON object) with its own CRC appended as
/// the trailing `crc32` field — the inverse of [`strip_crc`].
fn seal_with_crc(body: String) -> String {
    let crc = crc32(body.as_bytes());
    let mut line = body;
    line.pop(); // the closing '}'
    line.push_str(&format!(",\"crc32\":{crc}}}"));
    line
}

/// Recovers the CRC-less body of a sealed line and the recorded CRC.
/// Returns `None` when the line does not end in a `crc32` field.
fn strip_crc(line: &str) -> Option<(String, u32)> {
    const MARKER: &str = ",\"crc32\":";
    let pos = line.rfind(MARKER)?;
    let tail = &line[pos + MARKER.len()..];
    let digits = tail.strip_suffix('}')?;
    let recorded = digits.trim().parse::<u32>().ok()?;
    let mut body = line[..pos].to_string();
    body.push('}');
    Some((body, recorded))
}

/// FNV-1a over a byte string: a small, stable, dependency-free hash for
/// design-point fingerprints (not cryptographic; collision odds over a
/// sweep grid of thousands of points are negligible).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Incremental FNV-1a state fed directly by the formatter, so hashing a
/// `Debug` rendering never materializes it (a full ResNet50 design point
/// renders to megabytes of text).
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// Fingerprints any `Debug`-renderable value. The figure sweeps hash the
/// full `(SocConfig, networks, RunOptions)` debug rendering, so any edit
/// to a design point — a cache size, a layer shape, the seed — changes
/// the fingerprint and forces a re-run on resume.
///
/// The rendering is streamed into the hash state chunk by chunk; the
/// result is identical to `fnv1a(format!("{value:?}").as_bytes())`, so
/// fingerprints in existing checkpoint files stay valid.
pub fn debug_fingerprint<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    let mut hasher = FnvWriter(FNV_OFFSET_BASIS);
    write!(hasher, "{value:?}").expect("FnvWriter::write_str never fails");
    hasher.0
}

/// One persisted sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry<T> {
    /// The design point's label (the lookup key on resume).
    pub label: String,
    /// Fingerprint of the point's full configuration.
    pub fingerprint: u64,
    /// Wall-clock the point took when it actually ran.
    pub wall: Duration,
    /// The point's result payload (a `SocReport` for the figure sweeps).
    /// For a pruned point this is the basis point's payload served as a
    /// prediction.
    pub payload: T,
    /// Prune evidence when the point was skipped rather than simulated;
    /// `None` (and an absent JSON field) for every point that ran.
    pub pruned: Option<PruneEvidence>,
}

/// A point that was *attempted* and failed in a way that must not be
/// silently retried forever — today only `--point-timeout` expirations,
/// persisted with reason `"timeout"`. A failed entry is first-class: it
/// satisfies resume (the point is served as a recorded failure instead
/// of wedging the sweep again) and shard-merge coverage (the grid is
/// complete, just not fully successful). Deleting the line — or running
/// without `--resume` — re-runs the point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedEntry {
    /// The design point's label.
    pub label: String,
    /// Fingerprint of the point's full configuration.
    pub fingerprint: u64,
    /// Wall-clock spent before the failure was recorded.
    pub wall: Duration,
    /// Why the point failed (`"timeout"`).
    pub reason: String,
}

/// One decoded checkpoint line: a completed (or pruned-predicted) point,
/// or a recorded failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Line<T> {
    /// A point with a persisted payload.
    Completed(CheckpointEntry<T>),
    /// A recorded failure (no payload).
    Failed(FailedEntry),
}

impl<T> Line<T> {
    /// The entry's label, whichever kind it is.
    pub fn label(&self) -> &str {
        match self {
            Self::Completed(e) => &e.label,
            Self::Failed(e) => &e.label,
        }
    }

    /// The entry's fingerprint, whichever kind it is.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Self::Completed(e) => e.fingerprint,
            Self::Failed(e) => e.fingerprint,
        }
    }
}

/// The one line encoder: the version-2 envelope (`v`, `label`,
/// `fingerprint`, `wall_nanos`), then a completed point's `payload` and
/// any `pruned` evidence (`Ok`) or a recorded failure's `failed` reason
/// (`Err`), sealed with the trailing `crc32`. No trailing newline.
fn encode(
    label: &str,
    fingerprint: u64,
    wall: Duration,
    outcome: Result<(&dyn ToJson, Option<&PruneEvidence>), &str>,
) -> String {
    let mut fields = vec![
        ("v", Json::from(FORMAT_VERSION)),
        ("label", Json::from(label)),
        ("fingerprint", Json::from(fingerprint)),
        ("wall_nanos", Json::from(wall.as_nanos() as u64)),
    ];
    match outcome {
        Ok((payload, pruned)) => {
            fields.push(("payload", payload.to_json()));
            if let Some(evidence) = pruned {
                fields.push(("pruned", evidence.to_json()));
            }
        }
        Err(reason) => fields.push(("failed", Json::from(reason))),
    }
    seal_with_crc(Json::obj(fields).encode())
}

/// Decodes one checkpoint line of either kind, verifying the CRC on
/// version-2 lines (version-1 lines have none and are accepted as-is).
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON, an unknown format version,
/// a CRC mismatch (byte-level damage), or a payload that no longer
/// matches `T`'s schema.
pub fn decode_line<T: FromJson>(line: &str) -> Result<Line<T>, JsonError> {
    let line = line.trim();
    let value = Json::parse(line)?;
    let version = value.field("v")?.as_u64()?;
    match version {
        1 => {}
        2 => {
            let recorded_field = value.field("crc32")?.as_u64()?;
            let (body, recorded) = strip_crc(line)
                .ok_or_else(|| JsonError::new("version-2 line does not end in a crc32 field"))?;
            let computed = crc32(body.as_bytes());
            if u64::from(recorded) != recorded_field || recorded != computed {
                return Err(JsonError::new(format!(
                    "crc mismatch: line records {recorded}, bytes hash to {computed}"
                )));
            }
        }
        _ => {
            return Err(JsonError::new(format!(
                "unsupported checkpoint version {version} (expected 1..={FORMAT_VERSION})"
            )));
        }
    }
    let label = value.field("label")?.as_str()?.to_string();
    let fingerprint = value.field("fingerprint")?.as_u64()?;
    let wall = Duration::from_nanos(value.field("wall_nanos")?.as_u64()?);
    if let Some(reason) = value.get("failed") {
        return Ok(Line::Failed(FailedEntry {
            label,
            fingerprint,
            wall,
            reason: reason.as_str()?.to_string(),
        }));
    }
    Ok(Line::Completed(CheckpointEntry {
        label,
        fingerprint,
        wall,
        payload: T::from_json(value.field("payload")?)?,
        pruned: value
            .get("pruned")
            .map(PruneEvidence::from_json)
            .transpose()?,
    }))
}

/// What a checkpoint holds for one grid point (see [`Checkpoint::serve`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Serve<T> {
    /// The label's last line, whose fingerprint matches: it answers the
    /// point.
    Line(Line<T>),
    /// The label's last line carries another fingerprint: the point must
    /// run again.
    Stale,
    /// No line names the label.
    Missing,
}

/// An in-memory view of a checkpoint file: the last decodable line of
/// every label, in file order.
#[derive(Debug, Clone)]
pub struct Checkpoint<T> {
    /// Decoded lines in file order; `None` where a later line for the
    /// same label shadows the line, or where [`serve`](Self::serve)
    /// handed it out.
    lines: Vec<Option<Line<T>>>,
    /// Each label's last line: its index in `lines`.
    last: HashMap<String, usize>,
}

impl<T> Default for Checkpoint<T> {
    fn default() -> Self {
        Self {
            lines: Vec::new(),
            last: HashMap::new(),
        }
    }
}

/// What [`Checkpoint::load_quarantining`] removed from a damaged file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    /// Number of undecodable lines moved to the sidecar.
    pub lines: usize,
    /// The `.bad` sidecar the damaged lines were appended to; `None`
    /// when the file was clean.
    pub sidecar: Option<PathBuf>,
}

impl<T: FromJson> Checkpoint<T> {
    /// Loads a checkpoint file — the one loader. A missing file is an
    /// empty checkpoint. Every undecodable line (a torn write, damage
    /// the CRC catches, a changed payload schema) is appended to a
    /// `<file>.bad` sidecar, and every line a later line for the same
    /// label shadows is dropped: the file is rewritten without both
    /// through a temp file and an atomic rename, so damage is reported
    /// exactly once across resume cycles and the file converges to one
    /// valid line per label. A file with neither is left untouched.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from reading the file, writing
    /// the sidecar, or rewriting the checkpoint.
    pub fn load_quarantining(path: &Path) -> io::Result<(Self, Quarantine)> {
        let text = match read_lossy(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((Self::default(), Quarantine::default()))
            }
            Err(e) => return Err(e),
        };
        let mut checkpoint = Self::default();
        // The text of every decoded line, parallel to `checkpoint.lines`.
        let mut raw: Vec<&str> = Vec::new();
        let mut bad: Vec<&str> = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match decode_line(line) {
                Ok(decoded) => {
                    checkpoint.push(decoded);
                    raw.push(line);
                }
                Err(_) => bad.push(line),
            }
        }
        let shadowed = checkpoint.lines.len() - checkpoint.last.len();
        if bad.is_empty() && shadowed == 0 {
            return Ok((checkpoint, Quarantine::default()));
        }

        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("checkpoint.jsonl");
        let mut quarantine = Quarantine::default();
        if !bad.is_empty() {
            let sidecar = path.with_file_name(format!("{file_name}.bad"));
            let mut out = BufWriter::new(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&sidecar)?,
            );
            for line in &bad {
                writeln!(out, "{line}")?;
            }
            out.flush()?;
            quarantine = Quarantine {
                lines: bad.len(),
                sidecar: Some(sidecar),
            };
        }
        // The one rewrite: the surviving lines into a temp file in the
        // same directory, renamed over the original, so a crash midway
        // never loses the checkpoint.
        let tmp = path.with_file_name(format!(".{file_name}.rewrite-{}", std::process::id()));
        {
            let mut out = BufWriter::new(File::create(&tmp)?);
            for (line, kept) in raw.iter().zip(&checkpoint.lines) {
                if kept.is_some() {
                    writeln!(out, "{line}")?;
                }
            }
            out.flush()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(sidecar) = &quarantine.sidecar {
            eprintln!(
                "checkpoint: quarantined {} damaged line(s) from {} to {}",
                quarantine.lines,
                path.display(),
                sidecar.display()
            );
        }
        Ok((checkpoint, quarantine))
    }
}

/// Reads a checkpoint file as text, substituting U+FFFD for any invalid
/// UTF-8 byte sequence. Byte-level corruption must surface as
/// undecodable *lines* (quarantinable) rather than an I/O error that
/// aborts the whole load — a CRC-sealed line never contains a
/// replacement character, so intact lines are unaffected.
fn read_lossy(path: &Path) -> io::Result<String> {
    std::fs::read(path).map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

impl<T> Checkpoint<T> {
    /// Appends a line after every held one; it shadows any earlier line
    /// with its label.
    fn push(&mut self, line: Line<T>) {
        let idx = self.lines.len();
        if let Some(shadowed) = self.last.insert(line.label().to_string(), idx) {
            self.lines[shadowed] = None;
        }
        self.lines.push(Some(line));
    }

    /// The one serve rule: the last line for `label` answers the point
    /// when its fingerprint matches, and is handed over without a
    /// clone; a last line with another fingerprint makes the point
    /// [`Serve::Stale`], and no line [`Serve::Missing`]. Each line is
    /// served at most once.
    pub fn serve(&mut self, label: &str, fingerprint: u64) -> Serve<T> {
        match self.last.get(label).and_then(|&idx| self.lines[idx].take()) {
            None => Serve::Missing,
            Some(line) if line.fingerprint() == fingerprint => Serve::Line(line),
            Some(_) => Serve::Stale,
        }
    }

    /// Number of completed entries held (recorded failures excluded).
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Whether the checkpoint holds no completed entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The completed entries held, in file order.
    pub fn entries(&self) -> impl Iterator<Item = &CheckpointEntry<T>> {
        self.lines.iter().flatten().filter_map(|line| match line {
            Line::Completed(entry) => Some(entry),
            Line::Failed(_) => None,
        })
    }

    /// Appends another checkpoint's lines after this one's — the
    /// multi-shard combine: the result behaves as if `other`'s file had
    /// been concatenated onto ours, so on label conflicts the absorbed
    /// lines win (they are later).
    pub fn absorb(&mut self, other: Checkpoint<T>) {
        for line in other.lines.into_iter().flatten() {
            self.push(line);
        }
    }
}

/// An append-only, line-buffered checkpoint writer shared across sweep
/// workers. Every append writes one full line and flushes, so a kill
/// between points loses nothing already completed.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: Mutex<BufWriter<File>>,
}

impl CheckpointWriter {
    /// Creates (truncating) a checkpoint file, making parent directories
    /// as needed — the fresh-sweep mode.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn create(path: &Path) -> io::Result<Self> {
        Self::open(path, false)
    }

    /// Opens a checkpoint file for appending (creating it if missing) —
    /// the resume mode.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        Self::open(path, true)
    }

    fn open(path: &Path, append: bool) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)?;
        Ok(Self {
            file: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Appends one completed entry as a flushed JSON line.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append<T: ToJson>(&self, entry: &CheckpointEntry<T>) -> io::Result<()> {
        self.record(
            &entry.label,
            entry.fingerprint,
            entry.wall,
            Ok((&entry.payload, entry.pruned.as_ref())),
        )
    }

    /// Appends one point as a flushed JSON line: `Ok((payload, prune
    /// evidence))` for a completed point, `Err(reason)` for a recorded
    /// failure. Carries the two checkpoint failpoints:
    /// `checkpoint.flush` (fail the write with an injected I/O error)
    /// and `checkpoint.corrupt` (truncate the encoded line to two thirds
    /// before writing — a torn write the CRC must catch on load).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if a previous writer thread panicked while holding the
    /// file lock (the sweep executor catches per-point panics before
    /// they can reach the writer, so this is unreachable in practice).
    pub fn record(
        &self,
        label: &str,
        fingerprint: u64,
        wall: Duration,
        outcome: Result<(&dyn ToJson, Option<&PruneEvidence>), &str>,
    ) -> io::Result<()> {
        if let Some(e) = crate::fault::fail_io("checkpoint.flush") {
            return Err(e);
        }
        let mut line = encode(label, fingerprint, wall, outcome);
        if crate::fault::fire("checkpoint.corrupt") == Some(crate::fault::FaultAction::Corrupt) {
            line.truncate(line.len() * 2 / 3);
        }
        let mut file = self.file.lock().expect("checkpoint writer lock");
        writeln!(file, "{line}")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, fingerprint: u64, payload: u64) -> CheckpointEntry<u64> {
        CheckpointEntry {
            label: label.to_string(),
            fingerprint,
            wall: Duration::from_micros(payload),
            payload,
            pruned: None,
        }
    }

    /// The line [`CheckpointWriter::append`] writes for `e`.
    fn line_of(e: &CheckpointEntry<u64>) -> String {
        encode(
            &e.label,
            e.fingerprint,
            e.wall,
            Ok((&e.payload, e.pruned.as_ref())),
        )
    }

    fn completed(line: &str) -> CheckpointEntry<u64> {
        match decode_line(line).unwrap() {
            Line::Completed(e) => e,
            Line::Failed(f) => panic!("'{}' decoded as a recorded failure", f.label),
        }
    }

    fn evidence() -> PruneEvidence {
        use gemmini_mem::stats::{CycleBucket, SweepAxis};
        PruneEvidence {
            basis_label: "p".to_string(),
            basis_fingerprint: 7,
            axis: SweepAxis::TlbEntries,
            dominant: CycleBucket::Compute,
            dominance: 0.8,
            movable_fraction: 0.03,
            tolerance: 0.05,
        }
    }

    /// The payload served for `label`, panicking on anything else.
    fn served(ckpt: &mut Checkpoint<u64>, label: &str, fingerprint: u64) -> u64 {
        match ckpt.serve(label, fingerprint) {
            Serve::Line(Line::Completed(e)) => e.payload,
            other => panic!("expected a completed line for '{label}', got {other:?}"),
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gemmini_ckpt_{}_{name}.jsonl", std::process::id()))
    }

    /// The encoder's bytes for each line kind are pinned: existing files
    /// and the digests computed over them depend on them.
    #[test]
    fn line_encoding_is_pinned() {
        let pruned = CheckpointEntry {
            wall: Duration::ZERO,
            pruned: Some(evidence()),
            ..entry("q", 8, 9)
        };
        let cases = [
            (
                line_of(&CheckpointEntry {
                    wall: Duration::from_micros(512),
                    ..entry("private=4 shared=0", 0xDEAD_BEEF, 42)
                }),
                r#"{"v":2,"label":"private=4 shared=0","fingerprint":3735928559,"wall_nanos":512000,"payload":42,"crc32":2173803106}"#,
            ),
            (
                line_of(&pruned),
                r#"{"v":2,"label":"q","fingerprint":8,"wall_nanos":0,"payload":9,"pruned":{"basis_label":"p","basis_fingerprint":7,"axis":"tlb-entries","dominant":"compute","dominance":0.8,"movable_fraction":0.03,"tolerance":0.05},"crc32":2277478094}"#,
            ),
            (
                encode(
                    "slow point",
                    0xABCD,
                    Duration::from_secs(30),
                    Err("timeout"),
                ),
                r#"{"v":2,"label":"slow point","fingerprint":43981,"wall_nanos":30000000000,"failed":"timeout","crc32":3301062067}"#,
            ),
        ];
        for (encoded, pinned) in cases {
            assert_eq!(encoded, pinned);
        }
    }

    #[test]
    fn entry_round_trips() {
        let e = entry("private=4 shared=0", 0xDEAD_BEEF, 42);
        let line = line_of(&e);
        assert!(!line.contains('\n'), "entries must be single lines");
        assert_eq!(completed(&line), e);
    }

    #[test]
    fn pruned_entry_round_trips_and_plain_lines_stay_plain() {
        // A run entry encodes without a "pruned" field, so pre-prune
        // version-1 files and fresh run lines are byte-compatible.
        let plain = entry("p", 7, 9);
        assert!(!line_of(&plain).contains("pruned"));
        let pruned = CheckpointEntry {
            pruned: Some(evidence()),
            ..entry("q", 8, 9)
        };
        let line = line_of(&pruned);
        assert!(line.contains("\"pruned\""));
        assert_eq!(completed(&line), pruned);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let line = r#"{"v":99,"label":"x","fingerprint":1,"wall_nanos":0,"payload":0}"#;
        assert!(decode_line::<u64>(line).is_err());
    }

    #[test]
    fn version_1_lines_without_crc_still_decode() {
        let line = r#"{"v":1,"label":"legacy","fingerprint":7,"wall_nanos":100,"payload":9}"#;
        let e = completed(line);
        assert_eq!(e.label, "legacy");
        assert_eq!(e.payload, 9);
    }

    #[test]
    fn crc_detects_a_flipped_byte() {
        let line = line_of(&entry("x", 1, 42));
        assert!(line.contains("\"crc32\":"), "v2 lines carry a crc field");
        // Flip one payload digit: still syntactically valid JSON, but
        // the recorded CRC no longer matches the bytes.
        let damaged = line.replace("\"payload\":42", "\"payload\":43");
        assert_ne!(line, damaged);
        assert!(Json::parse(&damaged).is_ok(), "damage is JSON-invisible");
        assert!(decode_line::<u64>(&damaged).is_err());
        // The undamaged line still decodes.
        assert!(decode_line::<u64>(&line).is_ok());
    }

    #[test]
    fn failed_entry_round_trips() {
        let f = FailedEntry {
            label: "slow point".to_string(),
            fingerprint: 0xABCD,
            wall: Duration::from_secs(30),
            reason: "timeout".to_string(),
        };
        let line = encode(&f.label, f.fingerprint, f.wall, Err(&f.reason));
        match decode_line::<u64>(&line).unwrap() {
            Line::Failed(back) => assert_eq!(back, f),
            Line::Completed(_) => panic!("failed entry decoded as completed"),
        }
    }

    #[test]
    fn load_collects_failed_entries_separately() {
        let path = temp_path("load_failed");
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("ok", 1, 10)).unwrap();
        writer
            .record("bad", 2, Duration::from_secs(5), Err("timeout"))
            .unwrap();
        drop(writer);
        let (mut ckpt, _) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(ckpt.len(), 1, "len counts completed entries");
        assert_eq!(ckpt.serve("ok", 999), Serve::Stale, "fingerprint gate");
        match ckpt.serve("bad", 2) {
            Serve::Line(Line::Failed(f)) => assert_eq!(f.reason, "timeout"),
            other => panic!("expected the recorded failure, got {other:?}"),
        }
        assert_eq!(ckpt.serve("bad", 2), Serve::Missing, "served exactly once");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quarantine_moves_damaged_lines_to_sidecar_exactly_once() {
        let path = temp_path("quarantine");
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("a", 1, 10)).unwrap();
        writer.append(&entry("b", 2, 20)).unwrap();
        writer.append(&entry("c", 3, 30)).unwrap();
        drop(writer);
        // Damage the middle line: flip a digit under the CRC.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let damaged = lines[1].replace("\"payload\":20", "\"payload\":21");
        std::fs::write(&path, format!("{}\n{damaged}\n{}\n", lines[0], lines[2])).unwrap();

        let (mut ckpt, q) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(ckpt.len(), 2);
        assert_eq!(ckpt.serve("b", 2), Serve::Missing, "damaged point re-runs");
        assert_eq!(q.lines, 1);
        let sidecar = q.sidecar.unwrap();
        let bad = std::fs::read_to_string(&sidecar).unwrap();
        assert_eq!(bad.lines().count(), 1);
        assert_eq!(bad.lines().next().unwrap(), damaged);

        // Second load: the file was rewritten clean, nothing new to
        // quarantine, the sidecar is untouched.
        let (ckpt2, q2) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(ckpt2.len(), 2);
        assert_eq!(q2, Quarantine::default());
        assert_eq!(std::fs::read_to_string(&sidecar).unwrap(), bad);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&sidecar).unwrap();
    }

    #[test]
    fn quarantine_of_missing_or_clean_file_is_a_noop() {
        let (ckpt, q) =
            Checkpoint::<u64>::load_quarantining(&temp_path("quarantine_missing")).unwrap();
        assert!(ckpt.is_empty());
        assert_eq!(q, Quarantine::default());

        let path = temp_path("quarantine_clean");
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("a", 1, 10)).unwrap();
        writer.append(&entry("b", 2, 20)).unwrap();
        drop(writer);
        let before = std::fs::metadata(&path).unwrap().modified().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (ckpt, q) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(ckpt.len(), 2);
        assert_eq!(q, Quarantine::default());
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "clean file untouched");
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            before
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_load_lookup() {
        let path = temp_path("write_load");
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("a", 1, 10)).unwrap();
        writer.append(&entry("b", 2, 20)).unwrap();
        drop(writer);

        let (mut ckpt, _) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(ckpt.len(), 2);
        // Fingerprint mismatch means the point config changed: stale.
        assert_eq!(ckpt.serve("b", 999), Serve::Stale);
        assert_eq!(served(&mut ckpt, "a", 1), 10);
        assert_eq!(ckpt.serve("missing", 1), Serve::Missing);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_line_is_quarantined_not_fatal() {
        let path = temp_path("truncated");
        let full = line_of(&entry("done", 7, 70));
        let partial = &full[..full.len() / 2];
        std::fs::write(&path, format!("{full}\n{partial}")).unwrap();

        let (mut ckpt, q) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert_eq!(q.lines, 1);
        assert_eq!(served(&mut ckpt, "done", 7), 70);
        std::fs::remove_file(q.sidecar.unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn later_entries_shadow_earlier_ones() {
        let path = temp_path("shadow");
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("p", 1, 10)).unwrap();
        writer.append(&entry("p", 2, 20)).unwrap();
        drop(writer);
        // The re-run (new fingerprint) wins; the stale one no longer hits.
        let (mut ckpt, _) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(ckpt.serve("p", 1), Serve::Stale);
        let (mut ckpt, _) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(served(&mut ckpt, "p", 2), 20);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_mode_preserves_existing_entries() {
        let path = temp_path("append");
        CheckpointWriter::create(&path)
            .unwrap()
            .append(&entry("a", 1, 10))
            .unwrap();
        CheckpointWriter::append_to(&path)
            .unwrap()
            .append(&entry("b", 2, 20))
            .unwrap();
        let (ckpt, _) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(ckpt.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(
            debug_fingerprint(&(1u32, 2u32)),
            debug_fingerprint(&(2u32, 1u32))
        );
        assert_eq!(debug_fingerprint(&"x"), debug_fingerprint(&"x"));
    }

    #[test]
    fn streaming_fingerprint_matches_materialized_rendering() {
        // The streaming hasher must produce byte-for-byte the same hash
        // as hashing the fully formatted Debug string, or every existing
        // checkpoint fingerprint would be invalidated.
        let values: Vec<Box<dyn std::fmt::Debug>> = vec![
            Box::new("plain string with \"escapes\" and \n newlines"),
            Box::new((1u8, -2i64, 3.5f64, vec![1u32, 2, 3])),
            Box::new(Some(vec![(String::from("nested"), [0u8; 33])])),
            Box::new(Duration::from_nanos(123_456_789)),
        ];
        for v in &values {
            assert_eq!(
                debug_fingerprint(v.as_ref()),
                fnv1a(format!("{v:?}").as_bytes()),
                "streaming hash diverged for {v:?}"
            );
        }
    }

    #[test]
    fn load_drops_shadowed_lines_and_quarantines_damage() {
        let path = temp_path("shadowed");
        let stale = line_of(&entry("b", 1, 11));
        let writer = CheckpointWriter::create(&path).unwrap();
        writer.append(&entry("a", 1, 10)).unwrap();
        writer.append(&entry("b", 1, 11)).unwrap();
        writer.append(&entry("a", 2, 12)).unwrap(); // re-run shadows a@1
        writer.append(&entry("c", 1, 13)).unwrap();
        drop(writer);
        // Simulate a kill mid-append: a trailing partial line. The one
        // rewrite reclaims the shadowed entry and moves the torn fragment
        // to the sidecar, reported once.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&stale[..stale.len() / 2]);
        std::fs::write(&path, text).unwrap();

        let (mut ckpt, quarantine) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(quarantine.lines, 1, "the fragment is quarantined");
        assert_eq!(ckpt.len(), 3);
        assert_eq!(ckpt.serve("a", 1), Serve::Stale, "a@2 shadows a@1");
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);

        let (mut ckpt, again) = Checkpoint::<u64>::load_quarantining(&path).unwrap();
        assert_eq!(again, Quarantine::default());
        assert_eq!(served(&mut ckpt, "a", 2), 12);
        assert_eq!(served(&mut ckpt, "b", 1), 11);
        assert_eq!(served(&mut ckpt, "c", 1), 13);
        std::fs::remove_file(quarantine.sidecar.expect("sidecar written")).unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
