//! Versioned on-disk persistence of the multi-placement structure.
//!
//! The paper's economic argument (Fig. 1) is *generate once, use
//! everywhere*: the expensive nested-annealing generation amortizes only
//! if the resulting [`MultiPlacementStructure`] survives the process that
//! built it. This module writes the structure in one layout, **mps-v3**,
//! with four members: `bounds`, `floorplan`, `entries` (the stored
//! placements with their validity boxes and costs) and `fallback`. The
//! interval rows (Fig. 3) are not stored: each is a pure function of the
//! live entries' boxes, and loading builds them. The layout comes in two
//! encodings, a JSON envelope
//!
//! ```json
//! {"format": "mps-v3", "structure": {"bounds": ..., "floorplan": ..., "entries": ..., "fallback": ...}}
//! ```
//!
//! and a compact length-prefixed binary one: the `MPSB` magic, the
//! version ([`BIN_VERSION`], 3), then the same members with
//! little-endian fixed-width floats and varint-prefixed sections (see
//! the vendored `binfmt` codec). [`MultiPlacementStructure::to_json`] /
//! [`MultiPlacementStructure::save_json`] and
//! [`MultiPlacementStructure::to_bin`] /
//! [`MultiPlacementStructure::save_bin`] write them.
//!
//! The loaders also read the two legacy layouts, which stored every row
//! after the entries: `mps-v1` JSON and binary version 2. Their rows are
//! required, and validated, not trusted: a row index pointing at a dead
//! entry is a decode error, and a row that differs from the row the
//! entries derive is [`InvariantError::Row`]. Re-saving a legacy artifact
//! writes mps-v3.
//!
//! Every load follows a validate-don't-trust discipline: the format tag
//! or version must be one of the accepted ones, every field-level
//! invariant is re-checked during decoding, and the full Eq.-5 invariant
//! battery ([`MultiPlacementStructure::check_invariants`]) re-runs before
//! the structure is handed to the caller. Malformed, wrong-version,
//! wrong-arity or overlap-violating input yields a typed
//! [`PersistError`] — never a panic and never a silently corrupt
//! structure. Both encodings run the same funnel, so they accept exactly
//! the same structures and answer queries identically.
//!
//! JSON loading reads the text once, left to right, with the vendored
//! pull reader: every `[w, h]` pair and interval goes straight into the
//! structure's own vectors, with no intermediate JSON tree. Members may
//! come in any order, the last of a repeated member wins and unknown
//! members are skipped (still validated). Errors keep one precedence
//! whatever the member order:
//!
//! 1. a syntax error anywhere in the text: [`PersistError::Decode`];
//! 2. an envelope that is not an object, lacks a string `format` tag or
//!    a `structure` member: [`PersistError::Envelope`]; a tag that is
//!    neither [`FORMAT`] nor `mps-v1`: [`PersistError::WrongFormat`];
//! 3. a structure field that does not decode, a member the tag's layout
//!    requires that is missing, or a structural frame that does not hold
//!    together: [`PersistError::Decode`];
//! 4. a violated placement invariant: [`PersistError::Invariant`].
//!
//! A field's error waits until the reader has reached the end of the
//! text; only then, when the text is well-formed, does it surface. Only
//! this error path reads part of the text twice: the value that failed
//! is rescanned from its start to find where it ends.
//!
//! [`MultiPlacementStructure::load_auto`] sniffs the magic bytes and
//! dispatches, which is what lets a serving directory mix `.json` and
//! `.mpsb` artifacts, of any accepted version, freely.

use crate::structure::{Layout, Members, Rows};
use crate::{InvariantError, MultiPlacementStructure};
use binfmt::{Decoder, Encode, Encoder};
use serde_json::{Kind, Reader};
use std::borrow::Cow;
use std::fmt;
use std::path::Path;

/// The JSON format tag this build writes.
///
/// Bump only with a migration path: the loaders read this tag and the
/// legacy `mps-v1`, and reject any other with
/// [`PersistError::WrongFormat`].
pub const FORMAT: &str = "mps-v3";

/// The tag of the legacy JSON layout, which stores the rows too.
const LEGACY_FORMAT: &str = "mps-v1";

/// Magic bytes opening every binary artifact.
pub const BIN_MAGIC: [u8; 4] = *b"MPSB";

/// The binary version this build writes: the mps-v3 layout.
pub const BIN_VERSION: u16 = 3;

/// The legacy binary version, which stores the rows too (the format once
/// called mps-v2).
const LEGACY_BIN_VERSION: u16 = 2;

/// Why loading a persisted structure failed.
#[derive(Debug)]
pub enum PersistError {
    /// The input is not syntactically valid JSON, or the JSON does not
    /// decode into a structurally coherent structure.
    Decode(serde_json::Error),
    /// The envelope is valid JSON but not an `{"format": ..., "structure":
    /// ...}` object.
    Envelope(String),
    /// The envelope carries a format tag other than [`FORMAT`] and the
    /// legacy `mps-v1`.
    WrongFormat {
        /// The tag found in the input.
        found: String,
    },
    /// The input claims to be a binary artifact but fails to decode:
    /// truncated, malformed, an unknown version, or a violated
    /// field-level invariant.
    BinDecode(binfmt::Error),
    /// The structure decoded but violates the Eq.-5 invariants (overlap,
    /// row inconsistency, illegal placement, out-of-bounds box).
    Invariant(InvariantError),
    /// Reading or writing the file failed.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Decode(e) => write!(f, "malformed structure JSON: {e}"),
            PersistError::Envelope(e) => write!(f, "invalid persistence envelope: {e}"),
            PersistError::WrongFormat { found } => write!(
                f,
                "unsupported structure format `{found}` \
                 (this build reads `{FORMAT}` and `{LEGACY_FORMAT}`)"
            ),
            PersistError::BinDecode(e) => write!(f, "malformed binary structure: {e}"),
            PersistError::Invariant(e) => {
                write!(f, "loaded structure violates invariants: {e}")
            }
            PersistError::Io(e) => write!(f, "structure file I/O failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Decode(e) => Some(e),
            PersistError::BinDecode(e) => Some(e),
            PersistError::Invariant(e) => Some(e),
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Decode(e)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<InvariantError> for PersistError {
    fn from(e: InvariantError) -> Self {
        PersistError::Invariant(e)
    }
}

impl From<binfmt::Error> for PersistError {
    fn from(e: binfmt::Error) -> Self {
        PersistError::BinDecode(e)
    }
}

/// Monotone discriminator so concurrent writers in one process never
/// collide on a temp name.
static TEMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: the payload goes to a unique
/// sibling temp file first, is fsynced, then `rename(2)` moves it into
/// place. On Linux the rename is atomic, so a reader (or a
/// serving-directory scan) observes either the complete old file or the
/// complete new file — never a partial write, even if the writer is
/// killed mid-save. The fsync before the rename extends that to power
/// loss: the rename can only become durable after the data it points at
/// is, so a crash never leaves an empty or torn file under the
/// destination name. The temp name ends in `.tmp`, an extension every
/// artifact scanner ignores.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("artifact path has no file name"))?;
    let discriminator = TEMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp_name = format!(
        ".{}.{}.{discriminator}.tmp",
        file_name.to_string_lossy(),
        std::process::id()
    );
    let tmp = match parent {
        Some(dir) => dir.join(tmp_name),
        None => std::path::PathBuf::from(tmp_name),
    };
    let write_and_sync = || -> std::io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // The data must be durable before the rename can be: a renamed
        // entry pointing at unsynced data lets a power loss keep the
        // rename and drop the payload — a torn file under the
        // destination name.
        file.sync_all()
    };
    if let Err(e) = write_and_sync() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        // Don't leave the orphan behind when the rename itself fails
        // (cross-device target, permission change, …).
        let _ = std::fs::remove_file(&tmp);
    })?;
    // Syncing the directory makes the rename itself durable. Kept
    // best-effort deliberately: the artifact is already complete and
    // consistent under the destination name, and failing the save here
    // would tell callers "disk unchanged" when it did change.
    if let Ok(dir) = std::fs::File::open(parent.unwrap_or_else(|| Path::new("."))) {
        let _ = dir.sync_all();
    }
    Ok(())
}

impl MultiPlacementStructure {
    fn envelope(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        map.insert("format", serde_json::Value::String(FORMAT.to_owned()));
        map.insert("structure", serde_json::to_value(self));
        serde_json::Value::Object(map)
    }

    /// Serializes the structure into the compact `mps-v3` JSON envelope.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.envelope()).expect("value trees always serialize")
    }

    /// Serializes the structure into the human-readable (2-space-indented)
    /// `mps-v3` JSON envelope. This is the committed golden-fixture
    /// format: deterministic field order, shortest-round-trip floats.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.envelope()).expect("value trees always serialize")
    }

    /// Loads a structure from an `mps-v3` or legacy `mps-v1` JSON
    /// envelope, re-validating everything: syntax, format tag, field
    /// invariants, and the full Eq.-5 battery of
    /// [`MultiPlacementStructure::check_invariants`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed JSON, a missing or foreign
    /// format tag, structurally incoherent fields (wrong arity, missing
    /// members, dead row references, inverted intervals, …) or violated
    /// placement invariants (overlapping validity boxes, stored rows the
    /// entries do not derive, illegal placements).
    pub fn from_json(json: &str) -> Result<Self, PersistError> {
        let (mps, rows) = Self::read_envelope(json)?;
        mps.check_loaded(rows.as_ref())?;
        Ok(mps)
    }

    /// The envelope and its structure, read in one left-to-right pass.
    /// The envelope's members may come in any order and the last of a
    /// repeated member wins; every data error waits until the reader
    /// has reached the end of the text, so a syntax error anywhere is
    /// reported first, then the envelope's own errors, then the
    /// structure's. A legacy envelope's rows come with the structure.
    fn read_envelope(json: &str) -> Result<(Self, Option<Rows>), PersistError> {
        let mut r = Reader::new(json);
        let found = r.peek()?;
        if found != Kind::Object {
            r.skip_value()?;
            r.finish()?;
            return Err(PersistError::Envelope(format!(
                "expected a JSON object, found {}",
                found.as_str()
            )));
        }
        // `Some(None)`: a `format` member that is not a string.
        let mut format: Option<Option<Cow<'_, str>>> = None;
        let mut structure: Option<Members> = None;
        serde::read_object(&mut r, |key, r| {
            match key {
                "format" if r.peek()? == Kind::String => format = Some(Some(r.string()?)),
                "format" => {
                    format = Some(None);
                    r.skip_value()?;
                }
                "structure" => structure = Some(Members::read(r)?),
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        r.finish()?;
        let format = match format {
            None => return Err(PersistError::Envelope("missing `format` tag".to_owned())),
            Some(None) => {
                return Err(PersistError::Envelope(
                    "`format` tag must be a string".to_owned(),
                ))
            }
            Some(Some(format)) => format,
        };
        let layout = match &*format {
            FORMAT => Layout::Entries,
            LEGACY_FORMAT => Layout::WithRows,
            _ => {
                return Err(PersistError::WrongFormat {
                    found: format.into_owned(),
                })
            }
        };
        let structure = structure
            .ok_or_else(|| PersistError::Envelope("missing `structure` member".to_owned()))?;
        Ok(structure.into_structure(layout)?)
    }

    /// Writes the compact envelope to a file **atomically** (temp file +
    /// fsync + rename): a crash mid-save — now a live possibility with
    /// refinement passes persisting into serving directories — can
    /// never leave a truncated artifact under the destination name.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the file cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        write_atomic(path.as_ref(), self.to_json().as_bytes())?;
        Ok(())
    }

    /// Reads and validates a structure from a file written by
    /// [`MultiPlacementStructure::save_json`] (or any valid `mps-v3` or
    /// `mps-v1` envelope).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on I/O failure or any of the
    /// [`MultiPlacementStructure::from_json`] rejection cases.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json)
    }

    /// Serializes the structure into the binary `mps-v3` artifact: the
    /// [`BIN_MAGIC`] + [`BIN_VERSION`] header followed by the
    /// length-prefixed binary encoding of the same members the JSON
    /// envelope carries.
    #[must_use]
    pub fn to_bin(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf);
        enc.magic(BIN_MAGIC, BIN_VERSION)
            .and_then(|()| self.encode(&mut enc))
            .expect("encoding into a Vec cannot fail");
        buf
    }

    /// Loads a structure from a binary artifact of version 3 or of the
    /// legacy version 2, re-validating everything exactly like
    /// [`MultiPlacementStructure::from_json`]: magic and version, every
    /// field-level invariant, the shared structural constructor, and the
    /// full Eq.-5 battery of [`MultiPlacementStructure::check_invariants`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::BinDecode`] on a wrong magic, version
    /// skew, truncation, trailing bytes or any malformed/invariant-
    /// violating field, and [`PersistError::Invariant`] when the decoded
    /// structure fails the placement-level battery.
    pub fn from_bin(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut dec = Decoder::new(bytes);
        let layout = match dec.magic(BIN_MAGIC)? {
            BIN_VERSION => Layout::Entries,
            LEGACY_BIN_VERSION => Layout::WithRows,
            version => {
                return Err(PersistError::BinDecode(binfmt::malformed(format!(
                    "unsupported mps binary version {version} \
                     (this build reads {BIN_VERSION} and {LEGACY_BIN_VERSION})"
                ))))
            }
        };
        let (mps, rows) = MultiPlacementStructure::decode_layout(&mut dec, layout)?;
        dec.finish()?;
        mps.check_loaded(rows.as_ref())?;
        Ok(mps)
    }

    /// Writes the binary `mps-v3` artifact to a file (conventionally
    /// `<name>.mpsb`) **atomically** (temp file + fsync + rename), with
    /// the same crash-safety guarantee as
    /// [`MultiPlacementStructure::save_json`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the file cannot be written.
    pub fn save_bin(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        write_atomic(path.as_ref(), &self.to_bin())?;
        Ok(())
    }

    /// Reads and validates a structure from a file written by
    /// [`MultiPlacementStructure::save_bin`] (or any valid binary
    /// artifact of an accepted version).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on I/O failure or any of the
    /// [`MultiPlacementStructure::from_bin`] rejection cases.
    pub fn load_bin(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path)?;
        Self::from_bin(&bytes)
    }

    /// Reads a structure from a file in either format, deciding by
    /// content: a file opening with [`BIN_MAGIC`] is decoded as a binary
    /// artifact, anything else as a JSON envelope. Both paths run the
    /// full validation funnel, so a mixed artifact directory needs no
    /// per-file configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on I/O failure or any rejection case of
    /// the dispatched loader.
    pub fn load_auto(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path)?;
        if bytes.starts_with(&BIN_MAGIC) {
            Self::from_bin(&bytes)
        } else {
            let json = std::str::from_utf8(&bytes).map_err(|e| {
                PersistError::Envelope(format!("structure file is neither binary nor UTF-8: {e}"))
            })?;
            Self::from_json(json)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoredPlacement;
    use mps_geom::{dims, BlockRanges, DimsBox, Interval, Point, Rect};
    use mps_netlist::{Block, Circuit};
    use mps_placer::Placement;

    fn sample_structure() -> MultiPlacementStructure {
        let c = Circuit::builder("persist-test")
            .block(Block::new("A", 10, 100, 10, 100))
            .block(Block::new("B", 10, 100, 10, 100))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap();
        let mut mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 400, 400));
        mps.insert_unchecked(StoredPlacement {
            placement: Placement::new(vec![Point::new(0, 0), Point::new(60, 0)]),
            dims_box: DimsBox::new(vec![
                BlockRanges::new(Interval::new(10, 50), Interval::new(10, 50)),
                BlockRanges::new(Interval::new(10, 50), Interval::new(10, 50)),
            ]),
            avg_cost: 10.0,
            best_cost: 8.0,
            best_dims: mps_geom::dims![(10, 10), (10, 10)],
        });
        mps
    }

    #[test]
    fn envelope_roundtrips() {
        let mps = sample_structure();
        let json = mps.to_json();
        assert!(json.starts_with("{\"format\":\"mps-v3\""));
        let back = MultiPlacementStructure::from_json(&json).unwrap();
        assert_eq!(back.placement_count(), 1);
        assert_eq!(back.floorplan(), mps.floorplan());
        assert_eq!(
            back.query(&dims![(20, 20), (20, 20)]),
            mps.query(&dims![(20, 20), (20, 20)])
        );
    }

    #[test]
    fn pretty_and_compact_agree() {
        let mps = sample_structure();
        let a = MultiPlacementStructure::from_json(&mps.to_json()).unwrap();
        let b = MultiPlacementStructure::from_json(&mps.to_json_pretty()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn wrong_format_is_rejected() {
        let mps = sample_structure();
        let json = mps.to_json().replace("mps-v3", "mps-v0");
        match MultiPlacementStructure::from_json(&json) {
            Err(PersistError::WrongFormat { found }) => assert_eq!(found, "mps-v0"),
            other => panic!("expected WrongFormat, got {other:?}"),
        }
    }

    #[test]
    fn missing_envelope_members_are_rejected() {
        assert!(matches!(
            MultiPlacementStructure::from_json("{}"),
            Err(PersistError::Envelope(_))
        ));
        assert!(matches!(
            MultiPlacementStructure::from_json("[1,2]"),
            Err(PersistError::Envelope(_))
        ));
        assert!(matches!(
            MultiPlacementStructure::from_json("{\"format\":\"mps-v3\"}"),
            Err(PersistError::Envelope(_))
        ));
        assert!(matches!(
            MultiPlacementStructure::from_json("{\"format\":1,\"structure\":{}}"),
            Err(PersistError::Envelope(_))
        ));
    }

    #[test]
    fn truncated_json_is_rejected() {
        let json = sample_structure().to_json();
        for cut in [1, json.len() / 4, json.len() / 2, json.len() - 1] {
            assert!(
                matches!(
                    MultiPlacementStructure::from_json(&json[..cut]),
                    Err(PersistError::Decode(_))
                ),
                "truncation at {cut} must fail cleanly"
            );
        }
    }

    #[test]
    fn overlapping_boxes_are_rejected_on_load() {
        let mut mps = sample_structure();
        // A second entry whose validity box overlaps the first: violates
        // Eq. 5. insert_unchecked accepts it, from_json must not.
        mps.insert_unchecked(StoredPlacement {
            placement: Placement::new(vec![Point::new(0, 0), Point::new(0, 120)]),
            dims_box: DimsBox::new(vec![
                BlockRanges::new(Interval::new(40, 80), Interval::new(10, 50)),
                BlockRanges::new(Interval::new(10, 50), Interval::new(10, 50)),
            ]),
            avg_cost: 20.0,
            best_cost: 15.0,
            best_dims: mps_geom::dims![(40, 10), (10, 10)],
        });
        assert!(matches!(
            MultiPlacementStructure::from_json(&mps.to_json()),
            Err(PersistError::Invariant(_))
        ));
    }

    #[test]
    fn binary_roundtrips_with_identical_reserialization() {
        let mps = sample_structure();
        let bin = mps.to_bin();
        assert_eq!(&bin[..4], &BIN_MAGIC);
        let back = MultiPlacementStructure::from_bin(&bin).unwrap();
        // Byte-identical JSON re-serialization: the binary round-trip
        // loses nothing the JSON envelope carries.
        assert_eq!(back.to_json(), mps.to_json());
        // And byte-identical binary re-serialization.
        assert_eq!(back.to_bin(), bin);
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let mps = sample_structure();
        assert!(mps.to_bin().len() * 3 <= mps.to_json().len());
    }

    #[test]
    fn truncated_binary_is_rejected() {
        let bin = sample_structure().to_bin();
        for cut in [0, 3, 6, bin.len() / 4, bin.len() / 2, bin.len() - 1] {
            assert!(
                matches!(
                    MultiPlacementStructure::from_bin(&bin[..cut]),
                    Err(PersistError::BinDecode(_))
                ),
                "truncation at {cut} must fail cleanly"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bin = sample_structure().to_bin();
        bin.push(0);
        assert!(matches!(
            MultiPlacementStructure::from_bin(&bin),
            Err(PersistError::BinDecode(_))
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bin = sample_structure().to_bin();
        bin[0] = b'X';
        assert!(matches!(
            MultiPlacementStructure::from_bin(&bin),
            Err(PersistError::BinDecode(_))
        ));
        let mut bin = sample_structure().to_bin();
        bin[4] = 99; // little-endian version low byte
        let err = MultiPlacementStructure::from_bin(&bin).unwrap_err();
        assert!(
            err.to_string().contains("version 99"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn overlapping_boxes_are_rejected_on_binary_load() {
        let mut mps = sample_structure();
        mps.insert_unchecked(StoredPlacement {
            placement: Placement::new(vec![Point::new(0, 0), Point::new(0, 120)]),
            dims_box: DimsBox::new(vec![
                BlockRanges::new(Interval::new(40, 80), Interval::new(10, 50)),
                BlockRanges::new(Interval::new(10, 50), Interval::new(10, 50)),
            ]),
            avg_cost: 20.0,
            best_cost: 15.0,
            best_dims: mps_geom::dims![(40, 10), (10, 10)],
        });
        assert!(matches!(
            MultiPlacementStructure::from_bin(&mps.to_bin()),
            Err(PersistError::Invariant(_))
        ));
    }

    #[test]
    fn save_load_bin_and_auto_detect_through_files() {
        let mps = sample_structure();
        let dir = std::env::temp_dir();
        let bin_path = dir.join(format!("mps_persist_unit_test_{}.mpsb", std::process::id()));
        let json_path = dir.join(format!("mps_persist_unit_test_{}.json", std::process::id()));
        mps.save_bin(&bin_path).unwrap();
        mps.save_json(&json_path).unwrap();
        let from_bin = MultiPlacementStructure::load_bin(&bin_path).unwrap();
        // load_auto dispatches on content, not extension.
        let auto_bin = MultiPlacementStructure::load_auto(&bin_path).unwrap();
        let auto_json = MultiPlacementStructure::load_auto(&json_path).unwrap();
        assert_eq!(from_bin.to_json(), mps.to_json());
        assert_eq!(auto_bin.to_json(), mps.to_json());
        assert_eq!(auto_json.to_json(), mps.to_json());
        let _ = std::fs::remove_file(&bin_path);
        let _ = std::fs::remove_file(&json_path);
    }

    #[test]
    fn io_errors_surface() {
        assert!(matches!(
            MultiPlacementStructure::load_json("/nonexistent/path/to/structure.json"),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn saves_never_expose_partial_files_to_concurrent_readers() {
        // The kill-mid-write regression: with plain `fs::write`, a
        // reader racing a writer observes truncated envelopes. With
        // temp-file + rename, every open sees a complete artifact. A
        // writer thread rewrites the same path in a tight loop while a
        // reader loads it continuously; any Decode/BinDecode error is
        // the corruption this test exists to rule out.
        let mps = sample_structure();
        let path = std::env::temp_dir().join(format!(
            "mps_persist_atomic_test_{}.mpsb",
            std::process::id()
        ));
        mps.save_bin(&path).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..200 {
                    if i % 2 == 0 {
                        mps.save_bin(&path).unwrap();
                    } else {
                        mps.save_json(&path).unwrap();
                    }
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            s.spawn(|| {
                let mut loads = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Acquire) || loads == 0 {
                    let back = MultiPlacementStructure::load_auto(&path)
                        .expect("reader observed a partial artifact");
                    assert_eq!(back.to_json(), mps.to_json());
                    loads += 1;
                }
            });
        });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crashed_writer_leftovers_do_not_shadow_the_artifact() {
        // A writer killed between the temp write and the rename leaves
        // `.<name>.<pid>.<n>.tmp` debris. The destination must still
        // load, and a later save must still succeed.
        let mps = sample_structure();
        let dir = std::env::temp_dir().join(format!("mps_persist_crash_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("structure.json");
        mps.save_json(&path).unwrap();
        std::fs::write(dir.join(".structure.json.9999.0.tmp"), b"{\"trunc").unwrap();
        let back = MultiPlacementStructure::load_json(&path).unwrap();
        assert_eq!(back.to_json(), mps.to_json());
        mps.save_json(&path).unwrap();
        // No temp debris from *successful* saves.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                name.ends_with(".tmp") && !name.contains("9999")
            })
            .collect();
        assert!(
            leftovers.is_empty(),
            "saves leaked temp files: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_and_load_through_a_file() {
        let mps = sample_structure();
        // Not the JSON path of `save_load_bin_and_auto_detect_through_files`,
        // which runs beside this test and deletes its file.
        let path = std::env::temp_dir().join(format!(
            "mps_persist_unit_test_{}_roundtrip.json",
            std::process::id()
        ));
        mps.save_json(&path).unwrap();
        let back = MultiPlacementStructure::load_json(&path).unwrap();
        assert_eq!(back.to_json(), mps.to_json());
        let _ = std::fs::remove_file(&path);
    }

    /// The envelope rules of the one-pass reader: members in any order,
    /// the last of a repeated member wins, unknown members are skipped,
    /// and errors keep their precedence (syntax, envelope, field).
    #[test]
    fn envelope_members_read_in_any_order_with_the_last_winning() {
        let mps = sample_structure();
        let structure = serde_json::to_string(&mps).unwrap();
        let load = |json: String| MultiPlacementStructure::from_json(&json);
        let reordered = load(format!(
            r#"{{"extra":[1,{{"x":null}}],"structure":{structure},"format":"mps-v3"}}"#
        ))
        .unwrap();
        assert_eq!(reordered.to_json(), mps.to_json());
        // A bad first `structure` or `format` is replaced by a good one.
        let replaced = load(format!(
            r#"{{"format":7,"structure":{{"bounds":true}},"format":"mps-v3","structure":{structure}}}"#
        ))
        .unwrap();
        assert_eq!(replaced.to_json(), mps.to_json());
        // ... and a good first one by a bad one.
        let err = load(format!(
            r#"{{"format":"mps-v3","structure":{structure},"structure":{{"bounds":true}}}}"#
        ))
        .unwrap_err();
        assert!(matches!(err, PersistError::Decode(_)), "{err}");
        // The envelope outranks a bad field read before it ...
        let err =
            load(r#"{"structure":{"bounds":true},"format":"mps-v0"}"#.to_owned()).unwrap_err();
        assert!(matches!(err, PersistError::WrongFormat { .. }), "{err}");
        let err = load(r#"{"structure":{"bounds":true},"format":[]}"#.to_owned()).unwrap_err();
        assert!(matches!(err, PersistError::Envelope(_)), "{err}");
        // ... and a syntax error anywhere outranks both.
        let err = load(r#"{"structure":{"bounds":true},"format":"mps-v0","x":tru}"#.to_owned())
            .unwrap_err();
        match err {
            PersistError::Decode(e) => {
                assert_eq!(e.to_string(), "expected `true` at byte offset 51");
            }
            other => panic!("expected a syntax error, got {other}"),
        }
        let err = load(r#"[1,{"a":nul}]"#.to_owned()).unwrap_err();
        assert!(matches!(err, PersistError::Decode(_)), "{err}");
        let err = load(r#"[1,{"a":null}]"#.to_owned()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid persistence envelope: expected a JSON object, found array"
        );
    }

    /// Every entry of `dir` whose name ends in `.tmp`.
    fn temp_files(dir: &Path) -> Vec<std::path::PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().ends_with(".tmp"))
            .collect()
    }

    /// `write_atomic` made to fail at each step by the file system
    /// itself: the old artifact keeps its bytes and no temp file stays.
    #[test]
    fn failed_atomic_writes_leave_the_old_artifact_and_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("mps_persist_faults_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old = b"old artifact bytes".as_slice();

        // The temp file cannot be created: its parent is a file.
        let artifact = dir.join("structure.json");
        std::fs::write(&artifact, old).unwrap();
        let err = write_atomic(&artifact.join("nested.json"), b"new").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotADirectory, "{err}");
        assert_eq!(std::fs::read(&artifact).unwrap(), old);
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));

        // The rename fails: the destination is a non-empty directory.
        let occupied = dir.join("occupied.json");
        std::fs::create_dir_all(&occupied).unwrap();
        std::fs::write(occupied.join("inner.json"), old).unwrap();
        assert!(write_atomic(&occupied, b"new").is_err());
        assert_eq!(std::fs::read(occupied.join("inner.json")).unwrap(), old);
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));

        // A successful save over the old artifact leaves exactly the new
        // bytes.
        write_atomic(&artifact, b"new bytes").unwrap();
        assert_eq!(std::fs::read(&artifact).unwrap(), b"new bytes");
        assert!(temp_files(&dir).is_empty(), "{:?}", temp_files(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
