//! Binary response frames: the compact answer encoding a client opts
//! into per request with `"encoding":"bin"` (today: `batch_query`
//! only — the one response whose JSON rendering dominates bulk
//! traffic).
//!
//! A frame replaces the JSON response *line* for that one request;
//! requests stay JSON lines, errors stay JSON lines, and every other
//! response on the connection is unaffected. A client demultiplexes the
//! two by the first byte of each response: `{` starts a JSON line
//! (terminated by `\n`), `M` starts a frame (self-delimiting via its
//! length-prefixed header — see [`HEADER_LEN`]).
//!
//! # Layout
//!
//! All integers little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "MPSF"
//!      4     1  version (1)
//!      5     1  kind (1 = batch_query ids)
//!      6     1  flags (bit 0: the request was tagged; `req` is valid)
//!      7     1  reserved (0)
//!      8     8  req: the request id (u64; 0 when untagged)
//!     16     4  payload length in bytes (u32)
//!     20     …  payload
//! ```
//!
//! The `kind = 1` payload is a varint count followed by one varint per
//! answer: `0` encodes a `null` (uncovered) answer, `id + 1` encodes
//! placement id `id` — the same LEB128 varints as the `mps-v2` artifact
//! format (see `vendor/binfmt`).

use binfmt::{Decoder, Encoder};
use mps_core::PlacementId;

/// First four bytes of every frame. Distinct from `{` (JSON lines) and
/// from the `mps-v2` artifact magic `MPSB`.
pub const MAGIC: [u8; 4] = *b"MPSF";

/// The frame layout version this build speaks.
pub const VERSION: u8 = 1;

/// Frame kind: a `batch_query` answer (varint-packed optional ids).
pub const KIND_BATCH_IDS: u8 = 1;

/// Flags bit 0: the request carried an `id`; the header's `req` field
/// holds it.
pub const FLAG_TAGGED: u8 = 0b0000_0001;

/// Fixed header size in bytes; the payload follows immediately.
pub const HEADER_LEN: usize = 20;

/// Byte range of the `req` field inside the header, for tag splicing.
pub(crate) const REQ_RANGE: std::ops::Range<usize> = 8..16;

/// Byte offset of the flags field inside the header.
pub(crate) const FLAGS_OFFSET: usize = 6;

/// Encodes a `batch_query` answer frame. `req = None` leaves the frame
/// untagged (flags bit 0 clear, `req` field zero); the server patches
/// the tag in later for pipelined requests, exactly like the JSON
/// `"req"` splice.
#[must_use]
pub fn encode_batch_ids(req: Option<u64>, ids: &[Option<PlacementId>]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(ids.len() + 5);
    let mut enc = Encoder::new(&mut payload);
    enc.varint(ids.len() as u64)
        .and_then(|()| {
            ids.iter().try_for_each(|id| {
                enc.varint(match id {
                    Some(id) => u64::from(id.0) + 1,
                    None => 0,
                })
            })
        })
        .expect("encoding into a Vec cannot fail");
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(KIND_BATCH_IDS);
    frame.push(if req.is_some() { FLAG_TAGGED } else { 0 });
    frame.push(0);
    frame.extend_from_slice(&req.unwrap_or(0).to_le_bytes());
    frame.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("a batch answer payload cannot reach 4 GiB")
            .to_le_bytes(),
    );
    frame.extend_from_slice(&payload);
    frame
}

/// Decodes a `batch_query` answer frame back into `(req, ids)` — the
/// client side of [`encode_batch_ids`], also used by the differential
/// tests.
///
/// # Errors
///
/// Returns a description of the first malformation: short header, wrong
/// magic/version/kind, unknown flag bits, a nonzero reserved byte, a
/// nonzero `req` on an untagged frame, payload length disagreeing with
/// the byte count, or a payload that is not a well-formed varint id
/// sequence in its shortest encoding. Every accepted frame is therefore
/// the exact [`encode_batch_ids`] output for what it decodes to.
pub fn decode_batch_ids(bytes: &[u8]) -> Result<(Option<u64>, Vec<Option<PlacementId>>), String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!(
            "frame header needs {HEADER_LEN} bytes, got {}",
            bytes.len()
        ));
    }
    if bytes[..4] != MAGIC {
        return Err(format!("bad frame magic {:?}", &bytes[..4]));
    }
    if bytes[4] != VERSION {
        return Err(format!(
            "unsupported frame version {} (this build reads {VERSION})",
            bytes[4]
        ));
    }
    if bytes[5] != KIND_BATCH_IDS {
        return Err(format!("unexpected frame kind {}", bytes[5]));
    }
    let flags = bytes[FLAGS_OFFSET];
    if flags & !FLAG_TAGGED != 0 {
        return Err(format!("unknown frame flags {flags:#010b}"));
    }
    if bytes[7] != 0 {
        return Err(format!("nonzero reserved frame byte {}", bytes[7]));
    }
    let raw_req = u64::from_le_bytes(bytes[REQ_RANGE].try_into().expect("8-byte range"));
    let req = if flags & FLAG_TAGGED != 0 {
        Some(raw_req)
    } else if raw_req != 0 {
        return Err(format!("untagged frame carries req {raw_req}"));
    } else {
        None
    };
    let payload_len = u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte range")) as usize;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(format!(
            "frame declares a {payload_len}-byte payload but carries {}",
            payload.len()
        ));
    }
    fn decode_ids(
        mut dec: Decoder<'_>,
        max: usize,
    ) -> Result<Vec<Option<PlacementId>>, binfmt::Error> {
        // Every encoded id takes at least one payload byte, so the
        // payload length itself bounds the count.
        let count = dec.len(max, "batch answer ids")?;
        // The byte length of the shortest encoding of everything read;
        // more payload than that means an overlong varint somewhere.
        let mut shortest = varint_len(count as u64);
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let raw = dec.varint()?;
            shortest += varint_len(raw);
            ids.push(match raw {
                0 => None,
                tag => Some(PlacementId(u32::try_from(tag - 1).map_err(|_| {
                    binfmt::malformed(format!("placement id {} overflows u32", tag - 1))
                })?)),
            });
        }
        dec.finish()?;
        if shortest != max {
            return Err(binfmt::malformed("overlong varint"));
        }
        Ok(ids)
    }
    let ids = decode_ids(Decoder::new(payload), payload_len)
        .map_err(|e| format!("malformed frame payload: {e}"))?;
    Ok((req, ids))
}

/// Bytes in the shortest LEB128 encoding of `v`, the one
/// [`encode_batch_ids`] writes.
fn varint_len(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Patches the request tag into an already-encoded frame (sets the
/// tagged flag and overwrites the `req` field) — the binary analogue of
/// splicing `"req":N` into a rendered JSON line.
pub(crate) fn tag_frame(frame: &mut [u8], req: u64) {
    frame[FLAGS_OFFSET] |= FLAG_TAGGED;
    frame[REQ_RANGE].copy_from_slice(&req.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_tagged_and_untagged() {
        let ids = vec![Some(PlacementId(0)), None, Some(PlacementId(300))];
        let (req, back) = decode_batch_ids(&encode_batch_ids(Some(7), &ids)).unwrap();
        assert_eq!(req, Some(7));
        assert_eq!(back, ids);
        let (req, back) = decode_batch_ids(&encode_batch_ids(None, &ids)).unwrap();
        assert_eq!(req, None);
        assert_eq!(back, ids);
        let (req, back) = decode_batch_ids(&encode_batch_ids(Some(0), &[])).unwrap();
        assert_eq!(req, Some(0), "id 0 is a valid tag, distinct from untagged");
        assert_eq!(back, vec![]);
    }

    #[test]
    fn tag_splice_matches_direct_encoding() {
        let ids = vec![None, Some(PlacementId(9))];
        let mut spliced = encode_batch_ids(None, &ids);
        tag_frame(&mut spliced, u64::MAX);
        assert_eq!(spliced, encode_batch_ids(Some(u64::MAX), &ids));
    }

    #[test]
    fn malformed_frames_are_rejected() {
        let good = encode_batch_ids(Some(3), &[Some(PlacementId(1)), None]);
        assert!(
            decode_batch_ids(&good[..HEADER_LEN - 1]).is_err(),
            "short header"
        );
        assert!(
            decode_batch_ids(&good[..good.len() - 1]).is_err(),
            "truncated payload"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_batch_ids(&trailing).is_err(), "trailing bytes");
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(decode_batch_ids(&magic).is_err(), "wrong magic");
        let mut version = good.clone();
        version[4] = 99;
        assert!(decode_batch_ids(&version)
            .unwrap_err()
            .contains("version 99"));
        let mut kind = good.clone();
        kind[5] = 42;
        assert!(decode_batch_ids(&kind).is_err(), "unknown kind");
        let mut reserved = good.clone();
        reserved[7] = 1;
        assert!(
            decode_batch_ids(&reserved).is_err(),
            "nonzero reserved byte"
        );
        let mut flags = good;
        flags[FLAGS_OFFSET] |= 0b1000_0000;
        assert!(decode_batch_ids(&flags).is_err(), "unknown flag bits");
        let mut untagged_req = encode_batch_ids(None, &[None]);
        untagged_req[REQ_RANGE.start] = 5;
        assert!(
            decode_batch_ids(&untagged_req).is_err(),
            "nonzero req on an untagged frame"
        );
        // Count 2 written as the two-byte varint 0x82 0x00 instead of 0x02.
        let mut overlong = encode_batch_ids(None, &[None, None]);
        overlong.splice(HEADER_LEN..HEADER_LEN + 1, [0x82, 0x00]);
        overlong[16..20].copy_from_slice(&4u32.to_le_bytes());
        assert!(decode_batch_ids(&overlong).is_err(), "overlong varint");
    }

    /// Deterministic mutation fuzzing: encoded frames hit by byte flips,
    /// truncation, extension and header edits must never panic the
    /// decoder, and every frame it accepts must be the exact encoding
    /// of what it decoded to.
    #[test]
    fn mutated_frames_decode_only_to_their_own_encoding() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x4d50_5346);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..20_000 * crate::protocol::corpus::fuzz_scale() {
            let ids: Vec<Option<PlacementId>> = (0..rng.random_range(0..24usize))
                .map(|_| match rng.random_range(0..4u8) {
                    0 => None,
                    1 => Some(PlacementId(rng.random_range(0..128u32))),
                    2 => Some(PlacementId(rng.random_range(0..1u32 << 16))),
                    _ => Some(PlacementId(rng.random())),
                })
                .collect();
            let req = rng.random_bool(0.5).then(|| rng.random::<u64>());
            let mut frame = encode_batch_ids(req, &ids);
            for _ in 0..rng.random_range(1..4u8) {
                match rng.random_range(0..4u8) {
                    0 if !frame.is_empty() => {
                        let i = rng.random_range(0..frame.len());
                        frame[i] ^= 1 << rng.random_range(0..8u8);
                    }
                    1 => frame.truncate(rng.random_range(0..=frame.len())),
                    2 => {
                        for _ in 0..rng.random_range(1..4u8) {
                            frame.push(rng.random_range(0..=u8::MAX));
                        }
                    }
                    _ if frame.len() >= HEADER_LEN => {
                        frame[rng.random_range(FLAGS_OFFSET..HEADER_LEN)] =
                            rng.random_range(0..=u8::MAX);
                    }
                    _ => {}
                }
            }
            // Half the time, restore a consistent payload length so the
            // payload mutations reach the varint decoder.
            if frame.len() >= HEADER_LEN && rng.random_bool(0.5) {
                let len = u32::try_from(frame.len() - HEADER_LEN).unwrap();
                frame[16..20].copy_from_slice(&len.to_le_bytes());
            }
            match decode_batch_ids(&frame) {
                Ok((req, ids)) => {
                    accepted += 1;
                    assert_eq!(
                        encode_batch_ids(req, &ids),
                        frame,
                        "an accepted frame must re-encode to its own bytes"
                    );
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            accepted > 1_000 && rejected > 1_000,
            "the mutations must land on both sides: {accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn frames_never_collide_with_json_lines() {
        let frame = encode_batch_ids(None, &[Some(PlacementId(5))]);
        assert_eq!(frame[0], b'M');
        assert_ne!(frame[0], b'{', "clients demultiplex on the first byte");
    }
}
