//! Compact binary clock tree serialization (format v2).
//!
//! The v1 text form ([`crate::io`]) stores every coordinate as a
//! shortest-round-trip decimal — DME merge points routinely print 17
//! significant digits, so a routed node line runs 75–120 bytes. This codec
//! stores the same tree in a length-prefixed, checksummed binary frame at
//! a few bytes per node by exploiting what routed clock trees look like:
//!
//! * rectilinear embeddings share a coordinate with the parent on almost
//!   every edge — such coordinates cost **zero** bytes (a 2-bit tag),
//! * placement coordinates are usually small integers — zigzag varints,
//! * routed edge lengths almost always equal the Manhattan distance to the
//!   parent — omitted and recomputed bit-exactly on read,
//! * sink pin caps come from a tiny library — an 8-slot MRU dictionary
//!   encodes repeats in one byte.
//!
//! Frame layout:
//!
//! ```text
//! magic "SLTB" | version u8 | payload_len u32 LE | payload | fnv1a64(payload) u64 LE
//! ```
//!
//! Payload: node count (varint), source x/y (raw f64 LE), then every
//! non-root node in topological order — compact ids are implicit, parents
//! are backward varint deltas. Round-trips are bit-exact with the v1 text
//! form: `text → tree → binary → tree → text` reproduces the input
//! byte-for-byte.

use crate::{ClockTree, NodeKind};
use std::error::Error;
use std::fmt;

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"SLTB";
/// Current format version.
pub const VERSION: u8 = 2;

const KIND_STEINER: u8 = 0;
const KIND_SINK: u8 = 1;
const KIND_BUFFER: u8 = 2;

/// Coordinate tag: bit-identical to the parent's coordinate, 0 bytes.
const COORD_PARENT: u8 = 0;
/// Coordinate tag: integer-valued f64, zigzag varint.
const COORD_INT: u8 = 1;
/// Coordinate tag: raw 8-byte f64.
const COORD_RAW: u8 = 2;

/// Head-byte bit: an explicit routed edge length follows (otherwise the
/// edge equals the Manhattan distance to the parent).
const FLAG_EDGE: u8 = 1 << 6;

/// Cap-dictionary escape: a raw f64 follows.
const CAP_RAW: u8 = 0xFF;
/// Cap-dictionary capacity (MRU).
const CAP_DICT: usize = 8;

/// Errors from the binary tree reader.
#[derive(Debug)]
pub enum BinaryTreeError {
    /// Malformed frame at a byte offset into the frame.
    Corrupt {
        /// Offset of the defect, bytes from the frame start.
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// The frame declares a version this reader does not speak.
    UnsupportedVersion(u8),
    /// Payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        expected: u64,
        /// Checksum of the payload actually read.
        actual: u64,
    },
}

impl fmt::Display for BinaryTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryTreeError::Corrupt { offset, message } => {
                write!(f, "corrupt binary tree at byte {offset}: {message}")
            }
            BinaryTreeError::UnsupportedVersion(v) => {
                write!(f, "unsupported binary tree version {v}")
            }
            BinaryTreeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "binary tree checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
        }
    }
}

impl Error for BinaryTreeError {}

/// FNV-1a 64 — the same sealing hash the observation journal uses, inlined
/// so the tree crate stays dependency-free.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, (v.wrapping_shl(1) ^ (v >> 63)) as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Whether `v` survives an i64 round trip bit-exactly (rules out NaN,
/// -0.0, fractions, and magnitudes beyond 2⁶³).
fn as_exact_int(v: f64) -> Option<i64> {
    let i = v as i64;
    ((i as f64).to_bits() == v.to_bits()).then_some(i)
}

fn coord_tag(v: f64, parent: f64) -> u8 {
    if v.to_bits() == parent.to_bits() {
        COORD_PARENT
    } else if as_exact_int(v).is_some() {
        COORD_INT
    } else {
        COORD_RAW
    }
}

fn put_coord(out: &mut Vec<u8>, tag: u8, v: f64) {
    match tag {
        COORD_PARENT => {}
        COORD_INT => put_zigzag(out, as_exact_int(v).expect("tagged integer")),
        _ => put_f64(out, v),
    }
}

/// Encodes the tree into one self-contained binary frame.
pub fn encode_tree(tree: &ClockTree) -> Vec<u8> {
    let order = tree.topo_order();
    let mut compact = vec![u32::MAX; tree.arena_len()];
    for (i, id) in order.iter().enumerate() {
        compact[id.index()] = i as u32;
    }

    let mut payload = Vec::with_capacity(16 + order.len() * 12);
    put_varint(&mut payload, order.len() as u64);
    let src = tree.source_pos();
    put_f64(&mut payload, src.x);
    put_f64(&mut payload, src.y);

    let mut caps: Vec<u64> = Vec::with_capacity(CAP_DICT);
    for (me, id) in order.iter().enumerate().skip(1) {
        let n = tree.node(*id);
        let parent_id = n.parent().expect("non-root has parent");
        let parent = compact[parent_id.index()] as usize;
        let ppos = tree.node(parent_id).pos;
        let dist = ppos.dist(n.pos);

        let kind_bits = match n.kind {
            NodeKind::Steiner => KIND_STEINER,
            NodeKind::Sink { .. } => KIND_SINK,
            NodeKind::Buffer { .. } => KIND_BUFFER,
            NodeKind::Source => unreachable!("only the root is a source and it is skipped"),
        };
        let (xt, yt) = (coord_tag(n.pos.x, ppos.x), coord_tag(n.pos.y, ppos.y));
        let explicit_edge = n.edge_len().to_bits() != dist.to_bits();
        let head = kind_bits | (xt << 2) | (yt << 4) | if explicit_edge { FLAG_EDGE } else { 0 };
        payload.push(head);
        put_varint(&mut payload, (me - parent) as u64);
        put_coord(&mut payload, xt, n.pos.x);
        put_coord(&mut payload, yt, n.pos.y);
        if explicit_edge {
            put_f64(&mut payload, n.edge_len());
        }
        match n.kind {
            NodeKind::Sink { cap_ff, sink_index } => {
                let bits = cap_ff.to_bits();
                match caps.iter().position(|&c| c == bits) {
                    Some(i) => {
                        payload.push(i as u8);
                        caps.remove(i);
                    }
                    None => {
                        payload.push(CAP_RAW);
                        put_f64(&mut payload, cap_ff);
                        caps.truncate(CAP_DICT - 1);
                    }
                }
                caps.insert(0, bits);
                put_varint(&mut payload, sink_index as u64);
            }
            NodeKind::Buffer { cell } => put_varint(&mut payload, cell as u64),
            _ => {}
        }
    }

    let mut frame = Vec::with_capacity(MAGIC.len() + 5 + payload.len() + 8);
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    frame
}

/// Cursor over a payload slice with frame-offset error reporting.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Frame offset of `bytes[0]`, so errors report absolute positions.
    base: usize,
}

impl<'a> Cur<'a> {
    fn err(&self, message: impl Into<String>) -> BinaryTreeError {
        BinaryTreeError::Corrupt {
            offset: self.base + self.pos,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinaryTreeError> {
        if self.pos + n > self.bytes.len() {
            return Err(self.err("payload truncated"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, BinaryTreeError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, BinaryTreeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("varint overlong"))
    }

    fn zigzag(&mut self) -> Result<i64, BinaryTreeError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    fn f64(&mut self) -> Result<f64, BinaryTreeError> {
        let b = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            b.try_into().expect("8 bytes"),
        )))
    }

    fn coord(&mut self, tag: u8, parent: f64) -> Result<f64, BinaryTreeError> {
        match tag {
            COORD_PARENT => Ok(parent),
            COORD_INT => Ok(self.zigzag()? as f64),
            COORD_RAW => self.f64(),
            other => Err(self.err(format!("bad coordinate tag {other}"))),
        }
    }
}

/// Decodes one frame, returning the tree and the number of bytes consumed.
///
/// # Errors
///
/// See [`BinaryTreeError`]; trailing bytes after the frame are left for
/// the caller (use [`decode_tree`] to require an exact fit).
pub fn decode_tree_prefix(bytes: &[u8]) -> Result<(ClockTree, usize), BinaryTreeError> {
    let corrupt = |offset: usize, message: &str| BinaryTreeError::Corrupt {
        offset,
        message: message.into(),
    };
    if bytes.len() < MAGIC.len() + 5 {
        return Err(corrupt(bytes.len(), "frame header truncated"));
    }
    if bytes[..4] != MAGIC {
        return Err(corrupt(0, "bad magic (expected \"SLTB\")"));
    }
    if bytes[4] != VERSION {
        return Err(BinaryTreeError::UnsupportedVersion(bytes[4]));
    }
    let payload_len = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes")) as usize;
    let frame_len = 9 + payload_len + 8;
    if bytes.len() < frame_len {
        return Err(corrupt(bytes.len(), "frame body truncated"));
    }
    let payload = &bytes[9..9 + payload_len];
    let expected = u64::from_le_bytes(
        bytes[9 + payload_len..frame_len]
            .try_into()
            .expect("8 bytes"),
    );
    let actual = fnv1a64(payload);
    if actual != expected {
        return Err(BinaryTreeError::ChecksumMismatch { expected, actual });
    }

    let mut cur = Cur {
        bytes: payload,
        pos: 0,
        base: 9,
    };
    let count = cur.varint()? as usize;
    if count == 0 {
        return Err(cur.err("node count must include the root"));
    }
    // Every non-root node costs at least 2 payload bytes, so a sane count
    // can never exceed the payload size — reject before allocating.
    if count > payload_len.max(1) {
        return Err(cur.err(format!("node count {count} exceeds payload size")));
    }
    let src = sllt_geom::Point::new(cur.f64()?, cur.f64()?);
    let mut tree = ClockTree::with_capacity(src, count);
    let mut ids = Vec::with_capacity(count);
    ids.push(tree.root());

    let mut caps: Vec<u64> = Vec::with_capacity(CAP_DICT);
    for me in 1..count {
        let head = cur.u8()?;
        if head & 0x80 != 0 {
            return Err(cur.err("reserved head bit set"));
        }
        let kind = head & 0x03;
        let xt = (head >> 2) & 0x03;
        let yt = (head >> 4) & 0x03;
        let delta = cur.varint()? as usize;
        if delta == 0 || delta > me {
            return Err(cur.err(format!("parent delta {delta} out of range at node {me}")));
        }
        let parent_id = ids[me - delta];
        let ppos = tree.node(parent_id).pos;
        let x = cur.coord(xt, ppos.x)?;
        let y = cur.coord(yt, ppos.y)?;
        let pos = sllt_geom::Point::new(x, y);
        let dist = ppos.dist(pos);
        let edge = if head & FLAG_EDGE != 0 {
            let e = cur.f64()?;
            if e < dist - 1e-6 {
                return Err(cur.err(format!(
                    "edge length {e} cannot cover manhattan distance {dist}"
                )));
            }
            Some(e.max(dist))
        } else {
            None
        };
        let id = match kind {
            KIND_STEINER => tree.add_steiner(parent_id, pos),
            KIND_SINK => {
                // MRU dictionary mirror of the encoder: hits move to the
                // front, misses evict the oldest slot.
                let tag = cur.u8()?;
                let bits = if tag == CAP_RAW {
                    let v = cur.f64()?.to_bits();
                    caps.truncate(CAP_DICT - 1);
                    v
                } else {
                    let i = tag as usize;
                    if i >= caps.len() {
                        return Err(cur.err(format!("cap dictionary index {i} out of range")));
                    }
                    caps.remove(i)
                };
                caps.insert(0, bits);
                let sink_index = cur.varint()? as usize;
                tree.add_sink_indexed(parent_id, pos, f64::from_bits(bits), sink_index)
            }
            KIND_BUFFER => {
                let cell = cur.varint()? as usize;
                tree.add_buffer(parent_id, pos, cell)
            }
            other => return Err(cur.err(format!("bad node kind {other}"))),
        };
        if let Some(e) = edge {
            tree.set_edge_len_raw(id, e);
        }
        ids.push(id);
    }
    if cur.pos != payload_len {
        return Err(cur.err(format!(
            "{} unread bytes inside payload",
            payload_len - cur.pos
        )));
    }

    Ok((tree, frame_len))
}

/// Decodes a tree from exactly one binary frame.
///
/// # Errors
///
/// All of [`decode_tree_prefix`]'s errors, plus trailing garbage after
/// the frame is rejected.
pub fn decode_tree(bytes: &[u8]) -> Result<ClockTree, BinaryTreeError> {
    let (tree, used) = decode_tree_prefix(bytes)?;
    if used != bytes.len() {
        return Err(BinaryTreeError::Corrupt {
            offset: used,
            message: format!("{} trailing bytes after frame", bytes.len() - used),
        });
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_tree, write_tree};
    use sllt_geom::Point;
    use sllt_rng::prelude::*;

    fn sample_tree() -> ClockTree {
        let mut t = ClockTree::new(Point::new(1.0, 2.0));
        let b = t.add_buffer(t.root(), Point::new(5.0, 2.0), 2);
        let s = t.add_steiner(b, Point::new(8.0, 4.0));
        let k = t.add_sink_indexed(s, Point::new(10.0, 7.0), 0.8, 3);
        t.add_detour(k, 2.5);
        t.add_sink_indexed(s, Point::new(8.0, -1.0), 1.2, 0);
        t
    }

    fn random_tree(seed: u64) -> ClockTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = ClockTree::new(Point::new(
            rng.random_range(-10.0..10.0),
            rng.random_range(-10.0..10.0),
        ));
        let mut nodes = vec![t.root()];
        for i in 0..60 {
            let parent = nodes[rng.random_range(0..nodes.len())];
            // A mix of integer, fractional, and parent-aligned coordinates
            // exercises every coordinate tag.
            let ppos = t.node(parent).pos;
            let pos = match rng.random_range(0..4) {
                0 => Point::new(ppos.x, rng.random_range(-50.0..50.0)),
                1 => Point::new(rng.random_range(-50i64..50) as f64, ppos.y),
                2 => Point::new(
                    rng.random_range(-50i64..50) as f64,
                    rng.random_range(-50i64..50) as f64,
                ),
                _ => Point::new(rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0)),
            };
            let id = match rng.random_range(0..3) {
                0 => t.add_steiner(parent, pos),
                1 => t.add_sink_indexed(parent, pos, [0.8, 1.0, 1.4][rng.random_range(0..3)], i),
                _ => t.add_buffer(parent, pos, rng.random_range(0..5)),
            };
            if rng.random_bool(0.2) {
                t.add_detour(id, rng.random_range(0.0..10.0));
            }
            nodes.push(id);
        }
        t
    }

    /// Canonical byte form for bit-exact comparison: the v1 text writer
    /// (topo order, compact ids).
    fn text_of(t: &ClockTree) -> Vec<u8> {
        let mut buf = Vec::new();
        write_tree(t, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let t = sample_tree();
        let frame = encode_tree(&t);
        let back = decode_tree(&frame).unwrap();
        back.validate().unwrap();
        assert_eq!(text_of(&t), text_of(&back));
    }

    #[test]
    fn round_trip_random_trees_bit_exact() {
        for seed in 0..20 {
            let t = random_tree(seed);
            let back = decode_tree(&encode_tree(&t)).unwrap();
            back.validate().unwrap();
            // Byte-identical text form proves per-node bit-exactness
            // (wirelength sums can differ in the last ulp because the
            // decoded arena stores nodes in topological order).
            assert_eq!(text_of(&t), text_of(&back), "seed {seed}");
            assert_eq!(t.len(), back.len());
            assert!((t.wirelength() - back.wirelength()).abs() < 1e-9);
        }
    }

    /// The acceptance wording: text → tree → binary → tree → text is the
    /// identity on the v1 byte form.
    #[test]
    fn v1_text_round_trips_through_binary() {
        for seed in 0..10 {
            let original = text_of(&random_tree(seed));
            let parsed = read_tree(&mut original.as_slice()).unwrap();
            let back = decode_tree(&encode_tree(&parsed)).unwrap();
            assert_eq!(original, text_of(&back), "seed {seed}");
        }
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        // A DME-like tree: fractional merge coordinates, shared-axis
        // edges, default edge lengths — the shape real checkpoints hold.
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = ClockTree::new(Point::ORIGIN);
        let mut frontier = vec![t.root()];
        for i in 0..500 {
            let p = frontier[rng.random_range(0..frontier.len())];
            let ppos = t.node(p).pos;
            let pos = if rng.random_bool(0.5) {
                Point::new(ppos.x, ppos.y + rng.random_range(0.1..9.0) / 3.0)
            } else {
                Point::new(ppos.x + rng.random_range(0.1..9.0) / 3.0, ppos.y)
            };
            let id = if rng.random_bool(0.4) {
                t.add_sink_indexed(p, pos, 1.2, i)
            } else {
                t.add_steiner(p, pos)
            };
            frontier.push(id);
        }
        let text = text_of(&t).len();
        let binary = encode_tree(&t).len();
        assert!(
            (binary as f64) * 5.0 <= text as f64,
            "binary {binary} vs text {text}: expected ≥5× smaller"
        );
    }

    #[test]
    fn corruption_is_detected() {
        let t = sample_tree();
        let frame = encode_tree(&t);

        let mut bad = frame.clone();
        bad[12] ^= 0x40; // payload byte
        assert!(matches!(
            decode_tree(&bad),
            Err(BinaryTreeError::ChecksumMismatch { .. })
        ));

        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_tree(&bad),
            Err(BinaryTreeError::Corrupt { .. })
        ));

        let mut bad = frame.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_tree(&bad),
            Err(BinaryTreeError::UnsupportedVersion(99))
        ));

        for cut in [3, 8, frame.len() / 2, frame.len() - 1] {
            assert!(
                decode_tree(&frame[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }

        let mut trailing = frame.clone();
        trailing.push(0);
        assert!(matches!(
            decode_tree(&trailing),
            Err(BinaryTreeError::Corrupt { .. })
        ));
        // The prefix reader tolerates the same trailing byte.
        let (back, used) = decode_tree_prefix(&trailing).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(back.len(), t.len());
    }

    #[test]
    fn byte_soup_never_panics() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let n = rng.random_range(0..200);
            let mut bytes: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255) as u8).collect();
            let _ = decode_tree(&bytes);
            // Same soup behind a valid header exercises the payload paths.
            let mut framed = MAGIC.to_vec();
            framed.push(VERSION);
            framed.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            framed.append(&mut bytes);
            framed.extend_from_slice(&[0u8; 8]);
            let _ = decode_tree(&framed);
        }
    }

    #[test]
    fn bare_source_round_trips() {
        let t = ClockTree::new(Point::new(-3.25, 7.5));
        let back = decode_tree(&encode_tree(&t)).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.source_pos().x.to_bits(), t.source_pos().x.to_bits());
    }
}
