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
//! non-root node — compact ids are implicit, parents are backward varint
//! deltas. [`encode_tree`] lists the nodes in depth-first preorder
//! (children in insertion order); the reader accepts any order that puts
//! parents first. Round-trips are bit-exact with the v1 text form:
//! `text → tree → binary → tree → text` reproduces the input
//! byte-for-byte.
//!
//! [`visit_frame`] walks a frame node by node without building a tree,
//! which is how the hierarchical flow streams routed clusters into its
//! final tree; [`decode_tree_prefix`] is the same walk building a
//! [`ClockTree`]. The byte helpers ([`put_varint`], [`put_zigzag`],
//! [`put_f64`], [`as_exact_int`] and the [`Reader`] cursor) are shared
//! with the level checkpoints that carry these frames.

use crate::{ClockTree, NodeId, NodeKind};
use sllt_geom::Point;
use std::error::Error;
use std::fmt;

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"SLTB";
/// Current format version.
pub const VERSION: u8 = 2;

/// Bytes before the payload: magic, version, payload length.
const HEADER_LEN: usize = MAGIC.len() + 5;
/// Bytes after the payload: the checksum.
const TRAILER_LEN: usize = 8;

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

impl From<ReadError> for BinaryTreeError {
    fn from(e: ReadError) -> Self {
        BinaryTreeError::Corrupt {
            offset: e.offset,
            message: e.message,
        }
    }
}

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

/// Appends `v` as a LEB128 varint: seven bits a byte, low bits first,
/// the high bit set on every byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends `v` zigzag-mapped (0, -1, 1, -2, … → 0, 1, 2, 3, …) as a
/// varint, so small magnitudes of either sign take one byte.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, (v.wrapping_shl(1) ^ (v >> 63)) as u64);
}

/// Appends the raw bits of `v`, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// `Some(i)` when `v` survives an i64 round trip bit-exactly, so a
/// zigzag varint can stand in for its raw bits (rules out NaN, the
/// infinities, -0.0, fractions, and magnitudes beyond 2⁶³).
pub fn as_exact_int(v: f64) -> Option<i64> {
    let i = v as i64;
    ((i as f64).to_bits() == v.to_bits()).then_some(i)
}

/// A defect [`Reader`] found: what was wrong and at which byte.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadError {
    /// Offset of the defect, bytes from the start of the reader's input.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl Error for ReadError {}

/// Bounds-checked cursor over encoded bytes: every read names what it
/// reads, and running out of bytes, an overlong varint, or an oversized
/// count is a [`ReadError`] instead of a panic or a huge allocation.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Offset of `bytes[0]` in the enclosing input, so errors report
    /// absolute positions.
    base: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            base: 0,
        }
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The unread bytes.
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// An error at the current position.
    pub fn error(&self, message: impl Into<String>) -> ReadError {
        ReadError {
            offset: self.base + self.pos,
            message: message.into(),
        }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// When fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ReadError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.truncated(n, what));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// At the end of the input.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8, ReadError> {
        Ok(self.take(1, what)?[0])
    }

    /// A [`put_varint`] value.
    ///
    /// # Errors
    ///
    /// When the input ends inside it, or it carries bits past 2⁶⁴.
    #[inline]
    pub fn varint(&mut self, what: &str) -> Result<u64, ReadError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            if shift >= 63 && b > 1 {
                return Err(self.overlong(what));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A [`put_zigzag`] value.
    ///
    /// # Errors
    ///
    /// As [`varint`](Self::varint).
    #[inline]
    pub fn zigzag(&mut self, what: &str) -> Result<i64, ReadError> {
        let u = self.varint(what)?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    /// A [`put_f64`] value.
    ///
    /// # Errors
    ///
    /// When fewer than 8 bytes remain.
    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64, ReadError> {
        let s = self.take(8, what)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            s.try_into().expect("8 bytes"),
        )))
    }

    // The error paths stay out of line, so the reads inline small into
    // the node loops that call them millions of times.
    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize, what: &str) -> ReadError {
        let left = self.bytes.len() - self.pos;
        self.error(format!("truncated {what}: need {n} bytes, have {left}"))
    }

    #[cold]
    #[inline(never)]
    fn overlong(&self, what: &str) -> ReadError {
        self.error(format!("overlong varint in {what}"))
    }

    /// An element count: a varint that must leave room for that many
    /// elements of at least `min_bytes` each in the unread input, so a
    /// corrupt count is an error, not an allocation request.
    ///
    /// # Errors
    ///
    /// As [`varint`](Self::varint), or when the count cannot fit.
    pub fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize, ReadError> {
        let n = self.varint(what)? as usize;
        let left = self.bytes.len() - self.pos;
        if n.saturating_mul(min_bytes) > left {
            return Err(self.error(format!(
                "{what} count {n} exceeds remaining input ({left} bytes)"
            )));
        }
        Ok(n)
    }

    /// A varint sink index or buffer cell, which the arena holds in 32
    /// bits.
    #[inline]
    fn index(&mut self, what: &str) -> Result<usize, ReadError> {
        let v = self.varint(what)?;
        match u32::try_from(v) {
            Ok(i) => Ok(i as usize),
            Err(_) => Err(self.error(format!("{what} {v} exceeds u32::MAX"))),
        }
    }

    #[inline]
    fn coord(&mut self, tag: u8, parent: f64) -> Result<f64, ReadError> {
        match tag {
            COORD_PARENT => Ok(parent),
            COORD_INT => Ok(self.zigzag("integer coordinate")? as f64),
            COORD_RAW => self.f64("raw coordinate"),
            other => Err(self.error(format!("bad coordinate tag {other}"))),
        }
    }
}

/// The most-recently-used dictionary of sink caps (as f64 bits) that the
/// encoder and the reader keep in step: a cap moves to the front when it
/// is used, and a new cap pushes the oldest out of a full dictionary.
struct CapDict {
    slots: [u64; CAP_DICT],
    len: usize,
}

impl CapDict {
    fn new() -> Self {
        CapDict {
            slots: [0; CAP_DICT],
            len: 0,
        }
    }

    fn position(&self, bits: u64) -> Option<usize> {
        self.slots[..self.len].iter().position(|&c| c == bits)
    }

    /// The cap in slot `i`, moved to the front; `None` past the last
    /// slot.
    fn take(&mut self, i: usize) -> Option<u64> {
        (i < self.len).then(|| {
            let bits = self.slots[i];
            self.push_front(i, bits);
            bits
        })
    }

    /// Puts a new cap in front, dropping the oldest when full.
    fn insert(&mut self, bits: u64) {
        let keep = self.len.min(CAP_DICT - 1);
        self.push_front(keep, bits);
        self.len = keep + 1;
    }

    /// Shifts slots `0..n` back one place and puts `bits` in front.
    fn push_front(&mut self, n: usize, bits: u64) {
        for j in (0..n).rev() {
            self.slots[j + 1] = self.slots[j];
        }
        self.slots[0] = bits;
    }
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

/// Live nodes in depth-first preorder, children in insertion order: the
/// order in which copying the tree node by node under another tree's
/// node lays it out.
fn preorder(tree: &ClockTree) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(tree.len());
    let mut stack = vec![tree.root()];
    while let Some(v) = stack.pop() {
        order.push(v);
        let top = stack.len();
        stack.extend(tree.children(v));
        stack[top..].reverse();
    }
    order
}

/// Encodes the tree into one self-contained binary frame, its nodes in
/// depth-first preorder.
pub fn encode_tree(tree: &ClockTree) -> Vec<u8> {
    encode_in_order(tree, &preorder(tree))
}

/// Encodes the tree with its nodes listed in `order`, which must start
/// at the root and put every parent before its children.
fn encode_in_order(tree: &ClockTree, order: &[NodeId]) -> Vec<u8> {
    let mut compact = vec![u32::MAX; tree.arena_len()];
    for (i, id) in order.iter().enumerate() {
        compact[id.index()] = i as u32;
    }

    let mut payload = Vec::with_capacity(16 + order.len() * 12);
    put_varint(&mut payload, order.len() as u64);
    let src = tree.source_pos();
    put_f64(&mut payload, src.x);
    put_f64(&mut payload, src.y);

    let mut caps = CapDict::new();
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
                match caps.position(bits) {
                    Some(i) => {
                        payload.push(i as u8);
                        caps.take(i);
                    }
                    None => {
                        payload.push(CAP_RAW);
                        put_f64(&mut payload, cap_ff);
                        caps.insert(bits);
                    }
                }
                put_varint(&mut payload, sink_index as u64);
            }
            NodeKind::Buffer { cell } => put_varint(&mut payload, cell as u64),
            _ => {}
        }
    }

    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    frame
}

/// What a frame's header says.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameHeader {
    /// Bytes the whole frame occupies: header, payload and checksum.
    pub len: usize,
    /// Nodes in the tree, the root included.
    pub nodes: usize,
    /// Position of the root (the clock source).
    pub source: Point,
}

/// Reads the header of the frame at the start of `bytes`, in O(1): it
/// neither checks the checksum nor walks the nodes ([`visit_frame`]
/// does both). Bytes after the frame are left alone.
///
/// # Errors
///
/// A bad magic or version, a truncated frame, or a node count the
/// payload cannot hold.
pub fn read_header(bytes: &[u8]) -> Result<FrameHeader, BinaryTreeError> {
    let corrupt = |offset: usize, message: &str| BinaryTreeError::Corrupt {
        offset,
        message: message.into(),
    };
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(bytes.len(), "frame header truncated"));
    }
    if bytes[..4] != MAGIC {
        return Err(corrupt(0, "bad magic (expected \"SLTB\")"));
    }
    if bytes[4] != VERSION {
        return Err(BinaryTreeError::UnsupportedVersion(bytes[4]));
    }
    let payload_len = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes")) as usize;
    let len = HEADER_LEN + payload_len + TRAILER_LEN;
    if bytes.len() < len {
        return Err(corrupt(bytes.len(), "frame body truncated"));
    }
    let mut cur = payload_reader(bytes, payload_len);
    let nodes = cur.varint("node count")? as usize;
    if nodes == 0 {
        return Err(cur.error("node count must include the root").into());
    }
    // Every non-root node costs at least 2 payload bytes, so a sane count
    // can never exceed the payload size — reject before allocating.
    if nodes > payload_len {
        return Err(cur
            .error(format!("node count {nodes} exceeds payload size"))
            .into());
    }
    let source = Point::new(cur.f64("source x")?, cur.f64("source y")?);
    Ok(FrameHeader { len, nodes, source })
}

/// A reader over the payload of a frame whose header was checked,
/// reporting frame offsets.
fn payload_reader(frame: &[u8], payload_len: usize) -> Reader<'_> {
    Reader {
        bytes: &frame[HEADER_LEN..HEADER_LEN + payload_len],
        pos: 0,
        base: HEADER_LEN,
    }
}

/// One non-root node of a frame, as [`visit_frame`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameNode {
    /// Position.
    pub pos: Point,
    /// What the node is (never [`NodeKind::Source`]).
    pub kind: NodeKind,
    /// Routed length of the edge into the node: the stored length (at
    /// least the Manhattan distance), or that distance when none is
    /// stored.
    pub edge_len: f64,
}

/// Walks the frame at the start of `bytes` node by node, in frame order
/// (parents first), after checking its checksum. `root` is the caller's
/// handle for the source; `add(parent, node)` runs once per non-root
/// node with the handle `add` returned for that node's parent, and
/// returns the node's own handle. Bytes after the frame are left alone.
///
/// # Errors
///
/// See [`BinaryTreeError`]; a sink index or buffer cell above `u32::MAX`
/// is [`BinaryTreeError::Corrupt`]. `add` may already have run for the
/// nodes before a defect.
pub fn visit_frame<H: Copy>(
    bytes: &[u8],
    root: H,
    mut add: impl FnMut(H, FrameNode) -> H,
) -> Result<FrameHeader, BinaryTreeError> {
    let header = read_header(bytes)?;
    let payload_len = header.len - HEADER_LEN - TRAILER_LEN;
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    let expected = u64::from_le_bytes(
        bytes[HEADER_LEN + payload_len..header.len]
            .try_into()
            .expect("8 bytes"),
    );
    let actual = fnv1a64(payload);
    if actual != expected {
        return Err(BinaryTreeError::ChecksumMismatch { expected, actual });
    }

    let mut cur = payload_reader(bytes, payload_len);
    cur.varint("node count")?;
    cur.take(16, "source")?;
    // Position and handle of every node visited so far, by frame index.
    let mut seen: Vec<(Point, H)> = Vec::with_capacity(header.nodes);
    seen.push((header.source, root));
    let mut caps = CapDict::new();
    for me in 1..header.nodes {
        let head = cur.u8("node head")?;
        if head & 0x80 != 0 {
            return Err(cur.error("reserved head bit set").into());
        }
        let kind = head & 0x03;
        let xt = (head >> 2) & 0x03;
        let yt = (head >> 4) & 0x03;
        let delta = cur.varint("parent delta")? as usize;
        if delta == 0 || delta > me {
            return Err(cur
                .error(format!("parent delta {delta} out of range at node {me}"))
                .into());
        }
        let (ppos, parent) = seen[me - delta];
        let x = cur.coord(xt, ppos.x)?;
        let y = cur.coord(yt, ppos.y)?;
        let pos = Point::new(x, y);
        let dist = ppos.dist(pos);
        let edge_len = if head & FLAG_EDGE != 0 {
            let e = cur.f64("edge length")?;
            if e < dist - 1e-6 {
                return Err(cur
                    .error(format!(
                        "edge length {e} cannot cover manhattan distance {dist}"
                    ))
                    .into());
            }
            e.max(dist)
        } else {
            dist
        };
        let kind = match kind {
            KIND_STEINER => NodeKind::Steiner,
            KIND_SINK => {
                let tag = cur.u8("cap tag")?;
                let bits = if tag == CAP_RAW {
                    let bits = cur.f64("sink cap")?.to_bits();
                    caps.insert(bits);
                    bits
                } else {
                    caps.take(tag as usize).ok_or_else(|| {
                        cur.error(format!("cap dictionary index {tag} out of range"))
                    })?
                };
                NodeKind::Sink {
                    cap_ff: f64::from_bits(bits),
                    sink_index: cur.index("sink index")?,
                }
            }
            KIND_BUFFER => NodeKind::Buffer {
                cell: cur.index("buffer cell")?,
            },
            other => return Err(cur.error(format!("bad node kind {other}")).into()),
        };
        let handle = add(
            parent,
            FrameNode {
                pos,
                kind,
                edge_len,
            },
        );
        seen.push((pos, handle));
    }
    if cur.pos() != payload_len {
        return Err(cur
            .error(format!(
                "{} unread bytes inside payload",
                payload_len - cur.pos()
            ))
            .into());
    }
    Ok(header)
}

/// Decodes one frame, returning the tree and the number of bytes consumed.
/// The tree's arena holds the nodes in frame order.
///
/// # Errors
///
/// See [`BinaryTreeError`]; trailing bytes after the frame are left for
/// the caller (use [`decode_tree`] to require an exact fit).
pub fn decode_tree_prefix(bytes: &[u8]) -> Result<(ClockTree, usize), BinaryTreeError> {
    let header = read_header(bytes)?;
    let mut tree = ClockTree::with_capacity(header.source, header.nodes);
    let root = tree.root();
    visit_frame(bytes, root, |parent, n| {
        let id = tree.attach(parent, n.pos, n.kind);
        tree.set_edge_len_raw(id, n.edge_len);
        id
    })?;
    Ok((tree, header.len))
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

    /// The children of every node, in insertion order, read through
    /// the public API: the reference the encoder's order is checked
    /// against.
    fn dfs_preorder(t: &ClockTree, v: NodeId, out: &mut Vec<NodeId>) {
        out.push(v);
        for c in t.children(v) {
            dfs_preorder(t, c, out);
        }
    }

    #[test]
    fn frames_list_nodes_in_depth_first_preorder() {
        for seed in 0..10 {
            let t = random_tree(seed);
            let mut want = Vec::new();
            dfs_preorder(&t, t.root(), &mut want);
            let mut visited = Vec::new();
            visit_frame(&encode_tree(&t), 0usize, |parent, n| {
                visited.push((parent, n.pos, n.kind));
                visited.len()
            })
            .unwrap();
            // Handles are frame indices, so each parent handle names the
            // frame index of the parent in the same preorder.
            let frame_index: std::collections::HashMap<NodeId, usize> =
                want.iter().enumerate().map(|(i, &id)| (id, i)).collect();
            assert_eq!(visited.len() + 1, want.len(), "seed {seed}");
            for ((parent, pos, kind), id) in visited.iter().zip(&want[1..]) {
                let n = t.node(*id);
                assert_eq!(*parent, frame_index[&n.parent().unwrap()]);
                assert_eq!(pos.x.to_bits(), n.pos.x.to_bits());
                assert_eq!(pos.y.to_bits(), n.pos.y.to_bits());
                assert_eq!(*kind, n.kind);
            }
            // The decoded arena holds the nodes in that order too.
            let back = decode_tree(&encode_tree(&t)).unwrap();
            let mut back_order = Vec::new();
            dfs_preorder(&back, back.root(), &mut back_order);
            assert_eq!(back_order, back.node_ids().collect::<Vec<_>>());
        }
    }

    #[test]
    fn breadth_first_frames_still_decode_to_an_equal_tree() {
        for seed in 0..10 {
            let t = random_tree(seed);
            let bfs = encode_in_order(&t, &t.topo_order());
            let dfs = encode_tree(&t);
            assert_ne!(bfs, dfs, "seed {seed}: the two orders must differ");
            let back = decode_tree(&bfs).unwrap();
            back.validate().unwrap();
            assert_eq!(text_of(&back), text_of(&t), "seed {seed}");
            assert_eq!(text_of(&back), text_of(&decode_tree(&dfs).unwrap()));
            // Reading the header alone agrees with the full walk.
            let header = read_header(&bfs).unwrap();
            assert_eq!(header.len, bfs.len());
            assert_eq!(header.nodes, t.len());
            assert_eq!(header.source.x.to_bits(), t.source_pos().x.to_bits());
        }
    }

    #[test]
    fn reader_rejects_overlong_varints_and_oversized_counts() {
        let mut buf = Vec::new();
        for v in [0, 1, 127, 128, 300, u64::MAX] {
            put_varint(&mut buf, v);
        }
        put_zigzag(&mut buf, -3);
        put_f64(&mut buf, -0.5);
        let mut r = Reader::new(&buf);
        for v in [0, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(r.varint("value").unwrap(), v);
        }
        assert_eq!(r.zigzag("value").unwrap(), -3);
        assert_eq!(r.f64("value").unwrap(), -0.5);
        assert!(r.rest().is_empty());
        let e = r.u8("tail").unwrap_err();
        assert_eq!(e.offset, buf.len());
        assert!(e.message.contains("truncated tail"), "{e}");

        // A tenth byte carrying more than the 64th bit is overlong.
        let mut overlong = vec![0xFF; 9];
        overlong.push(0x02);
        let e = Reader::new(&overlong).varint("value").unwrap_err();
        assert!(e.message.contains("overlong"), "{e}");

        // A count needs room for its elements.
        let mut counted = Vec::new();
        put_varint(&mut counted, 3);
        counted.extend_from_slice(&[0; 5]);
        assert!(Reader::new(&counted).count("things", 2).is_err());
        assert_eq!(Reader::new(&counted).count("things", 1).unwrap(), 3);

        assert_eq!(as_exact_int(-7.0), Some(-7));
        for v in [0.5, -0.0, f64::NAN, f64::INFINITY, 1e300] {
            assert_eq!(as_exact_int(v), None, "{v}");
        }
    }

    /// A checksummed frame of the source and one child whose head byte
    /// is `kind` and whose payload ends with `tail`.
    fn one_child_frame(kind: u8, tail: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        put_varint(&mut payload, 2);
        put_f64(&mut payload, 0.0);
        put_f64(&mut payload, 0.0);
        payload.push(kind | (COORD_PARENT << 2) | (COORD_PARENT << 4));
        put_varint(&mut payload, 1);
        payload.extend_from_slice(tail);
        let mut frame = MAGIC.to_vec();
        frame.push(VERSION);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame
    }

    #[test]
    fn indices_past_u32_are_refused_not_panicked_on() {
        for (kind, what) in [(KIND_SINK, "sink index"), (KIND_BUFFER, "buffer cell")] {
            for (v, ok) in [
                (u64::from(u32::MAX), true),
                (u64::from(u32::MAX) + 1, false),
            ] {
                let mut tail = Vec::new();
                if kind == KIND_SINK {
                    tail.push(CAP_RAW);
                    put_f64(&mut tail, 1.0);
                }
                put_varint(&mut tail, v);
                let frame = one_child_frame(kind, &tail);
                let mut visited = 0;
                let got = visit_frame(&frame, (), |(), _| visited += 1);
                if ok {
                    got.unwrap();
                    let t = decode_tree(&frame).unwrap();
                    assert_eq!(t.len(), 2);
                } else {
                    match got {
                        Err(BinaryTreeError::Corrupt { message, .. }) => {
                            assert!(
                                message.contains(what) && message.contains("u32"),
                                "{message}"
                            );
                        }
                        other => panic!("{what} {v}: expected a read error, got {other:?}"),
                    }
                    assert_eq!(visited, 0, "{what}: no node may be handed out");
                    assert!(decode_tree(&frame).is_err());
                }
            }
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
