//! Crash-safe level checkpoints (see `DESIGN.md`, *Durability model*).
//!
//! After each hierarchical level commits, the flow appends one sealed
//! record to an append-only journal (`sllt-obs`): the level's
//! [`LevelReport`], the next level's nodes, and the clusters built at
//! that level. Because the per-level RNG streams are derived statelessly
//! from the flow seed and the level index, this is the *complete*
//! inter-level state: a resumed run re-derives everything else and
//! continues bit-identically.
//!
//! On disk (schema 2, the only format), each level is one binary
//! journal frame: a `CKL2` payload holding the report (JSON bytes), the
//! level nodes as raw little-endian `f64` bit patterns, and every cluster
//! tree in the compact `sllt_tree::codec` binary form. A journal whose
//! meta record names any other schema is refused.
//!
//! Durability contract:
//!
//! * every record is written with a single `write` + `fdatasync`
//!   ([`DurableAppender`]), so a crash leaves at most one torn final
//!   record — which the reader detects (checksum + shape) and discards;
//! * the journal opens with a fingerprinted meta record binding it to
//!   the exact flow configuration and design, so a resume against the
//!   wrong config fails loudly instead of diverging silently;
//! * on resume the writer reopens at the intact prefix length,
//!   truncating any torn tail before appending.

use crate::assemble::BuiltCluster;
use crate::error::CtsError;
use crate::flow::HierarchicalCts;
use crate::report::LevelReport;
use crate::route::{LevelNode, NodeSource};
use crate::telemetry::{level_report_from_value, level_value};
use sllt_design::Design;
use sllt_geom::Point;
use sllt_obs::journal::read_journal_bytes;
use sllt_obs::vfs::Vfs;
use sllt_obs::{DurableAppender, Value};
use sllt_tree::codec::{decode_tree_prefix, encode_tree};
use std::path::Path;

/// Journal schema version; bump on any incompatible record change.
pub const CHECKPOINT_SCHEMA: u64 = 2;

fn ckpt_err(detail: impl Into<String>) -> CtsError {
    CtsError::Checkpoint {
        detail: detail.into(),
    }
}

fn io_err(context: &str, e: impl std::fmt::Display) -> CtsError {
    ckpt_err(format!("{context}: {e}"))
}

/// Binds a journal to the exact (config, design) pair that wrote it.
///
/// Hashes the whole configuration — every field shapes the tree except
/// [`workers`](HierarchicalCts::workers) (trees are bit-identical at any
/// worker count), which is normalised away — plus the design's name,
/// clock root, and every sink's coordinate/capacitance bit pattern.
/// `Debug` formatting of f64 prints the shortest round-trip form, so the
/// hash is exact, not approximate.
fn fingerprint(cts: &HierarchicalCts, design: &Design) -> u64 {
    let config = HierarchicalCts {
        workers: 0,
        ..cts.clone()
    };
    let mut bytes = format!("{config:?}|{}", design.name).into_bytes();
    bytes.extend_from_slice(&design.clock_root.x.to_bits().to_le_bytes());
    bytes.extend_from_slice(&design.clock_root.y.to_bits().to_le_bytes());
    for s in &design.sinks {
        bytes.extend_from_slice(&s.pos.x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&s.pos.y.to_bits().to_le_bytes());
        bytes.extend_from_slice(&s.cap_ff.to_bits().to_le_bytes());
    }
    sllt_obs::fnv1a64(&bytes)
}

// ---------------------------------------------------------------------
// Schema 2 (binary frame) encoding
// ---------------------------------------------------------------------

/// Magic prefix of a schema-2 level payload inside its journal frame.
const LEVEL_MAGIC: &[u8; 4] = b"CKL2";

/// Node head byte: bits 0–4 flag which of the five floats (x, y, cap,
/// lo, hi) is an exact integer stored as a zigzag varint instead of raw
/// bits; bit 5 is the source kind (set = cluster); bit 6 flags that the
/// position is elided because it bit-equals the driver position of the
/// same-record cluster the node came from (verified at encode time).
const NODE_KIND_CLUSTER: u8 = 1 << 5;
const NODE_POS_FROM_CLUSTER: u8 = 1 << 6;
const NODE_HEAD_RESERVED: u8 = 0b1000_0000;

/// Member tag bytes: a member is normally a *reference* to a node of
/// the previous level (those are stored once, in the previous record),
/// falling back to an inline node if the bit-exact invariant ever
/// breaks.
const MEMBER_REF_SINK: u8 = 0;
const MEMBER_REF_CLUSTER: u8 = 1;
const MEMBER_INLINE: u8 = 2;

/// Cluster flags byte: bit 0 flags that the driver position is elided
/// because it bit-equals the tree's source position (verified at
/// encode time — it always does for trees routed by this flow).
const CLUSTER_POS_FROM_TREE: u8 = 1;

/// Minimum encoded size of one inline node: head byte, up to five
/// 1-byte zigzag varints (two elidable), 1-byte index.
const NODE_MIN_BYTES: usize = 5;

/// Minimum encoded size of one member: tag byte + 1-byte index.
const MEMBER_MIN_BYTES: usize = 2;

/// Key uniquely identifying a level node within its level: the source
/// is unique (one node per design sink / per built cluster).
type SourceKey = (u8, u64);

fn source_key(n: &LevelNode) -> SourceKey {
    match n.source {
        NodeSource::DesignSink(i) => (0, i as u64),
        NodeSource::Cluster(i) => (1, i as u64),
    }
}

/// Map from source key to the full node, for member-by-reference
/// encoding against the previous level's node list.
type NodeMap = std::collections::HashMap<SourceKey, LevelNode>;

fn node_map(nodes: &[LevelNode]) -> NodeMap {
    nodes.iter().map(|n| (source_key(n), *n)).collect()
}

/// The level-0 node list is derived, not stored: one node per design
/// sink with zero accumulated delay (mirrors the flow's seeding).
pub(crate) fn seed_nodes(design: &Design) -> Vec<LevelNode> {
    design
        .sinks
        .iter()
        .enumerate()
        .map(|(i, s)| LevelNode {
            pos: s.pos,
            cap_ff: s.cap_ff,
            interval_ps: (0.0, 0.0),
            source: NodeSource::DesignSink(i),
        })
        .collect()
}

fn nodes_bit_equal(a: &LevelNode, b: &LevelNode) -> bool {
    a.pos.x.to_bits() == b.pos.x.to_bits()
        && a.pos.y.to_bits() == b.pos.y.to_bits()
        && a.cap_ff.to_bits() == b.cap_ff.to_bits()
        && a.interval_ps.0.to_bits() == b.interval_ps.0.to_bits()
        && a.interval_ps.1.to_bits() == b.interval_ps.1.to_bits()
        && source_key(a) == source_key(b)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, (v.wrapping_shl(1) ^ (v >> 63)) as u64);
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// `Some(i)` when `v` is an integer whose f64 form is bit-identical to
/// `v` — the value round-trips through a zigzag varint exactly.
fn as_exact_int(v: f64) -> Option<i64> {
    if !v.is_finite() {
        return None;
    }
    let t = v as i64;
    if (t as f64).to_bits() == v.to_bits() {
        Some(t)
    } else {
        None
    }
}

/// Encodes one node. `clusters` are the clusters built in the *same*
/// record: a cluster-sourced node whose position bit-equals its
/// cluster's driver position elides the 16 position bytes (flagged via
/// [`NODE_POS_FROM_CLUSTER`]). Pass an empty slice where that context
/// does not exist (inline members resolve against the previous level).
fn put_node(buf: &mut Vec<u8>, n: &LevelNode, clusters: &[BuiltCluster]) {
    let floats = [n.pos.x, n.pos.y, n.cap_ff, n.interval_ps.0, n.interval_ps.1];
    let (kind, idx) = match n.source {
        NodeSource::DesignSink(i) => (0u8, i as u64),
        NodeSource::Cluster(i) => (NODE_KIND_CLUSTER, i as u64),
    };
    let pos_from_cluster = kind == NODE_KIND_CLUSTER
        && clusters.get(idx as usize).is_some_and(|c| {
            c.driver_pos.x.to_bits() == n.pos.x.to_bits()
                && c.driver_pos.y.to_bits() == n.pos.y.to_bits()
        });
    let skip = if pos_from_cluster { 2 } else { 0 };
    let mut head = if pos_from_cluster {
        NODE_POS_FROM_CLUSTER
    } else {
        0
    };
    for (i, f) in floats.iter().enumerate().skip(skip) {
        if as_exact_int(*f).is_some() {
            head |= 1 << i;
        }
    }
    buf.push(head | kind);
    for (i, f) in floats.iter().enumerate().skip(skip) {
        match (head >> i) & 1 {
            1 => put_zigzag(buf, as_exact_int(*f).unwrap()),
            _ => put_f64(buf, *f),
        }
    }
    put_varint(buf, idx);
}

/// Encodes one cluster member: by reference into the previous level's
/// node list when the bit-exact invariant holds (2–3 bytes), inline
/// otherwise.
fn put_member(buf: &mut Vec<u8>, n: &LevelNode, prev: &NodeMap) {
    let key = source_key(n);
    if prev.get(&key).is_some_and(|p| nodes_bit_equal(p, n)) {
        buf.push(if key.0 == 0 {
            MEMBER_REF_SINK
        } else {
            MEMBER_REF_CLUSTER
        });
        put_varint(buf, key.1);
        return;
    }
    buf.push(MEMBER_INLINE);
    put_node(buf, n, &[]);
}

/// Encodes one committed level as a schema-2 frame payload: report JSON
/// bytes (small, once per level), the output nodes as tagged varint/f64
/// records, and every cluster with member references and its routed
/// tree in the compact binary tree codec. `prev` is the node list that
/// *entered* this level — members resolve against it.
fn encode_level(
    report: &LevelReport,
    nodes: &[LevelNode],
    new_clusters: &[BuiltCluster],
    prev: &NodeMap,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + nodes.len() * 48 + new_clusters.len() * 160);
    out.extend_from_slice(LEVEL_MAGIC);
    put_varint(&mut out, report.level as u64);
    let rep = level_value(report).encode();
    put_varint(&mut out, rep.len() as u64);
    out.extend_from_slice(rep.as_bytes());
    put_varint(&mut out, nodes.len() as u64);
    for n in nodes {
        put_node(&mut out, n, new_clusters);
    }
    put_varint(&mut out, new_clusters.len() as u64);
    for c in new_clusters {
        let src = c.tree.source_pos();
        let pos_from_tree = src.x.to_bits() == c.driver_pos.x.to_bits()
            && src.y.to_bits() == c.driver_pos.y.to_bits();
        out.push(if pos_from_tree {
            CLUSTER_POS_FROM_TREE
        } else {
            0
        });
        put_varint(&mut out, c.cell as u64);
        put_varint(&mut out, c.pads as u64);
        if !pos_from_tree {
            put_f64(&mut out, c.driver_pos.x);
            put_f64(&mut out, c.driver_pos.y);
        }
        put_varint(&mut out, c.members.len() as u64);
        for m in &c.members {
            put_member(&mut out, m, prev);
        }
        out.extend_from_slice(&encode_tree(&c.tree));
    }
    out
}

/// Bounds-checked cursor over a schema-2 level payload.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "truncated {what} at payload offset {}: need {n} bytes, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn varint(&mut self, what: &str) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            if shift >= 63 && b > 1 {
                return Err(format!("overlong varint in {what}"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        let s = self.take(8, what)?;
        Ok(f64::from_bits(u64::from_le_bytes(s.try_into().unwrap())))
    }

    fn zigzag(&mut self, what: &str) -> Result<i64, String> {
        let u = self.varint(what)?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    /// A count that claims more elements (of at least `min_bytes` each)
    /// than the payload has room for is corruption, not an allocation
    /// request.
    fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize, String> {
        let n = self.varint(what)? as usize;
        if n.saturating_mul(min_bytes) > self.bytes.len() - self.pos {
            return Err(format!(
                "{what} count {n} exceeds remaining payload ({} bytes)",
                self.bytes.len() - self.pos
            ));
        }
        Ok(n)
    }

    /// Decodes one node. When [`NODE_POS_FROM_CLUSTER`] is flagged the
    /// position bytes are absent — the returned `bool` asks the caller
    /// to copy the position from the node's same-record cluster once
    /// clusters are decoded.
    fn node(&mut self) -> Result<(LevelNode, bool), String> {
        let head = self.u8("node head")?;
        if head & NODE_HEAD_RESERVED != 0 {
            return Err(format!("reserved node head bits set ({head:#04x})"));
        }
        let pos_pending = head & NODE_POS_FROM_CLUSTER != 0;
        if pos_pending && (head & NODE_KIND_CLUSTER == 0 || head & 0b11 != 0) {
            return Err(format!(
                "node head {head:#04x} elides the position but is not a plain cluster node"
            ));
        }
        let skip = if pos_pending { 2 } else { 0 };
        let mut floats = [0.0f64; 5];
        for (i, f) in floats.iter_mut().enumerate().skip(skip) {
            *f = if (head >> i) & 1 == 1 {
                self.zigzag("node int value")? as f64
            } else {
                self.f64("node value")?
            };
        }
        let idx = self.varint("node index")? as usize;
        let source = if head & NODE_KIND_CLUSTER != 0 {
            NodeSource::Cluster(idx)
        } else {
            NodeSource::DesignSink(idx)
        };
        let node = LevelNode {
            pos: Point::new(floats[0], floats[1]),
            cap_ff: floats[2],
            interval_ps: (floats[3], floats[4]),
            source,
        };
        Ok((node, pos_pending))
    }

    fn member(&mut self, prev: &NodeMap) -> Result<LevelNode, String> {
        let tag = self.u8("member tag")?;
        match tag {
            MEMBER_REF_SINK | MEMBER_REF_CLUSTER => {
                let idx = self.varint("member index")?;
                let key = (tag, idx);
                prev.get(&key).copied().ok_or_else(|| {
                    format!(
                        "member references {} {idx} absent from the previous level",
                        if tag == MEMBER_REF_SINK {
                            "design sink"
                        } else {
                            "cluster"
                        }
                    )
                })
            }
            MEMBER_INLINE => {
                let (node, pos_pending) = self.node()?;
                if pos_pending {
                    return Err("inline member elides its position".to_string());
                }
                Ok(node)
            }
            other => Err(format!("unknown member tag {other}")),
        }
    }
}

type DecodedLevel = (usize, LevelReport, Vec<LevelNode>, Vec<BuiltCluster>);

/// Decodes one schema-2 level payload back to the flow state it sealed.
/// `prev` maps source keys of the node list that entered this level —
/// member references resolve through it.
fn decode_level(payload: &[u8], prev: &NodeMap) -> Result<DecodedLevel, String> {
    let mut cur = Cur {
        bytes: payload,
        pos: 0,
    };
    if cur.take(4, "level magic")? != LEVEL_MAGIC {
        return Err("frame payload is not a CKL2 level record".to_string());
    }
    let level = cur.varint("level index")? as usize;
    let rep_len = cur.count("report", 1)?;
    let rep_bytes = cur.take(rep_len, "report JSON")?;
    let rep_str =
        std::str::from_utf8(rep_bytes).map_err(|_| "report JSON is not UTF-8".to_string())?;
    let rep_value = sllt_obs::json::parse(rep_str).map_err(|e| format!("report JSON: {e}"))?;
    let report = level_report_from_value(&rep_value)?;
    let n_nodes = cur.count("nodes", NODE_MIN_BYTES)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut pos_pending = Vec::new();
    for i in 0..n_nodes {
        let (node, pending) = cur.node()?;
        if pending {
            pos_pending.push(i);
        }
        nodes.push(node);
    }
    let n_clusters = cur.count("clusters", NODE_MIN_BYTES)?;
    let mut clusters = Vec::with_capacity(n_clusters);
    for _ in 0..n_clusters {
        let flags = cur.u8("cluster flags")?;
        if flags & !CLUSTER_POS_FROM_TREE != 0 {
            return Err(format!("reserved cluster flag bits set ({flags:#04x})"));
        }
        let cell = cur.varint("cluster cell")? as usize;
        let pads = cur.varint("cluster pads")? as usize;
        let explicit_pos = if flags & CLUSTER_POS_FROM_TREE == 0 {
            let x = cur.f64("cluster driver x")?;
            let y = cur.f64("cluster driver y")?;
            Some(Point::new(x, y))
        } else {
            None
        };
        let n_members = cur.count("members", MEMBER_MIN_BYTES)?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(cur.member(prev)?);
        }
        let (tree, consumed) = decode_tree_prefix(&payload[cur.pos..])
            .map_err(|e| format!("cluster tree at payload offset {}: {e}", cur.pos))?;
        cur.pos += consumed;
        let driver_pos = explicit_pos.unwrap_or_else(|| tree.source_pos());
        clusters.push(BuiltCluster {
            tree,
            members,
            cell,
            pads,
            driver_pos,
        });
    }
    if cur.pos != payload.len() {
        return Err(format!(
            "{} unread bytes after level record",
            payload.len() - cur.pos
        ));
    }
    for i in pos_pending {
        let idx = match nodes[i].source {
            NodeSource::Cluster(idx) => idx,
            NodeSource::DesignSink(_) => unreachable!("validated during node decode"),
        };
        let cluster = clusters
            .get(idx)
            .ok_or_else(|| format!("node {i} elides its position via absent cluster {idx}"))?;
        nodes[i].pos = cluster.driver_pos;
    }
    Ok((level, report, nodes, clusters))
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Appends sealed level records to a checkpoint journal. Created (or
/// reopened) by the flow; one [`append_level`](Self::append_level) per
/// committed level, each a single durable write.
pub(crate) struct CheckpointWriter {
    app: DurableAppender,
    /// Source-keyed view of the node list entering the next level, for
    /// member-by-reference encoding.
    prev: NodeMap,
}

impl CheckpointWriter {
    /// Starts a fresh journal (truncating any existing file) and writes
    /// the fingerprinted meta record.
    pub(crate) fn create(
        vfs: &dyn Vfs,
        path: &Path,
        cts: &HierarchicalCts,
        design: &Design,
    ) -> Result<CheckpointWriter, CtsError> {
        let mut app = DurableAppender::create_with(vfs, path)
            .map_err(|e| io_err("creating checkpoint journal", e))?;
        let meta = Value::obj()
            .with("type", "sllt-ckpt")
            .with("schema", CHECKPOINT_SCHEMA)
            .with("design", design.name.as_str())
            .with("sinks", design.sinks.len() as u64)
            .with("fingerprint", format!("{:016x}", fingerprint(cts, design)));
        app.append(&meta)
            .map_err(|e| io_err("writing checkpoint meta", e))?;
        Ok(CheckpointWriter {
            app,
            prev: node_map(&seed_nodes(design)),
        })
    }

    /// Reopens an existing journal for appending, truncating to the
    /// intact prefix `valid_len` first (discarding any torn tail).
    /// `entering_nodes` is the restored node list the next committed
    /// level will consume (member references resolve against it).
    pub(crate) fn reopen(
        vfs: &dyn Vfs,
        path: &Path,
        valid_len: u64,
        entering_nodes: &[LevelNode],
    ) -> Result<CheckpointWriter, CtsError> {
        let app = DurableAppender::reopen_with(vfs, path, valid_len)
            .map_err(|e| io_err("reopening checkpoint journal", e))?;
        Ok(CheckpointWriter {
            app,
            prev: node_map(entering_nodes),
        })
    }

    /// Seals one committed level: its report, the next level's nodes,
    /// and the clusters built at this level (appended to the arena by
    /// the caller just before this call).
    pub(crate) fn append_level(
        &mut self,
        report: &LevelReport,
        nodes: &[LevelNode],
        new_clusters: &[BuiltCluster],
    ) -> Result<(), CtsError> {
        let payload = encode_level(report, nodes, new_clusters, &self.prev);
        self.prev = node_map(nodes);
        self.app
            .append_binary(&payload)
            .map_err(|e| io_err("appending level checkpoint frame", e))
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A loaded checkpoint: everything the flow needs to continue from the
/// last committed level.
pub struct Checkpoint {
    pub(crate) reports: Vec<LevelReport>,
    pub(crate) clusters: Vec<BuiltCluster>,
    pub(crate) nodes: Vec<LevelNode>,
    pub(crate) valid_len: u64,
    torn: Option<String>,
}

impl Checkpoint {
    /// Reads (through `vfs`) and validates a checkpoint journal against
    /// the flow configuration and design that will resume from it. Only
    /// [`CHECKPOINT_SCHEMA`] journals load; any other schema is refused.
    ///
    /// Tolerates (and reports through [`torn`](Self::torn)) a torn
    /// final record — the shape a kill mid-append leaves. Everything
    /// else is strict: a checksum failure on an interior record, a
    /// schema or fingerprint mismatch, or a gap in the level sequence
    /// is [`CtsError::Checkpoint`].
    pub fn load(
        vfs: &dyn Vfs,
        path: &Path,
        cts: &HierarchicalCts,
        design: &Design,
    ) -> Result<Checkpoint, CtsError> {
        let bytes = vfs
            .read(path)
            .map_err(|e| io_err("reading checkpoint journal", e))?;
        let journal =
            read_journal_bytes(&bytes).map_err(|e| io_err("reading checkpoint journal", e))?;
        let mut records = journal.records.iter();
        let meta = records.next().ok_or_else(|| {
            ckpt_err("checkpoint journal has no meta record (empty or fully torn file)")
        })?;
        if meta.get("type").and_then(Value::as_str) != Some("sllt-ckpt") {
            return Err(ckpt_err("first record is not a checkpoint meta record"));
        }
        if journal.frames.first().is_some_and(|f| f.after_record == 0) {
            return Err(ckpt_err("binary frame precedes the checkpoint meta record"));
        }
        let schema = meta.get("schema").and_then(Value::as_u64);
        if schema != Some(CHECKPOINT_SCHEMA) {
            let found = schema.map_or("missing".to_string(), |s| s.to_string());
            return Err(ckpt_err(format!(
                "unsupported checkpoint schema {found} (supported: {CHECKPOINT_SCHEMA})"
            )));
        }
        let expect = format!("{:016x}", fingerprint(cts, design));
        let found = meta
            .get("fingerprint")
            .and_then(Value::as_str)
            .unwrap_or("");
        if found != expect {
            return Err(ckpt_err(format!(
                "checkpoint fingerprint {found} does not match this configuration/design \
                 ({expect}): resume would not reproduce the original run"
            )));
        }

        let mut out = Checkpoint {
            reports: Vec::new(),
            clusters: Vec::new(),
            nodes: Vec::new(),
            valid_len: journal.valid_len,
            torn: journal.torn_tail.map(|t| t.reason),
        };

        if records.next().is_some() {
            return Err(ckpt_err(
                "binary checkpoint contains extra JSON records after the meta",
            ));
        }
        let mut prev = node_map(&seed_nodes(design));
        for (i, frame) in journal.frames.iter().enumerate() {
            let at = |msg: String| ckpt_err(format!("level frame {i}: {msg}"));
            let (level, report, nodes, new_clusters) =
                decode_level(&frame.payload, &prev).map_err(at)?;
            prev = node_map(&nodes);
            out.push_level(i, level, report, nodes, new_clusters)?;
        }

        // Arena integrity: every cluster-sourced node must resolve.
        let arena = out.clusters.len();
        let check = |n: &LevelNode| match n.source {
            NodeSource::Cluster(i) if i >= arena => Err(ckpt_err(format!(
                "node references cluster {i} outside the arena of {arena}"
            ))),
            NodeSource::DesignSink(i) if i >= design.sinks.len() => Err(ckpt_err(format!(
                "node references design sink {i} outside the design's {}",
                design.sinks.len()
            ))),
            _ => Ok(()),
        };
        for n in out
            .nodes
            .iter()
            .chain(out.clusters.iter().flat_map(|c| c.members.iter()))
        {
            check(n)?;
        }
        Ok(out)
    }

    /// Appends one decoded level, enforcing the dense level sequence and
    /// non-empty shape.
    fn push_level(
        &mut self,
        i: usize,
        level: usize,
        report: LevelReport,
        nodes: Vec<LevelNode>,
        new_clusters: Vec<BuiltCluster>,
    ) -> Result<(), CtsError> {
        let at = |msg: String| ckpt_err(format!("level record {i}: {msg}"));
        if level != i {
            return Err(at(format!("level {level} out of sequence (expected {i})")));
        }
        if nodes.is_empty() {
            return Err(at("level has no output nodes".into()));
        }
        if new_clusters.len() != nodes.len() {
            return Err(at(format!(
                "{} clusters but {} output nodes",
                new_clusters.len(),
                nodes.len()
            )));
        }
        self.reports.push(report);
        self.clusters.extend(new_clusters);
        self.nodes = nodes;
        Ok(())
    }

    /// Number of committed levels in the journal (0 = only the meta
    /// record survived; resume restarts from the design sinks).
    pub fn levels(&self) -> usize {
        self.reports.len()
    }

    /// The committed level reports, bottom-up.
    pub fn reports(&self) -> &[LevelReport] {
        &self.reports
    }

    /// Why the final record was discarded, when the journal ended in a
    /// torn (partially written) line.
    pub fn torn(&self) -> Option<&str> {
        self.torn.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_tree::ClockTree;

    fn node(x: f64, kind_cluster: bool, idx: usize) -> LevelNode {
        LevelNode {
            pos: Point::new(x, 0.1 + x / 3.0),
            cap_ff: 1.5 + x,
            interval_ps: (x * 0.25, x * 0.5 + 1e-7),
            source: if kind_cluster {
                NodeSource::Cluster(idx)
            } else {
                NodeSource::DesignSink(idx)
            },
        }
    }

    #[test]
    fn binary_node_encoding_round_trips_bit_exactly() {
        for n in [
            node(0.0, false, 0),
            node(17.3, true, 5),
            node(1e-9, false, usize::MAX >> 1),
            node(-3.25, true, 127),
        ] {
            let mut buf = Vec::new();
            put_node(&mut buf, &n, &[]);
            let mut cur = Cur {
                bytes: &buf,
                pos: 0,
            };
            let (back, pos_pending) = cur.node().unwrap();
            assert!(!pos_pending);
            assert_eq!(cur.pos, buf.len());
            assert_eq!(back.pos.x.to_bits(), n.pos.x.to_bits());
            assert_eq!(back.pos.y.to_bits(), n.pos.y.to_bits());
            assert_eq!(back.cap_ff.to_bits(), n.cap_ff.to_bits());
            assert_eq!(back.interval_ps.0.to_bits(), n.interval_ps.0.to_bits());
            assert_eq!(back.interval_ps.1.to_bits(), n.interval_ps.1.to_bits());
        }
    }

    fn sample_level(n_clusters: usize) -> (LevelReport, Vec<LevelNode>, Vec<BuiltCluster>) {
        let mut nodes = Vec::new();
        let mut clusters = Vec::new();
        for i in 0..n_clusters {
            nodes.push(node(i as f64 * 1.7, true, i));
            let mut tree = ClockTree::new(Point::new(i as f64, 5.0));
            let root = tree.root();
            let s = tree.add_steiner(root, Point::new(i as f64 + 1.0, 5.5));
            tree.add_sink(s, Point::new(i as f64 + 2.0, 6.25), 1.25);
            tree.add_sink(s, Point::new(i as f64 + 1.5, 4.0), 0.8);
            clusters.push(BuiltCluster {
                tree,
                members: vec![
                    node(i as f64, false, 2 * i),
                    node(i as f64 + 0.3, false, 2 * i + 1),
                ],
                cell: i % 4,
                pads: i % 3,
                driver_pos: Point::new(i as f64, 5.0),
            });
        }
        let report = LevelReport {
            level: 0,
            num_nodes: 2 * n_clusters,
            num_clusters: n_clusters,
            workers: 1,
            timings: crate::report::StageTimings::default(),
            wirelength_um: 12.5,
            load_cap_ff: 3.25,
            driver_input_cap_ff: 1.5,
            driver_area_um2: 7.0,
            pads: 1,
            delay_spread_ps: 0.75,
            attempts: 1,
            downgrades: Vec::new(),
        };
        (report, nodes, clusters)
    }

    #[test]
    fn binary_level_record_round_trips_bit_exactly() {
        let (report, nodes, clusters) = sample_level(5);
        // Empty prev map: every member encodes inline.
        let payload = encode_level(&report, &nodes, &clusters, &NodeMap::new());
        let (level, rep, back_nodes, back_clusters) =
            decode_level(&payload, &NodeMap::new()).unwrap();
        assert_eq!(level, 0);
        assert_eq!(rep.level, report.level);
        assert_eq!(back_nodes.len(), nodes.len());
        for (a, b) in back_nodes.iter().zip(&nodes) {
            assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
            assert_eq!(a.interval_ps.1.to_bits(), b.interval_ps.1.to_bits());
        }
        for (a, b) in back_clusters.iter().zip(&clusters) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.pads, b.pads);
            assert_eq!(a.driver_pos.x.to_bits(), b.driver_pos.x.to_bits());
            assert_eq!(a.members.len(), b.members.len());
            // Canonical text form is byte-identical => per-node bit-exact.
            let text = |t: &ClockTree| {
                let mut buf = Vec::new();
                sllt_tree::io::write_tree(t, &mut buf).unwrap();
                buf
            };
            assert_eq!(text(&a.tree), text(&b.tree));
        }
    }

    #[test]
    fn member_references_resolve_and_shrink_the_record() {
        let (report, nodes, clusters) = sample_level(4);
        let members: Vec<LevelNode> = clusters.iter().flat_map(|c| c.members.clone()).collect();
        let prev = node_map(&members);
        let by_ref = encode_level(&report, &nodes, &clusters, &prev);
        let inline = encode_level(&report, &nodes, &clusters, &NodeMap::new());
        assert!(
            by_ref.len() + 30 * members.len() < inline.len(),
            "references must save ~40 bytes per member ({} vs {})",
            by_ref.len(),
            inline.len()
        );
        let (_, _, _, back) = decode_level(&by_ref, &prev).unwrap();
        for (a, b) in back.iter().zip(&clusters) {
            for (ma, mb) in a.members.iter().zip(&b.members) {
                assert!(nodes_bit_equal(ma, mb));
            }
        }
        // A dangling reference is an error, not a default.
        assert!(decode_level(&by_ref, &NodeMap::new()).is_err());
    }

    #[test]
    fn corrupt_binary_level_records_error_not_panic() {
        let (report, nodes, clusters) = sample_level(2);
        let prev = NodeMap::new();
        let payload = encode_level(&report, &nodes, &clusters, &prev);
        assert!(decode_level(b"nope", &prev).is_err());
        assert!(decode_level(&payload[..payload.len() - 1], &prev).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_level(&trailing, &prev).is_err());
        for cut in (0..payload.len()).step_by(7) {
            let _ = decode_level(&payload[..cut], &prev);
        }
        // Flipped bytes must error or decode, never panic. (Most flips
        // land in raw f64 coordinates and still decode — fine; the
        // journal frame checksum guards integrity above this layer.)
        for i in (0..payload.len()).step_by(3) {
            let mut bad = payload.clone();
            bad[i] ^= 0xA5;
            let _ = decode_level(&bad, &prev);
        }
    }

    #[test]
    fn other_schemas_are_refused_by_name() {
        // A meta record that is correctly fingerprinted for this run but
        // names the retired schema 1 must be refused, not half-read.
        let design = sllt_design::design_by_name("grid36").unwrap();
        let cts = HierarchicalCts::default();
        let path =
            std::env::temp_dir().join(format!("sllt_ckpt_schema1_{}.jsonl", std::process::id()));
        let mut app = DurableAppender::create(&path).unwrap();
        app.append(
            &Value::obj()
                .with("type", "sllt-ckpt")
                .with("schema", 1u64)
                .with("design", design.name.as_str())
                .with("sinks", design.sinks.len() as u64)
                .with(
                    "fingerprint",
                    format!("{:016x}", fingerprint(&cts, &design)),
                ),
        )
        .unwrap();
        drop(app);
        match Checkpoint::load(&sllt_obs::RealFs, &path, &cts, &design) {
            Err(CtsError::Checkpoint { detail }) => {
                assert!(
                    detail.contains("unsupported checkpoint schema 1 "),
                    "{detail}"
                );
            }
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("schema-1 journal must be refused"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fingerprint_separates_configs_but_ignores_workers() {
        let design = sllt_design::DesignSpec::by_name("s38584")
            .unwrap()
            .instantiate();
        let base = HierarchicalCts::default();
        let fp = fingerprint(&base, &design);
        let mut w4 = base.clone();
        w4.workers = 4;
        assert_eq!(fp, fingerprint(&w4, &design), "workers must not matter");
        let mut seeded = base.clone();
        seeded.seed ^= 1;
        assert_ne!(fp, fingerprint(&seeded, &design), "seed must matter");
        let mut relaxed = base.clone();
        relaxed.constraints.skew_ps *= 2.0;
        assert_ne!(
            fp,
            fingerprint(&relaxed, &design),
            "constraints must matter"
        );
        let other = sllt_design::DesignSpec::by_name("s35932")
            .unwrap()
            .instantiate();
        assert_ne!(fp, fingerprint(&base, &other), "design must matter");
    }
}
