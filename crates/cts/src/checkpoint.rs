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
//! On disk (schema 3, the only format), each level is one binary
//! journal frame: a `CKL2` payload holding the report (JSON bytes), the
//! level nodes as tagged varint/`f64` records, and every cluster as its
//! member references plus its routed tree's `sllt_tree::codec` frame —
//! the form the flow already holds it in, copied verbatim. A journal
//! whose meta record names any other schema is refused: schema-2
//! journals hold the same records with breadth-first tree frames, which
//! would lay the assembled tree's arena out in another order.
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
use sllt_tree::codec::{
    as_exact_int, put_f64, put_varint, put_zigzag, read_header, visit_frame, ReadError, Reader,
};
use sllt_tree::NodeKind;
use std::ops::Range;
use std::path::Path;

/// Journal schema version; bump on any incompatible record change.
/// Schema 3 lists each cluster tree's nodes in depth-first preorder.
pub const CHECKPOINT_SCHEMA: u64 = 3;

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
// Level record encoding
// ---------------------------------------------------------------------

/// Magic prefix of a level payload inside its journal frame. The record
/// layout has not changed since schema 2; schema 3 changed only the node
/// order inside each cluster's tree frame.
const LEVEL_MAGIC: &[u8; 4] = b"CKL2";

/// Node head byte: bits 0–4 flag which of the five floats (x, y, cap,
/// lo, hi) is an exact integer stored as a zigzag varint instead of raw
/// bits; bit 5 is the source kind (set = cluster); bit 6 flags that the
/// position is elided because it bit-equals the driver position of the
/// same-record cluster the node came from (verified at encode time).
const NODE_KIND_CLUSTER: u8 = 1 << 5;
const NODE_POS_FROM_CLUSTER: u8 = 1 << 6;
const NODE_HEAD_RESERVED: u8 = 0b1000_0000;

/// Member tag bytes: a member is a reference to a node of the level's
/// entering node list — a design sink at level 0, a cluster the level
/// below built after that. Any other tag is refused.
const MEMBER_REF_SINK: u8 = 0;
const MEMBER_REF_CLUSTER: u8 = 1;

/// Cluster flags byte: bit 0 flags that the driver position is elided
/// because it bit-equals the tree's source position (verified at
/// encode time — it always does for trees routed by this flow).
const CLUSTER_POS_FROM_TREE: u8 = 1;

/// Minimum encoded size of one node: head byte, up to five 1-byte
/// zigzag varints (two elidable), 1-byte index.
const NODE_MIN_BYTES: usize = 5;

/// Minimum encoded size of one member: tag byte + 1-byte index.
const MEMBER_MIN_BYTES: usize = 2;

/// The node list that entered a level, as what its members may
/// reference: a member tag and the index range under it.
type Entering = (u8, Range<usize>);

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

/// The source position a cluster frame records.
fn frame_source(frame: &[u8]) -> Point {
    read_header(frame)
        .expect("cluster frames are well-formed")
        .source
}

/// Encodes one node. `clusters` are the clusters built in the *same*
/// record: a cluster-sourced node whose position bit-equals its
/// cluster's driver position elides the 16 position bytes (flagged via
/// [`NODE_POS_FROM_CLUSTER`]).
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

/// Encodes one committed level as a frame payload: report JSON bytes
/// (small, once per level), the output nodes as tagged varint/f64
/// records, and every cluster with its member references and its routed
/// tree's codec frame, copied verbatim.
fn encode_level(
    report: &LevelReport,
    nodes: &[LevelNode],
    new_clusters: &[BuiltCluster],
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
        let src = frame_source(&c.frame);
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
            let (tag, idx) = match *m {
                NodeSource::DesignSink(i) => (MEMBER_REF_SINK, i),
                NodeSource::Cluster(i) => (MEMBER_REF_CLUSTER, i),
            };
            out.push(tag);
            put_varint(&mut out, idx as u64);
        }
        out.extend_from_slice(&c.frame);
    }
    out
}

/// Decodes one node. When [`NODE_POS_FROM_CLUSTER`] is flagged the
/// position bytes are absent — the returned `bool` asks the caller to
/// copy the position from the node's same-record cluster once clusters
/// are decoded.
fn read_node(cur: &mut Reader<'_>) -> Result<(LevelNode, bool), ReadError> {
    let head = cur.u8("node head")?;
    if head & NODE_HEAD_RESERVED != 0 {
        return Err(cur.error(format!("reserved node head bits set ({head:#04x})")));
    }
    let pos_pending = head & NODE_POS_FROM_CLUSTER != 0;
    if pos_pending && (head & NODE_KIND_CLUSTER == 0 || head & 0b11 != 0) {
        return Err(cur.error(format!(
            "node head {head:#04x} elides the position but is not a plain cluster node"
        )));
    }
    let skip = if pos_pending { 2 } else { 0 };
    let mut floats = [0.0f64; 5];
    for (i, f) in floats.iter_mut().enumerate().skip(skip) {
        *f = if (head >> i) & 1 == 1 {
            cur.zigzag("node int value")? as f64
        } else {
            cur.f64("node value")?
        };
    }
    let idx = cur.varint("node index")? as usize;
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

/// Decodes one member reference, which must name a node of the level's
/// entering node list.
fn read_member(cur: &mut Reader<'_>, entering: &Entering) -> Result<NodeSource, ReadError> {
    let tag = cur.u8("member tag")?;
    let idx = cur.varint("member index")? as usize;
    let source = match tag {
        MEMBER_REF_SINK => NodeSource::DesignSink(idx),
        MEMBER_REF_CLUSTER => NodeSource::Cluster(idx),
        other => return Err(cur.error(format!("unknown member tag {other}"))),
    };
    if tag != entering.0 || !entering.1.contains(&idx) {
        let entered = if entering.0 == MEMBER_REF_SINK {
            "design sinks"
        } else {
            "clusters"
        };
        return Err(cur.error(format!(
            "member {source:?} is not among the {entered} {:?} that entered the level",
            entering.1
        )));
    }
    Ok(source)
}

/// Checks one cluster's tree frame at the cursor and returns its bytes:
/// checksum, node structure, and every sink index naming one of the
/// cluster's `members`.
fn read_frame<'a>(cur: &mut Reader<'a>, members: usize) -> Result<&'a [u8], ReadError> {
    let mut bad_sink = None;
    let header = visit_frame(cur.rest(), (), |(), n| {
        if let NodeKind::Sink { sink_index, .. } = n.kind {
            if sink_index >= members {
                bad_sink.get_or_insert(sink_index);
            }
        }
    })
    .map_err(|e| cur.error(format!("cluster tree: {e}")))?;
    if let Some(i) = bad_sink {
        return Err(cur.error(format!(
            "cluster tree sink {i} names none of the cluster's {members} members"
        )));
    }
    cur.take(header.len, "cluster tree")
}

type DecodedLevel = (usize, LevelReport, Vec<LevelNode>, Vec<BuiltCluster>);

/// Decodes one level payload back to the flow state it sealed. Member
/// references must name a node of `entering`, the node list that
/// entered this level.
fn decode_level(payload: &[u8], entering: &Entering) -> Result<DecodedLevel, ReadError> {
    let mut cur = Reader::new(payload);
    if cur.take(4, "level magic")? != LEVEL_MAGIC {
        return Err(cur.error("frame payload is not a CKL2 level record"));
    }
    let level = cur.varint("level index")? as usize;
    let rep_len = cur.count("report", 1)?;
    let rep_bytes = cur.take(rep_len, "report JSON")?;
    let rep_str =
        std::str::from_utf8(rep_bytes).map_err(|_| cur.error("report JSON is not UTF-8"))?;
    let rep_value =
        sllt_obs::json::parse(rep_str).map_err(|e| cur.error(format!("report JSON: {e}")))?;
    let report = level_report_from_value(&rep_value).map_err(|e| cur.error(e))?;
    let n_nodes = cur.count("nodes", NODE_MIN_BYTES)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut pos_pending = Vec::new();
    for i in 0..n_nodes {
        let (node, pending) = read_node(&mut cur)?;
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
            return Err(cur.error(format!("reserved cluster flag bits set ({flags:#04x})")));
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
        let members = (0..n_members)
            .map(|_| read_member(&mut cur, entering))
            .collect::<Result<Vec<_>, _>>()?;
        let frame = read_frame(&mut cur, members.len())?.to_vec();
        let driver_pos = explicit_pos.unwrap_or_else(|| frame_source(&frame));
        clusters.push(BuiltCluster {
            frame,
            members,
            cell,
            pads,
            driver_pos,
        });
    }
    if cur.pos() != payload.len() {
        return Err(cur.error(format!(
            "{} unread bytes after level record",
            payload.len() - cur.pos()
        )));
    }
    for i in pos_pending {
        let idx = match nodes[i].source {
            NodeSource::Cluster(idx) => idx,
            NodeSource::DesignSink(_) => unreachable!("validated during node decode"),
        };
        let cluster = clusters.get(idx).ok_or_else(|| {
            cur.error(format!(
                "node {i} elides its position via absent cluster {idx}"
            ))
        })?;
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
        Ok(CheckpointWriter { app })
    }

    /// Reopens an existing journal for appending, truncating to the
    /// intact prefix `valid_len` first (discarding any torn tail).
    pub(crate) fn reopen(
        vfs: &dyn Vfs,
        path: &Path,
        valid_len: u64,
    ) -> Result<CheckpointWriter, CtsError> {
        let app = DurableAppender::reopen_with(vfs, path, valid_len)
            .map_err(|e| io_err("reopening checkpoint journal", e))?;
        Ok(CheckpointWriter { app })
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
        let payload = encode_level(report, nodes, new_clusters);
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
        // Level 0's members are the design's sinks; every later level's
        // are the clusters the level below it built.
        let mut entering: Entering = (MEMBER_REF_SINK, 0..design.sinks.len());
        for (i, frame) in journal.frames.iter().enumerate() {
            let (level, report, nodes, new_clusters) = decode_level(&frame.payload, &entering)
                .map_err(|e| ckpt_err(format!("level frame {i}: {e}")))?;
            let base = out.clusters.len();
            entering = (MEMBER_REF_CLUSTER, base..base + new_clusters.len());
            out.push_level(i, level, report, nodes, new_clusters)?;
        }

        // Arena integrity: every node the next level would consume must
        // resolve (members were checked against their level above).
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
        for n in &out.nodes {
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
            let mut cur = Reader::new(&buf);
            let (back, pos_pending) = read_node(&mut cur).unwrap();
            assert!(!pos_pending);
            assert_eq!(cur.pos(), buf.len());
            assert_eq!(back.pos.x.to_bits(), n.pos.x.to_bits());
            assert_eq!(back.pos.y.to_bits(), n.pos.y.to_bits());
            assert_eq!(back.cap_ff.to_bits(), n.cap_ff.to_bits());
            assert_eq!(back.interval_ps.0.to_bits(), n.interval_ps.0.to_bits());
            assert_eq!(back.interval_ps.1.to_bits(), n.interval_ps.1.to_bits());
        }
    }

    /// One level-0 record: `n_clusters` clusters of two design sinks
    /// each, so its members reference design sinks `0..2 * n_clusters`.
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
                frame: sllt_tree::codec::encode_tree(&tree),
                members: vec![
                    NodeSource::DesignSink(2 * i),
                    NodeSource::DesignSink(2 * i + 1),
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

    fn sinks(n: usize) -> Entering {
        (MEMBER_REF_SINK, 0..n)
    }

    #[test]
    fn binary_level_record_round_trips_bit_exactly() {
        let (report, nodes, clusters) = sample_level(5);
        let payload = encode_level(&report, &nodes, &clusters);
        let (level, rep, back_nodes, back_clusters) = decode_level(&payload, &sinks(10)).unwrap();
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
            assert_eq!(a.members, b.members);
            // Frames travel verbatim.
            assert_eq!(a.frame, b.frame);
        }
    }

    #[test]
    fn member_references_outside_the_entering_level_are_refused() {
        let (report, nodes, clusters) = sample_level(4);
        let payload = encode_level(&report, &nodes, &clusters);
        // Members are design sinks 0..8: a shorter sink range or a
        // cluster range cannot hold them.
        assert!(decode_level(&payload, &sinks(8)).is_ok());
        let short = decode_level(&payload, &sinks(7)).unwrap_err();
        assert!(short.message.contains("DesignSink(7)"), "{short}");
        let clusters_entered = decode_level(&payload, &(MEMBER_REF_CLUSTER, 0..8)).unwrap_err();
        assert!(
            clusters_entered
                .message
                .contains("is not among the clusters 0..8"),
            "{clusters_entered}"
        );
    }

    #[test]
    fn cluster_trees_naming_absent_members_are_refused() {
        let (report, nodes, mut clusters) = sample_level(2);
        clusters[1].members.pop();
        let payload = encode_level(&report, &nodes, &clusters);
        let e = decode_level(&payload, &sinks(4)).unwrap_err();
        assert!(
            e.message.contains("names none of the cluster's 1 members"),
            "{e}"
        );
    }

    /// Past the report JSON (whose timings go through fractional
    /// milliseconds), the level records of the schema-2 fixture decode
    /// and re-encode to the same bytes: the shared byte helpers write
    /// what the checkpoint's own copies wrote, and frames travel
    /// verbatim.
    #[test]
    fn fixture_level_records_re_encode_byte_for_byte() {
        let past_report = |payload: &[u8]| {
            let mut cur = Reader::new(payload);
            cur.take(4, "magic").unwrap();
            cur.varint("level").unwrap();
            let len = cur.count("report", 1).unwrap();
            cur.take(len, "report").unwrap();
            cur.rest().to_vec()
        };
        let bytes = include_bytes!("../tests/fixtures/schema2_grid36.ckpt");
        let journal = read_journal_bytes(bytes).unwrap();
        assert!(journal.frames.len() >= 2);
        let (mut entering, mut built) = (sinks(36), 0);
        for frame in &journal.frames {
            let (_, report, nodes, clusters) = decode_level(&frame.payload, &entering).unwrap();
            let again = encode_level(&report, &nodes, &clusters);
            assert_eq!(past_report(&again), past_report(&frame.payload));
            entering = (MEMBER_REF_CLUSTER, built..built + clusters.len());
            built += clusters.len();
        }
    }

    #[test]
    fn corrupt_binary_level_records_error_not_panic() {
        let (report, nodes, clusters) = sample_level(2);
        let entering = sinks(4);
        let payload = encode_level(&report, &nodes, &clusters);
        assert!(decode_level(b"nope", &entering).is_err());
        assert!(decode_level(&payload[..payload.len() - 1], &entering).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_level(&trailing, &entering).is_err());
        for cut in (0..payload.len()).step_by(7) {
            let _ = decode_level(&payload[..cut], &entering);
        }
        // Flipped bytes must error or decode, never panic. (Most flips
        // land in raw f64 coordinates and still decode — fine; the
        // journal frame checksum guards integrity above this layer.)
        for i in (0..payload.len()).step_by(3) {
            let mut bad = payload.clone();
            bad[i] ^= 0xA5;
            let _ = decode_level(&bad, &entering);
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
