//! Crash-safe level checkpoints (see `DESIGN.md`, *Durability model*).
//!
//! After each hierarchical level commits, the flow appends one sealed
//! record to an append-only journal (`sllt-obs`): the level's
//! [`LevelReport`] and the clusters built at that level, which are also
//! the nodes the next level partitions. Because the per-level RNG
//! streams are derived statelessly from the flow seed and the level
//! index, this is the *complete* inter-level state: a resumed run
//! re-derives everything else and continues bit-identically.
//!
//! On disk (schema 4, the only format), each level is one binary
//! journal frame: a `CKL4` payload holding the report (JSON bytes) and
//! every cluster as its driver cell, pad count, delay interval, member
//! references and routed tree's `sllt_tree::codec` frame — the form the
//! flow already holds it in, copied verbatim. A journal whose meta
//! record names any other schema is refused: schema-3 journals store a
//! node list beside each level's clusters, and schema-2 journals also
//! hold breadth-first tree frames, which would lay the assembled tree's
//! arena out in another order.
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
use crate::route::{Entering, NodeSource};
use crate::telemetry::{level_report_from_value, level_value};
use sllt_design::Design;
use sllt_obs::journal::read_journal_bytes;
use sllt_obs::vfs::Vfs;
use sllt_obs::{DurableAppender, Value};
use sllt_tree::codec::{put_f64, put_varint, visit_frame, ReadError, Reader};
use sllt_tree::NodeKind;
use std::path::Path;

/// Journal schema version; bump on any incompatible record change.
/// Schema 4 stores a level as its clusters alone: the nodes the next
/// level sees are read from them.
pub const CHECKPOINT_SCHEMA: u64 = 4;

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

/// Magic prefix of a level payload inside its journal frame.
const LEVEL_MAGIC: &[u8; 4] = b"CKL4";

/// Member tag bytes: a member is a reference to a node that entered the
/// level — a design sink at level 0, a cluster the level below built
/// after that. Any other tag is refused.
const MEMBER_REF_SINK: u8 = 0;
const MEMBER_REF_CLUSTER: u8 = 1;

/// Minimum encoded size of one cluster: 1-byte cell, pad count and
/// member count, and the two raw interval floats.
const CLUSTER_MIN_BYTES: usize = 19;

/// Minimum encoded size of one member: tag byte + 1-byte index.
const MEMBER_MIN_BYTES: usize = 2;

/// Encodes one committed level as a frame payload: report JSON bytes
/// (small, once per level) and every cluster with its cell, pads, delay
/// interval, member references and routed tree's codec frame, copied
/// verbatim.
fn encode_level(report: &LevelReport, clusters: &[BuiltCluster]) -> Vec<u8> {
    let frames: usize = clusters.iter().map(|c| c.frame.len()).sum();
    let mut out = Vec::with_capacity(64 + frames + clusters.len() * 64);
    out.extend_from_slice(LEVEL_MAGIC);
    put_varint(&mut out, report.level as u64);
    let rep = level_value(report).encode();
    put_varint(&mut out, rep.len() as u64);
    out.extend_from_slice(rep.as_bytes());
    put_varint(&mut out, clusters.len() as u64);
    for c in clusters {
        put_varint(&mut out, c.cell as u64);
        put_varint(&mut out, c.pads as u64);
        put_f64(&mut out, c.interval_ps.0);
        put_f64(&mut out, c.interval_ps.1);
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

/// Decodes one member reference, which must name a node that entered
/// the level.
fn read_member(cur: &mut Reader<'_>, entering: &Entering) -> Result<NodeSource, ReadError> {
    let tag = cur.u8("member tag")?;
    let idx = cur.varint("member index")? as usize;
    let source = match tag {
        MEMBER_REF_SINK => NodeSource::DesignSink(idx),
        MEMBER_REF_CLUSTER => NodeSource::Cluster(idx),
        other => return Err(cur.error(format!("unknown member tag {other}"))),
    };
    if !entering.contains(source) {
        return Err(cur.error(format!(
            "member {source:?} is not among the {entering} that entered the level"
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

/// Decodes one level payload back to the level index, report and
/// clusters it sealed. Member references must name a node of
/// `entering`, the nodes that entered this level; the record must hold
/// the (non-zero) number of clusters its report names.
fn decode_level(
    payload: &[u8],
    entering: &Entering,
) -> Result<(usize, LevelReport, Vec<BuiltCluster>), ReadError> {
    let mut cur = Reader::new(payload);
    if cur.take(4, "level magic")? != LEVEL_MAGIC {
        return Err(cur.error("frame payload is not a CKL4 level record"));
    }
    let level = cur.varint("level index")? as usize;
    let rep_len = cur.count("report", 1)?;
    let rep_bytes = cur.take(rep_len, "report JSON")?;
    let rep_str =
        std::str::from_utf8(rep_bytes).map_err(|_| cur.error("report JSON is not UTF-8"))?;
    let rep_value =
        sllt_obs::json::parse(rep_str).map_err(|e| cur.error(format!("report JSON: {e}")))?;
    let report = level_report_from_value(&rep_value).map_err(|e| cur.error(e))?;
    let n_clusters = cur.count("clusters", CLUSTER_MIN_BYTES)?;
    if n_clusters == 0 {
        return Err(cur.error("level record holds no clusters"));
    }
    if n_clusters != report.num_clusters {
        return Err(cur.error(format!(
            "level record holds {n_clusters} clusters but its report names {}",
            report.num_clusters
        )));
    }
    let mut clusters = Vec::with_capacity(n_clusters);
    for _ in 0..n_clusters {
        let cell = cur.varint("cluster cell")? as usize;
        let pads = cur.varint("cluster pads")? as usize;
        let interval_ps = (cur.f64("cluster fastest")?, cur.f64("cluster slowest")?);
        let n_members = cur.count("members", MEMBER_MIN_BYTES)?;
        let members = (0..n_members)
            .map(|_| read_member(&mut cur, entering))
            .collect::<Result<Vec<_>, _>>()?;
        let frame = read_frame(&mut cur, members.len())?.to_vec();
        clusters.push(BuiltCluster {
            frame,
            members,
            cell,
            pads,
            interval_ps,
        });
    }
    if cur.pos() != payload.len() {
        return Err(cur.error(format!(
            "{} unread bytes after level record",
            payload.len() - cur.pos()
        )));
    }
    Ok((level, report, clusters))
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

    /// Seals one committed level: its report and the clusters built at
    /// this level (appended to the arena by the caller just before this
    /// call).
    pub(crate) fn append_level(
        &mut self,
        report: &LevelReport,
        new_clusters: &[BuiltCluster],
    ) -> Result<(), CtsError> {
        let payload = encode_level(report, new_clusters);
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
    /// The nodes entering the next level to build.
    pub(crate) entering: Entering,
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
    /// schema or fingerprint mismatch, a gap in the level sequence, a
    /// level record without exactly its report's (non-zero) cluster
    /// count, or a member naming a node that did not enter its level is
    /// [`CtsError::Checkpoint`].
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

        if records.next().is_some() {
            return Err(ckpt_err(
                "binary checkpoint contains extra JSON records after the meta",
            ));
        }
        let mut out = Checkpoint {
            reports: Vec::new(),
            clusters: Vec::new(),
            // Level 0's members are the design's sinks; every later
            // level's are the clusters the level below it built.
            entering: Entering::Sinks(design.sinks.len()),
            valid_len: journal.valid_len,
            torn: journal.torn_tail.map(|t| t.reason),
        };
        for (i, frame) in journal.frames.iter().enumerate() {
            let (level, report, new_clusters) = decode_level(&frame.payload, &out.entering)
                .map_err(|e| ckpt_err(format!("level frame {i}: {e}")))?;
            if level != i {
                return Err(ckpt_err(format!(
                    "level record {i}: level {level} out of sequence (expected {i})"
                )));
            }
            let base = out.clusters.len();
            out.entering = Entering::Clusters(base..base + new_clusters.len());
            out.reports.push(report);
            out.clusters.extend(new_clusters);
        }
        Ok(out)
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
    use sllt_geom::Point;
    use sllt_tree::ClockTree;

    /// One level-0 record: `n_clusters` clusters of two design sinks
    /// each, so its members reference design sinks `0..2 * n_clusters`.
    fn sample_level(n_clusters: usize) -> (LevelReport, Vec<BuiltCluster>) {
        let mut clusters = Vec::new();
        for i in 0..n_clusters {
            let x = i as f64 * 1.7;
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
                interval_ps: (x * 0.25, x * 0.5 + 1e-7),
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
        (report, clusters)
    }

    #[test]
    fn binary_level_record_round_trips_bit_exactly() {
        let (report, clusters) = sample_level(5);
        let payload = encode_level(&report, &clusters);
        let (level, rep, back) = decode_level(&payload, &Entering::Sinks(10)).unwrap();
        assert_eq!(level, 0);
        assert_eq!(rep.level, report.level);
        assert_eq!(back.len(), clusters.len());
        for (a, b) in back.iter().zip(&clusters) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.pads, b.pads);
            assert_eq!(a.interval_ps.0.to_bits(), b.interval_ps.0.to_bits());
            assert_eq!(a.interval_ps.1.to_bits(), b.interval_ps.1.to_bits());
            assert_eq!(a.members, b.members);
            // Frames travel verbatim.
            assert_eq!(a.frame, b.frame);
        }
    }

    #[test]
    fn member_references_outside_the_entering_level_are_refused() {
        let (report, clusters) = sample_level(4);
        let payload = encode_level(&report, &clusters);
        // Members are design sinks 0..8: a shorter sink range or a
        // cluster range cannot hold them.
        assert!(decode_level(&payload, &Entering::Sinks(8)).is_ok());
        let short = decode_level(&payload, &Entering::Sinks(7)).unwrap_err();
        assert!(short.message.contains("DesignSink(7)"), "{short}");
        let clusters_entered = decode_level(&payload, &Entering::Clusters(0..8)).unwrap_err();
        assert!(
            clusters_entered
                .message
                .contains("is not among the clusters 0..8"),
            "{clusters_entered}"
        );
    }

    #[test]
    fn cluster_trees_naming_absent_members_are_refused() {
        let (report, mut clusters) = sample_level(2);
        clusters[1].members.pop();
        let payload = encode_level(&report, &clusters);
        let e = decode_level(&payload, &Entering::Sinks(4)).unwrap_err();
        assert!(
            e.message.contains("names none of the cluster's 1 members"),
            "{e}"
        );
    }

    /// A record must hold exactly the clusters its report names, and at
    /// least one.
    #[test]
    fn cluster_counts_other_than_the_reports_are_refused() {
        let (mut report, clusters) = sample_level(2);
        report.num_clusters = 3;
        let e = decode_level(&encode_level(&report, &clusters), &Entering::Sinks(4)).unwrap_err();
        assert!(
            e.message
                .contains("holds 2 clusters but its report names 3"),
            "{e}"
        );
        let (empty_report, none) = sample_level(0);
        let e = decode_level(&encode_level(&empty_report, &none), &Entering::Sinks(4)).unwrap_err();
        assert!(e.message.contains("holds no clusters"), "{e}");
    }

    #[test]
    fn corrupt_binary_level_records_error_not_panic() {
        let (report, clusters) = sample_level(2);
        let entering = Entering::Sinks(4);
        let payload = encode_level(&report, &clusters);
        assert!(decode_level(b"nope", &entering).is_err());
        assert!(decode_level(&payload[..payload.len() - 1], &entering).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_level(&trailing, &entering).is_err());
        for cut in (0..payload.len()).step_by(7) {
            let _ = decode_level(&payload[..cut], &entering);
        }
        // Flipped bytes must error or decode, never panic. (Most flips
        // land in raw f64 values and still decode — fine; the journal
        // frame checksum guards integrity above this layer.)
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
