//! Plain-text clock tree serialization.
//!
//! A line-based format that survives hand editing and diffs:
//!
//! ```text
//! sllt-tree v1
//! source 12.5 40.0
//! node 1 steiner 20.0 40.0 0 7.5
//! node 2 sink 25.0 44.0 1 9.0 cap 0.8 idx 0
//! node 3 buffer 18.0 40.0 0 5.5 cell 2
//! ```
//!
//! Node ids are the writer's arena indices; parents always precede
//! children. Routed edge lengths are stored explicitly, so detour wire
//! round-trips exactly.
//!
//! [`write_tree`] batches its own output through a private 64 KiB
//! buffer, so a caller may hand it a raw `File`: it costs about one
//! `write(2)` per 64 KiB either way.

use crate::{ClockTree, NodeId, NodeKind};
use sllt_geom::Point;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufWriter, Write};

/// Size of [`write_tree`]'s private output buffer, in bytes.
const WRITE_BUF: usize = 64 * 1024;

/// Errors from [`read_tree`].
#[derive(Debug)]
pub enum ParseTreeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic problem at a 1-based line number.
    Syntax {
        /// Line where the problem was found.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for ParseTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTreeError::Io(e) => write!(f, "i/o error reading tree: {e}"),
            ParseTreeError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl Error for ParseTreeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTreeError::Io(e) => Some(e),
            ParseTreeError::Syntax { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseTreeError {
    fn from(e: std::io::Error) -> Self {
        ParseTreeError::Io(e)
    }
}

/// Writes the tree in the v1 text format.
///
/// Output goes through a private 64 KiB buffer that is flushed before
/// this returns, so `w` sees about one `write` per 64 KiB whatever
/// writer it is.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_tree<W: Write>(tree: &ClockTree, w: &mut W) -> std::io::Result<()> {
    let mut w = BufWriter::with_capacity(WRITE_BUF, w);
    writeln!(w, "sllt-tree v1")?;
    let src = tree.source_pos();
    writeln!(w, "source {} {}", src.x, src.y)?;
    // Stable compact ids in topological order.
    let order = tree.topo_order();
    let mut compact = vec![usize::MAX; tree.arena_len()];
    for (i, id) in order.iter().enumerate() {
        compact[id.index()] = i;
    }
    for id in order.iter().skip(1) {
        let n = tree.node(*id);
        let parent = compact[n.parent().expect("non-root has parent").index()];
        let me = compact[id.index()];
        match n.kind {
            NodeKind::Sink { cap_ff, sink_index } => writeln!(
                w,
                "node {} sink {} {} {} {} cap {} idx {}",
                me,
                n.pos.x,
                n.pos.y,
                parent,
                n.edge_len(),
                cap_ff,
                sink_index
            )?,
            NodeKind::Steiner => writeln!(
                w,
                "node {} steiner {} {} {} {}",
                me,
                n.pos.x,
                n.pos.y,
                parent,
                n.edge_len()
            )?,
            NodeKind::Buffer { cell } => writeln!(
                w,
                "node {} buffer {} {} {} {} cell {}",
                me,
                n.pos.x,
                n.pos.y,
                parent,
                n.edge_len(),
                cell
            )?,
            NodeKind::Source => {
                unreachable!("only the root is a source and it is skipped")
            }
        }
    }
    w.flush()
}

/// Reads a tree from the v1 text format.
///
/// # Errors
///
/// Returns [`ParseTreeError::Syntax`] for malformed input (bad header,
/// unknown node kind, forward parent references, undersized edge
/// lengths, a sink index or buffer cell above `u32::MAX`) and
/// [`ParseTreeError::Io`] for reader failures.
pub fn read_tree<R: BufRead>(r: &mut R) -> Result<ClockTree, ParseTreeError> {
    let syntax = |line: usize, message: String| ParseTreeError::Syntax { line, message };
    let mut lines = r.lines().enumerate();

    let (ln, header) = lines
        .next()
        .ok_or_else(|| syntax(1, "empty input".into()))
        .and_then(|(i, l)| Ok((i + 1, l?)))?;
    if header.trim() != "sllt-tree v1" {
        return Err(syntax(
            ln,
            format!("expected header 'sllt-tree v1', got {header:?}"),
        ));
    }

    let (ln, source_line) = lines
        .next()
        .ok_or_else(|| syntax(2, "missing source line".into()))
        .and_then(|(i, l)| Ok((i + 1, l?)))?;
    let parts: Vec<&str> = source_line.split_whitespace().collect();
    if parts.len() != 3 || parts[0] != "source" {
        return Err(syntax(
            ln,
            format!("expected 'source <x> <y>', got {source_line:?}"),
        ));
    }
    let parse_f = |s: &str, ln: usize| {
        s.parse::<f64>()
            .map_err(|_| syntax(ln, format!("not a number: {s:?}")))
    };
    // The arena holds sink indices and buffer cells in 32 bits.
    let parse_index = |s: &str, what: &str, ln: usize| {
        s.parse::<u32>()
            .map(|i| i as usize)
            .map_err(|_| syntax(ln, format!("bad {what} {s:?} (want 0 to {})", u32::MAX)))
    };
    let src = Point::new(parse_f(parts[1], ln)?, parse_f(parts[2], ln)?);
    let mut tree = ClockTree::new(src);
    let mut ids: Vec<NodeId> = vec![tree.root()];

    for (i, line) in lines {
        let ln = i + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let p: Vec<&str> = line.split_whitespace().collect();
        if p.len() < 6 || p[0] != "node" {
            return Err(syntax(ln, format!("expected a node line, got {line:?}")));
        }
        let declared: usize = p[1]
            .parse()
            .map_err(|_| syntax(ln, format!("bad node id {:?}", p[1])))?;
        if declared != ids.len() {
            return Err(syntax(
                ln,
                format!(
                    "node ids must be dense and ordered: expected {}, got {declared}",
                    ids.len()
                ),
            ));
        }
        let kind = p[2];
        let pos = Point::new(parse_f(p[3], ln)?, parse_f(p[4], ln)?);
        let parent: usize = p[5]
            .parse()
            .map_err(|_| syntax(ln, format!("bad parent id {:?}", p[5])))?;
        if parent >= ids.len() {
            return Err(syntax(ln, format!("parent {parent} not yet defined")));
        }
        let edge = parse_f(p.get(6).copied().unwrap_or("0"), ln)?;
        let parent_id = ids[parent];
        let id = match kind {
            "steiner" => tree.add_steiner(parent_id, pos),
            "sink" => {
                if p.len() < 11 || p[7] != "cap" || p[9] != "idx" {
                    return Err(syntax(ln, "sink needs 'cap <f> idx <n>'".into()));
                }
                let cap = parse_f(p[8], ln)?;
                let idx = parse_index(p[10], "sink index", ln)?;
                tree.add_sink_indexed(parent_id, pos, cap, idx)
            }
            "buffer" => {
                if p.len() < 9 || p[7] != "cell" {
                    return Err(syntax(ln, "buffer needs 'cell <n>'".into()));
                }
                let cell = parse_index(p[8], "cell index", ln)?;
                tree.add_buffer(parent_id, pos, cell)
            }
            other => return Err(syntax(ln, format!("unknown node kind {other:?}"))),
        };
        let dist = tree.node(parent_id).pos.dist(pos);
        if edge < dist - 1e-6 {
            return Err(syntax(
                ln,
                format!("edge length {edge} cannot cover manhattan distance {dist}"),
            ));
        }
        tree.set_edge_len(id, edge.max(dist));
        ids.push(id);
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample_tree();
        let mut buf = Vec::new();
        write_tree(&t, &mut buf).unwrap();
        let back = read_tree(&mut buf.as_slice()).unwrap();
        back.validate().unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.sinks().len(), t.sinks().len());
        assert!(
            (back.wirelength() - t.wirelength()).abs() < 1e-9,
            "detour lost"
        );
        // Sink identity survives.
        let mut idx: Vec<usize> = back
            .sinks()
            .iter()
            .map(|&id| match back.node(id).kind {
                NodeKind::Sink { sink_index, .. } => sink_index,
                _ => unreachable!(),
            })
            .collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 3]);
    }

    #[test]
    fn round_trip_random_trees() {
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = ClockTree::new(Point::ORIGIN);
            let mut nodes = vec![t.root()];
            for i in 0..30 {
                let parent = nodes[rng.random_range(0..nodes.len())];
                let pos = Point::new(rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0));
                let id = match rng.random_range(0..3) {
                    0 => t.add_steiner(parent, pos),
                    1 => t.add_sink_indexed(parent, pos, rng.random_range(0.1..3.0), i),
                    _ => t.add_buffer(parent, pos, rng.random_range(0..5)),
                };
                if rng.random_bool(0.3) {
                    t.add_detour(id, rng.random_range(0.0..10.0));
                }
                nodes.push(id);
            }
            let mut buf = Vec::new();
            write_tree(&t, &mut buf).unwrap();
            let back = read_tree(&mut buf.as_slice()).unwrap();
            assert_eq!(back.len(), t.len());
            assert!((back.wirelength() - t.wirelength()).abs() < 1e-9);
            back.validate().unwrap();
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("nope", 1, "header"),
            ("sllt-tree v1\nsource a b", 2, "not a number"),
            (
                "sllt-tree v1\nsource 0 0\nnode 5 steiner 0 0 0 0",
                3,
                "dense",
            ),
            (
                "sllt-tree v1\nsource 0 0\nnode 1 gizmo 0 0 0 0",
                3,
                "unknown node kind",
            ),
            (
                "sllt-tree v1\nsource 0 0\nnode 1 steiner 9 9 0 1",
                3,
                "cannot cover",
            ),
            ("sllt-tree v1\nsource 0 0\nnode 1 sink 1 1 0 2", 3, "cap"),
            (
                "sllt-tree v1\nsource 0 0\nnode 1 sink 1 1 0 2 cap 1 idx 4294967296",
                3,
                "bad sink index",
            ),
            (
                "sllt-tree v1\nsource 0 0\nnode 1 steiner 1 0 0 1\nnode 2 buffer 1 1 1 1 cell 4294967296",
                4,
                "bad cell index",
            ),
        ];
        for (input, want_line, want_msg) in cases {
            match read_tree(&mut input.as_bytes()) {
                Err(ParseTreeError::Syntax { line, message }) => {
                    assert_eq!(line, want_line, "{input:?}");
                    assert!(
                        message.contains(want_msg),
                        "{input:?}: message {message:?} missing {want_msg:?}"
                    );
                }
                other => panic!("{input:?}: expected syntax error, got {other:?}"),
            }
        }
    }

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `side`×`side` sink grid at 15 µm pitch, one buffered steiner
    /// spine per row, every third sink with a detour.
    fn grid_tree(side: usize) -> ClockTree {
        let mut t = ClockTree::new(Point::new(-7.5, 0.0));
        for row in 0..side {
            let y = row as f64 * 15.0;
            let b = t.add_buffer(t.root(), Point::new(0.0, y), row % 4);
            let s = t.add_steiner(b, Point::new(7.5, y));
            for col in 0..side {
                let i = row * side + col;
                let k = t.add_sink_indexed(s, Point::new(col as f64 * 15.0, y + 0.25), 0.8, i);
                if i.is_multiple_of(3) {
                    t.add_detour(k, 1.5);
                }
            }
        }
        t
    }

    /// `grid_tree(64)`'s text as the unbuffered writer produced it.
    const GRID64_LEN: usize = 219_601;
    const GRID64_FNV: u64 = 0x968e_bb39_ecd7_975c;

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn write_tree_batches_its_output_into_few_writes() {
        let t = grid_tree(64);
        let mut w = CountingWriter::default();
        write_tree(&t, &mut w).unwrap();
        let bound = w.bytes.len().div_ceil(WRITE_BUF) + 1;
        assert!(
            w.writes <= bound,
            "{} writes for {} bytes of {} nodes, bound {bound}",
            w.writes,
            w.bytes.len(),
            t.len()
        );
        // The bytes written before the buffering, pinned.
        assert_eq!(w.bytes.len(), GRID64_LEN);
        assert_eq!(fnv1a64(&w.bytes), GRID64_FNV);
        let back = read_tree(&mut w.bytes.as_slice()).unwrap();
        assert_eq!(back.len(), t.len());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let input = "sllt-tree v1\nsource 0 0\n\n# a comment\nnode 1 steiner 1 0 0 1\n";
        let t = read_tree(&mut input.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
    }
}
