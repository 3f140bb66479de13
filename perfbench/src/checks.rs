//! Correctness checks on the program's outputs. Each returns a reason
//! on failure; the workloads count every failing tree or job against
//! `ok_share` and the result's `failed` field.

use sllt_buffer::repeater::downstream_caps;
use sllt_cts::{evaluate, HierarchicalCts, TreeReport};
use sllt_design::Design;
use sllt_obs::Value;
use sllt_tree::{ClockTree, NodeKind};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;

/// Every design sink appears in the tree exactly once, as a leaf at its
/// own position with its own pin capacitance, and the tree is a valid
/// rooted tree.
pub fn covers_each_sink_once(tree: &ClockTree, design: &Design) -> Result<(), String> {
    tree.validate()
        .map_err(|e| format!("{}: invalid tree: {e:?}", design.name))?;
    let mut seen = vec![false; design.sinks.len()];
    for id in tree.sinks() {
        let node = tree.node(id);
        let NodeKind::Sink { cap_ff, sink_index } = node.kind else {
            unreachable!("sinks() yields sinks");
        };
        let Some(want) = design.sinks.get(sink_index) else {
            return Err(format!(
                "{}: sink index {sink_index} out of range",
                design.name
            ));
        };
        if std::mem::replace(&mut seen[sink_index], true) {
            return Err(format!("{}: sink {sink_index} reached twice", design.name));
        }
        if node.pos != want.pos || cap_ff != want.cap_ff || node.children().next().is_some() {
            return Err(format!(
                "{}: sink {sink_index} moved, resized or not a leaf",
                design.name
            ));
        }
    }
    match seen.iter().position(|s| !s) {
        Some(i) => Err(format!("{}: sink {i} never reached", design.name)),
        None => Ok(()),
    }
}

/// Equal up to decimal-text round-tripping: 1e-9 relative, the same
/// tolerance the repository's BENCH gate uses.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
}

/// Same QoR: every float [`close`], every integer field equal.
pub fn same_qor(a: &TreeReport, b: &TreeReport) -> bool {
    a.num_buffers == b.num_buffers
        && a.num_sinks == b.num_sinks
        && close(a.skew_ps, b.skew_ps)
        && close(a.max_latency_ps, b.max_latency_ps)
        && close(a.min_latency_ps, b.min_latency_ps)
        && close(a.clock_wl_um, b.clock_wl_um)
        && close(a.clock_cap_ff, b.clock_cap_ff)
        && close(a.max_slew_ps, b.max_slew_ps)
        && close(a.buffer_area_um2, b.buffer_area_um2)
}

/// Reads a written tree file back and checks that it evaluates to
/// `expect`. Returns the tree read, for further checks.
pub fn reads_back(
    path: &Path,
    expect: &TreeReport,
    cts: &HierarchicalCts,
) -> Result<ClockTree, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let tree = sllt_tree::io::read_tree(&mut BufReader::new(f))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if tree.sinks().is_empty() {
        return Err(format!("{}: tree has no sinks", path.display()));
    }
    let got = evaluate(&tree, &cts.tech, &cts.lib);
    if !same_qor(&got, expect) {
        return Err(format!(
            "{}: read-back QoR {got:?} differs from the built tree's {expect:?}",
            path.display()
        ));
    }
    Ok(tree)
}

/// Share of sinks whose insertion delay lies within the skew bound of
/// the tree's earliest sink; 1 exactly when the tree meets the bound.
/// Delays are propagated the way `sllt_cts::evaluate` does it, and the
/// extremes must agree with `report`, so this doubles as an independent
/// check of the evaluator on the tree.
pub fn skew_met_share(
    tree: &ClockTree,
    cts: &HierarchicalCts,
    report: &TreeReport,
) -> Result<(usize, usize), String> {
    let (tech, lib) = (&cts.tech, &cts.lib);
    let caps = downstream_caps(tree, tech, Some(lib));
    let mut delay = vec![0.0f64; tree.arena_len()];
    let mut slew = vec![tech.source_slew_ps; tree.arena_len()];
    for v in tree.topo_order() {
        let node = tree.node(v);
        let i = v.index();
        if let Some(p) = node.parent() {
            let load = match node.kind {
                NodeKind::Buffer { cell } => lib.cells()[cell].input_cap_ff,
                _ => caps[i],
            };
            delay[i] = delay[p.index()] + tech.wire_delay(node.edge_len(), load);
            slew[i] = tech.wire_output_slew(slew[p.index()], node.edge_len(), load);
        }
        if let NodeKind::Buffer { cell } = node.kind {
            let cell = &lib.cells()[cell];
            delay[i] += cell.delay(slew[i], caps[i]);
            slew[i] = cell.output_slew(slew[i], caps[i]);
        }
    }
    let sinks: Vec<f64> = tree.sinks().iter().map(|s| delay[s.index()]).collect();
    let lo = sinks.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = sinks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !close(lo, report.min_latency_ps) || !close(hi, report.max_latency_ps) {
        return Err(format!(
            "independent delay propagation gives latency {lo}..{hi} ps, evaluate {}..{} ps",
            report.min_latency_ps, report.max_latency_ps
        ));
    }
    let bound = lo + cts.constraints.skew_ps;
    Ok((sinks.iter().filter(|&&d| d <= bound).count(), sinks.len()))
}

/// What the in-process reference run of a daemon job's design built.
#[derive(Debug, Clone)]
pub struct Reference {
    pub report: TreeReport,
    /// FNV-1a-64 of the reference tree file's bytes.
    pub tree_hash: u64,
}

/// A daemon `result` reply for a finished job must say `ok`, carry the
/// reference tree's skew, wirelength and buffer count, and point at a
/// tree file byte-identical to the in-process tree (trees are
/// bit-identical at any worker count).
pub fn daemon_result_matches(reply: &Value, reference: &Reference) -> Result<(), String> {
    let status = reply.get("status").and_then(Value::as_str).unwrap_or("?");
    if reply.get("done") != Some(&Value::Bool(true)) || status != "ok" {
        return Err(format!("job did not finish ok: {}", reply.encode()));
    }
    let res = reply.get("result").ok_or("ok reply without a result")?;
    let num = |k: &str| {
        res.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("result lacks {k}"))
    };
    let r = &reference.report;
    if !close(num("skew_ps")?, r.skew_ps)
        || !close(num("wl_um")?, r.clock_wl_um)
        || num("buffers")? != r.num_buffers as f64
    {
        return Err(format!(
            "daemon QoR {} differs from in-process skew {} ps, WL {} um, {} buffers",
            res.encode(),
            r.skew_ps,
            r.clock_wl_um,
            r.num_buffers
        ));
    }
    let tree = res
        .get("tree")
        .and_then(Value::as_str)
        .ok_or("result lacks tree")?;
    let bytes = std::fs::read(tree).map_err(|e| format!("{tree}: {e}"))?;
    if sllt_obs::journal::fnv1a64(&bytes) != reference.tree_hash {
        return Err(format!("{tree}: differs from the in-process tree"));
    }
    Ok(())
}

/// Per-design rows of the committed `BENCH_cts.json`, by design name.
pub fn bench_rows(path: &Path) -> Result<BTreeMap<String, Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = sllt_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = bench
        .get("designs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no designs array", path.display()))?;
    Ok(rows
        .iter()
        .filter_map(|r| Some((r.get("design")?.as_str()?.to_string(), r.clone())))
        .collect())
}

/// The tree's QoR equals a BENCH row.
pub fn matches_bench_qor(report: &TreeReport, row: &Value) -> Result<(), String> {
    let get = |k: &str| row.get(k).and_then(Value::as_f64);
    let same = get("clock_wl_um").is_some_and(|v| close(v, report.clock_wl_um))
        && get("skew_ps").is_some_and(|v| close(v, report.skew_ps))
        && get("max_latency_ps").is_some_and(|v| close(v, report.max_latency_ps))
        && get("clock_cap_ff").is_some_and(|v| close(v, report.clock_cap_ff))
        && get("num_buffers") == Some(report.num_buffers as f64);
    if same {
        Ok(())
    } else {
        Err(format!(
            "QoR {report:?} differs from BENCH row {}",
            row.encode()
        ))
    }
}

/// The traced run's counters equal a BENCH row's, key for key.
pub fn matches_bench_counters(counters: &BTreeMap<String, u64>, row: &Value) -> Result<(), String> {
    let want: BTreeMap<String, u64> = match row.get("counters") {
        Some(Value::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    if &want == counters {
        return Ok(());
    }
    let diff: Vec<String> = want
        .keys()
        .chain(counters.keys())
        .filter(|k| want.get(*k) != counters.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", want.get(k), counters.get(k)))
        .collect();
    Err(format!("counters differ from BENCH: {}", diff.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sllt_design::GridSpec;

    fn built() -> (Design, ClockTree, TreeReport, HierarchicalCts) {
        let design = GridSpec::square(64).instantiate();
        let cts = HierarchicalCts {
            workers: 1,
            ..HierarchicalCts::default()
        };
        let tree = cts.run(&design).expect("flow runs");
        let report = evaluate(&tree, &cts.tech, &cts.lib);
        (design, tree, report, cts)
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(tree: &ClockTree, path: &Path) -> Vec<u8> {
        let mut bytes = Vec::new();
        sllt_tree::io::write_tree(tree, &mut bytes).unwrap();
        std::fs::write(path, &bytes).unwrap();
        bytes
    }

    #[test]
    fn a_good_tree_passes_every_check() {
        let (design, tree, report, cts) = built();
        covers_each_sink_once(&tree, &design).unwrap();
        let dir = scratch("good");
        let path = dir.join("t.sllt");
        write(&tree, &path);
        let back = reads_back(&path, &report, &cts).unwrap();
        let (met, n) = skew_met_share(&back, &cts, &report).unwrap();
        assert_eq!(n, 64);
        assert_eq!(met == n, report.skew_ps <= cts.constraints.skew_ps);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_corrupted_tree_file_trips_the_read_back_check() {
        let (design, tree, report, cts) = built();
        let dir = scratch("corrupt");
        let path = dir.join("t.sllt");
        let text = String::from_utf8(write(&tree, &path)).unwrap();

        // A stretched wire: the file still parses but evaluates differently.
        let stretched: Vec<String> = text
            .lines()
            .map(|l| match l.strip_prefix("node ") {
                Some(rest) if l.contains(" sink ") => {
                    let mut f: Vec<String> = rest.split(' ').map(str::to_string).collect();
                    f[5] = format!("{}", f[5].parse::<f64>().unwrap() + 50.0);
                    format!("node {}", f.join(" "))
                }
                _ => l.to_string(),
            })
            .collect();
        std::fs::write(&path, stretched.join("\n") + "\n").unwrap();
        assert!(reads_back(&path, &report, &cts).is_err());

        // A truncated file: a sink goes missing or the file fails to parse.
        std::fs::write(&path, &text[..text.len() * 2 / 3]).unwrap();
        match reads_back(&path, &report, &cts) {
            Err(_) => {}
            Ok(back) => assert!(covers_each_sink_once(&back, &design).is_err()),
        }

        // Garbage.
        std::fs::write(&path, "sllt-tree v1\nnode banana\n").unwrap();
        assert!(reads_back(&path, &report, &cts).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_mismatched_daemon_result_trips_the_job_check() {
        let (_, tree, report, _) = built();
        let dir = scratch("daemon");
        let path = dir.join("tree_j1.sllt");
        let bytes = write(&tree, &path);
        let reference = Reference {
            report,
            tree_hash: sllt_obs::journal::fnv1a64(&bytes),
        };
        let reply = |skew: f64, buffers: usize, status: &str| {
            Value::obj()
                .with("ok", true)
                .with("done", true)
                .with("status", status)
                .with(
                    "result",
                    Value::obj()
                        .with("skew_ps", skew)
                        .with("wl_um", report.clock_wl_um)
                        .with("buffers", buffers)
                        .with("tree", path.display().to_string()),
                )
        };
        daemon_result_matches(&reply(report.skew_ps, report.num_buffers, "ok"), &reference)
            .unwrap();
        assert!(daemon_result_matches(
            &reply(report.skew_ps + 1.0, report.num_buffers, "ok"),
            &reference
        )
        .is_err());
        assert!(daemon_result_matches(
            &reply(report.skew_ps, report.num_buffers + 1, "ok"),
            &reference
        )
        .is_err());
        assert!(daemon_result_matches(
            &reply(report.skew_ps, report.num_buffers, "error"),
            &reference
        )
        .is_err());

        // Same numbers, different tree on disk.
        let mut other = bytes.clone();
        other.extend_from_slice(b"# trailing edit\n");
        std::fs::write(&path, other).unwrap();
        assert!(daemon_result_matches(
            &reply(report.skew_ps, report.num_buffers, "ok"),
            &reference
        )
        .is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
