//! Live tracing and progress must be purely observational — and their
//! outputs must be well-formed.
//!
//! Three contracts pinned against the real engine on s35932:
//!
//! 1. **Bit-identity** — a traced run (recording sink + streaming trace
//!    rings) builds the same tree as an untraced run, at 1/2/4 workers;
//! 2. **Chrome export shape** — the exported trace parses, carries the
//!    stage spans, per-worker lanes, and the deep-layer counter tracks;
//! 3. **Event determinism** — the *set* of progress events (every
//!    field of their journal form, fractions included) is identical at
//!    any worker count.

use sllt_cts::flow::HierarchicalCts;
use sllt_cts::{FlowEvent, NullObserver, NullSink, RecordingSink};
use sllt_design::{Design, DesignSpec};
use sllt_obs::{chrome_trace, read_trace, TraceWriter, Value};

#[test]
fn traced_runs_build_bit_identical_trees() {
    let design = DesignSpec::by_name("s35932").unwrap().instantiate();
    let mut traces = Vec::new();
    for workers in [1usize, 2, 4] {
        let cts = HierarchicalCts {
            workers,
            ..HierarchicalCts::default()
        };
        let plain = cts
            .run_with_telemetry(&design, &mut NullObserver, &NullSink)
            .unwrap();

        let sink = RecordingSink::new();
        let hub = sink
            .registry()
            .enable_tracing(sllt_obs::DEFAULT_TRACE_CAPACITY);
        let traced = cts
            .run_with_telemetry(&design, &mut NullObserver, &sink)
            .unwrap();
        assert_eq!(
            plain, traced,
            "workers={workers}: tracing changed the built tree"
        );
        traces.push((workers, hub.drain()));
    }

    // The journal + Chrome pipeline over the 4-worker trace.
    let (_, chunks) = traces.iter().find(|(w, _)| *w == 4).unwrap();
    assert!(
        chunks.iter().map(|c| c.events.len()).sum::<usize>() > 0,
        "4-worker run produced no trace events"
    );
    let path = std::env::temp_dir().join(format!("sllt_cts_trace_{}.jsonl", std::process::id()));
    let mut writer = TraceWriter::create(&path, "s35932").unwrap();
    writer.write_chunks(chunks).unwrap();
    drop(writer);
    let tf = read_trace(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(tf.design, "s35932");
    assert!(!tf.torn);

    let doc = chrome_trace(&tf);
    // Self-validation: the export parses back bit-exactly.
    let text = doc.encode();
    let back = sllt_obs::json::parse(&text).expect("Chrome JSON parses");
    assert_eq!(back.encode(), text);

    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let span_names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for stage in [
        "cts.flow",
        "cts.level",
        "cts.partition",
        "cts.route",
        "cts.route.cluster",
        "cts.sizing",
        "cts.assemble",
    ] {
        assert!(span_names.contains(stage), "stage span {stage} missing");
    }
    // Per-worker lanes: cluster spans land on more than one tid.
    let cluster_lanes: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Value::as_str) == Some("B")
                && e.get("name").and_then(Value::as_str) == Some("cts.route.cluster")
        })
        .filter_map(|e| e.get("tid").and_then(Value::as_u64))
        .collect();
    assert!(
        cluster_lanes.len() > 1,
        "expected cluster spans on multiple worker lanes, got {cluster_lanes:?}"
    );
    // Counter tracks for the deep layers.
    let counter_names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for counter in [
        "cts.route.clusters",
        "partition.mcf.augmentations",
        "partition.kmeans.lloyd_iterations",
    ] {
        assert!(
            counter_names.contains(counter),
            "counter track {counter} missing; have {counter_names:?}"
        );
    }
}

/// Every event of a run at `workers` route threads, in delivery order.
fn flow_events(design: &Design, workers: usize) -> Vec<FlowEvent> {
    let cts = HierarchicalCts {
        workers,
        ..HierarchicalCts::default()
    };
    let mut events = Vec::new();
    cts.run_with_observer(design, &mut |ev: &FlowEvent| events.push(ev.clone()))
        .unwrap();
    events
}

/// Canonical form for set comparison: the encoded journal form of every
/// event (no wall-clock fields), sorted. Fractions are pure
/// integer-derived arithmetic, so they must match to the last bit
/// across worker counts.
fn canonical(events: &[FlowEvent]) -> Vec<String> {
    let mut enc: Vec<String> = events
        .iter()
        .filter_map(FlowEvent::progress_record)
        .map(|r| r.encode())
        .collect();
    enc.sort();
    enc
}

#[test]
fn progress_event_set_is_worker_count_independent() {
    let design = DesignSpec::by_name("s35932").unwrap().instantiate();
    let mut sets = Vec::new();
    for workers in [1usize, 2, 4] {
        let events = flow_events(&design, workers);

        // Shape: starts with FlowStart, ends with the assembly.
        assert!(matches!(events.first(), Some(FlowEvent::FlowStart { .. })));
        assert!(matches!(events.last(), Some(FlowEvent::Assembled { .. })));
        // Every level crosses all ten deciles exactly once.
        let levels: std::collections::BTreeSet<usize> = events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::LevelStart { level, .. } => Some(*level),
                _ => None,
            })
            .collect();
        for level in &levels {
            let mut tenths: Vec<u32> = events
                .iter()
                .filter_map(|e| match e {
                    FlowEvent::ClusterDecile {
                        level: l, tenths, ..
                    } if l == level => Some(*tenths),
                    _ => None,
                })
                .collect();
            tenths.sort_unstable();
            assert_eq!(
                tenths,
                (1..=10).collect::<Vec<u32>>(),
                "workers={workers} level {level}: decile set wrong"
            );
        }
        sets.push((workers, canonical(&events)));
    }
    for (workers, set) in &sets[1..] {
        assert_eq!(
            set, &sets[0].1,
            "progress event set diverges between 1 and {workers} workers"
        );
    }
}

/// Fractions never decrease in delivery order on a clean run — the
/// work-budget estimate is conservative, not oscillating.
#[test]
fn progress_fractions_are_monotone_in_delivery_order() {
    let design = DesignSpec::by_name("s35932").unwrap().instantiate();
    let mut last = 0.0f64;
    for record in flow_events(&design, 0)
        .iter()
        .filter_map(FlowEvent::progress_record)
    {
        let Some(f) = record.get("fraction").and_then(Value::as_f64) else {
            continue;
        };
        assert!(
            f + 1e-12 >= last,
            "fraction regressed: {last} -> {f} at {}",
            record.encode()
        );
        last = f;
    }
}
