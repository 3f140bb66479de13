//! Bridges the engine's report stream into the machine-readable run
//! record.
//!
//! [`FlowObserver`](crate::report::FlowObserver) reports and the
//! `sllt-obs` registry live on opposite sides of the dependency graph:
//! the algorithm crates emit raw counters and spans, while
//! [`LevelReport`]/[`AssembleReport`] are engine-level summaries. This
//! module joins them — each report becomes one JSONL *event* with a
//! stable shape, and [`run_record`] assembles the full record (meta +
//! events + span tree + metrics) from a finished run.

use crate::recovery::Downgrade;
use crate::report::{AssembleReport, CollectingObserver, LevelReport};
use sllt_obs::{Registry, RunRecord, Value};

/// One recorded ladder rung as a JSON object.
pub fn downgrade_value(d: &Downgrade) -> Value {
    let v = Value::obj()
        .with("attempt", d.attempt)
        .with("skew_factor", d.skew_factor)
        .with("trigger", d.trigger.as_str());
    match d.topology {
        Some(t) => v.with("topology", t),
        None => v,
    }
}

/// One level report as a `{"type":"level", ...}` event. Durations are
/// fractional milliseconds.
pub fn level_value(l: &LevelReport) -> Value {
    Value::obj()
        .with("type", "level")
        .with("level", l.level)
        .with("nodes", l.num_nodes)
        .with("clusters", l.num_clusters)
        .with("workers", l.workers)
        .with("partition_ms", l.timings.partition.as_secs_f64() * 1e3)
        .with("route_ms", l.timings.route.as_secs_f64() * 1e3)
        .with("sizing_ms", l.timings.sizing.as_secs_f64() * 1e3)
        .with("wirelength_um", l.wirelength_um)
        .with("load_cap_ff", l.load_cap_ff)
        .with("driver_input_cap_ff", l.driver_input_cap_ff)
        .with("driver_area_um2", l.driver_area_um2)
        .with("pads", l.pads)
        .with("delay_spread_ps", l.delay_spread_ps)
        .with("attempts", l.attempts)
        .with(
            "downgrades",
            Value::Arr(l.downgrades.iter().map(downgrade_value).collect()),
        )
}

/// Inverts [`downgrade_value`]. Topology names are interned back to the
/// engine's static name set; an unknown name (a newer journal) is an
/// error rather than a silent drop.
pub fn downgrade_from_value(v: &Value) -> Result<Downgrade, String> {
    let topology = match v.get("topology").and_then(Value::as_str) {
        None => None,
        Some(name) => Some(
            *["cbs", "bst", "rsmt"]
                .iter()
                .find(|&&t| t == name)
                .ok_or_else(|| format!("unknown downgrade topology {name:?}"))?,
        ),
    };
    Ok(Downgrade {
        attempt: v
            .get("attempt")
            .and_then(Value::as_u64)
            .ok_or("downgrade missing attempt")? as usize,
        skew_factor: v
            .get("skew_factor")
            .and_then(Value::as_f64)
            .ok_or("downgrade missing skew_factor")?,
        topology,
        trigger: v
            .get("trigger")
            .and_then(Value::as_str)
            .ok_or("downgrade missing trigger")?
            .to_string(),
    })
}

/// Inverts [`level_value`]. Stage timings come back as fractional
/// milliseconds, so the round trip is approximate in the sub-nanosecond
/// digits — fine for reports, which never feed back into construction.
pub fn level_report_from_value(v: &Value) -> Result<LevelReport, String> {
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("level event missing {k}"))
    };
    let int = |k: &str| {
        v.get(k)
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("level event missing {k}"))
    };
    let duration = |k: &str| -> Result<std::time::Duration, String> {
        let ms = num(k)?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(format!("level event {k} out of range: {ms}"));
        }
        Ok(std::time::Duration::from_secs_f64(ms / 1e3))
    };
    let downgrades = match v.get("downgrades") {
        None => Vec::new(),
        Some(Value::Arr(items)) => items
            .iter()
            .map(downgrade_from_value)
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("level event downgrades is not an array".into()),
    };
    Ok(LevelReport {
        level: int("level")?,
        num_nodes: int("nodes")?,
        num_clusters: int("clusters")?,
        workers: int("workers")?,
        timings: crate::report::StageTimings {
            partition: duration("partition_ms")?,
            route: duration("route_ms")?,
            sizing: duration("sizing_ms")?,
        },
        wirelength_um: num("wirelength_um")?,
        load_cap_ff: num("load_cap_ff")?,
        driver_input_cap_ff: num("driver_input_cap_ff")?,
        driver_area_um2: num("driver_area_um2")?,
        pads: int("pads")?,
        delay_spread_ps: num("delay_spread_ps")?,
        attempts: int("attempts")?,
        downgrades,
    })
}

/// The assembly report as a `{"type":"assemble", ...}` event.
pub fn assemble_value(a: &AssembleReport) -> Value {
    Value::obj()
        .with("type", "assemble")
        .with("trunk_wl_um", a.trunk_wl_um)
        .with("repeaters", a.repeaters)
        .with("repeater_input_cap_ff", a.repeater_input_cap_ff)
        .with("elapsed_ms", a.elapsed.as_secs_f64() * 1e3)
}

/// Assembles a [`RunRecord`] from a finished run: the collector's report
/// stream becomes the event lines (levels bottom-up, then assembly) and
/// the registry snapshot contributes the span tree and merged metrics.
/// `meta` should carry at least the design name; the caller may extend
/// [`RunRecord::meta`] afterwards (the field is public).
pub fn run_record(meta: Value, observer: &CollectingObserver, registry: &Registry) -> RunRecord {
    let mut events: Vec<Value> = observer.levels.iter().map(level_value).collect();
    if let Some(a) = &observer.assemble {
        events.push(assemble_value(a));
    }
    RunRecord::new(meta, events, registry.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::StageTimings;
    use std::time::Duration;

    fn level() -> LevelReport {
        LevelReport {
            level: 1,
            num_nodes: 64,
            num_clusters: 4,
            workers: 2,
            timings: StageTimings {
                partition: Duration::from_micros(1500),
                route: Duration::from_micros(2500),
                sizing: Duration::from_micros(500),
            },
            wirelength_um: 1234.5,
            load_cap_ff: 99.0,
            driver_input_cap_ff: 4.0,
            driver_area_um2: 6.0,
            pads: 3,
            delay_spread_ps: 0.75,
            attempts: 1,
            downgrades: Vec::new(),
        }
    }

    #[test]
    fn level_event_has_stable_shape() {
        let v = level_value(&level());
        assert_eq!(v.get("type").and_then(Value::as_str), Some("level"));
        assert_eq!(v.get("nodes").and_then(Value::as_u64), Some(64));
        let route_ms = v.get("route_ms").and_then(Value::as_f64).unwrap();
        assert!((route_ms - 2.5).abs() < 1e-9);
        assert_eq!(v.get("attempts").and_then(Value::as_u64), Some(1));
        assert!(matches!(v.get("downgrades"), Some(Value::Arr(a)) if a.is_empty()));
    }

    #[test]
    fn recovered_level_event_carries_its_downgrades() {
        let mut l = level();
        l.attempts = 3;
        l.downgrades = vec![
            Downgrade {
                attempt: 1,
                skew_factor: 1.5,
                topology: None,
                trigger: "skew merge infeasible".into(),
            },
            Downgrade {
                attempt: 2,
                skew_factor: 4.0,
                topology: Some("rsmt"),
                trigger: "still infeasible".into(),
            },
        ];
        let v = level_value(&l);
        assert_eq!(v.get("attempts").and_then(Value::as_u64), Some(3));
        let Some(Value::Arr(ds)) = v.get("downgrades") else {
            panic!("downgrades must be an array");
        };
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[1].get("topology").and_then(Value::as_str), Some("rsmt"));
        assert_eq!(
            ds[0].get("trigger").and_then(Value::as_str),
            Some("skew merge infeasible")
        );
        // The event must survive the JSONL schema round-trip.
        let text = v.encode();
        let back = sllt_obs::json::parse(&text).unwrap();
        assert_eq!(back.encode(), text);
        assert!(text.contains("\"downgrades\""), "{text}");
    }

    #[test]
    fn level_event_round_trips_through_the_parser() {
        let mut l = level();
        l.attempts = 2;
        l.downgrades.push(Downgrade {
            attempt: 1,
            skew_factor: 2.0,
            topology: Some("rsmt"),
            trigger: "injected".into(),
        });
        let back = level_report_from_value(&level_value(&l)).unwrap();
        // Timings go through fractional ms, everything else is exact.
        assert_eq!(back.level, l.level);
        assert_eq!(back.num_nodes, l.num_nodes);
        assert_eq!(back.num_clusters, l.num_clusters);
        assert_eq!(back.wirelength_um, l.wirelength_um);
        assert_eq!(back.delay_spread_ps, l.delay_spread_ps);
        assert_eq!(back.downgrades, l.downgrades);
        assert!(
            (back.timings.route.as_secs_f64() - l.timings.route.as_secs_f64()).abs() < 1e-9,
            "timing drift"
        );
        // Missing members and unknown topologies are typed failures.
        assert!(level_report_from_value(&Value::obj().with("type", "level")).is_err());
        let bad = Value::obj()
            .with("attempt", 1u64)
            .with("skew_factor", 1.0)
            .with("topology", "btree")
            .with("trigger", "x");
        assert!(downgrade_from_value(&bad).is_err());
    }

    #[test]
    fn record_carries_events_spans_and_metrics() {
        let mut obs = CollectingObserver::new();
        obs.levels.push(level());
        obs.assemble = Some(AssembleReport {
            trunk_wl_um: 10.0,
            repeaters: 1,
            repeater_input_cap_ff: 1.5,
            elapsed: Duration::from_micros(100),
        });
        let registry = Registry::new();
        {
            let _scope = registry.install("main");
            let _span = sllt_obs::span("cts.flow");
            sllt_obs::count("cts.route.clusters", 4);
        }
        let meta = Value::obj().with("design", "unit");
        let rec = run_record(meta, &obs, &registry);
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.spans.len(), 1);
        assert_eq!(rec.metrics.counter("cts.route.clusters"), 4);
        // The full record must survive the schema round-trip.
        let text = rec.to_jsonl();
        let back = RunRecord::parse_jsonl(&text).unwrap();
        assert_eq!(back.to_jsonl(), text);
    }
}
