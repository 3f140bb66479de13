//! The machine-readable run record: a stable JSONL schema carrying the
//! span tree, the merged metrics, and the engine's report stream.
//!
//! One JSON object per line, classified by a required `"type"` member:
//!
//! | type      | required members                                             |
//! |-----------|--------------------------------------------------------------|
//! | `meta`    | `schema` (int), free-form run description — always line 1    |
//! | `span`    | `id`, `parent` (id or null), `name`, `thread`, `start_us`, `dur_us` |
//! | `counter` | `name`, `value`                                              |
//! | `gauge`   | `name`, `value`                                              |
//! | `hist`    | `name`, `count`, `sum`, `min`, `max`, `buckets` (`[[idx,n]…]`) |
//! | *other*   | an **event** — e.g. the engine's `level`/`assemble` reports; |
//! |           | kept verbatim, in stream order                               |
//!
//! The writer emits: meta, events (stream order), spans (merge order),
//! counters, gauges, histograms (each name-sorted). [`RunRecord::parse_jsonl`]
//! inverts that exactly, so `parse(to_jsonl(r)).to_jsonl() == r.to_jsonl()`
//! — the schema round-trip the CI gate checks.

use crate::json::{parse, Value};
use crate::metrics::{Histogram, MetricsMap};
use crate::registry::{Collected, SpanRecord};

/// Version stamped into the `meta` line; bump on any incompatible
/// change to the table above.
pub const SCHEMA_VERSION: u64 = 1;

/// A complete run record, ready to serialize or just parsed back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// Free-form run description (design, seed, configuration). The
    /// writer adds `type`/`schema`; do not set them here.
    pub meta: Value,
    /// Report-stream events (objects with their own `type`), in order.
    pub events: Vec<Value>,
    /// Closed spans.
    pub spans: Vec<SpanRecord>,
    /// Merged metrics.
    pub metrics: MetricsMap,
    /// Set by [`parse_jsonl`](RunRecord::parse_jsonl) when the file
    /// ended in a truncated (non-JSON) final line — the record that was
    /// being written when the process died. The fragment is skipped, not
    /// fatal: every intact record is still returned. The writer never
    /// sets this and [`to_jsonl`](RunRecord::to_jsonl) ignores it.
    pub torn_tail: Option<String>,
}

impl RunRecord {
    /// Assembles a record from a registry snapshot plus the report
    /// stream the observer collected.
    pub fn new(meta: Value, events: Vec<Value>, collected: Collected) -> RunRecord {
        RunRecord {
            meta,
            events,
            spans: collected.spans,
            metrics: collected.metrics,
            torn_tail: None,
        }
    }

    /// Serializes to JSONL (one object per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut meta = Value::obj()
            .with("type", "meta")
            .with("schema", SCHEMA_VERSION);
        if let Value::Obj(members) = &self.meta {
            for (k, v) in members {
                if k != "type" && k != "schema" {
                    meta.set(k, v.clone());
                }
            }
        }
        out.push_str(&meta.encode());
        out.push('\n');
        for e in &self.events {
            out.push_str(&e.encode());
            out.push('\n');
        }
        for s in &self.spans {
            let line = Value::obj()
                .with("type", "span")
                .with("id", s.id)
                .with("parent", s.parent)
                .with("name", s.name.as_str())
                .with("thread", s.thread.as_str())
                .with("start_us", s.start_us)
                .with("dur_us", s.dur_us);
            out.push_str(&line.encode());
            out.push('\n');
        }
        for (name, v) in &self.metrics.counters {
            let line = Value::obj()
                .with("type", "counter")
                .with("name", name.as_str())
                .with("value", *v);
            out.push_str(&line.encode());
            out.push('\n');
        }
        for (name, v) in &self.metrics.gauges {
            let line = Value::obj()
                .with("type", "gauge")
                .with("name", name.as_str())
                .with("value", *v);
            out.push_str(&line.encode());
            out.push('\n');
        }
        for (name, h) in &self.metrics.histograms {
            let mut line = Value::obj()
                .with("type", "hist")
                .with("name", name.as_str());
            if let Value::Obj(members) = h.to_value() {
                for (k, v) in members {
                    line.set(&k, v);
                }
            }
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }

    /// Parses and validates a JSONL run record. Errors carry the line
    /// number and what was wrong.
    ///
    /// A *final* line that is not valid JSON — the shape a crash leaves
    /// when it truncates the record being written — is skipped and
    /// reported through [`torn_tail`](RunRecord::torn_tail) instead of
    /// rejecting the whole file. A broken line anywhere else is still a
    /// hard error, as is any semantic violation (missing meta, dangling
    /// span parent, unknown schema), so intact records keep the bit-exact
    /// round-trip guarantee.
    pub fn parse_jsonl(text: &str) -> Result<RunRecord, String> {
        let mut record = RunRecord::default();
        let mut saw_meta = false;
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let last = lines.len().saturating_sub(1);
        for (pos, &(i, line)) in lines.iter().enumerate() {
            let at = |msg: &str| format!("line {}: {msg}", i + 1);
            let v = match parse(line) {
                Ok(v) => v,
                Err(e) if pos == last => {
                    record.torn_tail = Some(at(&format!("truncated final record: {e}")));
                    continue;
                }
                Err(e) => return Err(at(&e)),
            };
            let ty = v
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| at("missing \"type\""))?
                .to_string();
            match ty.as_str() {
                "meta" => {
                    if saw_meta {
                        return Err(at("duplicate meta line"));
                    }
                    let schema = v
                        .get("schema")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| at("meta missing schema"))?;
                    if schema != SCHEMA_VERSION {
                        return Err(at(&format!(
                            "schema {schema} != supported {SCHEMA_VERSION}"
                        )));
                    }
                    saw_meta = true;
                    if let Value::Obj(members) = v {
                        record.meta = Value::Obj(
                            members
                                .into_iter()
                                .filter(|(k, _)| k != "type" && k != "schema")
                                .collect(),
                        );
                    }
                }
                "span" => {
                    let field = |k: &str| {
                        v.get(k)
                            .and_then(Value::as_u64)
                            .ok_or_else(|| at(&format!("span missing {k}")))
                    };
                    record.spans.push(SpanRecord {
                        id: field("id")?,
                        parent: match v.get("parent") {
                            Some(Value::Null) | None => None,
                            Some(p) => Some(p.as_u64().ok_or_else(|| at("span parent not an id"))?),
                        },
                        name: v
                            .get("name")
                            .and_then(Value::as_str)
                            .ok_or_else(|| at("span missing name"))?
                            .to_string(),
                        thread: v
                            .get("thread")
                            .and_then(Value::as_str)
                            .ok_or_else(|| at("span missing thread"))?
                            .to_string(),
                        start_us: field("start_us")?,
                        dur_us: field("dur_us")?,
                    });
                }
                "counter" | "gauge" | "hist" => {
                    let name = v
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| at("metric missing name"))?
                        .to_string();
                    match ty.as_str() {
                        "counter" => {
                            let value = v
                                .get("value")
                                .and_then(Value::as_u64)
                                .ok_or_else(|| at("counter value must be a u64"))?;
                            record.metrics.counters.insert(name, value);
                        }
                        "gauge" => {
                            let value = v
                                .get("value")
                                .and_then(Value::as_f64)
                                .ok_or_else(|| at("gauge value must be a number"))?;
                            record.metrics.gauges.insert(name, value);
                        }
                        _ => {
                            let h = Histogram::from_value(&v).map_err(|e| at(&e))?;
                            record.metrics.histograms.insert(name, h);
                        }
                    }
                }
                _ => record.events.push(v),
            }
        }
        if !saw_meta {
            return Err("run record has no meta line".to_string());
        }
        // Referential integrity: every span parent must exist.
        let ids: std::collections::BTreeSet<u64> = record.spans.iter().map(|s| s.id).collect();
        for s in &record.spans {
            if let Some(p) = s.parent {
                if !ids.contains(&p) {
                    return Err(format!("span {} names missing parent {p}", s.id));
                }
            }
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        let mut metrics = MetricsMap::default();
        metrics.counters.insert("a.count".into(), 7);
        metrics.gauges.insert("a.gauge".into(), 0.25);
        let mut h = Histogram::new();
        h.record(3);
        h.record(300);
        metrics.histograms.insert("a.hist".into(), h);
        RunRecord {
            meta: Value::obj().with("design", "s35932").with("sinks", 1728u64),
            events: vec![
                Value::obj().with("type", "level").with("level", 0u64),
                Value::obj()
                    .with("type", "assemble")
                    .with("repeaters", 2u64),
            ],
            spans: vec![
                SpanRecord {
                    id: 0,
                    parent: None,
                    name: "cts.flow".into(),
                    thread: "main".into(),
                    start_us: 0,
                    dur_us: 100,
                },
                SpanRecord {
                    id: 1,
                    parent: Some(0),
                    name: "cts.route".into(),
                    thread: "main".into(),
                    start_us: 10,
                    dur_us: 50,
                },
            ],
            metrics,
            torn_tail: None,
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let r = sample();
        let text = r.to_jsonl();
        let back = RunRecord::parse_jsonl(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn validation_catches_broken_lines() {
        let r = sample();
        let good = r.to_jsonl();
        // No meta line.
        assert!(RunRecord::parse_jsonl(good.lines().nth(1).unwrap()).is_err());
        // Dangling span parent.
        let dangling = good.replace("\"parent\":0", "\"parent\":99");
        assert!(RunRecord::parse_jsonl(&dangling).is_err());
        // Future schema version.
        let future = good.replace("\"schema\":1", "\"schema\":999");
        assert!(RunRecord::parse_jsonl(&future).is_err());
        // Not JSON at all.
        assert!(RunRecord::parse_jsonl("{nope}").is_err());
    }

    #[test]
    fn truncated_final_line_is_skipped_and_reported() {
        let good = sample().to_jsonl();
        // Chop the last record mid-way, as a crash during write would.
        let cut = good.trim_end().len() - 15;
        let torn = &good[..cut];
        let back = RunRecord::parse_jsonl(torn).expect("torn tail must not reject the file");
        let tail = back.torn_tail.as_deref().expect("torn tail reported");
        assert!(tail.contains("truncated final record"), "{tail}");
        // Every intact line survived: only the final hist record is gone.
        assert_eq!(back.meta, sample().meta);
        assert_eq!(back.events, sample().events);
        assert_eq!(back.spans, sample().spans);
        assert!(back.metrics.histograms.is_empty());
        // A broken line that is NOT final stays fatal.
        let mid = good.replacen("\"type\":\"span\"", "\"type\":", 1);
        assert!(RunRecord::parse_jsonl(&mid).is_err());
        // An intact file reports no tear.
        assert!(RunRecord::parse_jsonl(&good).unwrap().torn_tail.is_none());
    }

    #[test]
    fn events_keep_their_order_and_shape() {
        let r = sample();
        let back = RunRecord::parse_jsonl(&r.to_jsonl()).unwrap();
        assert_eq!(back.events.len(), 2);
        assert_eq!(
            back.events[0].get("type").and_then(Value::as_str),
            Some("level")
        );
        assert_eq!(
            back.events[1].get("repeaters").and_then(Value::as_u64),
            Some(2)
        );
    }
}
