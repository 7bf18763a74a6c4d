//! Chrome `trace_event` export.
//!
//! Renders the recorder's span timeline ([`crate::timeline`]) and a
//! snapshot's events in the Trace Event Format accepted by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): each
//! closed span becomes a complete (`"ph": "X"`) event with microsecond
//! timestamps, and each structured event an instant (`"ph": "i"`) with
//! its fields attached under `args`. The events are the trace's time
//! series: `pipeline.iteration` carries the cumulative verdict-cache
//! hits and misses, `dpo.epoch` the loss and accuracy. Per-thread track
//! labels come from `thread_names` (`thread_name` metadata), so pool
//! workers show up as e.g. `parkit-worker-2` instead of a bare tid.
//!
//! This is the only reader of the timeline and of the events: reports
//! and flamegraphs read the aggregated span tree instead. The recorder
//! keeps both only while [`crate::set_timeline`] is on, so a binary that
//! writes a trace turns it on first.

use crate::event::Event;
use crate::json::Value;
use crate::span::SpanRecord;

/// Renders spans, events, thread labels (one `thread_name` record per
/// `(tid, name)`) and an optional `process_name` record as a Trace
/// Event Format JSON document.
pub fn chrome_trace(
    spans: &[SpanRecord],
    events: &[Event],
    thread_names: &[(u64, String)],
    process_name: Option<&str>,
) -> String {
    let mut trace_events: Vec<Value> =
        Vec::with_capacity(spans.len() + events.len() + thread_names.len() + 1);
    if let Some(name) = process_name {
        trace_events.push(Value::Obj(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::Num(1.0)),
            ("tid".into(), Value::Num(0.0)),
            (
                "args".into(),
                Value::Obj(vec![("name".into(), Value::Str(name.to_owned()))]),
            ),
        ]));
    }
    for (tid, name) in thread_names {
        trace_events.push(Value::Obj(vec![
            ("name".into(), Value::Str("thread_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::Num(1.0)),
            ("tid".into(), Value::Num(*tid as f64)),
            (
                "args".into(),
                Value::Obj(vec![("name".into(), Value::Str(name.clone()))]),
            ),
        ]));
    }
    for span in spans {
        trace_events.push(Value::Obj(vec![
            ("name".into(), Value::Str(span.name.to_owned())),
            ("cat".into(), Value::Str("span".into())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::Num(span.start_us as f64)),
            ("dur".into(), Value::Num(span.dur_us as f64)),
            ("pid".into(), Value::Num(1.0)),
            ("tid".into(), Value::Num(span.thread as f64)),
        ]));
    }
    for event in events {
        let args: Vec<(String, Value)> = event
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json_value()))
            .collect();
        trace_events.push(Value::Obj(vec![
            ("name".into(), Value::Str(event.name.clone())),
            ("cat".into(), Value::Str("event".into())),
            ("ph".into(), Value::Str("i".into())),
            // Thread-scoped instant marker.
            ("s".into(), Value::Str("t".into())),
            ("ts".into(), Value::Num(event.t_us as f64)),
            ("pid".into(), Value::Num(1.0)),
            ("tid".into(), Value::Num(event.thread as f64)),
            ("args".into(), Value::Obj(args)),
        ]));
    }
    Value::Obj(vec![
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("traceEvents".into(), Value::Arr(trace_events)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FieldValue;
    use crate::json;

    #[test]
    fn trace_is_valid_json_with_one_entry_per_span_and_event() {
        let spans = vec![
            SpanRecord {
                name: "pipeline.verify",
                start_us: 100,
                dur_us: 50,
                thread: 3,
            },
            SpanRecord {
                name: "pipeline.parse",
                start_us: 160,
                dur_us: 5,
                thread: 3,
            },
        ];
        let events = vec![Event {
            name: "progress".into(),
            t_us: 170,
            thread: 3,
            fields: vec![("msg".into(), FieldValue::Str("hi \"there\"".into()))],
        }];
        let rendered = chrome_trace(&spans, &events, &[], None);
        let doc = json::parse(&rendered).expect("chrome trace parses");
        let entries = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents array");
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries[0].get("ph").and_then(json::Value::as_str),
            Some("X")
        );
        assert_eq!(
            entries[0].get("ts").and_then(json::Value::as_num),
            Some(100.0)
        );
        assert_eq!(
            entries[0].get("dur").and_then(json::Value::as_num),
            Some(50.0)
        );
        assert_eq!(
            entries[2].get("ph").and_then(json::Value::as_str),
            Some("i")
        );
        assert_eq!(
            entries[2]
                .get("args")
                .and_then(|a| a.get("msg"))
                .and_then(json::Value::as_str),
            Some("hi \"there\"")
        );
    }

    #[test]
    fn full_trace_emits_process_and_thread_names() {
        let rendered = chrome_trace(
            &[],
            &[],
            &[(7, "parkit-worker-0".into())],
            Some("bench_headline"),
        );
        let doc = json::parse(&rendered).expect("chrome trace parses");
        let entries = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents array");
        // process_name + thread_name metadata.
        assert_eq!(entries.len(), 2);
        let meta = |i: usize| {
            (
                entries[i].get("name").and_then(json::Value::as_str),
                entries[i].get("ph").and_then(json::Value::as_str),
                entries[i]
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(json::Value::as_str),
            )
        };
        assert_eq!(
            meta(0),
            (Some("process_name"), Some("M"), Some("bench_headline"))
        );
        assert_eq!(
            meta(1),
            (Some("thread_name"), Some("M"), Some("parkit-worker-0"))
        );
        assert_eq!(
            entries[1].get("tid").and_then(json::Value::as_num),
            Some(7.0)
        );
    }
}
