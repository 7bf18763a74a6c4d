//! Structured events: named points in time with typed fields.
//!
//! Events replace ad-hoc `eprintln!` progress lines: the human-readable
//! line still reaches stderr by default (the *console sink*), and, while
//! the timeline is on ([`crate::set_timeline`]), the structured form
//! lands in the event log for the Chrome trace.

use std::sync::Mutex;

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl FieldValue {
    /// The value as a JSON tree.
    pub fn to_json_value(&self) -> crate::json::Value {
        use crate::json::Value;
        match self {
            FieldValue::U64(v) => Value::Num(*v as f64),
            FieldValue::I64(v) => Value::Num(*v as f64),
            FieldValue::F64(v) => Value::Num(*v),
            FieldValue::Str(s) => Value::Str(s.clone()),
            FieldValue::Bool(b) => Value::Bool(*b),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (`progress`, `dpo.epoch`, …).
    pub name: String,
    /// Microseconds since the recorder was enabled.
    pub t_us: u64,
    /// Recording thread id.
    pub thread: u64,
    /// Named fields in declaration order.
    pub fields: Vec<(String, FieldValue)>,
}

/// Append-only event log.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<Event>>,
}

fn lock(events: &Mutex<Vec<Event>>) -> std::sync::MutexGuard<'_, Vec<Event>> {
    match events.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl EventLog {
    /// Appends an event.
    pub fn push(&self, event: Event) {
        lock(&self.events).push(event);
    }

    /// Copies out every event recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.events).clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all events.
    pub fn clear(&self) {
        lock(&self.events).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order_with_typed_fields() {
        let log = EventLog::default();
        log.push(Event {
            name: "dpo.epoch".into(),
            t_us: 10,
            thread: 0,
            fields: vec![
                ("epoch".into(), 3usize.into()),
                ("loss".into(), 0.25f32.into()),
                ("done".into(), false.into()),
            ],
        });
        log.push(Event {
            name: "progress".into(),
            t_us: 20,
            thread: 0,
            fields: vec![("msg".into(), "hello".into())],
        });
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].fields[0].1, FieldValue::U64(3));
        assert_eq!(events[0].fields[1].1, FieldValue::F64(0.25));
        assert_eq!(events[1].fields[0].1, FieldValue::Str("hello".into()));
        log.clear();
        assert!(log.is_empty());
    }
}
