//! Chrome-trace (Perfetto-loadable) JSON export.
//!
//! Converts a captured event slice into the Trace Event Format's JSON
//! object form (`{"traceEvents": [...]}`), which both `chrome://tracing`
//! and [ui.perfetto.dev](https://ui.perfetto.dev) open directly.
//!
//! Mapping: phase scopes become duration events (`"B"`/`"E"`), everything
//! else becomes an instant (`"i"`) on a category-named thread row so the
//! cache firehose does not bury the NPU/fault timeline. Timestamps are
//! microseconds in the trace format; we map 1 simulated cycle → 1 µs,
//! which keeps the numbers integral and zoomable.

use crate::event::{Event, Interest};
use crate::json::push_str;

/// Process id used for all rows (a single simulated machine).
const PID: u32 = 1;

fn tid_for(category: Interest) -> u32 {
    // Stable thread rows per category: phases on top, then the rarer and
    // more interesting streams, cache traffic last.
    if category.contains(Interest::PHASE) {
        1
    } else if category.contains(Interest::NPU) {
        2
    } else if category.contains(Interest::FAULT) {
        3
    } else if category.contains(Interest::OVEC) {
        4
    } else if category.contains(Interest::PREFETCH) {
        5
    } else {
        6 // CACHE
    }
}

fn thread_name(tid: u32) -> &'static str {
    match tid {
        1 => "phases",
        2 => "npu",
        3 => "faults",
        4 => "ovec",
        5 => "prefetch",
        _ => "cache",
    }
}

/// Renders `events` as a Chrome-trace JSON object.
///
/// `process_name` labels the process row (typically the robot name).
/// Events should be in emission order; duration events rely on it.
pub fn chrome_trace_json(process_name: &str, events: &[Event]) -> String {
    let mut buf = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |buf: &mut String| {
        if !std::mem::take(&mut first) {
            buf.push(',');
        }
    };

    // Metadata: process and thread names.
    sep(&mut buf);
    buf.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"args\":{\"name\":");
    push_str(&mut buf, process_name);
    buf.push_str("}}");
    for tid in 1..=6u32 {
        sep(&mut buf);
        use std::fmt::Write;
        let _ = write!(
            buf,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{PID},\"tid\":{tid},\"args\":{{\"name\":"
        );
        push_str(&mut buf, thread_name(tid));
        buf.push_str("}}");
    }

    for e in events {
        use std::fmt::Write;
        sep(&mut buf);
        let ts = e.cycle(); // 1 cycle = 1 µs
        match *e {
            Event::PhaseBegin { name, .. } => {
                let _ = write!(buf, "{{\"ph\":\"B\",\"pid\":{PID},\"tid\":1,\"ts\":{ts},\"name\":");
                push_str(&mut buf, name);
                buf.push_str(",\"cat\":\"phase\"}");
            }
            Event::PhaseEnd { name, .. } => {
                let _ = write!(buf, "{{\"ph\":\"E\",\"pid\":{PID},\"tid\":1,\"ts\":{ts},\"name\":");
                push_str(&mut buf, name);
                buf.push_str(",\"cat\":\"phase\"}");
            }
            Event::NpuInvoke {
                comm_cycles,
                compute_cycles,
                ..
            } => {
                // Invocations have a natural duration: render as a complete
                // ("X") event spanning comm + compute.
                let dur = comm_cycles + compute_cycles;
                let _ = write!(
                    buf,
                    "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":2,\"ts\":{ts},\"dur\":{dur},\"name\":\"npu_invoke\",\"cat\":\"npu\",\"args\":{{\"comm_cycles\":{comm_cycles},\"compute_cycles\":{compute_cycles}}}}}"
                );
            }
            ref e => {
                let tid = tid_for(e.category());
                let _ = write!(
                    buf,
                    "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":"
                );
                push_str(&mut buf, e.kind());
                buf.push_str(",\"cat\":");
                push_str(&mut buf, thread_name(tid));
                buf.push('}');
            }
        }
    }
    buf.push_str("]}");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::sample_events;

    #[test]
    fn trace_is_valid_json_with_expected_shapes() {
        let json = chrome_trace_json("flybot", &sample_events());
        crate::json::parse(&json).unwrap_or_else(|e| panic!("{e}"));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"flybot\""));
        // NPU invoke duration = comm + compute from the sample event.
        assert!(json.contains("\"dur\":48"));
    }

    #[test]
    fn empty_capture_still_loads() {
        let json = chrome_trace_json("empty", &[]);
        crate::json::parse(&json).unwrap();
        assert!(json.contains("process_name"));
    }
}
