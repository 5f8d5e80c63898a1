//! Chrome/Perfetto trace-event exporter (the legacy JSON array format,
//! loadable by `chrome://tracing` and <https://ui.perfetto.dev>), plus a
//! validator built on the in-crate JSON parser.
//!
//! Layout: one process (`pid 0`), one "thread" per track (`tid` = track
//! id), thread names from the [`TrackTable`]. Spans become `"ph":"X"`
//! complete events, instants `"ph":"i"`. All `args` values are integers so
//! output is bit-deterministic for a fixed event stream.

use crate::event::{Event, Payload, TrackTable};
use crate::json;
use std::fmt::Write as _;

fn args_of(p: &Payload, out: &mut String) {
    match p {
        Payload::Retire { thread, cost } => {
            let _ = write!(out, "{{\"thread\":{thread},\"cost\":{cost}}}");
        }
        Payload::Park {
            thread,
            tile,
            addr,
            len,
        } => {
            let _ = write!(
                out,
                "{{\"thread\":{thread},\"tile\":{tile},\"addr\":{addr},\"len\":{len}}}"
            );
        }
        Payload::Wake { thread, tile } => {
            let _ = write!(out, "{{\"thread\":{thread},\"tile\":{tile}}}");
        }
        Payload::Transfer { class, bytes } => {
            let _ = write!(out, "{{\"class\":{class},\"bytes\":{bytes}}}");
        }
        Payload::Retry { retries, cost } => {
            let _ = write!(out, "{{\"retries\":{retries},\"cost\":{cost}}}");
        }
        Payload::Stage { stage, image } => {
            let _ = write!(out, "{{\"stage\":{stage},\"image\":{image}}}");
        }
        Payload::Sync { index } => {
            let _ = write!(out, "{{\"index\":{index}}}");
        }
        Payload::Fault { kind, tile } => {
            let _ = write!(out, "{{\"kind\":\"{kind}\",\"tile\":{tile}}}");
        }
        Payload::Checkpoint => out.push_str("{}"),
        Payload::Remap { dead_tiles } => {
            let _ = write!(out, "{{\"dead_tiles\":{dead_tiles}}}");
        }
        Payload::Phase { phase } => {
            let _ = write!(out, "{{\"phase\":\"{phase}\"}}");
        }
    }
}

fn escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders `events` as a Chrome trace JSON document. One cycle maps to one
/// microsecond of trace time (`ts`/`dur` are in µs in the format), which
/// keeps everything integral and deterministic.
pub fn chrome_trace(events: &[Event], tracks: &TrackTable) -> String {
    // Rough sizing: metadata + ~96 bytes per event.
    let mut out = String::with_capacity(64 + tracks.len() * 80 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (id, name) in tracks.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"ph\":\"M\",\"pid\":0,\"tid\":");
        let _ = write!(out, "{id}");
        out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
        escape(name, &mut out);
        out.push_str("\"}}");
    }
    let mut args = String::new();
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        args.clear();
        args_of(&ev.payload, &mut args);
        let cat = ev.payload.category().name();
        let name = ev.payload.name();
        if ev.is_span() {
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"{cat}\",\"name\":\"{name}\",\"args\":{args}}}",
                ev.track, ev.at, ev.dur
            );
        } else {
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\"cat\":\"{cat}\",\"name\":\"{name}\",\"args\":{args}}}",
                ev.track, ev.at
            );
        }
    }
    out.push_str("]}");
    out
}

/// Summary statistics from a validated Chrome trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of named tracks (thread_name metadata records).
    pub tracks: usize,
    /// Number of duration (`"X"`) events.
    pub spans: usize,
    /// Number of instant (`"i"`) events.
    pub instants: usize,
}

/// Parses `text` as Chrome trace JSON and checks structural invariants:
/// a `traceEvents` array exists, every event's `tid` and `ts` (and a
/// span's `dur`) are counts (integers in `[0, 2^53)`), and per-`tid`
/// start timestamps are monotonically non-decreasing in document order.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(text)?;
    let events = doc.arr_field("traceEvents")?;
    let mut summary = TraceSummary {
        tracks: 0,
        spans: 0,
        instants: 0,
    };
    // tid -> last seen ts.
    let mut last_ts: Vec<(u64, u64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.str_field("ph").map_err(|e| format!("event {i}: {e}"))?;
        match ph {
            "M" => {
                summary.tracks += 1;
                continue;
            }
            "X" => summary.spans += 1,
            "i" => summary.instants += 1,
            other => return Err(format!("event {i}: unexpected ph `{other}`")),
        }
        let count = |key| -> Result<u64, String> {
            ev.count_field(key).map_err(|e| format!("event {i}: {e}"))
        };
        let ts = count("ts")?;
        if ph == "X" {
            count("dur")?;
        }
        let tid = count("tid")?;
        match last_ts.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(format!("event {i}: ts {ts} < previous {last} on tid {tid}"));
                }
                *last = ts;
            }
            None => last_ts.push((tid, ts)),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Payload, TrackTable};

    fn sample() -> (Vec<Event>, TrackTable) {
        let mut tracks = TrackTable::new();
        let t0 = tracks.track("tile 0");
        let t1 = tracks.track("tile 1");
        let events = vec![
            Event::span(0, 4, t0, Payload::Retire { thread: 0, cost: 4 }),
            Event::instant(2, t1, Payload::Wake { thread: 1, tile: 1 }),
            Event::span(4, 2, t0, Payload::Retire { thread: 0, cost: 2 }),
        ];
        (events, tracks)
    }

    #[test]
    fn export_round_trips_through_validator() {
        let (events, tracks) = sample();
        let json = chrome_trace(&events, &tracks);
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.tracks, 2);
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
    }

    #[test]
    fn export_is_deterministic() {
        let (events, tracks) = sample();
        assert_eq!(
            chrome_trace(&events, &tracks),
            chrome_trace(&events, &tracks)
        );
    }

    #[test]
    fn validator_rejects_time_travel() {
        let mut tracks = TrackTable::new();
        let t0 = tracks.track("t");
        let events = vec![
            Event::span(10, 1, t0, Payload::Sync { index: 0 }),
            Event::span(5, 1, t0, Payload::Sync { index: 1 }),
        ];
        let json = chrome_trace(&events, &tracks);
        assert!(validate_chrome_trace(&json).is_err());
    }

    #[test]
    fn validator_allows_interleaved_tracks() {
        let mut tracks = TrackTable::new();
        let a = tracks.track("a");
        let b = tracks.track("b");
        let events = vec![
            Event::span(10, 1, a, Payload::Sync { index: 0 }),
            Event::span(0, 1, b, Payload::Sync { index: 1 }),
            Event::span(11, 1, a, Payload::Sync { index: 2 }),
        ];
        let json = chrome_trace(&events, &tracks);
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn escapes_track_names() {
        let mut tracks = TrackTable::new();
        let t = tracks.track("weird \"name\"\n");
        let events = vec![Event::instant(0, t, Payload::Checkpoint)];
        let json = chrome_trace(&events, &tracks);
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn validator_rejects_non_count_fields() {
        let (events, tracks) = sample();
        let json = chrome_trace(&events, &tracks);
        // A negative or fractional `tid` would alias track 0 and a huge
        // `ts`/`dur` would saturate: each is rejected, naming its field.
        for (field, good, rest) in [
            ("tid", "\"tid\":1,\"ts\":2", ",\"ts\":2"),
            ("ts", "\"ts\":4", ""),
            ("dur", "\"dur\":2", ""),
        ] {
            assert!(json.contains(good), "{json}");
            for bad in ["-1", "0.5", "1e300"] {
                let text = json.replacen(good, &format!("\"{field}\":{bad}{rest}"), 1);
                let err = validate_chrome_trace(&text).expect_err(&text);
                assert!(err.contains(&format!("`{field}`")), "{field}={bad}: {err}");
            }
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace(&[], &TrackTable::new());
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.spans + summary.instants, 0);
    }
}
