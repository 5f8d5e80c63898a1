//! SCALE-Sim-style per-cycle CSV export and a terminal utilization
//! heatmap rendered from span events.

use crate::event::{Event, Payload, TrackTable};
use std::fmt::Write as _;

fn detail_of(p: &Payload, out: &mut String) {
    match p {
        Payload::Retire { thread, cost } => {
            let _ = write!(out, "thread={thread};cost={cost}");
        }
        Payload::Park {
            thread,
            tile,
            addr,
            len,
        } => {
            let _ = write!(out, "thread={thread};tile={tile};addr={addr};len={len}");
        }
        Payload::Wake { thread, tile } => {
            let _ = write!(out, "thread={thread};tile={tile}");
        }
        Payload::Retry { retries, cost } => {
            let _ = write!(out, "retries={retries};cost={cost}");
        }
        Payload::Stage { stage, image } => {
            let _ = write!(out, "stage={stage};image={image}");
        }
        Payload::Sync { index } => {
            let _ = write!(out, "index={index}");
        }
        Payload::Fault { kind, tile } => {
            let _ = write!(out, "kind={kind};tile={tile}");
        }
        Payload::Checkpoint => {}
        Payload::Remap { dead_tiles } => {
            let _ = write!(out, "dead_tiles={dead_tiles}");
        }
        Payload::Phase { phase } => {
            let _ = write!(out, "phase={phase}");
        }
    }
}

/// Renders `events` as a cycle-stamped CSV with columns
/// `cycle,track,category,event,dur,detail` — one row per event, in
/// emission order (SCALE-Sim's per-cycle trace style). Track names
/// containing commas or quotes are double-quoted.
pub fn cycle_csv(events: &[Event], tracks: &TrackTable) -> String {
    let mut out = String::with_capacity(32 + events.len() * 48);
    out.push_str("cycle,track,category,event,dur,detail\n");
    let mut detail = String::new();
    for ev in events {
        detail.clear();
        detail_of(&ev.payload, &mut detail);
        let name = tracks.name(ev.track);
        let _ = write!(out, "{},", ev.at);
        if name.contains([',', '"', '\n']) {
            out.push('"');
            for ch in name.chars() {
                if ch == '"' {
                    out.push('"');
                }
                out.push(ch);
            }
            out.push('"');
        } else {
            out.push_str(name);
        }
        let _ = writeln!(
            out,
            ",{},{},{},{detail}",
            ev.payload.category().name(),
            ev.payload.name(),
            ev.dur
        );
    }
    out
}

/// Sums span durations per track: `busy[track_id]` is the total cycles
/// the track's spans cover (instants contribute nothing, overlaps are
/// not collapsed). The attribution layer reads measured busy time back
/// out of a recorded event stream through this. The vector is indexed
/// by `TrackId` and sized to cover every track in `tracks` as well as
/// any out-of-table ids the events mention.
pub fn busy_cycles_per_track(events: &[Event], tracks: &TrackTable) -> Vec<u64> {
    let n = tracks.len().max(
        events
            .iter()
            .map(|e| e.track as usize + 1)
            .max()
            .unwrap_or(0),
    );
    let mut busy = vec![0u64; n];
    for e in events.iter().filter(|e| e.is_span()) {
        busy[e.track as usize] = busy[e.track as usize].saturating_add(e.dur);
    }
    busy
}

/// Shade ramp for the heatmap, darkest-to-lightest occupancy.
const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Renders per-track busy fractions over `bins` equal time slices as an
/// ASCII heatmap: one row per track that has at least one span, one shade
/// character per bin (`' '` idle through `'@'` fully busy). Instants are
/// ignored. Returns an empty string when there are no spans.
pub fn utilization_heatmap(events: &[Event], tracks: &TrackTable, bins: usize) -> String {
    let bins = bins.max(1);
    let spans: Vec<&Event> = events.iter().filter(|e| e.is_span()).collect();
    let Some(end) = spans.iter().map(|e| e.at.saturating_add(e.dur)).max() else {
        return String::new();
    };
    let end = end.max(1);
    // busy[track][bin] accumulated in cycles.
    let n_tracks = tracks.len().max(
        spans
            .iter()
            .map(|e| e.track as usize + 1)
            .max()
            .unwrap_or(0),
    );
    let mut busy = vec![vec![0u64; bins]; n_tracks];
    let bin_width = end.div_ceil(bins as u64).max(1);
    for ev in &spans {
        let (mut lo, hi) = (ev.at, ev.at.saturating_add(ev.dur).min(end));
        while lo < hi {
            let bin = ((lo / bin_width) as usize).min(bins - 1);
            let bin_end = ((bin as u64 + 1) * bin_width).min(hi);
            busy[ev.track as usize][bin] += bin_end - lo;
            lo = bin_end;
        }
    }
    let name_width = (0..n_tracks)
        .filter(|&t| busy[t].iter().any(|&b| b > 0))
        .map(|t| tracks.name(t as u32).len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_width$}  |{}| one column = {} cycles",
        "track",
        "-".repeat(bins),
        bin_width
    );
    for (t, row) in busy.iter().enumerate() {
        if row.iter().all(|&b| b == 0) {
            continue;
        }
        let _ = write!(out, "{:<name_width$}  |", tracks.name(t as u32));
        for &b in row {
            let frac = (b as f64 / bin_width as f64).clamp(0.0, 1.0);
            let idx = ((frac * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
            out.push(SHADES[idx]);
        }
        let total: u64 = row.iter().sum();
        let _ = writeln!(out, "| {:5.1}%", 100.0 * total as f64 / end as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Payload, TrackTable};

    #[test]
    fn csv_has_header_and_rows() {
        let mut tracks = TrackTable::new();
        let t = tracks.track("tile 0");
        let events = vec![
            Event::span(3, 2, t, Payload::Retire { thread: 1, cost: 2 }),
            Event::instant(5, t, Payload::Checkpoint),
        ];
        let csv = cycle_csv(&events, &tracks);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "cycle,track,category,event,dur,detail");
        assert_eq!(lines[1], "3,tile 0,inst,retire,2,thread=1;cost=2");
        assert_eq!(lines[2], "5,tile 0,session,checkpoint,0,");
    }

    #[test]
    fn csv_quotes_awkward_track_names() {
        let mut tracks = TrackTable::new();
        let t = tracks.track("a,\"b\"");
        let events = vec![Event::instant(0, t, Payload::Checkpoint)];
        let csv = cycle_csv(&events, &tracks);
        assert!(csv.contains("\"a,\"\"b\"\"\""), "{csv}");
    }

    #[test]
    fn csv_is_deterministic() {
        let mut tracks = TrackTable::new();
        let t = tracks.track("x");
        let events = vec![Event::span(0, 1, t, Payload::Sync { index: 0 })];
        assert_eq!(cycle_csv(&events, &tracks), cycle_csv(&events, &tracks));
    }

    #[test]
    fn heatmap_shades_busy_tracks() {
        let mut tracks = TrackTable::new();
        let a = tracks.track("busy");
        let b = tracks.track("half");
        let events = vec![
            Event::span(0, 100, a, Payload::Stage { stage: 0, image: 0 }),
            Event::span(0, 50, b, Payload::Stage { stage: 1, image: 0 }),
        ];
        let map = utilization_heatmap(&events, &tracks, 10);
        let busy_line = map.lines().find(|l| l.starts_with("busy")).unwrap();
        let half_line = map.lines().find(|l| l.starts_with("half")).unwrap();
        assert!(busy_line.contains("@@@@@@@@@@"), "{map}");
        assert!(busy_line.contains("100.0%"), "{map}");
        assert!(half_line.contains("@@@@@     "), "{map}");
        assert!(half_line.contains("50.0%"), "{map}");
    }

    #[test]
    fn busy_cycles_sum_spans_only() {
        let mut tracks = TrackTable::new();
        let a = tracks.track("a");
        let b = tracks.track("b");
        let events = vec![
            Event::span(0, 10, a, Payload::Stage { stage: 0, image: 0 }),
            Event::span(20, 5, a, Payload::Stage { stage: 0, image: 1 }),
            Event::instant(3, a, Payload::Checkpoint),
            Event::span(0, 7, b, Payload::Sync { index: 0 }),
        ];
        assert_eq!(busy_cycles_per_track(&events, &tracks), vec![15, 7]);
    }

    #[test]
    fn busy_cycles_cover_out_of_table_tracks() {
        let tracks = TrackTable::new();
        let events = vec![Event::span(0, 4, 2, Payload::Sync { index: 0 })];
        assert_eq!(busy_cycles_per_track(&events, &tracks), vec![0, 0, 4]);
    }

    #[test]
    fn heatmap_empty_without_spans() {
        let tracks = TrackTable::new();
        let events = vec![Event::instant(5, 0, Payload::Checkpoint)];
        assert_eq!(utilization_heatmap(&events, &tracks, 8), "");
    }
}
