//! ASCII Gantt rendering, drawn from the trace stream.
//!
//! [`segments`] reads one [`Segment`] per contiguous run of each task off
//! a site's [`TraceEvent`]s (preemption and crash eviction split a task
//! into several segments). The renderer lays segments out into lanes (a
//! greedy interval coloring — processors are interchangeable, so lanes
//! are equivalent to processors up to relabeling) and draws a
//! fixed-width ASCII chart, which `mbts run --gantt` and the `gantt`
//! example use to make preemption and backfilling visible.

use mbts_sim::Time;
use mbts_trace::{TraceEvent, TraceKind};
use mbts_workload::TaskId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One contiguous execution interval of a task on one gang of processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The task.
    pub id: TaskId,
    /// Gang width (the segment occupies this many lanes' worth of
    /// capacity; rendering shows it once with a width annotation).
    pub width: usize,
    /// Segment start.
    pub start: Time,
    /// Segment end (completion, preemption or eviction instant).
    pub end: Time,
    /// `true` if the segment ended in preemption or crash eviction rather
    /// than completion.
    pub preempted: bool,
}

/// The execution segments of one site's trace stream, sorted by
/// (start, task id): a `Scheduled` event opens a segment, and the task's
/// next `Preempted`, `Requeued` or `Completed` event closes it. Other
/// events, decision records included, are skipped.
pub fn segments(events: &[TraceEvent]) -> Vec<Segment> {
    let mut open: HashMap<TaskId, (Time, usize)> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        let Some(id) = e.task else { continue };
        let preempted = match e.kind {
            TraceKind::Scheduled { width, .. } => {
                open.insert(id, (e.at, width));
                continue;
            }
            TraceKind::Preempted { .. } | TraceKind::Requeued { .. } => true,
            TraceKind::Completed { .. } => false,
            _ => continue,
        };
        if let Some((start, width)) = open.remove(&id) {
            out.push(Segment {
                id,
                width,
                start,
                end: e.at,
                preempted,
            });
        }
    }
    out.sort_by(|a, b| a.start.cmp(&b.start).then(a.id.cmp(&b.id)));
    out
}

/// Renders segments as an ASCII Gantt chart, `cols` characters wide.
/// Lanes are assigned greedily by start time; a segment of width `w`
/// consumes `w` lanes.
pub fn render_gantt(segments: &[Segment], cols: usize) -> String {
    if segments.is_empty() {
        return String::from("(no segments)\n");
    }
    let t0 = segments.iter().map(|s| s.start).min().unwrap();
    let t1 = segments.iter().map(|s| s.end).max().unwrap();
    let span = (t1 - t0).as_f64().max(1e-9);
    let col_of = |t: Time| -> usize {
        (((t - t0).as_f64() / span) * (cols.saturating_sub(1)) as f64).round() as usize
    };

    // Greedy lane assignment: earliest-starting segment first; each takes
    // the first `width` lanes that are free at its start.
    let mut order: Vec<usize> = (0..segments.len()).collect();
    order.sort_by(|&a, &b| {
        segments[a]
            .start
            .cmp(&segments[b].start)
            .then(segments[a].id.cmp(&segments[b].id))
    });
    let mut lane_busy_until: Vec<Time> = Vec::new();
    let mut placement: Vec<(usize, Vec<usize>)> = Vec::new(); // (segment, lanes)
    for &si in &order {
        let seg = &segments[si];
        let mut lanes = Vec::with_capacity(seg.width);
        for (li, busy) in lane_busy_until.iter().enumerate() {
            if lanes.len() == seg.width {
                break;
            }
            if *busy <= seg.start {
                lanes.push(li);
            }
        }
        while lanes.len() < seg.width {
            lane_busy_until.push(Time::ZERO);
            lanes.push(lane_busy_until.len() - 1);
        }
        for &li in &lanes {
            lane_busy_until[li] = seg.end;
        }
        placement.push((si, lanes));
    }

    let num_lanes = lane_busy_until.len();
    let mut grid = vec![vec![' '; cols]; num_lanes];
    for (si, lanes) in &placement {
        let seg = &segments[*si];
        let c0 = col_of(seg.start);
        let c1 = col_of(seg.end).max(c0);
        let glyph = glyph_for(seg.id);
        for &lane in lanes {
            for cell in grid[lane].iter_mut().take(c1.min(cols - 1) + 1).skip(c0) {
                *cell = glyph;
            }
            // Mark a preempted segment's end.
            if seg.preempted && c1 < cols {
                grid[lane][c1] = '>';
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "t ∈ [{t0}, {t1}] — one row per lane (≈ processor)");
    for (li, row) in grid.iter().enumerate() {
        let _ = writeln!(out, "{li:>3} |{}|", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "legend: a–z0–9 = task id mod 36, '>' = preempted here");
    out
}

fn glyph_for(id: TaskId) -> char {
    const GLYPHS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    GLYPHS[(id.0 % GLYPHS.len() as u64) as usize] as char
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(id: u64, width: usize, start: f64, end: f64, preempted: bool) -> Segment {
        Segment {
            id: TaskId(id),
            width,
            start: Time::from(start),
            end: Time::from(end),
            preempted,
        }
    }

    fn event(at: f64, id: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Time::from(at),
            task: Some(TaskId(id)),
            site: None,
            kind,
        }
    }

    fn scheduled(at: f64, id: u64, width: usize) -> TraceEvent {
        let kind = TraceKind::Scheduled {
            rank: 1,
            pv: 0.0,
            cost: 0.0,
            slack: 0.0,
            width,
            backfill: false,
        };
        event(at, id, kind)
    }

    #[test]
    fn segments_open_on_start_and_close_on_preempt_evict_or_complete() {
        let completed = TraceKind::Completed {
            earned: 1.0,
            delay: 0.0,
            width: 2,
            preemptions: 2,
        };
        let events = vec![
            event(0.0, 0, TraceKind::TaskArrived { accepted: true }),
            scheduled(0.0, 0, 2),
            scheduled(1.0, 1, 1),
            event(2.0, 0, TraceKind::Preempted { width: 2 }),
            scheduled(3.0, 0, 2),
            event(4.0, 0, TraceKind::Requeued { width: 2 }),
            scheduled(5.0, 0, 2),
            event(9.0, 0, completed),
        ];
        assert_eq!(
            segments(&events),
            vec![
                seg(0, 2, 0.0, 2.0, true),
                seg(0, 2, 3.0, 4.0, true),
                seg(0, 2, 5.0, 9.0, false),
            ],
            "task 1 never closes, so it draws nothing"
        );
    }

    #[test]
    fn empty_render() {
        assert_eq!(render_gantt(&[], 40), "(no segments)\n");
    }

    #[test]
    fn non_overlapping_segments_share_a_lane() {
        let segs = vec![seg(0, 1, 0.0, 10.0, false), seg(1, 1, 10.0, 20.0, false)];
        let out = render_gantt(&segs, 40);
        // Exactly one lane row (plus header + legend).
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("  0 |"));
        assert!(out.contains('a'));
        assert!(out.contains('b'));
    }

    #[test]
    fn overlapping_segments_get_distinct_lanes() {
        let segs = vec![seg(0, 1, 0.0, 10.0, false), seg(1, 1, 5.0, 15.0, false)];
        let out = render_gantt(&segs, 40);
        assert_eq!(out.lines().count(), 4); // header + 2 lanes + legend
    }

    #[test]
    fn wide_segments_take_width_lanes() {
        let segs = vec![seg(0, 3, 0.0, 10.0, false)];
        let out = render_gantt(&segs, 40);
        assert_eq!(out.lines().count(), 5); // header + 3 lanes + legend
                                            // All three lanes show the same glyph.
        assert!(out.matches('a').count() >= 3);
    }

    #[test]
    fn preemption_marker_present() {
        let segs = vec![seg(0, 1, 0.0, 5.0, true), seg(0, 1, 8.0, 12.0, false)];
        let out = render_gantt(&segs, 40);
        assert!(out.contains('>'));
    }
}
