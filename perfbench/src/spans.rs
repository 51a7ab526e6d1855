//! In-memory span recording for the traced pass.
//!
//! A span is a name, a start and end on the harness's monotonic clock
//! (nanoseconds since the recorder was created), and the span that
//! caused it. Spans are recorded around the harness's own calls into
//! the measured crates; nothing inside them is instrumented. The
//! recorder keeps everything in memory and is written out once, after
//! the pass.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// One closed (or still open, `end == start`) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The item the span belongs to (all spans of one item share it).
    pub item: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span sink for one pass. When `off`, every call is a no-op that
/// reads no clock, so the untraced pass pays one branch per site.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    item: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps nothing.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            epoch: Instant::now(),
            item: 0,
            spans: Vec::new(),
        }
    }

    /// A recording recorder.
    pub fn on() -> Recorder {
        Recorder {
            on: true,
            ..Recorder::off()
        }
    }

    /// Sets the item id stamped on spans opened from now on.
    pub fn set_item(&mut self, item: u32) {
        self.item = item;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when not recording.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            item: self.item,
            start_ns: t,
            end_ns: t,
            parent,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Closes a span opened by [`Recorder::open`].
    #[inline]
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let t = self.now_ns();
            self.spans[id as usize].end_ns = t;
        }
    }

    /// Records children that the measured code reports only as totals
    /// (the executives' serial-exchange and advance nanoseconds): they
    /// are laid end to end from the parent's start, so they cover the
    /// parent for exactly their summed duration.
    pub fn add_totals(&mut self, parent: Option<SpanId>, parts: &[(&'static str, u64)]) {
        let Some(p) = parent else { return };
        let (mut at, end) = {
            let s = &self.spans[p as usize];
            (s.start_ns, s.end_ns)
        };
        for &(name, ns) in parts {
            let stop = (at + ns).min(end);
            self.spans.push(Span {
                name,
                item: self.item,
                start_ns: at,
                end_ns: stop,
                parent,
            });
            at = stop;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `id item name start_ns end_ns parent self_ns` (`-` for a root).
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        writeln!(w, "id\titem\tname\tstart_ns\tend_ns\tparent\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{own}",
                s.item, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; children are clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(s.start_ns, s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            item: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_self_times_partition_the_root() {
        // item [0, 100) ⊃ build [10, 30) ⊃ try_build [12, 20),
        //               run [40, 90) ⊃ exchange [40, 55), advance [55, 85)
        let spans = vec![
            span("item", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("try_build", 12, 20, Some(1)),
            span("run", 40, 90, Some(0)),
            span("exchange", 40, 55, Some(3)),
            span("advance", 55, 85, Some(3)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 12, 8, 5, 15, 30]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("p", 0, 50, None),
            span("a", 5, 25, Some(0)),
            span("b", 20, 30, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Covered: [5, 30) and [45, 50) = 30 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn totals_are_laid_end_to_end_inside_the_parent() {
        let mut r = Recorder::on();
        let p = r.open("run", None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(p);
        let total = r.spans()[0].duration_ns();
        r.add_totals(p, &[("advance", total / 2), ("exchange", total)]);
        let own = self_times(r.spans());
        assert_eq!(own[0], 0, "children clipped to the parent cover it");
        assert_eq!(own[1] + own[2], total);
    }

    #[test]
    fn an_off_recorder_keeps_nothing() {
        let mut r = Recorder::off();
        let id = r.open("x", None);
        assert_eq!(id, None);
        r.close(id);
        r.add_totals(id, &[("y", 5)]);
        assert!(r.spans().is_empty());
    }
}
