//! The benchmark's own span recorder: one span around each call into a
//! layer, kept in memory and written out as JSON lines when the traced
//! run ends. The program under test is not instrumented; every span
//! opens and closes in this package.

use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The sweep run (or traced iteration, for root spans) it belongs to.
    pub run: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Closes the innermost open span when dropped, so a span also ends when
/// the call it wraps unwinds.
struct CloseOnDrop;

impl Drop for CloseOnDrop {
    fn drop(&mut self) {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.origin.elapsed().as_nanos() as u64;
            if let Some(i) = r.open.pop() {
                r.spans[i].end_ns = now;
            }
        });
    }
}

/// Run `f` inside a span. Spans nest: one opened inside `f` gets this
/// one as its parent.
pub fn span<R>(name: &'static str, run: Option<usize>, f: impl FnOnce() -> R) -> R {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let id = r.spans.len();
        r.spans.push(Span {
            name,
            parent,
            run,
            start_ns: now,
            end_ns: now,
        });
        r.open.push(id);
    });
    let _close = CloseOnDrop;
    f()
}

/// How many spans have been recorded so far; spans recorded later have
/// indices from this value on.
pub fn mark() -> usize {
    RECORDER.with(|r| r.borrow().spans.len())
}

/// Every span recorded on this thread so far, in start order; the
/// recorder starts again from nothing.
pub fn take_recorded() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Seconds summed over the spans called `name`; `times` is per-span
/// duration or self time, index-aligned with `spans`.
pub fn seconds_of(spans: &[Span], times: &[u64], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .zip(times)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| *t)
        .sum();
    ns as f64 / 1e9
}

pub fn durations_ns(spans: &[Span]) -> Vec<u64> {
    spans.iter().map(Span::duration_ns).collect()
}

/// One JSON object per span: `id`, `parent`, `name`, `run`, `start_us`,
/// `end_us`, `self_us` (`null` for a missing parent or run).
pub fn write_jsonl<W: Write>(spans: &[Span], mut w: W) -> io::Result<()> {
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    for ((id, s), self_ns) in spans.iter().enumerate().zip(self_times_ns(spans)) {
        writeln!(
            w,
            "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"run\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            opt(s.parent),
            s.name,
            opt(s.run),
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            self_ns as f64 / 1e3,
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            run: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children_but_not_grandchildren() {
        let spans = [
            at("root", None, 0, 100),
            at("a", Some(0), 10, 30),
            at("b", Some(0), 40, 90),
            at("b.inner", Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            at("root", None, 100, 200),
            at("a", Some(0), 110, 150),
            at("b", Some(0), 140, 160),
            at("late", Some(0), 190, 250),
        ];
        // Covered: [110,160) and [190,200) of the root's own interval.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        assert_eq!(mark(), 0);
        let out = span("outer", Some(3), || {
            span("inner", None, || 7) + span("inner", None, || 1)
        });
        assert_eq!(out, 8);
        assert_eq!(mark(), 3);
        let spans = &take_recorded()[..];
        assert_eq!(mark(), 0);
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].run), ("outer", Some(3)));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(seconds_of(spans, &durations_ns(spans), "absent"), 0.0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = [at("root", None, 0, 2_000), at("kid", Some(0), 500, 1_500)];
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"id\":0,\"parent\":null,\"name\":\"root\",\"run\":null,\"start_us\":0.000,\"end_us\":2.000,\"self_us\":1.000}\n\
             {\"id\":1,\"parent\":0,\"name\":\"kid\",\"run\":null,\"start_us\":0.500,\"end_us\":1.500,\"self_us\":1.000}\n"
        );
    }
}
