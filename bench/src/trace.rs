//! In-memory span tracing, recorded from the benchmark's own code around the calls
//! it makes into each layer (choosing the boundaries *outside* the program: spans
//! inside `crates/` are a later change this benchmark will judge).
//!
//! A [`Tracer`] that is switched off costs one branch per call, so the untraced and
//! the traced pass run the very same harness code; end-to-end numbers always come
//! from the untraced pass and the two are compared as `trace.overhead_pct`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// `parent` of a root span, and the id [`Tracer::begin`] returns while switched off.
pub const NO_SPAN: u32 = u32::MAX;

/// Ticks per block when a traced pass alternates recording on and off (see
/// [`traced_tick`]).  Transients arrive every 10th tick, so every block holds the
/// same mix.
const TRACE_BLOCK: usize = 10;

/// In a traced pass the tracer records during even blocks only; the odd blocks run
/// the identical harness with recording off.  `trace.overhead_pct` compares the two
/// tick medians of the *same* run, so run-to-run noise cannot swamp it.
pub fn traced_tick(tick: usize) -> bool {
    (tick / TRACE_BLOCK).is_multiple_of(2)
}

/// One timed call: what ran, when, under which span, in which tick, on which lane
/// (lane 0 is the main thread, lane `1 + c` is client connection `c`).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub tick: u32,
    pub lane: u8,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread.  All tracers of a run share one `origin`, so their
/// timestamps are comparable after [`merge`].
pub struct Tracer {
    on: bool,
    origin: Instant,
    lane: u8,
    tick: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, lane: u8) -> Self {
        Self {
            on,
            origin,
            lane,
            tick: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off between spans (never inside one).
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording toggles between spans");
        self.on = on;
    }

    /// Spans begun from now on carry this tick id (the identifier spans of one
    /// lock-step round share).
    pub fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            tick: self.tick,
            lane: self.lane,
        });
        self.open.push(id);
        id
    }

    /// Closes the span [`Self::begin`] returned; spans close innermost-first.
    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = now;
    }

    /// Times one call as a span without children.
    pub fn leaf<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = call();
        self.end(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent ids.
pub fn merge(lanes: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
    for lane in lanes {
        let base = all.len() as u32;
        all.extend(lane.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// A span's **self time**: its duration minus the part its child spans cover.
/// Children of one span run on the same thread one after another, so the covered
/// part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_SPAN {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations of every span, grouped by name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.duration_ns());
    }
    out
}

/// Writes the spans as compact JSON: a name table plus one
/// `[name, start_ns, end_ns, parent, tick, lane]` row per span (`parent` is the row
/// index of the enclosing span, `-1` for a root).
pub fn write_json(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\":\"{workload}\",\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"tick\",\"lane\"],\"names\":[")?;
    for (i, n) in names.iter().enumerate() {
        write!(out, "{}\"{n}\"", if i == 0 { "" } else { "," })?;
    }
    write!(out, "],\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let name = names
            .binary_search(&s.name)
            .expect("every name is in the table");
        let parent = if s.parent == NO_SPAN {
            -1
        } else {
            i64::from(s.parent)
        };
        write!(
            out,
            "{}[{name},{},{},{parent},{},{}]",
            if i == 0 { "" } else { "," },
            s.start_ns,
            s.end_ns,
            s.tick,
            s.lane
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tick: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("tick", 0, 100, NO_SPAN),
            span("run_epoch", 10, 80, 0),
            span("mint", 20, 50, 1),
            span("flush", 55, 60, 1),
            span("poll", 85, 95, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 35, 30, 5, 10]);
    }

    #[test]
    fn a_switched_off_tracer_records_nothing_and_still_runs_the_call() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.begin("outer");
        assert_eq!(id, NO_SPAN);
        assert_eq!(t.leaf("inner", || 41 + 1), 42);
        t.end(id);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nesting_ticks_and_merge_rebase_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin, 0);
        a.set_tick(7);
        let outer = a.begin("outer");
        a.leaf("inner", || ());
        a.end(outer);
        let mut b = Tracer::new(true, origin, 1);
        let root = b.begin("root");
        a_child(&mut b);
        b.end(root);
        let merged = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(merged.len(), 4);
        assert_eq!(
            (merged[1].name, merged[1].parent, merged[1].tick),
            ("inner", 0, 7)
        );
        assert_eq!(
            (merged[3].name, merged[3].parent, merged[3].lane),
            ("child", 2, 1)
        );
        assert!(merged.iter().all(|s| s.end_ns >= s.start_ns));
    }

    fn a_child(t: &mut Tracer) {
        t.leaf("child", || ());
    }
}
