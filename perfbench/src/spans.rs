//! The benchmark's clock and its span recorder.
//!
//! Every call into a layer's public function goes through [`Recorder::call`],
//! which times it on the host clock. With `--trace 1` the call also leaves a
//! span (name, layer, start, end, parent span, run id) in memory; with
//! `--trace 0` the recorder is off and a call costs two clock reads. Spans
//! are recorded from these files only — the program under test is not
//! instrumented — so a span's children are the benchmark's own nested
//! sections, and a layer's busy time is the self time of its spans.

use nbfs_bench::wallclock::HostTimer;

/// The layer (crate) a span's time belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Graph,
    Util,
    Comm,
    Core,
    Trace,
    /// The benchmark's own sections (phases, checks, input generation).
    Bench,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Graph => "graph",
            Layer::Util => "util",
            Layer::Comm => "comm",
            Layer::Core => "core",
            Layer::Trace => "trace",
            Layer::Bench => "bench",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Host seconds since the recorder was made.
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one search share its id (the search key); 0 elsewhere.
    pub run: u64,
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover. Children never overlap (one thread records), so that
/// part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.end - span.start;
        }
    }
    own
}

/// Host clock plus the in-memory span store.
pub struct Recorder {
    clock: HostTimer,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            clock: HostTimer::new(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Host seconds since the recorder was made.
    pub fn now(&self) -> f64 {
        self.clock.elapsed_secs()
    }

    /// Turns span recording on or off (timing stays on); returns the
    /// previous setting.
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a section of the benchmark's own; close it with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        self.open_span(name, Layer::Bench, 0)
    }

    pub fn exit(&mut self, section: Option<usize>) {
        if let Some(id) = section {
            self.spans[id].end = self.now();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "sections close innermost first");
        }
    }

    fn open_span(&mut self, name: &'static str, layer: Layer, run: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.open.last().copied(),
            run,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Times one call into `layer`, returning its result and host seconds.
    pub fn call<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> (R, f64) {
        self.call_for(name, layer, 0, f)
    }

    /// [`Self::call`] for a call that serves search `run`.
    pub fn call_for<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open_span(name, layer, run);
        let start = self.now();
        let out = f();
        let end = self.now();
        if let Some(id) = id {
            // The span brackets the timed interval, so the recorder's own
            // cost shows up as the gap between the two (bench.span_overhead).
            self.spans[id].end = self.now();
            self.open.pop();
        }
        (out, end - start)
    }

    /// Self time and span count per layer, in declaration order.
    pub fn busy_by_layer(&self) -> [(f64, usize); 6] {
        let own = self_times(&self.spans);
        let mut busy = [(0.0, 0); 6];
        for (span, own) in self.spans.iter().zip(own) {
            let slot = &mut busy[span.layer as usize];
            slot.0 += own;
            slot.1 += 1;
        }
        busy
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"run\": {}}}{}\n",
                s.name,
                s.layer.label(),
                s.start,
                s.end,
                s.run,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer: Layer::Bench,
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // 0: [0, 10] with children 1: [1, 4] and 3: [5, 9]; 2: [2, 3] is a
        // grandchild and only comes off its own parent.
        let spans = [
            span(0.0, 10.0, None),
            span(1.0, 4.0, Some(0)),
            span(2.0, 3.0, Some(1)),
            span(5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        // Self times add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn recorder_nests_calls_under_the_open_section_and_is_silent_when_off() {
        let mut rec = Recorder::new(true);
        let phase = rec.enter("phase");
        let (value, secs) = rec.call_for("graph.thing", Layer::Graph, 7, || 41 + 1);
        rec.exit(phase);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let busy = rec.busy_by_layer();
        let total: f64 = busy.iter().map(|&(secs, _)| secs).sum();
        assert!((total - (spans[0].end - spans[0].start)).abs() < 1e-9);
        assert_eq!(busy[0].1 + busy[5].1, 2);

        let mut off = Recorder::new(false);
        let section = off.enter("phase");
        off.call("graph.thing", Layer::Graph, || ());
        off.exit(section);
        assert!(off.spans().is_empty());
    }
}
