//! In-memory span recorder for the traced run, with a Chrome trace-event
//! export (opens in Perfetto / `chrome://tracing`) and a per-layer table.
//!
//! Spans nest: a span's *self* time is its duration minus the durations of
//! the spans directly inside it. The benchmark wraps every traced call in a
//! `call` span, so the call span's self time is exactly the share of the
//! call that no layer span covers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span the benchmark wraps around each traced call.
pub const CALL: &str = "call";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub track: usize,
    /// The call this span belongs to; `None` for set-up and probe work.
    pub call: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    /// Named work counters attached to the span (tasks, requests, ...).
    pub counts: Vec<(&'static str, u64)>,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// Records spans on named tracks (one per workload).
pub struct Recorder {
    origin: Instant,
    tracks: Vec<&'static str>,
    track: usize,
    call: Option<usize>,
    stack: Vec<Open>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            tracks: Vec::new(),
            track: 0,
            call: None,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches to the track named `name` (created on first use).
    pub fn set_track(&mut self, name: &'static str) {
        self.track = match self.tracks.iter().position(|&t| t == name) {
            Some(i) => i,
            None => {
                self.tracks.push(name);
                self.tracks.len() - 1
            }
        };
    }

    /// Attributes the following spans to `call` (`None`: set-up or probe).
    pub fn set_call(&mut self, call: Option<usize>) {
        self.call = call;
    }

    pub fn begin(&mut self, name: &'static str) {
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let open = self.stack.pop().expect("end() without a matching begin()");
        let end = Instant::now();
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        self.spans.push(Span {
            name: open.name,
            track: self.track,
            call: self.call,
            start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
            self_ns: dur_ns.saturating_sub(open.child_ns),
            counts: Vec::new(),
        });
        dur_ns as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Adds `n` to the counter `name` of the most recently closed span.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if let Some(span) = self.spans.last_mut() {
            match span.counts.iter_mut().find(|(k, _)| *k == name) {
                Some((_, v)) => *v += n,
                None => span.counts.push((name, n)),
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A view of one workload's track.
    pub fn track(&self, name: &str) -> Track<'_> {
        let index = self.tracks.iter().position(|&t| t == name);
        Track {
            spans: self
                .spans
                .iter()
                .filter(|s| Some(s.track) == index)
                .collect(),
        }
    }

    /// The spans as a Chrome trace-event document: one thread track per
    /// workload, each span a complete (`"X"`) event carrying its call id and
    /// count.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (tid, name) in self.tracks.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}},"
            );
        }
        for s in &self.spans {
            let call = s.call.map_or("null".to_string(), |c| c.to_string());
            let counts: String = s
                .counts
                .iter()
                .map(|(k, v)| format!(",\"{k}\":{v}"))
                .collect();
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"call\":{call},\"self_us\":{:.3}{counts}}}}},",
                s.name,
                self.tracks[s.track],
                s.track,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.self_ns as f64 / 1e3,
            );
        }
        if out.ends_with(',') {
            out.pop();
        }
        out.push_str("]}\n");
        out
    }

    /// The per-layer table: per track, each layer's span count, self time
    /// (total and per traced call), summed counts and share of the traced
    /// call time, plus the uncovered share.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for name in &self.tracks {
            let track = self.track(name);
            let call_ns = track.call_ns();
            let calls = track.calls().max(1) as f64;
            let _ = writeln!(
                out,
                "[{name}] {} traced calls, {:.3} ms per call",
                track.calls(),
                call_ns as f64 / 1e6 / calls
            );
            let _ = writeln!(
                out,
                "  {:<22} {:>7} {:>11} {:>11} {:>7}  counts",
                "layer", "spans", "self ms", "ms/call", "share"
            );
            for (layer, agg) in track.layers() {
                let in_calls = if layer == CALL { "(uncovered)" } else { layer };
                let share = if agg.in_calls_ns > 0 && call_ns > 0 {
                    format!("{:6.1}%", 100.0 * agg.in_calls_ns as f64 / call_ns as f64)
                } else {
                    "      -".to_string()
                };
                let counts: Vec<String> =
                    agg.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = writeln!(
                    out,
                    "  {:<22} {:>7} {:>11.3} {:>11.3} {share}  {}",
                    in_calls,
                    agg.spans,
                    agg.self_ns as f64 / 1e6,
                    agg.in_calls_ns as f64 / 1e6 / calls,
                    counts.join(" "),
                );
            }
        }
        out
    }
}

/// Per-layer totals over one track.
#[derive(Debug, Default, Clone)]
pub struct LayerAgg {
    pub spans: usize,
    pub self_ns: u64,
    /// Self time of the spans that belong to a call.
    pub in_calls_ns: u64,
    pub counts: BTreeMap<&'static str, u64>,
}

/// The spans of one track.
pub struct Track<'a> {
    spans: Vec<&'a Span>,
}

impl Track<'_> {
    /// Number of traced calls.
    pub fn calls(&self) -> usize {
        self.spans.iter().filter(|s| s.name == CALL).count()
    }

    /// Total duration of the traced calls, in ns.
    pub fn call_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == CALL)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Durations of the traced calls, in seconds.
    pub fn call_seconds(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == CALL)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Share of the traced call time no layer span covers.
    pub fn uncovered_fraction(&self) -> f64 {
        self.layer(CALL).self_ns as f64 / self.call_ns().max(1) as f64
    }

    pub fn layers(&self) -> BTreeMap<&'static str, LayerAgg> {
        let mut map: BTreeMap<&'static str, LayerAgg> = BTreeMap::new();
        for s in &self.spans {
            let agg = map.entry(s.name).or_default();
            agg.spans += 1;
            agg.self_ns += s.self_ns;
            for &(k, v) in &s.counts {
                *agg.counts.entry(k).or_default() += v;
            }
            if s.call.is_some() {
                agg.in_calls_ns += s.self_ns;
            }
        }
        map
    }

    pub fn layer(&self, name: &str) -> LayerAgg {
        self.layers().remove(name).unwrap_or_default()
    }

    /// Median over traced calls of the per-call self time in `name`, in
    /// milliseconds (calls without such a span count as zero).
    pub fn median_per_call_ms(&self, name: &str) -> f64 {
        let mut per_call: BTreeMap<usize, u64> = self
            .spans
            .iter()
            .filter(|s| s.name == CALL)
            .filter_map(|s| s.call)
            .map(|c| (c, 0))
            .collect();
        for s in &self.spans {
            if let (true, Some(c)) = (s.name == name, s.call) {
                *per_call.entry(c).or_default() += s.self_ns;
            }
        }
        let values: Vec<f64> = per_call.values().map(|&ns| ns as f64 / 1e6).collect();
        crate::stats::median(&values)
    }

    /// Sum of counter `counter` over the in-call `name` spans.
    pub fn count_in_calls(&self, name: &str, counter: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.call.is_some())
            .flat_map(|s| &s.counts)
            .filter(|(k, _)| *k == counter)
            .map(|(_, v)| v)
            .sum()
    }

    /// Mean over traced calls of counter `counter` of the `name` spans.
    pub fn count_per_call(&self, name: &str, counter: &str) -> f64 {
        self.count_in_calls(name, counter) as f64 / self.calls().max(1) as f64
    }

    /// Total in-call self time of `name` per unit of counter `counter`, in
    /// nanoseconds.
    pub fn ns_per(&self, name: &str, counter: &str) -> f64 {
        self.layer(name).in_calls_ns as f64 / self.count_in_calls(name, counter).max(1) as f64
    }

    /// Self time of every `name` span (calls and probes alike), in seconds.
    pub fn span_seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns as f64 * 1e-9)
            .collect()
    }
}
