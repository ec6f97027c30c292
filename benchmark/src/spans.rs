//! Spans recorded from the benchmark's own files, around the calls into each
//! layer (choosing-metrics §4). They stay in a pre-sized `Vec` while the run
//! is timed and are written out as Chrome-trace JSON when it ends.

use marconi_workload::Request;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// The layer (= crate) a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Sim,
    Core,
    /// Work the harness itself adds inside a traced run (the router's
    /// best-prefix probe), kept out of every layer's self time.
    Harness,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// The serving object's whole `run` call; the root of every tree.
    Run,
    Lookup,
    Insert,
    Pin,
    Unpin,
    Probe,
    Route,
    RouteProbe,
}

impl SpanName {
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Run => "sim.run",
            SpanName::Lookup => "core.lookup",
            SpanName::Insert => "core.insert",
            SpanName::Pin => "core.pin",
            SpanName::Unpin => "core.unpin",
            SpanName::Probe => "core.probe",
            SpanName::Route => "sim.route",
            SpanName::RouteProbe => "harness.route_probe",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            SpanName::Run | SpanName::Route => Layer::Sim,
            SpanName::RouteProbe => Layer::Harness,
            _ => Layer::Core,
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id. While the run is timed, cache spans hold the address of
    /// the request's input instead (the trait does not carry ids);
    /// [`SpanLog::resolve_requests`] translates afterwards.
    pub request: u64,
    /// Tokens the call was handed (prompt for lookups, prompt + output for
    /// inserts).
    pub tokens: u32,
    /// Entries the call evicted or demoted (inserts only).
    pub victims: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

/// One log shared by the harness (root span) and the wrappers it hands to
/// the serving object. Everything is single-threaded.
pub type SharedLog = Rc<RefCell<SpanLog>>;

impl SpanLog {
    pub fn shared(capacity: usize) -> SharedLog {
        Rc::new(RefCell::new(SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. The clock is read last so
    /// the bookkeeping lands in the parent, not in the span.
    #[inline]
    pub fn begin(&mut self, name: SpanName, request: u64, tokens: usize) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: 0,
            end_ns: 0,
            request,
            tokens: u32::try_from(tokens).unwrap_or(u32::MAX),
            victims: 0,
        });
        self.open.push(idx);
        self.spans[idx as usize].start_ns = self.now_ns();
        idx
    }

    /// Closes the innermost open span; the clock is read first.
    #[inline]
    pub fn end(&mut self, idx: u32, victims: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[idx as usize];
        span.end_ns = now;
        span.victims = u32::try_from(victims).unwrap_or(u32::MAX);
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(idx), "spans close innermost first");
    }

    /// Replaces input addresses by request ids. `unpin` carries no input; the
    /// serving loops call it right before the same request's insert, so it
    /// takes the id of the next insert span.
    pub fn resolve_requests<'a>(&mut self, requests: impl Iterator<Item = &'a Request>) {
        let mut by_addr: Vec<(u64, u64)> =
            requests.map(|r| (r.input.as_ptr() as u64, r.id)).collect();
        by_addr.sort_unstable();
        let mut next_insert = NO_REQUEST;
        for span in self.spans.iter_mut().rev() {
            match span.name {
                SpanName::Run => span.request = NO_REQUEST,
                SpanName::Route | SpanName::RouteProbe => {}
                SpanName::Unpin => span.request = next_insert,
                _ => {
                    span.request = by_addr
                        .binary_search_by_key(&span.request, |&(addr, _)| addr)
                        .map_or(NO_REQUEST, |i| by_addr[i].1);
                    if span.name == SpanName::Insert {
                        next_insert = span.request;
                    }
                }
            }
        }
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for child in spans {
        if let Some(parent) = spans.get(child.parent as usize) {
            let covered = child
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(child.start_ns.max(parent.start_ns));
            own[child.parent as usize] = own[child.parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// Self time summed per layer, in nanoseconds: `[sim, core, harness]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerSelf {
    pub sim_ns: u64,
    pub core_ns: u64,
    pub harness_ns: u64,
}

impl LayerSelf {
    pub fn of(spans: &[Span]) -> LayerSelf {
        let mut out = LayerSelf::default();
        for (span, own) in spans.iter().zip(self_times_ns(spans)) {
            match span.name.layer() {
                Layer::Sim => out.sim_ns += own,
                Layer::Core => out.core_ns += own,
                Layer::Harness => out.harness_ns += own,
            }
        }
        out
    }

    pub fn total_ns(&self) -> u64 {
        self.sim_ns + self.core_ns + self.harness_ns
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, <https://ui.perfetto.dev>).
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 32);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        // Parent and request read -1 when absent.
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let request = if s.request == NO_REQUEST {
            -1
        } else {
            s.request as i64
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"request_id\":{request},\
             \"tokens\":{},\"victims\":{}}}}}",
            s.name.label(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tokens,
            s.victims,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            request: NO_REQUEST,
            tokens: 0,
            victims: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(SpanName::Run, NO_PARENT, 0, 1_000),
            span(SpanName::Lookup, 0, 100, 300),
            span(SpanName::Insert, 0, 400, 900),
            // A grandchild is charged to its parent, not to the root.
            span(SpanName::Probe, 2, 500, 600),
        ];
        assert_eq!(self_times_ns(&spans), vec![300, 200, 400, 100]);
        let layers = LayerSelf::of(&spans);
        assert_eq!(layers.sim_ns, 300);
        assert_eq!(layers.core_ns, 700);
        assert_eq!(layers.total_ns(), spans[0].dur_ns(), "self times close");
    }

    #[test]
    fn a_child_is_clipped_to_its_parents_interval() {
        let spans = [
            span(SpanName::Run, NO_PARENT, 100, 200),
            span(SpanName::Lookup, 0, 150, 260),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn harness_spans_are_charged_to_no_layer() {
        let spans = [
            span(SpanName::Run, NO_PARENT, 0, 100),
            span(SpanName::Route, 0, 10, 30),
            span(SpanName::RouteProbe, 0, 30, 70),
        ];
        let layers = LayerSelf::of(&spans);
        assert_eq!(
            (layers.sim_ns, layers.core_ns, layers.harness_ns),
            (60, 0, 40)
        );
    }

    #[test]
    fn the_log_nests_spans_under_the_innermost_open_one() {
        let log = SpanLog::shared(4);
        let mut log = log.borrow_mut();
        let run = log.begin(SpanName::Run, NO_REQUEST, 0);
        let a = log.begin(SpanName::Lookup, 1, 10);
        log.end(a, 0);
        let b = log.begin(SpanName::Insert, 1, 12);
        log.end(b, 3);
        log.end(run, 0);
        assert_eq!(log.spans[0].parent, NO_PARENT);
        assert_eq!(log.spans[1].parent, 0);
        assert_eq!(log.spans[2].parent, 0);
        assert_eq!(log.spans[2].victims, 3);
        assert!(log.spans[1].end_ns <= log.spans[2].start_ns);
        assert!(to_chrome_trace(&log.spans).contains("\"name\":\"core.insert\""));
    }
}
