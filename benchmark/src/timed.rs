//! Wrappers that put a span around every call from `sim` into the layer
//! below it. They forward everything and change nothing: a traced replay's
//! report must fingerprint equal to the untraced one.

use crate::spans::{SharedLog, SpanName};
use marconi_core::{
    AdmissionReport, CacheStats, LookupResult, PinTicket, PrefixCache, ReloadPolicy, SessionCursor,
};
use marconi_model::ModelConfig;
use marconi_sim::{PrefixAware, ReplicaStatus, Router};
use marconi_workload::{Request, Token};
use std::cell::Cell;
use std::rc::Rc;

/// The seven `PrefixCache` accessors, forwarded untimed: each is a field
/// read, and two clock reads around it would measure the clock.
macro_rules! forward_accessors {
    () => {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn model(&self) -> &ModelConfig {
            self.inner.model()
        }
        fn stats(&self) -> &CacheStats {
            self.inner.stats()
        }
        fn usage_bytes(&self) -> u64 {
            self.inner.usage_bytes()
        }
        fn capacity_bytes(&self) -> u64 {
            self.inner.capacity_bytes()
        }
        fn reload_policy(&self) -> ReloadPolicy {
            self.inner.reload_policy()
        }
        fn pinned_bytes(&self) -> u64 {
            self.inner.pinned_bytes()
        }
    };
}
#[cfg(test)]
pub(crate) use forward_accessors;

/// A `PrefixCache` that records one `core.*` span per operation.
#[derive(Debug)]
pub struct TimedCache<C> {
    inner: C,
    log: SharedLog,
}

impl<C> TimedCache<C> {
    pub fn new(inner: C, log: SharedLog) -> Self {
        TimedCache { inner, log }
    }
}

impl<C: PrefixCache> TimedCache<C> {
    #[inline]
    fn span<T>(
        &mut self,
        name: SpanName,
        input: &[Token],
        tokens: usize,
        call: impl FnOnce(&mut C) -> T,
        victims: impl FnOnce(&T) -> u64,
    ) -> T {
        let idx = self
            .log
            .borrow_mut()
            .begin(name, input.as_ptr() as u64, tokens);
        let out = call(&mut self.inner);
        self.log.borrow_mut().end(idx, victims(&out));
        out
    }
}

fn victims(report: &AdmissionReport) -> u64 {
    report.entries_evicted + report.entries_demoted
}

impl<C: PrefixCache> PrefixCache for TimedCache<C> {
    forward_accessors!();

    fn lookup_at(&mut self, input: &[Token], now: f64) -> LookupResult {
        let call = |c: &mut C| c.lookup_at(input, now);
        self.span(SpanName::Lookup, input, input.len(), call, |_| 0)
    }

    fn lookup_at_with(
        &mut self,
        input: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> LookupResult {
        let call = |c: &mut C| c.lookup_at_with(input, now, hint);
        self.span(SpanName::Lookup, input, input.len(), call, |_| 0)
    }

    fn longest_cached_prefix_len(&self, input: &[Token]) -> u64 {
        let idx = self
            .log
            .borrow_mut()
            .begin(SpanName::Probe, input.as_ptr() as u64, input.len());
        let len = self.inner.longest_cached_prefix_len(input);
        self.log.borrow_mut().end(idx, 0);
        len
    }

    fn insert_at(&mut self, input: &[Token], output: &[Token], now: f64) -> AdmissionReport {
        let tokens = input.len() + output.len();
        let call = |c: &mut C| c.insert_at(input, output, now);
        self.span(SpanName::Insert, input, tokens, call, victims)
    }

    fn insert_at_with(
        &mut self,
        input: &[Token],
        output: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> (AdmissionReport, Option<SessionCursor>) {
        let tokens = input.len() + output.len();
        let call = |c: &mut C| c.insert_at_with(input, output, now, hint);
        self.span(SpanName::Insert, input, tokens, call, |(r, _)| victims(r))
    }

    fn pin_prefix(&mut self, input: &[Token]) -> PinTicket {
        let call = |c: &mut C| c.pin_prefix(input);
        self.span(SpanName::Pin, input, input.len(), call, |_| 0)
    }

    fn pin_prefix_with(&mut self, input: &[Token], hint: Option<SessionCursor>) -> PinTicket {
        let call = |c: &mut C| c.pin_prefix_with(input, hint);
        self.span(SpanName::Pin, input, input.len(), call, |_| 0)
    }

    fn unpin(&mut self, ticket: PinTicket) {
        self.span(SpanName::Unpin, &[], 0, |c: &mut C| c.unpin(ticket), |()| 0);
    }
}

/// What [`TimedRouter`] counted besides its spans.
#[derive(Debug, Default)]
pub struct RouteCounts {
    pub routed: Cell<u64>,
    /// Requests sent to a replica that already held a non-empty prefix at
    /// least as long as any other replica's.
    pub best_prefix: Cell<u64>,
}

/// `PrefixAware` with a `sim.route` span around each decision. The
/// best-prefix probe runs after the span closes, under a `harness.*` span
/// of its own, so it is charged to no layer.
#[derive(Debug)]
pub struct TimedRouter {
    inner: PrefixAware,
    log: SharedLog,
    counts: Rc<RouteCounts>,
}

impl TimedRouter {
    pub fn new(log: SharedLog, counts: Rc<RouteCounts>) -> Self {
        TimedRouter {
            inner: PrefixAware,
            log,
            counts,
        }
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        let tokens = req.input.len();
        let idx = self.log.borrow_mut().begin(SpanName::Route, req.id, tokens);
        let chosen = self.inner.route(req, replicas);
        self.log.borrow_mut().end(idx, 0);

        let idx = self
            .log
            .borrow_mut()
            .begin(SpanName::RouteProbe, req.id, tokens);
        let held = replicas[chosen].probe(&req.input);
        let longest = replicas
            .iter()
            .map(|r| r.probe(&req.input))
            .max()
            .unwrap_or(0);
        self.counts.routed.set(self.counts.routed.get() + 1);
        if held > 0 && held == longest {
            self.counts
                .best_prefix
                .set(self.counts.best_prefix.get() + 1);
        }
        self.log.borrow_mut().end(idx, 0);
        chosen
    }
}
