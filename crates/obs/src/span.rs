//! RAII spans: wall-clock timing of a region of work.
//!
//! A [`Span`] *always* measures (the instrumented code often feeds the
//! duration into its own stats structs, e.g. `LumpStats.elapsed`, which
//! must stay correct with observability off), but only *reports* —
//! histogram sample plus `SpanEnd` event — when observability is enabled.
//!
//! When observability is enabled a span also carries an identity: a
//! process-unique id and the id of the span it opened inside (the top of
//! this thread's context stack, see [`crate::profile`]). When profiling
//! is on as well, closing the span deposits a
//! [`TraceEvent`](crate::TraceEvent) in the timeline ring buffer,
//! including the bytes allocated while the span was open if the counting
//! allocator is tracking.

use crate::event::{Event, EventKind, Value};
use crate::profile::{self, SpanContext};
use std::time::{Duration, Instant};

/// A timed region. Create with [`crate::span`], attach fields with
/// [`Span::with`]/[`Span::record`], and close with [`Span::finish`] to
/// get the measured duration (dropping it reports too, but discards the
/// duration).
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, Value)>,
    finished: bool,
    /// 0 when observability was disabled at creation (no identity).
    id: u64,
    parent: u64,
    /// Optional display name for traces (see [`Span::trace_label`]).
    label: Option<String>,
    /// Allocator totals sampled at creation (profiling only).
    alloc0: u64,
    calls0: u64,
}

impl Span {
    pub(crate) fn new(name: &'static str) -> Self {
        let (id, parent) = if crate::enabled() {
            let parent = profile::current_span().map_or(0, |c| c.id);
            let id = profile::next_span_id();
            profile::push_span(SpanContext { id, name });
            (id, parent)
        } else {
            (0, 0)
        };
        let (alloc0, calls0) = if id != 0 && profile::profiling() && crate::alloc::mem_tracking() {
            (crate::alloc::allocated_bytes(), crate::alloc::alloc_calls())
        } else {
            (0, 0)
        };
        if crate::tracing() {
            crate::emit(&Event {
                kind: EventKind::SpanStart,
                name,
                nanos: None,
                fields: Vec::new(),
            });
        }
        Span {
            name,
            start: Instant::now(),
            fields: Vec::new(),
            finished: false,
            id,
            parent,
            label: None,
            alloc0,
            calls0,
        }
    }

    /// Builder-style field attachment at creation time.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.record(key, value);
        self
    }

    /// Attaches a field discovered mid-span (e.g. a result size). Fields
    /// ride on the `SpanEnd` event; they are skipped entirely while
    /// observability is disabled.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if crate::enabled() {
            self.fields.push((key, value.into()));
        }
    }

    /// Sets the display name used for this span in timeline traces and
    /// the aggregated profile — e.g. `pipeline.lump` instead of the
    /// generic `pipeline.stage` the histogram aggregates under. Only
    /// stored while profiling, so the string is never built otherwise
    /// (pass `format_args!` for zero cost on the off path).
    pub fn trace_label(&mut self, label: impl std::fmt::Display) {
        if self.id != 0 && profile::profiling() {
            self.label = Some(label.to_string());
        }
    }

    /// The span's process-unique id (0 when observability was disabled
    /// at creation).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Elapsed time so far, without closing the span.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the span and returns its wall-clock duration.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        self.finished = true;
        let elapsed = self.start.elapsed();
        if self.id == 0 {
            return elapsed;
        }
        profile::pop_span(self.id);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if crate::enabled() {
            crate::histogram(self.name).record_always(nanos);
            crate::emit(&Event {
                kind: EventKind::SpanEnd,
                name: self.name,
                nanos: Some(nanos),
                fields: std::mem::take(&mut self.fields),
            });
        }
        if profile::profiling() {
            let (alloc_bytes, alloc_calls) = if crate::alloc::mem_tracking() {
                (
                    crate::alloc::allocated_bytes().saturating_sub(self.alloc0),
                    crate::alloc::alloc_calls().saturating_sub(self.calls0),
                )
            } else {
                (0, 0)
            };
            profile::record(crate::TraceEvent {
                id: self.id,
                parent: self.parent,
                name: self.name,
                label: self.label.take(),
                tid: profile::thread_ord(),
                start_ns: u64::try_from(self.start.duration_since(profile::epoch()).as_nanos())
                    .unwrap_or(u64::MAX),
                dur_ns: nanos,
                alloc_bytes,
                alloc_calls,
            });
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn finish_returns_nonzero_duration() {
        // Serialized: while another test has profiling on, this span
        // would land in its trace ring.
        let _guard = crate::testing::guard();
        let span = crate::span("obs.test.span");
        std::hint::black_box(1 + 1);
        let d = span.finish();
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn disabled_span_records_no_fields() {
        let _guard = crate::testing::guard();
        crate::set_enabled(false);
        let span = crate::span("obs.test.disabled").with("k", 1u64);
        assert!(span.fields.is_empty());
        assert_eq!(span.id(), 0, "disabled spans carry no identity");
    }

    #[test]
    fn enabled_spans_have_ids_and_expose_context() {
        let _guard = crate::testing::guard();
        crate::set_enabled(true);
        let span = crate::span("obs.test.ctx");
        assert!(span.id() > 0);
        let ctx = crate::current_span().expect("span is on the stack");
        assert_eq!(ctx.id, span.id());
        assert_eq!(ctx.name, "obs.test.ctx");
        span.finish();
        assert_eq!(crate::current_span(), None);
        crate::set_enabled(false);
    }

    #[test]
    fn trace_label_is_skipped_without_profiling() {
        let _guard = crate::testing::guard();
        crate::set_enabled(true);
        let mut span = crate::span("obs.test.label");
        span.trace_label(format_args!("expensive-{}", 42));
        assert!(span.label.is_none());
        span.finish();
        crate::set_enabled(false);
    }
}
