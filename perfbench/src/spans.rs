//! In-memory spans around calls into the program's layers, written out
//! once at the end as a Chrome-trace (Perfetto) document.

use std::time::Instant;

use scup_obs::chrome::{write_trace_json, ArgValue, ChromeEvent};

/// One timed call: `parent` indexes the enclosing span, `run` groups the
/// spans of one operation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. Disabled, it records nothing and its handles are
/// free to open and close.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An open span; close it with [`Spans::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, run: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let end = self.now_ns();
            assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = end;
        }
    }

    /// Records a span measured elsewhere (start and length in
    /// nanoseconds on this recorder's clock).
    pub fn record(&mut self, name: &'static str, run: u64, start_ns: u64, nanos: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + nanos,
                parent: self.open.last().copied(),
                run,
            });
        }
    }

    /// Nanoseconds since this recorder started.
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Perfetto-loadable document: one track, each span
    /// carrying its run id and parent index.
    pub fn to_chrome_json(&self, track: &str) -> String {
        let mut events = vec![
            ChromeEvent::ProcessName {
                pid: 1,
                name: track.to_string(),
            },
            ChromeEvent::ThreadName {
                pid: 1,
                tid: 1,
                name: "benchmark".to_string(),
            },
        ];
        events.extend(self.spans.iter().enumerate().map(|(i, s)| {
            let mut args = vec![
                ("span", ArgValue::U64(i as u64)),
                ("run", ArgValue::U64(s.run)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", ArgValue::U64(p as u64)));
            }
            ChromeEvent::Complete {
                name: s.name.to_string(),
                cat: "layer",
                ts: s.start_ns / 1_000,
                dur: s.nanos() / 1_000,
                pid: 1,
                tid: 1,
                args,
            }
        }));
        write_trace_json(&events)
    }
}
