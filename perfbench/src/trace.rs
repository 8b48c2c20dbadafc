//! In-memory span recorder for traced runs.
//!
//! A span is `(name, layer, start, end, parent, op)`. Spans are only
//! recorded while the recorder is switched on; when it is off every call
//! is a flag check, so untraced passes pay nothing measurable. Layers that
//! are reachable only inside one public call (the frontend inside
//! `compile_sources`, say) become synthetic child spans built from the
//! `StageTimes`/`VmStats`-style records that call returns, laid out in
//! the order the call runs its stages.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a recorded span; `NONE` when nothing was recorded.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The layer the span's self time is charged to.
    pub layer: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: SpanId,
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<SpanId>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, op: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start: now,
            end: now,
            parent: self.stack.last().copied().unwrap_or(NONE),
            op,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        self.spans[id].end = self.origin.elapsed();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Records a closed child of `parent` covering `[start, start + len)`,
    /// for a stage the public API only reports as a duration.
    pub fn child(
        &mut self,
        parent: SpanId,
        name: &'static str,
        layer: &'static str,
        start: Duration,
        len: Duration,
    ) -> Duration {
        if parent == NONE {
            return start + len;
        }
        let op = self.spans[parent].op;
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start + len,
            parent,
            op,
        });
        start + len
    }

    /// Start offset of a recorded span (for laying out synthetic children).
    pub fn start_of(&self, id: SpanId) -> Duration {
        if id == NONE {
            Duration::ZERO
        } else {
            self.spans[id].start
        }
    }

    /// Self time per layer in milliseconds: each span's duration minus its
    /// children's, summed by layer, in first-seen layer order.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_sum = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_sum[s.parent] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.end.saturating_sub(s.start).saturating_sub(child_sum[i]);
            let ms = own.as_secs_f64() * 1e3;
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, acc)) => *acc += ms,
                None => out.push((s.layer, ms)),
            }
        }
        out
    }

    /// The recorded spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.layer,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            );
        }
        out
    }
}
