//! Span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! the program; nothing inside the program is instrumented. Each span
//! name is registered once with its parent, and every close folds the
//! span's duration into per-name totals kept in memory: busy time,
//! self time (busy minus the time covered by child spans) and the call
//! count. A million epochs therefore cost a handful of counters, not a
//! million records.

use std::time::Instant;

/// Index of a registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Totals for one span name.
#[derive(Debug, Clone)]
pub struct SpanStat {
    /// Dotted `<module>.<fn>` name.
    pub name: String,
    /// The span that encloses this one, if any.
    pub parent: Option<SpanId>,
    /// Summed duration of every closed span of this name.
    pub busy_ns: u64,
    /// `busy_ns` minus the time covered by child spans.
    pub self_ns: u64,
    /// Spans closed.
    pub count: u64,
}

struct Open {
    id: SpanId,
    start: Instant,
    child_ns: u64,
}

/// In-memory span recorder. A disabled recorder ignores every call, so
/// the untraced and traced runs execute the same benchmark code.
pub struct Tracer {
    enabled: bool,
    stats: Vec<SpanStat>,
    stack: Vec<Open>,
}

impl Tracer {
    /// A recorder that records.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            stats: Vec::new(),
            stack: Vec::with_capacity(8),
        }
    }

    /// A recorder that ignores every span.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Registers a span name under `parent` (names are registered even
    /// when disabled so ids stay valid).
    pub fn register(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let name = name.into();
        if let Some(i) = self.stats.iter().position(|s| s.name == name) {
            return SpanId(i);
        }
        self.stats.push(SpanStat {
            name,
            parent,
            busy_ns: 0,
            self_ns: 0,
            count: 0,
        });
        SpanId(self.stats.len() - 1)
    }

    /// Opens a span.
    #[inline]
    pub fn enter(&mut self, id: SpanId) {
        if self.enabled {
            self.stack.push(Open {
                id,
                start: Instant::now(),
                child_ns: 0,
            });
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = open.start.elapsed().as_nanos() as u64;
        let stat = &mut self.stats[open.id.0];
        debug_assert!(
            stat.parent
                .is_none_or(|p| self.stack.last().is_some_and(|o| o.id == p)),
            "span {} closed outside its registered parent",
            stat.name
        );
        stat.busy_ns += dur;
        stat.self_ns += dur.saturating_sub(open.child_ns);
        stat.count += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, id: SpanId, f: impl FnOnce() -> R) -> R {
        self.enter(id);
        let r = f();
        self.exit();
        r
    }

    /// Totals for one span.
    pub fn stat(&self, id: SpanId) -> &SpanStat {
        &self.stats[id.0]
    }

    /// Every registered span, in registration order.
    pub fn stats(&self) -> &[SpanStat] {
        &self.stats
    }

    /// Sum of every span's self time: the part of the traced wall time
    /// the spans account for.
    pub fn self_total_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.self_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        let outer = t.register("outer", None);
        let inner = t.register("inner", Some(outer));
        t.enter(outer);
        t.span(inner, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let (o, i) = (t.stat(outer), t.stat(inner));
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.busy_ns >= 2_000_000);
        assert!(o.busy_ns >= i.busy_ns);
        assert_eq!(o.self_ns, o.busy_ns - i.busy_ns);
        assert_eq!(t.self_total_ns(), o.busy_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.register("s", None);
        t.span(s, || ());
        assert_eq!(t.stat(s).count, 0);
    }
}
