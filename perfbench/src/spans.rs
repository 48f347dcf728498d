//! In-memory spans recorded around the public calls the traced run
//! makes into each layer (crate). Nothing is instrumented inside the
//! crates: a span covers one call from the outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call. `name` is `<layer>.<call>`; the layer is the
/// crate the call enters (`perfbench` for the benchmark's own cell
/// spans).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. A disabled tracer runs the same
/// closures and records nothing, which is the untraced baseline the
/// tracing overhead is measured against.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Runs `f` inside a span named `name` belonging to `request`; the
    /// innermost open span is its parent.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, request, name: name.to_owned(), start_ns, end_ns: 0 });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its children
/// cover (children of one span never overlap on a single thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans.iter().map(|s| s.duration_ns() as i64 - child_ns[s.id] as i64).collect()
}

/// Self time summed per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer().to_owned()).or_default() += self_ns as f64 / 1e6;
    }
    out
}

/// Checks that a span set is well formed: every parent exists and
/// encloses its children, a child carries its parent's request id, and
/// no self time is negative.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .iter()
                .find(|q| q.id == p)
                .ok_or_else(|| format!("span {} ({}) has missing parent {p}", s.id, s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!("span {} ({}) escapes its parent {p}", s.id, s.name));
            }
            if s.request != parent.request {
                return Err(format!(
                    "span {} ({}) has request {} but its parent has {}",
                    s.id, s.name, s.request, parent.request
                ));
            }
        }
    }
    if let Some((s, t)) = spans.iter().zip(self_times_ns(spans)).find(|(_, t)| *t < 0) {
        return Err(format!("span {} ({}) has negative self time {t} ns", s.id, s.name));
    }
    Ok(())
}

/// One JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )
        .expect("write to String");
    }
    out
}

/// Parses [`to_jsonl`] output back (for the span-file checks).
pub fn from_jsonl(text: &str) -> Result<Vec<Span>, String> {
    use xbc_sim::json::Json;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let j = Json::parse(line).map_err(|e| format!("bad span line {line:?}: {e}"))?;
            let num = |k: &str| j.get(k).and_then(Json::as_u64).ok_or(format!("span missing {k}"));
            Ok(Span {
                id: num("id")? as usize,
                parent: match j.get("parent") {
                    Some(Json::Null) | None => None,
                    Some(p) => Some(p.as_u64().ok_or("span parent is not a number")? as usize),
                },
                request: num("request")?,
                name: j.get("name").and_then(Json::as_str).ok_or("span missing name")?.to_owned(),
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_are_well_formed_and_round_trip() {
        let mut t = Tracer::new(true);
        t.span("perfbench.cell", 3, |t| {
            t.span("store.open", 3, |_| std::hint::black_box(1 + 1));
            t.span("core.run", 3, |t| t.span("sim.inner", 3, |_| ()));
        });
        validate(t.spans()).unwrap();
        assert_eq!(from_jsonl(&to_jsonl(t.spans())).unwrap(), t.spans());
        let layers = layer_self_ms(t.spans());
        let total: f64 = layers.values().sum();
        let root = t.spans()[0].duration_ns() as f64 / 1e6;
        assert!((total - root).abs() < 1e-9, "self times partition the root span");
    }

    #[test]
    fn validate_rejects_escaping_child_and_foreign_request() {
        let span = |id, parent, request, s, e| Span {
            id,
            parent,
            request,
            name: "x.y".into(),
            start_ns: s,
            end_ns: e,
        };
        assert!(validate(&[span(0, None, 1, 0, 10), span(1, Some(0), 1, 5, 11)]).is_err());
        assert!(validate(&[span(0, None, 1, 0, 10), span(1, Some(0), 2, 2, 3)]).is_err());
        assert!(validate(&[span(0, None, 1, 0, 10), span(1, Some(7), 1, 2, 3)]).is_err());
        assert!(validate(&[span(0, None, 1, 0, 10), span(1, Some(0), 1, 2, 3)]).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a.b", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
