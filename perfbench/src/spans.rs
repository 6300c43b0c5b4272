//! Spans recorded around the benchmark's calls into each layer.
//!
//! Only the traced run (`--trace 1`) records: every helper takes an
//! `Option<&Spans>` and reads no clock when it is `None`. Spans are
//! kept in memory and written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `group` ties together the spans of one request
/// (or one solver step, one suite matrix); `parent` is 0 at the root.
struct Span {
    id: u64,
    parent: u64,
    group: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span store of one traced run.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that already ran from `start` to `end`.
    pub fn push(&self, name: &'static str, parent: u64, group: u64, start: Instant, end: Instant) {
        // relaxed-ok: a unique-id counter publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.store(Span {
            id,
            parent,
            group,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    fn store(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Per span name: count, total seconds and self seconds (total
    /// minus the time its child spans cover), sorted by self time.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 * 1e-9, own as f64 * 1e-9))
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }
}

/// Runs `f` inside a span named `name` when tracing. `f` receives the
/// new span's id (0 when not tracing) to parent its own children.
pub fn span<T>(
    spans: Option<&Spans>,
    name: &'static str,
    parent: u64,
    group: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    let Some(sp) = spans else {
        return f(0);
    };
    // relaxed-ok: a unique-id counter publishes no other data.
    let id = sp.next_id.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let out = f(id);
    let end = Instant::now();
    sp.store(Span { id, parent, group, name, start_ns: sp.ns(start), end_ns: sp.ns(end) });
    out
}
