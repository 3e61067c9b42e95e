//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program itself records no spans yet; the benchmark times the
//! boundary of every public call it makes. A span holds its name, its
//! parent, and its start and end in host nanoseconds since the tracer
//! was made. Spans stay in memory until the run ends.

use std::io::Write;
use std::time::Instant;

/// Payload sizes the channel spans are split by, in bytes.
pub const CHAN_SIZES: [usize; 3] = [64, 1024, 3900];

/// What a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One episode: set-up, measured phase and verification.
    Rep,
    /// Boot, kernel start and backlog build.
    Setup,
    /// One `Machine::step` (classic cluster) or one lockstep round.
    Step,
    /// Reading counters between steps.
    Probe,
    /// The post-run correctness checks, counter collection and the
    /// simulator's teardown.
    Verify,
    /// `CacheKernel::query_mapping`.
    QueryMapping,
    /// `CacheKernel::load_mapping`.
    LoadMapping,
    /// `CacheKernel::thread`: is a thread descriptor still cached.
    QueryThread,
    /// `CacheKernel::load_thread`.
    LoadThread,
    /// `CacheKernel::take_writebacks`.
    TakeWritebacks,
    /// One `raise_signal` on a message page.
    SigRaise,
    /// One 16-raise `SignalBatch`.
    SigStorm,
    /// `take_signal` and `signal_return` on the receivers.
    SigDrain,
    /// One classic `Channel` send and receive, by payload size index.
    ChanCopy(u8),
    /// One `PageChannel` send, in-place read and complete, by payload
    /// size index.
    ChanRemap(u8),
}

/// The layer a span's self time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Setup,
    Exec,
    Ck,
    Sig,
    Chan,
    Probe,
    Verify,
    Bench,
}

/// Every layer, in report order, with its name.
pub const LAYERS: [(Layer, &str); 8] = [
    (Layer::Setup, "setup"),
    (Layer::Exec, "exec"),
    (Layer::Ck, "ck"),
    (Layer::Sig, "sig"),
    (Layer::Chan, "chan"),
    (Layer::Probe, "probe"),
    (Layer::Verify, "verify"),
    (Layer::Bench, "bench"),
];

impl Layer {
    /// Time inside calls into the simulator during the measured phase,
    /// as opposed to set-up, verification and the benchmark's own work.
    pub fn in_program(self) -> bool {
        matches!(self, Layer::Exec | Layer::Ck | Layer::Sig | Layer::Chan)
    }
}

impl Name {
    /// The span's name as written to the span file.
    pub fn label(self) -> String {
        match self {
            Name::Rep => "rep".into(),
            Name::Setup => "setup".into(),
            Name::Step => "exec.step".into(),
            Name::Probe => "probe".into(),
            Name::Verify => "verify".into(),
            Name::QueryMapping => "ck.query_mapping".into(),
            Name::LoadMapping => "ck.load_mapping".into(),
            Name::QueryThread => "ck.query_thread".into(),
            Name::LoadThread => "ck.load_thread".into(),
            Name::TakeWritebacks => "ck.take_writebacks".into(),
            Name::SigRaise => "sig.raise".into(),
            Name::SigStorm => "sig.storm".into(),
            Name::SigDrain => "sig.drain".into(),
            Name::ChanCopy(i) => format!("chan.copy.{}", CHAN_SIZES[i as usize]),
            Name::ChanRemap(i) => format!("chan.remap.{}", CHAN_SIZES[i as usize]),
        }
    }

    /// The layer this span's self time belongs to. A `Step` covers the
    /// executive, the application kernels, the Cache Kernel and the
    /// simulated hardware together: spans inside the program would be
    /// needed to split it further.
    pub fn layer(self) -> Layer {
        match self {
            Name::Rep => Layer::Bench,
            Name::Setup => Layer::Setup,
            Name::Step => Layer::Exec,
            Name::Probe => Layer::Probe,
            Name::Verify => Layer::Verify,
            Name::QueryMapping
            | Name::LoadMapping
            | Name::QueryThread
            | Name::LoadThread
            | Name::TakeWritebacks => Layer::Ck,
            Name::SigRaise | Name::SigStorm | Name::SigDrain => Layer::Sig,
            Name::ChanCopy(_) | Name::ChanRemap(_) => Layer::Chan,
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Host nanoseconds since the tracer was made.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle of an open span (`None` while tracing is off).
#[must_use]
pub struct Open(Option<u32>);

/// The in-memory span recorder. While off, [`Tracer::open`] and
/// [`Tracer::close`] cost one branch each.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off; only between root spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn open(&mut self, name: Name) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    #[inline]
    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close in order");
            self.spans[idx as usize].end = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its
    /// children cover. A child that outlasts its parent is an error.
    pub fn self_ns(&self) -> Result<Vec<u64>, String> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].checked_sub(s.ns()).ok_or(format!(
                    "span {i} ({}) outlasts its parent span {p}",
                    s.name.label()
                ))?;
            }
        }
        Ok(own)
    }

    /// Self time summed by layer, in [`LAYERS`] order.
    pub fn by_layer(&self) -> Result<[u64; LAYERS.len()], String> {
        let mut parts = [0u64; LAYERS.len()];
        for (s, own) in self.spans.iter().zip(self.self_ns()?) {
            let i = LAYERS
                .iter()
                .position(|(l, _)| *l == s.name.layer())
                .expect("every layer is listed");
            parts[i] += own;
        }
        Ok(parts)
    }

    /// Durations of every span whose name passes `keep`, in host
    /// nanoseconds.
    pub fn durations(&self, keep: impl Fn(Name) -> bool) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| keep(s.name))
            .map(Span::ns)
            .collect()
    }

    /// Write every span as CSV: `id,parent,name,start_ns,end_ns`, with
    /// an empty parent for roots, after a `# <comment>` first line.
    pub fn write_csv(&self, path: &std::path::Path, comment: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# {comment}")?;
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(w, "{i},{parent},{},{},{}", s.name.label(), s.start, s.end)?;
        }
        w.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_goes_to_the_span_own_layer() {
        let mut t = Tracer::new();
        t.set_on(true);
        let rep = t.open(Name::Rep);
        let st = t.open(Name::Step);
        let p = t.open(Name::Probe);
        t.close(p);
        t.close(st);
        t.close(rep);
        let parts = t.by_layer().unwrap();
        let layer = |l: Layer| parts[LAYERS.iter().position(|(x, _)| *x == l).unwrap()];
        let s = t.spans();
        assert_eq!(layer(Layer::Probe), s[2].ns());
        assert_eq!(layer(Layer::Exec), s[1].ns() - s[2].ns());
        assert_eq!(layer(Layer::Bench), s[0].ns() - s[1].ns());
    }

    #[test]
    fn a_child_outlasting_its_parent_is_an_error() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: Name::Rep,
                parent: NO_PARENT,
                start: 10,
                end: 20,
            },
            Span {
                name: Name::Step,
                parent: 0,
                start: 5,
                end: 20,
            },
        ];
        assert!(t.by_layer().is_err());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new();
        let s = t.open(Name::Step);
        t.close(s);
        assert!(t.spans().is_empty());
    }
}
