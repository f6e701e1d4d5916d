//! Forwarding decorators on the program's public seams.
//!
//! [`SeamSolver`] wraps an [`IterativeMethod`] and [`SeamBackend`] wraps
//! the OS [`StorageBackend`].  Both forward every call unchanged.  Without
//! a tracer they only note what the end-to-end metrics need — the instants
//! at which each `step()` starts and ends, how many states were captured,
//! and the bytes handed to `write_file` — and with a tracer they also
//! record a span around every call.

use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lossy_ckpt::ckpt::{OsBackend, StorageBackend};
use lossy_ckpt::solvers::{ConvergenceHistory, DynamicState, IterativeMethod};
use lossy_ckpt::sparse::Vector;

use crate::trace::Tracer;

/// Layer names used for spans, one per workspace crate on the run path.
pub const SOLVERS: &str = "lcr_solvers";
/// The checkpoint I/O layer.
pub const CKPT: &str = "lcr_ckpt";
/// The runner, strategy and sharded executor.
pub const CORE: &str = "lcr_core";

/// One `step()` call as the solver seam saw it.
#[derive(Debug, Clone, Copy)]
pub struct StepMark {
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// `capture_state` calls seen before this step started.
    pub captures_before: usize,
}

/// Forwarding decorator on [`IterativeMethod`].
pub struct SeamSolver {
    inner: Box<dyn IterativeMethod>,
    tracer: Option<Arc<Tracer>>,
    steps: Vec<StepMark>,
    captures: Cell<usize>,
}

impl SeamSolver {
    /// Wraps `inner`; with a tracer every call is also recorded as a span.
    pub fn new(inner: Box<dyn IterativeMethod>, tracer: Option<Arc<Tracer>>) -> Self {
        SeamSolver {
            inner,
            tracer,
            steps: Vec::new(),
            captures: Cell::new(0),
        }
    }

    /// Every `step()` call so far, in order.
    pub fn steps(&self) -> &[StepMark] {
        &self.steps
    }
}

impl IterativeMethod for SeamSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn iteration(&self) -> usize {
        self.inner.iteration()
    }

    fn residual_norm(&self) -> f64 {
        self.inner.residual_norm()
    }

    fn reference_norm(&self) -> f64 {
        self.inner.reference_norm()
    }

    fn solution(&self) -> &Vector {
        self.inner.solution()
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }

    fn step(&mut self) {
        let captures_before = self.captures.get();
        let start = Instant::now();
        match &self.tracer {
            Some(t) => t.span("step", SOLVERS, || self.inner.step()),
            None => self.inner.step(),
        }
        self.steps.push(StepMark {
            start,
            end: Instant::now(),
            captures_before,
        });
    }

    fn capture_state(&self) -> DynamicState {
        self.captures.set(self.captures.get() + 1);
        match &self.tracer {
            Some(t) => t.span("capture", SOLVERS, || self.inner.capture_state()),
            None => self.inner.capture_state(),
        }
    }

    fn restore_state(&mut self, state: &DynamicState) {
        match &self.tracer {
            Some(t) => t.span("restore", SOLVERS, || self.inner.restore_state(state)),
            None => self.inner.restore_state(state),
        }
    }

    fn restart_from_solution(&mut self, x: Vector, iteration: usize) {
        match &self.tracer {
            Some(t) => t.span("restart", SOLVERS, || {
                self.inner.restart_from_solution(x, iteration)
            }),
            None => self.inner.restart_from_solution(x, iteration),
        }
    }

    fn history(&self) -> &ConvergenceHistory {
        self.inner.history()
    }
}

/// Forwarding decorator on the OS [`StorageBackend`].
#[derive(Debug, Clone)]
pub struct SeamBackend {
    inner: OsBackend,
    tracer: Option<Arc<Tracer>>,
    written: Arc<AtomicU64>,
}

impl SeamBackend {
    /// Wraps the OS backend; bytes passed to `write_file` are added to
    /// `written`, and with a tracer every call is recorded as a span.
    pub fn new(tracer: Option<Arc<Tracer>>, written: Arc<AtomicU64>) -> Self {
        SeamBackend {
            inner: OsBackend,
            tracer,
            written,
        }
    }

    fn traced<T>(
        &self,
        name: &'static str,
        bytes: impl FnOnce(&io::Result<T>) -> u64,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        match &self.tracer {
            Some(t) => {
                let id = t.begin(name, CKPT);
                let out = f();
                t.end(id, bytes(&out));
                out
            }
            None => f(),
        }
    }
}

fn none<T>(_: &io::Result<T>) -> u64 {
    0
}

impl StorageBackend for SeamBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.traced("create_dir_all", none, || self.inner.create_dir_all(dir))
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.traced("list_dir", none, || self.inner.list_dir(dir))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.traced("file_len", none, || self.inner.file_len(path))
    }

    fn read_prefix(&self, path: &Path, len: usize) -> io::Result<Vec<u8>> {
        self.traced(
            "read_prefix",
            |r| r.as_ref().map_or(0, |b: &Vec<u8>| b.len() as u64),
            || self.inner.read_prefix(path, len),
        )
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.traced(
            "read",
            |r| r.as_ref().map_or(0, |b: &Vec<u8>| b.len() as u64),
            || self.inner.read(path),
        )
    }

    fn write_file(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        let bytes: u64 = parts.iter().map(|p| p.len() as u64).sum();
        self.written.fetch_add(bytes, Ordering::Relaxed);
        self.traced("write", |_| bytes, || self.inner.write_file(path, parts))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.traced("fsync", none, || self.inner.fsync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.traced("rename", none, || self.inner.rename(from, to))
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.traced("fsync_dir", none, || self.inner.fsync_dir(dir))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.traced("remove", none, || self.inner.remove_file(path))
    }
}
