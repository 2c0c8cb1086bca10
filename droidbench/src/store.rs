//! A timing `StorageMedium` wrapper: handed to `Fleet::run_durable` and
//! `RecoveryManager` in place of the bare medium, it records calls, bytes
//! and busy time per primitive, and the instant of every snapshot commit
//! (one per sync round at the fleet's default checkpoint cadence).

use droidfuzz::store::{parse_snapshot_name, StorageMedium, StoreError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The medium primitives the store layer is measured by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Append,
    Sync,
    Write,
    Rename,
    Remove,
    Read,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::Append,
        Op::Sync,
        Op::Write,
        Op::Rename,
        Op::Remove,
        Op::Read,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Append => "store.append",
            Op::Sync => "store.sync",
            Op::Write => "store.write",
            Op::Rename => "store.rename",
            Op::Remove => "store.remove",
            Op::Read => "store.read",
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    pub calls: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

#[derive(Debug, Default)]
pub struct StoreTrace {
    pub ops: [OpStat; Op::ALL.len()],
    /// When each snapshot generation was committed (its rename returned).
    pub commits: Vec<Instant>,
}

impl StoreTrace {
    pub fn op(&self, op: Op) -> OpStat {
        self.ops[op as usize]
    }
}

/// Shared handle the caller keeps to read the trace after the run (the
/// fleet clones its medium, so every clone writes the same trace).
pub type StoreTraceHandle = Arc<Mutex<StoreTrace>>;

pub fn lock(trace: &StoreTraceHandle) -> MutexGuard<'_, StoreTrace> {
    trace
        .lock()
        .expect("store trace lock poisoned by a panicking fleet thread")
}

/// `inner` with per-call accounting. With `timed == false` only snapshot
/// commits are stamped — the untraced run's sync-round clock.
#[derive(Debug, Clone)]
pub struct TimedMedium<M> {
    inner: M,
    trace: StoreTraceHandle,
    timed: bool,
}

impl<M: StorageMedium> TimedMedium<M> {
    pub fn new(inner: M, trace: StoreTraceHandle, timed: bool) -> Self {
        Self {
            inner,
            trace,
            timed,
        }
    }
}

/// Runs `f` as one `op` call: counts it, its bytes and its busy time.
fn call<T>(
    trace: &StoreTraceHandle,
    timed: bool,
    op: Op,
    bytes: impl Fn(&T) -> usize,
    f: impl FnOnce() -> T,
) -> T {
    if !timed {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    let mut trace = lock(trace);
    let stat = &mut trace.ops[op as usize];
    stat.calls += 1;
    stat.bytes += bytes(&out) as u64;
    stat.busy_ns += ns;
    out
}

impl<M: StorageMedium> StorageMedium for TimedMedium<M> {
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let bytes = |r: &Result<Vec<u8>, _>| r.as_ref().map_or(0, Vec::len);
        call(&self.trace, self.timed, Op::Read, bytes, || {
            self.inner.read(name)
        })
    }

    fn write(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        call(
            &self.trace,
            self.timed,
            Op::Write,
            |_| data.len(),
            || self.inner.write(name, data),
        )
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        call(
            &self.trace,
            self.timed,
            Op::Append,
            |_| data.len(),
            || self.inner.append(name, data),
        )
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        call(
            &self.trace,
            self.timed,
            Op::Sync,
            |_| 0,
            || self.inner.sync(name),
        )
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        let out = call(
            &self.trace,
            self.timed,
            Op::Rename,
            |_| 0,
            || self.inner.rename(from, to),
        );
        if out.is_ok() && parse_snapshot_name(to).is_some() {
            lock(&self.trace).commits.push(Instant::now());
        }
        out
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        call(
            &self.trace,
            self.timed,
            Op::Remove,
            |_| 0,
            || self.inner.remove(name),
        )
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}
