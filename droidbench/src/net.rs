//! Timing wrappers for the net layer and the hub's round cadence.
//!
//! `TimedConnector` (worker side) and `TimedListener` (hub side) wrap
//! every transport they hand out, so each frame either end sends or
//! receives is counted and, on the worker side, classified: the first
//! `push` after a `round-ack` closes the worker's fuzzing slice, and the
//! next `round-ack` closes the sync barrier. `RoundClock` is a
//! `FleetPersist` that only stamps round completions.

use droidfuzz::fleet::{CorpusHub, FleetPersist, FleetSnapshot};
use droidfuzz::net::{
    Connector, FrameSink, FrameSource, Listener, NetCounters, NetError, Transport,
};
use droidfuzz::store::StoreCounters;
use droidfuzz::supervisor::FaultCounters;
use droidfuzz_analysis::LintCounters;
use fuzzlang::desc::DescTable;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

#[derive(Debug, Default)]
pub struct NetTrace {
    pub frames: u64,
    pub bytes: u64,
    pub send_ns: u64,
    /// Every frame as sent, for timing the codec on real traffic.
    pub captured: Vec<Vec<u8>>,
    /// Worker side: last `round-ack` received, and the first push after it.
    ack_at: Option<Instant>,
    push_at: Option<Instant>,
    pub slice_ms: Vec<f64>,
    pub barrier_ms: Vec<f64>,
}

pub type NetTraceHandle = Arc<Mutex<NetTrace>>;

impl NetTrace {
    pub fn handle() -> NetTraceHandle {
        Arc::new(Mutex::new(NetTrace::default()))
    }
}

pub fn lock(trace: &NetTraceHandle) -> MutexGuard<'_, NetTrace> {
    trace
        .lock()
        .expect("net trace lock poisoned by a panicking session thread")
}

/// The message kind of a framed payload: the word after `msg ` on the
/// line following the frame header.
fn frame_kind(frame: &[u8]) -> &[u8] {
    let body = frame
        .iter()
        .position(|&b| b == b'\n')
        .map_or(&frame[..0], |i| &frame[i + 1..]);
    let line = body
        .iter()
        .position(|&b| b == b'\n')
        .map_or(body, |i| &body[..i]);
    line.strip_prefix(b"msg ").unwrap_or(b"")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Worker,
    Hub,
}

struct TimedSink {
    inner: Box<dyn FrameSink>,
    trace: NetTraceHandle,
    side: Side,
}

impl FrameSink for TimedSink {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let start = Instant::now();
        let out = self.inner.send_frame(frame);
        let ns = start.elapsed().as_nanos() as u64;
        let mut t = lock(&self.trace);
        t.frames += 1;
        t.bytes += frame.len() as u64;
        t.send_ns += ns;
        t.captured.push(frame.to_vec());
        if self.side == Side::Worker && t.push_at.is_none() && frame_kind(frame) == b"push" {
            if let Some(ack) = t.ack_at {
                let ms = start.duration_since(ack).as_secs_f64() * 1e3;
                t.slice_ms.push(ms);
            }
            t.push_at = Some(start);
        }
        out
    }
}

struct TimedSource {
    inner: Box<dyn FrameSource>,
    trace: NetTraceHandle,
    side: Side,
}

impl FrameSource for TimedSource {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let frame = self.inner.recv_frame()?;
        if self.side == Side::Worker && frame_kind(&frame) == b"round-ack" {
            let now = Instant::now();
            let mut t = lock(&self.trace);
            if let Some(push) = t.push_at.take() {
                let ms = now.duration_since(push).as_secs_f64() * 1e3;
                t.barrier_ms.push(ms);
            }
            t.ack_at = Some(now);
        }
        Ok(frame)
    }
}

struct TimedTransport {
    sink: TimedSink,
    source: TimedSource,
}

impl TimedTransport {
    fn wrap(inner: Box<dyn Transport>, trace: &NetTraceHandle, side: Side) -> Box<dyn Transport> {
        let (sink, source) = inner.split();
        Box::new(Self {
            sink: TimedSink {
                inner: sink,
                trace: Arc::clone(trace),
                side,
            },
            source: TimedSource {
                inner: source,
                trace: Arc::clone(trace),
                side,
            },
        })
    }
}

impl FrameSink for TimedTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.sink.send_frame(frame)
    }
}

impl FrameSource for TimedTransport {
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        self.source.recv_frame()
    }
}

impl Transport for TimedTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (Box::new(self.sink), Box::new(self.source))
    }
}

pub struct TimedConnector<C> {
    pub inner: C,
    pub trace: NetTraceHandle,
}

impl<C: Connector> Connector for TimedConnector<C> {
    fn connect(&mut self) -> Result<Box<dyn Transport>, NetError> {
        Ok(TimedTransport::wrap(
            self.inner.connect()?,
            &self.trace,
            Side::Worker,
        ))
    }
}

pub struct TimedListener<L> {
    pub inner: L,
    pub trace: NetTraceHandle,
}

impl<L: Listener> Listener for TimedListener<L> {
    fn accept(&mut self) -> Result<Option<Box<dyn Transport>>, NetError> {
        Ok(self
            .inner
            .accept()?
            .map(|t| TimedTransport::wrap(t, &self.trace, Side::Hub)))
    }
}

/// Stamps each completed sync round; stores nothing, so its (zero)
/// counters leave the hub's snapshot unchanged.
#[derive(Debug, Default)]
pub struct RoundClock {
    pub rounds: Vec<Instant>,
}

impl FleetPersist for RoundClock {
    fn on_start(&mut self, _hub: &CorpusHub, _table: &DescTable) {}

    fn on_round(
        &mut self,
        _hub: &CorpusHub,
        _table: &DescTable,
        _round: usize,
        _clock_us: u64,
        _fault_totals: &FaultCounters,
        _lint_totals: &LintCounters,
        _net_totals: &NetCounters,
    ) {
        self.rounds.push(Instant::now());
    }

    fn on_checkpoint(&mut self, _snapshot: &FleetSnapshot) {}

    fn counters(&self) -> StoreCounters {
        StoreCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_kind_reads_the_message_word() {
        let frame = droidfuzz::net::encode_frame(3, b"msg round-ack\nround 1\n");
        assert_eq!(frame_kind(&frame), b"round-ack");
        assert_eq!(frame_kind(b"rec 0 0 0\n"), b"");
        assert_eq!(frame_kind(b"garbage"), b"");
    }
}
