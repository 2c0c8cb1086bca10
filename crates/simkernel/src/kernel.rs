//! The kernel proper: process table, devfs, syscall dispatch, kcov,
//! bug collection, and trace sessions.

use crate::coverage::{Block, CoverageMap, DRIVER_REGION, KcovBuffer};
use crate::driver::{CharDevice, DriverApi, DriverCtx, IoctlOut};
use crate::drivers::bt::BtStack;
use crate::errno::Errno;
use crate::fd::{Fd, FdTable, FileKind, OpenFile, OpenFileId};
use crate::report::{BugReport, BugSink};
use crate::syscall::{af, Syscall, SyscallRet};
use crate::trace::{Origin, SyscallEvent, TraceFilter, TraceId, TraceSession};
use std::collections::BTreeMap;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

#[derive(Debug)]
struct Process {
    origin: Origin,
    fds: FdTable,
    kcov: KcovBuffer,
}

/// Base of the coverage region assigned to the first registered device;
/// subsequent devices get consecutive regions.
pub const DEVICE_COV_BASE: u64 = 0x1000_0000;
/// Coverage region of the HCI part of the Bluetooth stack.
pub const HCI_COV_BASE: u64 = 0x0800_0000;
/// Coverage region of the L2CAP part of the Bluetooth stack.
pub const L2CAP_COV_BASE: u64 = 0x0900_0000;

/// A mounted character device. Open files refer to it by its index in
/// the kernel's device table, so dispatch reaches the driver, its name
/// and its node path without a lookup or a copy.
struct DeviceSlot {
    base: u64,
    /// The `/dev/...` node the device is mounted at.
    node: String,
    /// The driver's name, read once at mount time.
    name: String,
    dev: Box<dyn CharDevice>,
}

impl std::fmt::Debug for DeviceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSlot")
            .field("base", &self.base)
            .field("node", &self.node)
            .field("dev", &self.name)
            .finish()
    }
}

/// The driver a file-bound syscall body runs against.
enum Target<'k> {
    /// A mounted character device.
    Dev(&'k mut dyn CharDevice),
    /// The Bluetooth protocol stack (sockets).
    Bt(&'k mut BtStack),
}

/// The simulated kernel.
///
/// Holds registered character devices, the Bluetooth socket stack, process
/// and open-file tables, accumulated coverage, pending bug reports, and
/// attached trace sessions. See the [crate docs](crate) for an end-to-end
/// example.
#[derive(Debug)]
pub struct Kernel {
    /// Mounted devices in registration order (the order their coverage
    /// regions were assigned in).
    devices: Vec<DeviceSlot>,
    /// Indices into `devices`, sorted by node path.
    by_node: Vec<usize>,
    bt: BtStack,
    procs: BTreeMap<u32, Process>,
    files: BTreeMap<u64, OpenFile>,
    global_cov: CoverageMap,
    bugs: BugSink,
    sessions: Vec<Option<TraceSession>>,
    next_pid: u32,
    next_open: u64,
    syscalls_executed: u64,
    ioctl_only: bool,
}

impl Kernel {
    /// Creates a kernel with an empty devfs and a default (no bugs armed)
    /// Bluetooth stack.
    pub fn new() -> Self {
        Self::with_bt(BtStack::new())
    }

    /// Creates a kernel with a specific Bluetooth stack configuration
    /// (device firmware decides which injected bugs are armed).
    pub fn with_bt(bt: BtStack) -> Self {
        Self {
            devices: Vec::new(),
            by_node: Vec::new(),
            bt,
            procs: BTreeMap::new(),
            files: BTreeMap::new(),
            global_cov: CoverageMap::new(),
            bugs: BugSink::new(),
            sessions: Vec::new(),
            next_pid: 100,
            next_open: 1,
            syscalls_executed: 0,
            ioctl_only: false,
        }
    }

    /// Restricts the syscall surface to `openat`/`ioctl`/`close` (plus
    /// `dup`), failing everything else with `EPERM`. This models the
    /// DroidFuzz-D / Difuze experiment setup where "other requests will be
    /// blocked" (paper §V-C2) — it applies to *all* processes, including
    /// HAL services.
    pub fn set_ioctl_only(&mut self, on: bool) {
        self.ioctl_only = on;
    }

    /// Whether the ioctl-only restriction is active.
    pub fn ioctl_only(&self) -> bool {
        self.ioctl_only
    }

    /// Registers a character device, returning its coverage-region base.
    ///
    /// # Panics
    ///
    /// Panics if a device is already mounted at the same node — firmware
    /// specs must not double-mount.
    pub fn register_device(&mut self, dev: Box<dyn CharDevice>) -> u64 {
        let node = dev.node();
        let Err(pos) = self.device_index(&node) else {
            panic!("device node {node} already registered");
        };
        // Debug builds validate the driver's self-description at mount
        // time: duplicate ioctl request codes, empty Choice/Flags word
        // shapes, and malformed state models are firmware bugs.
        #[cfg(debug_assertions)]
        {
            let problems = crate::driver::validate_api(dev.name(), &dev.api());
            assert!(problems.is_empty(), "invalid DriverApi: {problems:?}");
        }
        let base = DEVICE_COV_BASE + self.devices.len() as u64 * DRIVER_REGION;
        let name = dev.name().to_owned();
        self.by_node.insert(pos, self.devices.len());
        self.devices.push(DeviceSlot { base, node, name, dev });
        base
    }

    /// The index of the device mounted at `node`, or where its entry
    /// would go in `by_node`.
    fn device_index(&self, node: &str) -> Result<usize, usize> {
        self.by_node
            .binary_search_by(|&i| self.devices[i].node.as_str().cmp(node))
            .map(|pos| self.by_node[pos])
    }

    /// The `/dev` nodes currently registered, in sorted order.
    pub fn device_nodes(&self) -> Vec<String> {
        self.by_node.iter().map(|&i| self.devices[i].node.clone()).collect()
    }

    /// The self-described syscall surface of the driver at `node`.
    pub fn device_api(&self, node: &str) -> Option<DriverApi> {
        self.device_index(node).ok().map(|i| self.devices[i].dev.api())
    }

    /// Driver name and coverage-region base for every driver (devices plus
    /// the two Bluetooth stack halves), for per-driver coverage accounting.
    pub fn driver_regions(&self) -> Vec<(String, u64)> {
        let mut regions: Vec<(String, u64)> =
            self.devices.iter().map(|s| (s.name.clone(), s.base)).collect();
        regions.push(("hci".to_owned(), HCI_COV_BASE));
        regions.push(("l2cap".to_owned(), L2CAP_COV_BASE));
        regions.sort();
        regions
    }

    /// Spawns a process with the given origin tag.
    pub fn spawn_process(&mut self, origin: Origin) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.procs.insert(
            pid,
            Process {
                origin,
                fds: FdTable::new(),
                kcov: KcovBuffer::new(),
            },
        );
        Pid(pid)
    }

    /// Terminates a process: closes every descriptor it still holds in
    /// ascending order (running driver `release` handlers, exactly as
    /// `do_exit` would) and removes it from the process table.
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown processes.
    pub fn exit_process(&mut self, pid: Pid) -> Result<(), Errno> {
        if !self.procs.contains_key(&pid.0) {
            return Err(Errno::ENOENT);
        }
        // `sys_close` removes the descriptor before anything can fail, so
        // each pass takes the next-lowest one.
        while let Some(fd) = self.procs.get(&pid.0).and_then(|p| p.fds.first()) {
            let _ = self.sys_close(pid, fd);
        }
        self.procs.remove(&pid.0);
        Ok(())
    }

    /// Descriptors the process `pid` holds open (`None` for unknown
    /// processes).
    pub fn open_fd_count(&self, pid: Pid) -> Option<usize> {
        self.procs.get(&pid.0).map(|p| p.fds.len())
    }

    /// Starts kcov collection for `pid` (clears the previous buffer).
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown processes.
    pub fn kcov_enable(&mut self, pid: Pid) -> Result<(), Errno> {
        self.procs
            .get_mut(&pid.0)
            .ok_or(Errno::ENOENT)?
            .kcov
            .enable();
        Ok(())
    }

    /// Stops kcov collection for `pid` and returns the recorded blocks.
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown processes.
    pub fn kcov_collect(&mut self, pid: Pid) -> Result<Vec<Block>, Errno> {
        Ok(self
            .procs
            .get_mut(&pid.0)
            .ok_or(Errno::ENOENT)?
            .kcov
            .disable())
    }

    /// Stops kcov collection for `pid` and appends the recorded blocks to
    /// `out`, keeping the per-process buffer allocation. The reuse-friendly
    /// form of [`kcov_collect`](Self::kcov_collect).
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown processes.
    pub fn kcov_collect_into(&mut self, pid: Pid, out: &mut Vec<Block>) -> Result<(), Errno> {
        self.procs
            .get_mut(&pid.0)
            .ok_or(Errno::ENOENT)?
            .kcov
            .disable_into(out);
        Ok(())
    }

    /// Attaches a trace session; events matching `filter` accumulate until
    /// drained or detached.
    pub fn attach_trace(&mut self, filter: TraceFilter) -> TraceId {
        if let Some(idx) = self.sessions.iter().position(Option::is_none) {
            self.sessions[idx] = Some(TraceSession::new(filter));
            TraceId(idx as u32)
        } else {
            self.sessions.push(Some(TraceSession::new(filter)));
            TraceId(self.sessions.len() as u32 - 1)
        }
    }

    /// Drains buffered events from a session (empty for unknown ids).
    pub fn trace_drain(&mut self, id: TraceId) -> Vec<SyscallEvent> {
        self.sessions
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .map(TraceSession::drain)
            .unwrap_or_default()
    }

    /// Drains buffered events from a session into `out`, keeping the
    /// session's buffer allocation (no-op for unknown ids). The
    /// reuse-friendly form of [`trace_drain`](Self::trace_drain).
    pub fn trace_drain_into(&mut self, id: TraceId, out: &mut Vec<SyscallEvent>) {
        if let Some(session) = self.sessions.get_mut(id.0 as usize).and_then(Option::as_mut) {
            session.drain_into(out);
        }
    }

    /// Detaches a session, discarding pending events.
    pub fn detach_trace(&mut self, id: TraceId) {
        if let Some(slot) = self.sessions.get_mut(id.0 as usize) {
            *slot = None;
        }
    }

    /// Drains all pending bug reports.
    pub fn take_bugs(&mut self) -> Vec<BugReport> {
        self.bugs.take()
    }

    /// Whether a fatal bug has wedged the kernel (device must reboot).
    pub fn is_wedged(&self) -> bool {
        self.bugs.is_wedged()
    }

    /// Wedges the kernel without raising any bug report — the
    /// fault-injection path for spontaneous device hangs (see
    /// [`crate::report::BugSink::force_wedge`]). Every subsequent syscall fails with
    /// `EIO` until the device reboots.
    pub fn force_wedge(&mut self) {
        self.bugs.force_wedge();
    }

    /// Coverage accumulated since boot across all tasks.
    pub fn global_coverage(&self) -> &CoverageMap {
        &self.global_cov
    }

    /// Total syscalls dispatched since boot.
    pub fn syscall_count(&self) -> u64 {
        self.syscalls_executed
    }

    /// Dispatches one system call on behalf of `pid`.
    ///
    /// A wedged kernel (after a fatal bug) fails everything with `EIO`,
    /// modelling a panicked/hung device; unknown pids fail with `EPERM`.
    pub fn syscall(&mut self, pid: Pid, call: Syscall) -> SyscallRet {
        self.syscalls_executed += 1;
        if self.bugs.is_wedged() {
            return SyscallRet::Err(Errno::EIO);
        }
        if self.ioctl_only
            && !matches!(
                call.nr(),
                crate::syscall::SyscallNr::Openat
                    | crate::syscall::SyscallNr::Ioctl
                    | crate::syscall::SyscallNr::Close
                    | crate::syscall::SyscallNr::Dup
            )
        {
            return SyscallRet::Err(Errno::EPERM);
        }
        let origin = match self.procs.get(&pid.0) {
            Some(p) => p.origin,
            None => return SyscallRet::Err(Errno::EPERM),
        };
        let (ret, dev) = self.dispatch(pid, &call);
        // The event (and its path) is built only when a session wants it,
        // and moved into the last session that does.
        let mut watchers = self
            .sessions
            .iter_mut()
            .flatten()
            .filter(|s| s.filter.matches(origin))
            .peekable();
        if watchers.peek().is_some() {
            let path = match &call {
                Syscall::Openat { path } => Some(path.clone()),
                _ => dev.map(|i| self.devices[i].node.clone()),
            };
            let event = SyscallEvent {
                origin,
                nr: call.nr(),
                critical: call.critical_arg(),
                path,
                ok: ret.is_ok(),
            };
            while let Some(session) = watchers.next() {
                if watchers.peek().is_some() {
                    session.record(event.clone());
                } else {
                    session.record(event);
                    break;
                }
            }
        }
        ret
    }

    /// Runs one syscall body. Besides the result, returns the index of the
    /// device the call reached through an open file, whose node the trace
    /// event carries.
    fn dispatch(&mut self, pid: Pid, call: &Syscall) -> (SyscallRet, Option<usize>) {
        match call {
            Syscall::Openat { path } => (self.sys_open(pid, path), None),
            Syscall::Close { fd } => self.sys_close(pid, *fd),
            Syscall::Read { fd, len } => self.on_file(pid, *fd, |target, ctx| match target {
                Target::Dev(dev) => dev.read(ctx, *len).map(SyscallRet::Data),
                Target::Bt(bt) => bt.read(ctx, *len).map(SyscallRet::Data),
            }),
            Syscall::Write { fd, data } => self.on_file(pid, *fd, |target, ctx| match target {
                Target::Dev(dev) => dev.write(ctx, data).map(|n| SyscallRet::Ok(n as u64)),
                Target::Bt(bt) => bt.write(ctx, data).map(|n| SyscallRet::Ok(n as u64)),
            }),
            Syscall::Ioctl { fd, request, arg } => {
                self.on_file(pid, *fd, |target, ctx| match target {
                    Target::Dev(dev) => dev.ioctl(ctx, *request, arg).map(|out| match out {
                        IoctlOut::Val(v) => SyscallRet::Ok(v),
                        IoctlOut::Out(data) => SyscallRet::Data(data),
                    }),
                    Target::Bt(bt) => bt.ioctl(ctx, *request, arg).map(SyscallRet::Ok),
                })
            }
            Syscall::Mmap { fd, len, prot } => self.on_file(pid, *fd, |target, ctx| match target {
                Target::Dev(dev) => dev.mmap(ctx, *len, *prot).map(|_| SyscallRet::Ok(0)),
                Target::Bt(_) => Err(Errno::ENODEV),
            }),
            Syscall::Poll { fd, events } => self.on_file(pid, *fd, |target, ctx| match target {
                Target::Dev(dev) => dev.poll(ctx, *events).map(|m| SyscallRet::Ok(u64::from(m))),
                Target::Bt(bt) => bt.poll(ctx, *events).map(|m| SyscallRet::Ok(u64::from(m))),
            }),
            Syscall::Dup { fd } => (self.sys_dup(pid, *fd), None),
            Syscall::Socket { domain, ty, proto } => {
                (self.sys_socket(pid, *domain, *ty, *proto), None)
            }
            Syscall::Bind { fd, addr } => {
                self.on_socket(pid, *fd, |bt, ctx| bt.bind(ctx, *addr).map(SyscallRet::Ok))
            }
            Syscall::Connect { fd, addr } => {
                self.on_socket(pid, *fd, |bt, ctx| bt.connect(ctx, *addr).map(SyscallRet::Ok))
            }
            Syscall::Listen { fd, backlog } => {
                self.on_socket(pid, *fd, |bt, ctx| bt.listen(ctx, *backlog).map(SyscallRet::Ok))
            }
            Syscall::Accept { fd } => (self.sys_accept(pid, *fd), None),
        }
    }

    fn sys_open(&mut self, pid: Pid, path: &str) -> SyscallRet {
        let Ok(dev) = self.device_index(path) else {
            return SyscallRet::Err(Errno::ENOENT);
        };
        let slot = &mut self.devices[dev];
        let open_id = self.next_open;
        let Some(proc) = self.procs.get_mut(&pid.0) else {
            return SyscallRet::Err(Errno::EPERM);
        };
        let mut ctx = DriverCtx::new(
            slot.base,
            "",
            Some(&mut proc.kcov),
            &mut self.global_cov,
            &mut self.bugs,
            open_id,
        );
        match slot.dev.open(&mut ctx) {
            Ok(()) => {}
            Err(e) => return SyscallRet::Err(e),
        }
        self.next_open += 1;
        let of = OpenFile { kind: FileKind::CharDev { dev }, refs: 1 };
        self.files.insert(open_id, of);
        match proc.fds.install(OpenFileId(open_id)) {
            Ok(fd) => SyscallRet::NewFd(fd),
            Err(e) => {
                self.files.remove(&open_id);
                SyscallRet::Err(e)
            }
        }
    }

    fn sys_socket(&mut self, pid: Pid, domain: u32, ty: u32, proto: u32) -> SyscallRet {
        if domain != af::BLUETOOTH {
            return SyscallRet::Err(Errno::EPROTONOSUPPORT);
        }
        let open_id = self.next_open;
        let Some(proc) = self.procs.get_mut(&pid.0) else {
            return SyscallRet::Err(Errno::EPERM);
        };
        let mut ctx = DriverCtx::new(
            0,
            "bt",
            Some(&mut proc.kcov),
            &mut self.global_cov,
            &mut self.bugs,
            open_id,
        );
        if let Err(e) = self.bt.socket(&mut ctx, ty, proto) {
            return SyscallRet::Err(e);
        }
        self.next_open += 1;
        self.files.insert(
            open_id,
            OpenFile {
                kind: FileKind::Socket { domain, ty, proto },
                refs: 1,
            },
        );
        match proc.fds.install(OpenFileId(open_id)) {
            Ok(fd) => SyscallRet::NewFd(fd),
            Err(e) => {
                self.files.remove(&open_id);
                SyscallRet::Err(e)
            }
        }
    }

    fn sys_accept(&mut self, pid: Pid, fd: Fd) -> SyscallRet {
        let Some(proc) = self.procs.get_mut(&pid.0) else {
            return SyscallRet::Err(Errno::EPERM);
        };
        let parent_id = match proc.fds.get(fd) {
            Ok(id) => id,
            Err(e) => return SyscallRet::Err(e),
        };
        let Some(parent_file) = self.files.get(&parent_id.0) else {
            return SyscallRet::Err(Errno::EBADF);
        };
        let FileKind::Socket { domain, ty, proto } = parent_file.kind else {
            return SyscallRet::Err(Errno::EOPNOTSUPP);
        };
        let child_id = self.next_open;
        let mut ctx = DriverCtx::new(
            0,
            "bt",
            Some(&mut proc.kcov),
            &mut self.global_cov,
            &mut self.bugs,
            parent_id.0,
        );
        if let Err(e) = self.bt.accept(&mut ctx, child_id) {
            return SyscallRet::Err(e);
        }
        self.next_open += 1;
        self.files.insert(
            child_id,
            OpenFile {
                kind: FileKind::Socket { domain, ty, proto },
                refs: 1,
            },
        );
        match proc.fds.install(OpenFileId(child_id)) {
            Ok(new_fd) => SyscallRet::NewFd(new_fd),
            Err(e) => {
                self.files.remove(&child_id);
                SyscallRet::Err(e)
            }
        }
    }

    fn sys_close(&mut self, pid: Pid, fd: Fd) -> (SyscallRet, Option<usize>) {
        let Some(proc) = self.procs.get_mut(&pid.0) else {
            return (SyscallRet::Err(Errno::EPERM), None);
        };
        let of_id = match proc.fds.remove(fd) {
            Ok(id) => id,
            Err(e) => return (SyscallRet::Err(e), None),
        };
        let Some(file) = self.files.get_mut(&of_id.0) else {
            return (SyscallRet::Err(Errno::EBADF), None);
        };
        file.refs -= 1;
        if file.refs > 0 {
            return (SyscallRet::Ok(0), None);
        }
        let file = self.files.remove(&of_id.0).expect("file exists");
        let mut ctx_holder;
        match file.kind {
            FileKind::CharDev { dev } => {
                let slot = &mut self.devices[dev];
                ctx_holder = DriverCtx::new(
                    slot.base,
                    "",
                    Some(&mut proc.kcov),
                    &mut self.global_cov,
                    &mut self.bugs,
                    of_id.0,
                );
                slot.dev.release(&mut ctx_holder);
                (SyscallRet::Ok(0), Some(dev))
            }
            FileKind::Socket { .. } => {
                ctx_holder = DriverCtx::new(
                    0,
                    "bt",
                    Some(&mut proc.kcov),
                    &mut self.global_cov,
                    &mut self.bugs,
                    of_id.0,
                );
                self.bt.close(&mut ctx_holder);
                (SyscallRet::Ok(0), None)
            }
        }
    }

    fn sys_dup(&mut self, pid: Pid, fd: Fd) -> SyscallRet {
        let Some(proc) = self.procs.get_mut(&pid.0) else {
            return SyscallRet::Err(Errno::EPERM);
        };
        let of_id = match proc.fds.get(fd) {
            Ok(id) => id,
            Err(e) => return SyscallRet::Err(e),
        };
        let Some(file) = self.files.get_mut(&of_id.0) else {
            return SyscallRet::Err(Errno::EBADF);
        };
        file.refs += 1;
        match proc.fds.install(of_id) {
            Ok(new_fd) => SyscallRet::NewFd(new_fd),
            Err(e) => {
                self.files.get_mut(&of_id.0).expect("file exists").refs -= 1;
                SyscallRet::Err(e)
            }
        }
    }

    /// Runs `f` against the driver behind `(pid, fd)` with a driver
    /// context whose `open_id` identifies that file. Returns the device
    /// index for char devices so the trace event can carry its node.
    fn on_file<F>(&mut self, pid: Pid, fd: Fd, f: F) -> (SyscallRet, Option<usize>)
    where
        F: FnOnce(Target<'_>, &mut DriverCtx<'_>) -> Result<SyscallRet, Errno>,
    {
        let Some(proc) = self.procs.get_mut(&pid.0) else {
            return (SyscallRet::Err(Errno::EPERM), None);
        };
        let of_id = match proc.fds.get(fd) {
            Ok(id) => id,
            Err(e) => return (SyscallRet::Err(e), None),
        };
        let Some(file) = self.files.get(&of_id.0) else {
            return (SyscallRet::Err(Errno::EBADF), None);
        };
        let (base, name, target, dev) = match file.kind {
            FileKind::CharDev { dev } => {
                let DeviceSlot { base, name, dev: driver, .. } = &mut self.devices[dev];
                (*base, name.as_str(), Target::Dev(driver.as_mut()), Some(dev))
            }
            FileKind::Socket { .. } => (0, "bt", Target::Bt(&mut self.bt), None),
        };
        let mut ctx = DriverCtx::new(
            base,
            name,
            Some(&mut proc.kcov),
            &mut self.global_cov,
            &mut self.bugs,
            of_id.0,
        );
        let ret = f(target, &mut ctx).unwrap_or_else(SyscallRet::Err);
        (ret, dev)
    }

    /// Like [`on_file`](Self::on_file) but requires the fd to be a socket.
    fn on_socket<F>(&mut self, pid: Pid, fd: Fd, f: F) -> (SyscallRet, Option<usize>)
    where
        F: FnOnce(&mut BtStack, &mut DriverCtx<'_>) -> Result<SyscallRet, Errno>,
    {
        self.on_file(pid, fd, |target, ctx| match target {
            Target::Bt(bt) => f(bt, ctx),
            Target::Dev(_) => Err(Errno::EOPNOTSUPP),
        })
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{encode_words, IoctlDesc};

    /// Minimal test driver: one ioctl that echoes, coverage per request.
    #[derive(Debug, Default)]
    struct EchoDev {
        opens: u32,
    }

    impl CharDevice for EchoDev {
        fn name(&self) -> &str {
            "echo"
        }
        fn node(&self) -> String {
            "/dev/echo0".into()
        }
        fn api(&self) -> DriverApi {
            DriverApi {
                ioctls: vec![IoctlDesc::bare("ECHO", 0xE0)],
                supports_read: true,
                supports_write: true,
                supports_mmap: false,
                vendor: false,
                state_model: None,
            }
        }
        fn open(&mut self, ctx: &mut DriverCtx<'_>) -> Result<(), Errno> {
            self.opens += 1;
            ctx.hit(&[0, u64::from(self.opens.min(4))]);
            Ok(())
        }
        fn ioctl(
            &mut self,
            ctx: &mut DriverCtx<'_>,
            request: u32,
            arg: &[u8],
        ) -> Result<IoctlOut, Errno> {
            ctx.hit(&[1, u64::from(request)]);
            if request == 0xE0 {
                Ok(IoctlOut::Out(arg.to_vec()))
            } else {
                Err(Errno::ENOTTY)
            }
        }
    }

    fn kernel_with_echo() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        k.register_device(Box::new(EchoDev::default()));
        let pid = k.spawn_process(Origin::Native);
        (k, pid)
    }

    #[test]
    fn open_ioctl_close_roundtrip() {
        let (mut k, pid) = kernel_with_echo();
        let fd = k
            .syscall(pid, Syscall::Openat { path: "/dev/echo0".into() })
            .fd()
            .unwrap();
        let payload = encode_words(&[42]);
        let ret = k.syscall(
            pid,
            Syscall::Ioctl { fd, request: 0xE0, arg: payload.clone() },
        );
        assert_eq!(ret, SyscallRet::Data(payload));
        assert!(k.syscall(pid, Syscall::Close { fd }).is_ok());
        assert_eq!(
            k.syscall(pid, Syscall::Close { fd }).errno(),
            Some(Errno::EBADF)
        );
    }

    #[test]
    fn open_missing_node_is_enoent() {
        let (mut k, pid) = kernel_with_echo();
        let ret = k.syscall(pid, Syscall::Openat { path: "/dev/nope".into() });
        assert_eq!(ret.errno(), Some(Errno::ENOENT));
    }

    #[test]
    fn kcov_captures_per_task_coverage() {
        let (mut k, pid) = kernel_with_echo();
        k.kcov_enable(pid).unwrap();
        let fd = k
            .syscall(pid, Syscall::Openat { path: "/dev/echo0".into() })
            .fd()
            .unwrap();
        k.syscall(pid, Syscall::Ioctl { fd, request: 0xE0, arg: vec![] });
        let blocks = k.kcov_collect(pid).unwrap();
        assert_eq!(blocks.len(), 2, "open + ioctl each hit one block");
        assert!(k.global_coverage().len() >= 2);
    }

    #[test]
    fn trace_session_observes_syscalls_with_critical_args() {
        let (mut k, pid) = kernel_with_echo();
        let tid = k.attach_trace(TraceFilter::NativeOnly);
        let fd = k
            .syscall(pid, Syscall::Openat { path: "/dev/echo0".into() })
            .fd()
            .unwrap();
        k.syscall(pid, Syscall::Ioctl { fd, request: 0xE0, arg: vec![] });
        let events = k.trace_drain(tid);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].nr, crate::syscall::SyscallNr::Ioctl);
        assert_eq!(events[1].critical, 0xE0);
        assert_eq!(events[1].path.as_deref(), Some("/dev/echo0"));
        k.detach_trace(tid);
        k.syscall(pid, Syscall::Close { fd });
        assert!(k.trace_drain(tid).is_empty());
    }

    #[test]
    fn dup_shares_open_file() {
        let (mut k, pid) = kernel_with_echo();
        let fd = k
            .syscall(pid, Syscall::Openat { path: "/dev/echo0".into() })
            .fd()
            .unwrap();
        let fd2 = k.syscall(pid, Syscall::Dup { fd }).fd().unwrap();
        assert_ne!(fd, fd2);
        assert!(k.syscall(pid, Syscall::Close { fd }).is_ok());
        // Original object still alive through fd2.
        assert!(k
            .syscall(pid, Syscall::Ioctl { fd: fd2, request: 0xE0, arg: vec![] })
            .is_ok());
        assert!(k.syscall(pid, Syscall::Close { fd: fd2 }).is_ok());
    }

    /// Records the `open_id` of every file it releases, in order.
    #[derive(Debug, Default)]
    struct ReleaseLog {
        released: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl CharDevice for ReleaseLog {
        fn name(&self) -> &str {
            "relog"
        }
        fn node(&self) -> String {
            "/dev/relog".into()
        }
        fn api(&self) -> DriverApi {
            DriverApi {
                ioctls: vec![],
                supports_read: false,
                supports_write: false,
                supports_mmap: false,
                vendor: false,
                state_model: None,
            }
        }
        fn release(&mut self, ctx: &mut DriverCtx<'_>) {
            ctx.hit(&[0x11, ctx.open_id]);
            self.released.lock().unwrap().push(ctx.open_id);
        }
    }

    #[test]
    fn exit_process_closes_descriptors_in_ascending_order() {
        let log = ReleaseLog::default();
        let released = std::sync::Arc::clone(&log.released);
        let mut k = Kernel::new();
        k.register_device(Box::new(log));
        let pid = k.spawn_process(Origin::Native);
        let open = |k: &mut Kernel| {
            k.syscall(pid, Syscall::Openat { path: "/dev/relog".into() }).fd().unwrap()
        };
        // fd3 → file 1, fd4 → file 2, fd5 → file 1 again, fd6 → file 3.
        let fd3 = open(&mut k);
        open(&mut k);
        k.syscall(pid, Syscall::Dup { fd: fd3 }).fd().unwrap();
        open(&mut k);
        assert_eq!(k.open_fd_count(pid), Some(4));
        let covered = k.global_coverage().len();
        k.exit_process(pid).unwrap();
        // Ascending: fd3 only drops a reference, fd4 releases file 2, fd5
        // the last reference to file 1, fd6 file 3.
        assert_eq!(*released.lock().unwrap(), vec![2, 1, 3]);
        assert_eq!(k.global_coverage().len(), covered + 3, "each release is covered");
        assert_eq!(k.open_fd_count(pid), None);
        assert_eq!(k.exit_process(pid), Err(Errno::ENOENT));
    }

    #[test]
    fn trace_events_are_built_for_matching_sessions_only() {
        let (mut k, pid) = kernel_with_echo();
        let hal = k.attach_trace(TraceFilter::HalOnly);
        let native = k.attach_trace(TraceFilter::NativeOnly);
        let all = k.attach_trace(TraceFilter::All);
        let fd = k.syscall(pid, Syscall::Openat { path: "/dev/echo0".into() }).fd().unwrap();
        k.syscall(pid, Syscall::Ioctl { fd, request: 0xE0, arg: vec![] });
        k.syscall(pid, Syscall::Close { fd });
        assert!(k.trace_drain(hal).is_empty());
        let events = k.trace_drain(native);
        assert_eq!(events, k.trace_drain(all), "every matching session gets the same events");
        let paths: Vec<_> = events.iter().map(|e| e.path.as_deref()).collect();
        assert_eq!(paths, vec![Some("/dev/echo0"); 3]);
    }

    #[test]
    fn unknown_pid_is_eperm() {
        let (mut k, _) = kernel_with_echo();
        let ret = k.syscall(Pid(9999), Syscall::Openat { path: "/dev/echo0".into() });
        assert_eq!(ret.errno(), Some(Errno::EPERM));
    }

    #[test]
    fn non_bluetooth_socket_unsupported() {
        let (mut k, pid) = kernel_with_echo();
        let ret = k.syscall(pid, Syscall::Socket { domain: 2, ty: 1, proto: 0 });
        assert_eq!(ret.errno(), Some(Errno::EPROTONOSUPPORT));
    }

    #[test]
    fn driver_regions_include_bt_halves() {
        let (k, _) = kernel_with_echo();
        let regions = k.driver_regions();
        let names: Vec<&str> = regions.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"echo"));
        assert!(names.contains(&"hci"));
        assert!(names.contains(&"l2cap"));
    }
}
