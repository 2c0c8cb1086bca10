//! The HAL runtime: hosts service processes, routes transactions, and
//! turns service crashes into bug reports.

use crate::service::{HalService, KernelHandle};
use simbinder::{ServiceManager, Transaction, TransactionError, TransactionResult};
use simkernel::report::{BugKind, BugReport, Component};
use simkernel::trace::Origin;
use simkernel::Kernel;

struct ServiceSlot {
    tag: u32,
    pid: simkernel::Pid,
    descriptor: String,
    svc: Box<dyn HalService>,
    alive: bool,
    /// Whether a transaction reached the service since its last reset —
    /// the only way its in-memory state or kernel descriptors can change.
    touched: bool,
}

impl std::fmt::Debug for ServiceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceSlot")
            .field("tag", &self.tag)
            .field("descriptor", &self.descriptor)
            .field("alive", &self.alive)
            .field("touched", &self.touched)
            .finish()
    }
}

/// Hosts HAL services, each in its own (simulated) process, and exposes
/// them through a [`ServiceManager`].
#[derive(Debug, Default)]
pub struct HalRuntime {
    slots: Vec<ServiceSlot>,
    sm: ServiceManager,
    crashes: Vec<BugReport>,
}

impl HalRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a service: spawns its process in `kernel`, publishes its
    /// interface, and returns the HAL tag used in kernel trace events.
    pub fn register(&mut self, kernel: &mut Kernel, svc: Box<dyn HalService>) -> u32 {
        let tag = self.slots.len() as u32 + 1;
        let pid = kernel.spawn_process(Origin::Hal(tag));
        let info = svc.info();
        let descriptor = info.descriptor.clone();
        self.sm.register(info);
        self.slots.push(ServiceSlot { tag, pid, descriptor, svc, alive: true, touched: false });
        tag
    }

    /// The registry the Poke app / prober enumerates.
    pub fn service_manager(&self) -> &ServiceManager {
        &self.sm
    }

    /// HAL tag of a service, if registered.
    pub fn tag_of(&self, descriptor: &str) -> Option<u32> {
        self.slots.iter().find(|s| s.descriptor == descriptor).map(|s| s.tag)
    }

    /// Whether the service process is alive (not crashed since last reboot).
    pub fn is_alive(&self, descriptor: &str) -> bool {
        self.slots
            .iter()
            .find(|s| s.descriptor == descriptor)
            .map(|s| s.alive)
            == Some(true)
    }

    /// Whether every registered service is alive — the liveness check of
    /// [`is_alive`](Self::is_alive) over all services, without naming
    /// them.
    pub fn all_alive(&self) -> bool {
        self.slots.iter().all(|s| s.alive)
    }

    /// Routes a transaction to a service.
    ///
    /// # Errors
    ///
    /// `DeadObject` when the service is unknown or has crashed; otherwise
    /// whatever the service returns. A first crash is recorded as a
    /// [`BugReport`] with `NativeCrash` kind, retrievable through
    /// [`take_crashes`](Self::take_crashes).
    pub fn transact(
        &mut self,
        kernel: &mut Kernel,
        descriptor: &str,
        txn: Transaction,
    ) -> TransactionResult {
        let Some(slot) = self.slots.iter_mut().find(|s| s.descriptor == descriptor) else {
            return Err(TransactionError::DeadObject { reason: "no such service".into() });
        };
        if !slot.alive {
            return Err(TransactionError::DeadObject { reason: "service has died".into() });
        }
        slot.touched = true;
        let mut handle = KernelHandle::new(kernel, slot.pid);
        let result = slot.svc.on_transact(&mut handle, &txn);
        if let Err(TransactionError::DeadObject { reason }) = &result {
            slot.alive = false;
            self.crashes.push(BugReport {
                kind: BugKind::NativeCrash,
                title: reason.clone(),
                component: Component::Hal,
                log: format!(
                    "*** *** *** *** ***\npid: {}, name: {descriptor}\nsignal 11 (SIGSEGV)\n{reason}",
                    slot.pid.0
                ),
            });
        }
        result
    }

    /// Kills a service process *without* recording a crash report — the
    /// spontaneous-death fault: `lmkd` reaping, a vendor watchdog restart,
    /// or the service silently aborting between transactions. Subsequent
    /// transactions fail with `DEAD_OBJECT`, but — unlike a crash observed
    /// mid-call — no bug report ever appears, which is exactly what lets a
    /// host-side supervisor distinguish "device lost" from "bug found".
    /// Returns `false` for an unknown or already-dead service.
    pub fn kill_service(&mut self, kernel: &mut Kernel, descriptor: &str) -> bool {
        let Some(slot) = self.slots.iter_mut().find(|s| s.descriptor == descriptor) else {
            return false;
        };
        if !slot.alive {
            return false;
        }
        slot.alive = false;
        // The dying process drops its kernel resources (fds, sessions),
        // exactly as the binder driver's death cleanup would.
        let _ = kernel.exit_process(slot.pid);
        true
    }

    /// Drains recorded HAL crash reports.
    pub fn take_crashes(&mut self) -> Vec<BugReport> {
        std::mem::take(&mut self.crashes)
    }

    /// Drops per-client state in the services the client reached: the
    /// fuzzer's executor process is one Binder client, and when it exits
    /// the services it bound to release that client's sessions, layers,
    /// streams and file descriptors — exactly as `binderDied` cleanup
    /// does. Implemented by tearing down each touched live service's
    /// kernel process (running driver `release` handlers) and respawning
    /// it with fresh in-memory state.
    ///
    /// A service no transaction reached since its last reset is skipped:
    /// its state and descriptors change only inside `on_transact`, so it
    /// is already in the state a reset would produce and its process holds
    /// no descriptors (checked in debug builds). It keeps its pid, which
    /// is visible only in a later crash report's log text.
    pub fn end_client(&mut self, kernel: &mut Kernel) {
        for slot in &mut self.slots {
            if !slot.alive {
                continue;
            }
            if !slot.touched {
                debug_assert_eq!(
                    kernel.open_fd_count(slot.pid),
                    Some(0),
                    "untouched service {} holds kernel descriptors",
                    slot.descriptor
                );
                continue;
            }
            let _ = kernel.exit_process(slot.pid);
            slot.svc.reset();
            slot.pid = kernel.spawn_process(Origin::Hal(slot.tag));
            slot.touched = false;
        }
    }

    /// Restarts all services with fresh state and fresh processes in the
    /// (typically also fresh) `kernel` — the device-reboot path.
    pub fn reboot(&mut self, kernel: &mut Kernel) {
        for slot in &mut self.slots {
            slot.svc.reset();
            slot.pid = kernel.spawn_process(Origin::Hal(slot.tag));
            slot.alive = true;
            slot.touched = false;
        }
        self.crashes.clear();
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no services are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbinder::{InterfaceInfo, MethodInfo, Parcel};
    use simkernel::Syscall;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    const D: &str = "test.crashy@1.0::ICrashy/default";
    const OTHER: &str = "test.crashy@1.0::ICrashy/other";

    /// Service that echoes on method 1, crashes on method 2, and on method
    /// 3 opens `/dev/thermal` and keeps the descriptor. Counts its resets
    /// through a shared handle.
    struct Crashy {
        descriptor: &'static str,
        resets: Arc<AtomicU32>,
    }

    fn crashy(descriptor: &'static str) -> (Box<Crashy>, Arc<AtomicU32>) {
        let resets = Arc::new(AtomicU32::new(0));
        (Box::new(Crashy { descriptor, resets: Arc::clone(&resets) }), resets)
    }

    impl HalService for Crashy {
        fn info(&self) -> InterfaceInfo {
            InterfaceInfo {
                descriptor: self.descriptor.into(),
                methods: vec![
                    MethodInfo { name: "echo".into(), code: 1, args: vec![] },
                    MethodInfo { name: "boom".into(), code: 2, args: vec![] },
                    MethodInfo { name: "hold".into(), code: 3, args: vec![] },
                ],
            }
        }

        fn on_transact(
            &mut self,
            sys: &mut KernelHandle<'_>,
            txn: &Transaction,
        ) -> TransactionResult {
            match txn.code {
                1 => Ok(Parcel::new()),
                2 => Err(crate::service::native_crash("Native crash in Crashy HAL")),
                3 => {
                    sys.sys(Syscall::Openat { path: "/dev/thermal".into() });
                    Ok(Parcel::new())
                }
                c => Err(TransactionError::UnknownCode(c)),
            }
        }

        fn reset(&mut self) {
            self.resets.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn call(rt: &mut HalRuntime, kernel: &mut Kernel, d: &str, code: u32) -> TransactionResult {
        rt.transact(kernel, d, Transaction::new(code, Parcel::new()))
    }

    fn pid_of(rt: &HalRuntime, d: &str) -> simkernel::Pid {
        rt.slots.iter().find(|s| s.descriptor == d).expect("registered").pid
    }

    /// A kernel with a thermal device and two registered services, `D`
    /// and `OTHER`, with their reset counters.
    fn two_services() -> (Kernel, HalRuntime, Arc<AtomicU32>, Arc<AtomicU32>) {
        let mut kernel = Kernel::new();
        kernel.register_device(Box::new(simkernel::drivers::thermal::ThermalDevice::new()));
        let mut rt = HalRuntime::new();
        let (svc, resets) = crashy(D);
        rt.register(&mut kernel, svc);
        let (other, other_resets) = crashy(OTHER);
        rt.register(&mut kernel, other);
        (kernel, rt, resets, other_resets)
    }

    #[test]
    fn end_client_skips_untouched_services() {
        let (mut kernel, mut rt, resets, other_resets) = two_services();
        let (pid, other_pid) = (pid_of(&rt, D), pid_of(&rt, OTHER));
        call(&mut rt, &mut kernel, D, 1).unwrap();
        rt.end_client(&mut kernel);
        assert_eq!(pid_of(&rt, OTHER), other_pid, "untouched service keeps its process");
        assert_eq!(other_resets.load(Ordering::Relaxed), 0, "untouched service is not reset");
        assert_eq!(kernel.open_fd_count(other_pid), Some(0));
        assert_ne!(pid_of(&rt, D), pid, "touched service is respawned");
        assert_eq!(resets.load(Ordering::Relaxed), 1);
        assert_eq!(kernel.open_fd_count(pid), None, "its old process is gone");
    }

    #[test]
    fn end_client_releases_a_touched_service_and_clears_its_mark() {
        let (mut kernel, mut rt, resets, _) = two_services();
        call(&mut rt, &mut kernel, D, 3).unwrap();
        let pid = pid_of(&rt, D);
        assert_eq!(kernel.open_fd_count(pid), Some(1), "the service holds its descriptor");
        let covered = kernel.global_coverage().len();
        rt.end_client(&mut kernel);
        assert!(
            kernel.global_coverage().len() > covered,
            "closing the descriptor runs the driver's release handler"
        );
        let respawned = pid_of(&rt, D);
        assert_ne!(respawned, pid);
        assert_eq!(kernel.open_fd_count(pid), None);
        assert_eq!(kernel.open_fd_count(respawned), Some(0));
        assert_eq!(resets.load(Ordering::Relaxed), 1);
        // The mark is cleared: a client that does not reach the service
        // leaves it alone.
        rt.end_client(&mut kernel);
        assert_eq!(pid_of(&rt, D), respawned);
        assert_eq!(resets.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn crashed_touched_service_stays_dead_until_reboot() {
        let (mut kernel, mut rt, resets, _) = two_services();
        call(&mut rt, &mut kernel, D, 3).unwrap();
        call(&mut rt, &mut kernel, D, 2).unwrap_err();
        let pid = pid_of(&rt, D);
        rt.end_client(&mut kernel);
        assert!(!rt.is_alive(D));
        assert!(!rt.all_alive());
        assert_eq!(pid_of(&rt, D), pid, "a dead service is not respawned");
        assert_eq!(resets.load(Ordering::Relaxed), 0);
        assert!(matches!(
            call(&mut rt, &mut kernel, D, 1),
            Err(TransactionError::DeadObject { .. })
        ));
        rt.reboot(&mut kernel);
        assert!(rt.is_alive(D));
        assert!(rt.all_alive());
        assert!(call(&mut rt, &mut kernel, D, 1).is_ok());
    }

    #[test]
    fn reboot_clears_touch_marks() {
        let (mut kernel, mut rt, resets, other_resets) = two_services();
        call(&mut rt, &mut kernel, D, 1).unwrap();
        rt.reboot(&mut kernel);
        assert_eq!(resets.load(Ordering::Relaxed), 1);
        assert_eq!(other_resets.load(Ordering::Relaxed), 1, "reboot resets every service");
        let (pid, other_pid) = (pid_of(&rt, D), pid_of(&rt, OTHER));
        rt.end_client(&mut kernel);
        assert_eq!((pid_of(&rt, D), pid_of(&rt, OTHER)), (pid, other_pid));
        assert_eq!(resets.load(Ordering::Relaxed), 1, "no client reached it since the reboot");
    }

    /// The skip is sound only while a service's descriptors come from its
    /// own transactions; debug builds check that at every skip.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "holds kernel descriptors")]
    fn end_client_asserts_a_skipped_service_holds_no_descriptors() {
        let (mut kernel, mut rt, _, _) = two_services();
        let pid = pid_of(&rt, OTHER);
        kernel.syscall(pid, Syscall::Openat { path: "/dev/thermal".into() });
        rt.end_client(&mut kernel);
    }

    #[test]
    fn kill_service_exits_an_untouched_process() {
        let (mut kernel, mut rt, _, other_resets) = two_services();
        let other_pid = pid_of(&rt, OTHER);
        assert_eq!(kernel.open_fd_count(other_pid), Some(0));
        assert!(rt.kill_service(&mut kernel, OTHER));
        assert_eq!(kernel.open_fd_count(other_pid), None, "the process has exited");
        assert!(!rt.is_alive(OTHER));
        rt.end_client(&mut kernel);
        assert!(!rt.is_alive(OTHER), "end_client does not revive it");
        assert_eq!(other_resets.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn crash_marks_service_dead_and_records_report() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, crashy(D).0);
        let d = D;
        assert!(rt.transact(&mut kernel, d, Transaction::new(1, Parcel::new())).is_ok());
        assert!(rt.is_alive(d));
        let err = rt.transact(&mut kernel, d, Transaction::new(2, Parcel::new()));
        assert!(matches!(err, Err(TransactionError::DeadObject { .. })));
        assert!(!rt.is_alive(d));
        // Subsequent calls fail without re-recording a crash.
        let err2 = rt.transact(&mut kernel, d, Transaction::new(1, Parcel::new()));
        assert!(matches!(err2, Err(TransactionError::DeadObject { .. })));
        let crashes = rt.take_crashes();
        assert_eq!(crashes.len(), 1);
        assert_eq!(crashes[0].kind, BugKind::NativeCrash);
        assert_eq!(crashes[0].component, Component::Hal);
        assert_eq!(crashes[0].title, "Native crash in Crashy HAL");
    }

    #[test]
    fn reboot_revives_services() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, crashy(D).0);
        let d = D;
        rt.transact(&mut kernel, d, Transaction::new(2, Parcel::new())).unwrap_err();
        assert!(!rt.is_alive(d));
        rt.reboot(&mut kernel);
        assert!(rt.is_alive(d));
        assert!(rt.transact(&mut kernel, d, Transaction::new(1, Parcel::new())).is_ok());
    }

    #[test]
    fn kill_service_dies_silently_without_a_crash_report() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        rt.register(&mut kernel, crashy(D).0);
        let d = D;
        assert!(rt.kill_service(&mut kernel, d));
        assert!(!rt.is_alive(d));
        let err = rt.transact(&mut kernel, d, Transaction::new(1, Parcel::new()));
        assert!(matches!(err, Err(TransactionError::DeadObject { .. })));
        assert!(rt.take_crashes().is_empty(), "spontaneous death leaves no report");
        // Idempotent: a dead or unknown service cannot be killed again.
        assert!(!rt.kill_service(&mut kernel, d));
        assert!(!rt.kill_service(&mut kernel, "nope"));
        // A reboot revives it, as with any other death.
        rt.reboot(&mut kernel);
        assert!(rt.is_alive(d));
    }

    #[test]
    fn unknown_service_is_dead_object() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        let err = rt.transact(&mut kernel, "nope", Transaction::new(1, Parcel::new()));
        assert!(matches!(err, Err(TransactionError::DeadObject { .. })));
    }

    #[test]
    fn tags_are_unique_and_resolvable() {
        let mut kernel = Kernel::new();
        let mut rt = HalRuntime::new();
        let t1 = rt.register(&mut kernel, crashy(D).0);
        assert_eq!(rt.tag_of(D), Some(t1));
        assert_eq!(rt.tag_of("missing"), None);
        assert_eq!(rt.len(), 1);
    }
}
