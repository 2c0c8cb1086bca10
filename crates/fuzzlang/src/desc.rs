//! Call descriptions: the typed vocabulary programs are built from.
//!
//! Syscall descriptions play the role of syzkaller's syzlang files (which
//! DroidFuzz borrows); HAL descriptions are produced by the probing pass.
//! `fuzzlang` itself is executor-agnostic — [`SyscallTemplate`] carries
//! enough data for the executor crate to construct concrete syscalls.

use crate::types::{ResourceKind, TypeDesc};
use std::collections::HashMap;

/// Identifier of a call description inside a [`DescTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DescId(pub usize);

/// How a syscall-backed description maps onto a concrete kernel call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallTemplate {
    /// `openat(path)`; produces an `fd:<path>` resource.
    Openat {
        /// Device node path.
        path: String,
    },
    /// `close(fd)`.
    Close,
    /// `read(fd, len)`.
    Read,
    /// `write(fd, buf)`.
    Write,
    /// `ioctl(fd, request, arg)`; the description's non-resource args are
    /// encoded as the little-endian words of `arg`.
    Ioctl {
        /// Fixed request code.
        request: u32,
    },
    /// `ioctl(fd, request, arg)` with an *unknown* request: the first
    /// integer argument supplies the request code and the byte blob (if
    /// any) the payload. This is all a syscall fuzzer can do against a
    /// proprietary driver it has no descriptions for.
    IoctlAny,
    /// `mmap(fd, len, prot)`.
    Mmap,
    /// `poll(fd, events)`.
    Poll,
    /// `dup(fd)`; produces the same resource kind it consumes.
    Dup,
    /// `socket(domain, ty, proto)` with fixed parameters; produces a
    /// socket resource.
    Socket {
        /// Address family.
        domain: u32,
        /// Socket type.
        ty: u32,
        /// Protocol.
        proto: u32,
    },
    /// `bind(sock, addr)`.
    Bind,
    /// `connect(sock, addr)`.
    Connect,
    /// `listen(sock, backlog)`.
    Listen,
    /// `accept(sock)`; produces the same socket kind.
    Accept,
}

/// What a description invokes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// A kernel system call.
    Syscall(SyscallTemplate),
    /// A HAL method, addressed by service descriptor and transaction code.
    Hal {
        /// Binder service descriptor.
        service: String,
        /// Transaction code.
        code: u32,
    },
}

impl CallKind {
    /// Whether this is a HAL method.
    pub fn is_hal(&self) -> bool {
        matches!(self, CallKind::Hal { .. })
    }

    /// Whether this is (or compiles to) an `ioctl`/`openat`-only call —
    /// the subset DroidFuzz-D and Difuze are restricted to.
    pub fn is_ioctl_path(&self) -> bool {
        matches!(
            self,
            CallKind::Syscall(SyscallTemplate::Ioctl { .. })
                | CallKind::Syscall(SyscallTemplate::IoctlAny)
                | CallKind::Syscall(SyscallTemplate::Openat { .. })
                | CallKind::Syscall(SyscallTemplate::Close)
        )
    }
}

/// One named, typed argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgDesc {
    /// Argument name (documentation / text format comments).
    pub name: String,
    /// Argument type.
    pub ty: TypeDesc,
}

impl ArgDesc {
    /// Builds an argument description.
    pub fn new(name: &str, ty: TypeDesc) -> Self {
        Self { name: name.to_owned(), ty }
    }
}

/// A call description: the unit of the DSL vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct CallDesc {
    /// Unique name, e.g. `ioctl$TCPC_SET_CC` or `hal$IComposer$present`.
    pub name: String,
    /// What it invokes.
    pub kind: CallKind,
    /// Ordered argument descriptions.
    pub args: Vec<ArgDesc>,
    /// Resource the call produces, if any.
    pub produces: Option<ResourceKind>,
    /// Vertex weight for relational generation (base-invocation
    /// probability mass; §IV-C).
    pub weight: f64,
}

impl CallDesc {
    /// Builds a description.
    pub fn new(
        name: impl Into<String>,
        kind: CallKind,
        args: Vec<ArgDesc>,
        produces: Option<ResourceKind>,
    ) -> Self {
        Self { name: name.into(), kind, args, produces, weight: 1.0 }
    }

    /// Sets the vertex weight (builder style).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// `openat` description for a device node.
    pub fn syscall_open(path: &str) -> Self {
        Self::new(
            format!("openat${path}"),
            CallKind::Syscall(SyscallTemplate::Openat { path: path.to_owned() }),
            vec![],
            Some(ResourceKind::new(format!("fd:{path}"))),
        )
    }

    /// Generic `close` description accepting any fd.
    pub fn syscall_close() -> Self {
        Self::new(
            "close",
            CallKind::Syscall(SyscallTemplate::Close),
            vec![ArgDesc::new("fd", TypeDesc::Resource { kind: "fd".into() })],
            None,
        )
    }

    /// Generic `dup` description.
    pub fn syscall_dup() -> Self {
        Self::new(
            "dup",
            CallKind::Syscall(SyscallTemplate::Dup),
            vec![ArgDesc::new("fd", TypeDesc::Resource { kind: "fd".into() })],
            Some(ResourceKind::new("fd")),
        )
    }

    /// The fd resource kind for `path`.
    pub fn fd_kind(path: &str) -> ResourceKind {
        ResourceKind::new(format!("fd:{path}"))
    }
}

/// The description table: an index-stable, name-addressable vocabulary.
#[derive(Debug, Clone, Default)]
pub struct DescTable {
    descs: Vec<CallDesc>,
    by_name: HashMap<String, DescId>,
    /// Producer index: every wanted kind that accepts some description's
    /// product → those descriptions' ids, ascending. A product `a:b:c` is
    /// accepted by exactly `a`, `a:b` and `a:b:c` (see
    /// [`ResourceKind::accepts`]), so the keys are finite and `add` keeps
    /// the index current.
    producers: HashMap<String, Vec<DescId>>,
}

impl DescTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a description, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names — descriptions are a global vocabulary.
    pub fn add(&mut self, desc: CallDesc) -> DescId {
        let id = DescId(self.descs.len());
        let prev = self.by_name.insert(desc.name.clone(), id);
        assert!(prev.is_none(), "duplicate call description {}", desc.name);
        if let Some(produced) = &desc.produces {
            let produced = produced.0.as_str();
            let cuts = produced.match_indices(':').map(|(at, _)| at);
            for end in cuts.chain([produced.len()]) {
                self.producers.entry(produced[..end].to_owned()).or_default().push(id);
            }
        }
        self.descs.push(desc);
        id
    }

    /// Looks up by id.
    pub fn get(&self, id: DescId) -> &CallDesc {
        &self.descs[id.0]
    }

    /// Looks up by name.
    pub fn id_of(&self, name: &str) -> Option<DescId> {
        self.by_name.get(name).copied()
    }

    /// Number of descriptions.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Iterates `(id, desc)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (DescId, &CallDesc)> {
        self.descs.iter().enumerate().map(|(i, d)| (DescId(i), d))
    }

    /// Ids of descriptions that can produce a resource accepted as `kind`,
    /// ascending.
    pub fn producers_of(&self, kind: &ResourceKind) -> &[DescId] {
        self.producers.get(kind.0.as_str()).map_or(&[], Vec::as_slice)
    }

    /// Ids of HAL-method descriptions.
    pub fn hal_ids(&self) -> Vec<DescId> {
        self.iter().filter(|(_, d)| d.kind.is_hal()).map(|(id, _)| id).collect()
    }

    /// Ids of syscall descriptions.
    pub fn syscall_ids(&self) -> Vec<DescId> {
        self.iter().filter(|(_, d)| !d.kind.is_hal()).map(|(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_desc_produces_path_specific_fd() {
        let d = CallDesc::syscall_open("/dev/ion");
        assert_eq!(d.name, "openat$/dev/ion");
        assert_eq!(d.produces, Some(ResourceKind::new("fd:/dev/ion")));
        assert!(d.args.is_empty());
    }

    #[test]
    fn table_indexing_and_producers() {
        let mut t = DescTable::new();
        let open = t.add(CallDesc::syscall_open("/dev/gpu0"));
        let close = t.add(CallDesc::syscall_close());
        assert_eq!(t.id_of("close"), Some(close));
        assert_eq!(t.get(open).name, "openat$/dev/gpu0");
        let producers = t.producers_of(&"fd:/dev/gpu0".into());
        assert_eq!(producers, vec![open]);
        // Generic "fd" wanted kind also matches.
        assert_eq!(t.producers_of(&"fd".into()), vec![open]);
        assert!(t.producers_of(&"handle".into()).is_empty());
    }

    #[test]
    fn producer_index_agrees_with_accepts_on_separator_edge_cases() {
        let kinds = ["", ":", "fd", "fd:", "fd::", "fd::x", "fd:x:", "é", "é:ü"];
        let mut t = DescTable::new();
        for (i, kind) in kinds.iter().enumerate() {
            let kind = Some(ResourceKind::from(*kind));
            t.add(CallDesc::new(format!("p{i}"), CallKind::Syscall(SyscallTemplate::Dup), vec![], kind));
        }
        for wanted in kinds.map(ResourceKind::from) {
            let scan: Vec<DescId> = t
                .iter()
                .filter(|(_, d)| d.produces.as_ref().is_some_and(|p| wanted.accepts(p)))
                .map(|(id, _)| id)
                .collect();
            assert_eq!(t.producers_of(&wanted), scan, "producers of {wanted:?}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate call description")]
    fn duplicate_names_rejected() {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_close());
        t.add(CallDesc::syscall_close());
    }

    #[test]
    fn hal_and_syscall_partition() {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_open("/dev/leds"));
        t.add(CallDesc::new(
            "hal$ILight$setLight",
            CallKind::Hal { service: "svc".into(), code: 1 },
            vec![],
            None,
        ));
        assert_eq!(t.hal_ids().len(), 1);
        assert_eq!(t.syscall_ids().len(), 1);
        assert!(t.get(t.hal_ids()[0]).kind.is_hal());
    }

    #[test]
    fn ioctl_path_classification() {
        assert!(CallKind::Syscall(SyscallTemplate::Ioctl { request: 1 }).is_ioctl_path());
        assert!(CallKind::Syscall(SyscallTemplate::Openat { path: "/x".into() }).is_ioctl_path());
        assert!(!CallKind::Syscall(SyscallTemplate::Write).is_ioctl_path());
        assert!(!CallKind::Hal { service: "s".into(), code: 1 }.is_ioctl_path());
    }
}
