//! Per-process file-descriptor tables.

use crate::errno::Errno;
use std::collections::BTreeMap;
use std::fmt;

/// A file descriptor, valid within one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Identifier for an open-file object inside the kernel. Several fds (after
/// `dup`) may refer to the same object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpenFileId(pub u64);

/// What an open file refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A character device registered in devfs.
    CharDev {
        /// Index of the device in the kernel's device table (registration
        /// order), which holds its node path and driver name.
        dev: usize,
    },
    /// A socket handled by a protocol driver.
    Socket {
        /// Address family.
        domain: u32,
        /// Socket type.
        ty: u32,
        /// Protocol.
        proto: u32,
    },
}

/// Kernel-side state of one open file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenFile {
    /// What the file refers to.
    pub kind: FileKind,
    /// Reference count (fds pointing at this object).
    pub refs: u32,
}

/// Maximum descriptors per process (`RLIMIT_NOFILE` stand-in).
pub const MAX_FDS: usize = 256;

/// A process's descriptor table mapping [`Fd`] to [`OpenFileId`].
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    slots: BTreeMap<u32, OpenFileId>,
    next: u32,
}

impl FdTable {
    /// Creates an empty table. Descriptors start at 3, as 0–2 are the
    /// standard streams.
    pub fn new() -> Self {
        Self {
            slots: BTreeMap::new(),
            next: 3,
        }
    }

    /// Installs `file` at the lowest free descriptor.
    ///
    /// # Errors
    ///
    /// Returns `EMFILE` when the table is full.
    pub fn install(&mut self, file: OpenFileId) -> Result<Fd, Errno> {
        if self.slots.len() >= MAX_FDS {
            return Err(Errno::EMFILE);
        }
        let fd = self.next;
        self.next += 1;
        self.slots.insert(fd, file);
        Ok(Fd(fd))
    }

    /// Looks up the open file for `fd`.
    ///
    /// # Errors
    ///
    /// Returns `EBADF` for unknown descriptors.
    pub fn get(&self, fd: Fd) -> Result<OpenFileId, Errno> {
        self.slots.get(&fd.0).copied().ok_or(Errno::EBADF)
    }

    /// Removes `fd`, returning the object it referred to.
    ///
    /// # Errors
    ///
    /// Returns `EBADF` for unknown descriptors.
    pub fn remove(&mut self, fd: Fd) -> Result<OpenFileId, Errno> {
        self.slots.remove(&fd.0).ok_or(Errno::EBADF)
    }

    /// Number of live descriptors.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no live descriptors.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The lowest live descriptor, if any.
    pub fn first(&self) -> Option<Fd> {
        self.slots.keys().next().map(|&fd| Fd(fd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_allocates_ascending_from_three() {
        let mut t = FdTable::new();
        assert_eq!(t.install(OpenFileId(1)).unwrap(), Fd(3));
        assert_eq!(t.install(OpenFileId(2)).unwrap(), Fd(4));
        assert_eq!(t.get(Fd(3)).unwrap(), OpenFileId(1));
    }

    #[test]
    fn get_unknown_is_ebadf() {
        let t = FdTable::new();
        assert_eq!(t.get(Fd(3)), Err(Errno::EBADF));
    }

    #[test]
    fn remove_frees_slot() {
        let mut t = FdTable::new();
        let fd = t.install(OpenFileId(9)).unwrap();
        assert_eq!(t.remove(fd).unwrap(), OpenFileId(9));
        assert_eq!(t.get(fd), Err(Errno::EBADF));
        assert_eq!(t.remove(fd), Err(Errno::EBADF));
        assert!(t.is_empty());
    }

    #[test]
    fn first_is_the_lowest_live_descriptor() {
        let mut t = FdTable::new();
        assert_eq!(t.first(), None);
        let fd3 = t.install(OpenFileId(1)).unwrap();
        let fd4 = t.install(OpenFileId(2)).unwrap();
        assert_eq!(t.first(), Some(fd3));
        t.remove(fd3).unwrap();
        assert_eq!(t.first(), Some(fd4));
    }

    #[test]
    fn table_enforces_rlimit() {
        let mut t = FdTable::new();
        for i in 0..MAX_FDS {
            t.install(OpenFileId(i as u64)).unwrap();
        }
        assert_eq!(t.install(OpenFileId(999)), Err(Errno::EMFILE));
    }
}
