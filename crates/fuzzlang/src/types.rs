//! The DSL's argument type system.

use std::fmt;

/// A resource kind, e.g. `"fd:/dev/tcpc0"` or `"hal:composer:layer"`.
///
/// Kinds form a prefix hierarchy separated by `:`; a consumer asking for
/// `"fd"` accepts anything a producer labels `"fd:…"`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceKind(pub String);

impl ResourceKind {
    /// Builds a kind from a string.
    pub fn new(kind: impl Into<String>) -> Self {
        Self(kind.into())
    }

    /// Whether a resource of kind `produced` satisfies this (possibly more
    /// general) wanted kind.
    ///
    /// ```
    /// use fuzzlang::types::ResourceKind;
    /// let wanted = ResourceKind::new("fd");
    /// assert!(wanted.accepts(&ResourceKind::new("fd:/dev/ion")));
    /// assert!(wanted.accepts(&ResourceKind::new("fd")));
    /// assert!(!wanted.accepts(&ResourceKind::new("handle:ion")));
    /// ```
    pub fn accepts(&self, produced: &ResourceKind) -> bool {
        let (wanted, produced) = (self.0.as_bytes(), produced.0.as_bytes());
        produced.starts_with(wanted) && produced.get(wanted.len()).is_none_or(|&sep| sep == b':')
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ResourceKind {
    fn from(s: &str) -> Self {
        Self(s.to_owned())
    }
}

/// The type of one call argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDesc {
    /// Integer in `[min, max]` (inclusive).
    Int {
        /// Inclusive lower bound.
        min: u64,
        /// Inclusive upper bound.
        max: u64,
    },
    /// One of an enumerated set of meaningful values.
    Choice {
        /// The meaningful values.
        values: Vec<u64>,
    },
    /// Bitwise OR of a random subset of these flags.
    Flags {
        /// Individual flag bits.
        values: Vec<u64>,
    },
    /// Byte buffer with length in `[min_len, max_len]`.
    Buffer {
        /// Minimum length.
        min_len: usize,
        /// Maximum length.
        max_len: usize,
    },
    /// A string drawn from known choices (device paths, parameter keys).
    Str {
        /// Candidate strings.
        choices: Vec<String>,
    },
    /// A resource produced by an earlier call.
    Resource {
        /// Wanted kind (prefix-matched against producers).
        kind: ResourceKind,
    },
}

impl TypeDesc {
    /// Convenience constructor for a full-range 32-bit int.
    pub fn any_u32() -> Self {
        TypeDesc::Int { min: 0, max: u64::from(u32::MAX) }
    }

    /// Whether this argument consumes a resource.
    pub fn is_resource(&self) -> bool {
        matches!(self, TypeDesc::Resource { .. })
    }

    /// The wanted resource kind, if any.
    pub fn resource_kind(&self) -> Option<&ResourceKind> {
        match self {
            TypeDesc::Resource { kind } => Some(kind),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_prefix_matching() {
        let fd = ResourceKind::new("fd");
        assert!(fd.accepts(&"fd:/dev/video0".into()));
        assert!(!fd.accepts(&"fdx".into()), "prefix must end at separator");
        let exact = ResourceKind::new("fd:/dev/video0");
        assert!(exact.accepts(&"fd:/dev/video0".into()));
        assert!(!exact.accepts(&"fd:/dev/video1".into()));
        assert!(!exact.accepts(&"fd".into()), "a shorter product is never accepted");
    }

    #[test]
    fn type_desc_resource_introspection() {
        let t = TypeDesc::Resource { kind: "handle:ion".into() };
        assert!(t.is_resource());
        assert_eq!(t.resource_kind().unwrap().0, "handle:ion");
        assert!(!TypeDesc::any_u32().is_resource());
        assert!(TypeDesc::any_u32().resource_kind().is_none());
    }
}
