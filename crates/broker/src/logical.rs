//! Logical node identifiers for migratable jobs (§VI, "Page
//! Migration").
//!
//! The paper proposes assigning *logical* node ids to jobs, so that
//! migrating a job between physical nodes only requires re-pointing
//! the logical id — the ACM entries written with the logical id stay
//! valid, and only page-mapping invalidations remain.

use std::collections::HashMap;
use std::fmt;

use fam_vm::NodeId;

/// A resource-manager job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Maps jobs to the physical node currently running them, handing each
/// job a stable logical node id.
///
/// # Examples
///
/// ```
/// use fam_broker::{JobId, LogicalNodeMap};
/// use fam_vm::NodeId;
///
/// let mut map = LogicalNodeMap::default();
/// let logical = map.assign(JobId(1), NodeId::new(0));
/// map.migrate(JobId(1), NodeId::new(3)).unwrap();
/// assert_eq!(map.physical(logical), Some(NodeId::new(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogicalNodeMap {
    next_logical: u16,
    by_job: HashMap<JobId, NodeId>,
    physical: HashMap<u16, NodeId>,
    logical_of_job: HashMap<JobId, NodeId>,
}

impl LogicalNodeMap {
    /// Creates an empty map.
    pub(crate) fn new() -> LogicalNodeMap {
        LogicalNodeMap::default()
    }

    /// Assigns a fresh logical node id to `job`, initially resolving to
    /// `physical_node`. Returns the logical id.
    ///
    /// # Panics
    ///
    /// Panics if the 14-bit logical id space is exhausted.
    pub fn assign(&mut self, job: JobId, physical_node: NodeId) -> NodeId {
        let logical = NodeId::new(self.next_logical);
        self.next_logical += 1;
        self.by_job.insert(job, physical_node);
        self.physical.insert(logical.raw(), physical_node);
        self.logical_of_job.insert(job, logical);
        logical
    }

    /// Re-points `job`'s logical id at a new physical node — the whole
    /// migration cost at this layer (§VI).
    ///
    /// Returns the previous physical node, or `None` if the job is
    /// unknown.
    pub fn migrate(&mut self, job: JobId, new_physical: NodeId) -> Option<NodeId> {
        let logical = *self.logical_of_job.get(&job)?;
        let old = self.by_job.insert(job, new_physical)?;
        self.physical.insert(logical.raw(), new_physical);
        Some(old)
    }

    /// The logical id assigned to `job`.
    #[cfg(test)]
    pub(crate) fn logical(&self, job: JobId) -> Option<NodeId> {
        self.logical_of_job.get(&job).copied()
    }

    /// Resolves a logical id to the physical node currently behind it.
    pub fn physical(&self, logical: NodeId) -> Option<NodeId> {
        self.physical.get(&logical.raw()).copied()
    }

    /// Removes a finished job, freeing nothing (logical ids are not
    /// recycled, matching resource-manager practice).
    #[cfg(test)]
    pub(crate) fn retire(&mut self, job: JobId) -> Option<NodeId> {
        let logical = self.logical_of_job.remove(&job)?;
        self.by_job.remove(&job);
        self.physical.remove(&logical.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_resolves_to_physical() {
        let mut m = LogicalNodeMap::new();
        let l = m.assign(JobId(1), NodeId::new(5));
        assert_eq!(m.physical(l), Some(NodeId::new(5)));
        assert_eq!(m.logical(JobId(1)), Some(l));
    }

    #[test]
    fn logical_ids_are_distinct() {
        let mut m = LogicalNodeMap::new();
        let a = m.assign(JobId(1), NodeId::new(0));
        let b = m.assign(JobId(2), NodeId::new(0));
        assert_ne!(a, b);
    }

    #[test]
    fn migrate_repoints_logical_id() {
        let mut m = LogicalNodeMap::new();
        let l = m.assign(JobId(1), NodeId::new(0));
        let old = m.migrate(JobId(1), NodeId::new(7)).unwrap();
        assert_eq!(old, NodeId::new(0));
        assert_eq!(m.physical(l), Some(NodeId::new(7)));
    }

    #[test]
    fn migrate_unknown_job_is_none() {
        let mut m = LogicalNodeMap::new();
        assert_eq!(m.migrate(JobId(9), NodeId::new(0)), None);
    }

    #[test]
    fn retire_removes_resolution() {
        let mut m = LogicalNodeMap::new();
        let l = m.assign(JobId(1), NodeId::new(0));
        assert_eq!(m.retire(JobId(1)), Some(NodeId::new(0)));
        assert_eq!(m.physical(l), None);
        assert!(m.by_job.is_empty());
    }
}
