//! Typed errors for the simulation API boundary.
//!
//! The library's callers (the `deact-sim` CLI, the bench harness,
//! notebooks driving the crate) should get a value they can match on
//! and print, not a panic backtrace, when a run cannot proceed.

use fam_broker::BrokerError;

use crate::metrics::AuditReport;

/// Why a simulation could not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// [`crate::SystemConfig::validate`] refused the configuration.
    InvalidConfig {
        /// The first broken rule, as the validator names it.
        reason: String,
    },
    /// The requested benchmark is not in the Table III roster.
    UnknownBenchmark {
        /// The name that failed to resolve.
        name: String,
    },
    /// The memory broker could not allocate FAM for a demand map — the
    /// configured FAM is too small for the workload's footprint.
    FamExhausted {
        /// Node index whose request failed.
        node: usize,
        /// The underlying broker failure.
        source: BrokerError,
    },
    /// The run finished, but its counters break a conservation
    /// invariant ([`crate::System::audit`]), so its report cannot be
    /// trusted.
    AuditFailed {
        /// Every check, passed and failed.
        audit: AuditReport,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::UnknownBenchmark { name } => {
                write!(
                    f,
                    "unknown benchmark {name}; see Table III (`deact-sim list`)"
                )
            }
            SimError::FamExhausted { node, source } => {
                write!(
                    f,
                    "node {node} could not demand-map FAM ({source}); \
                     grow `fam_bytes` or shrink the workload"
                )
            }
            SimError::AuditFailed { audit } => {
                write!(f, "conservation audit failed:")?;
                for (i, c) in audit.checks.iter().filter(|c| !c.passed).enumerate() {
                    let sep = if i == 0 { "" } else { ";" };
                    write!(f, "{sep} {} ({})", c.name, c.detail)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::FamExhausted { source, .. } => Some(source),
            SimError::InvalidConfig { .. }
            | SimError::UnknownBenchmark { .. }
            | SimError::AuditFailed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        let e = SimError::UnknownBenchmark {
            name: "doom".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("unknown benchmark doom"), "{msg}");
        assert!(msg.contains("Table III"), "{msg}");
    }

    #[test]
    fn audit_failure_names_each_failing_check() {
        use crate::metrics::AuditCheck;
        let check = |name, passed, detail: &str| AuditCheck {
            name,
            passed,
            detail: detail.into(),
        };
        let e = SimError::AuditFailed {
            audit: AuditReport {
                checks: vec![
                    check("refs-conservation", false, "staged = 5 vs refs_done = 4"),
                    check("tlb-conservation", true, "tlb lookups = 4 vs refs_done = 4"),
                    check("fabric-parity", false, "fabric traversals = 9 vs x = 8"),
                ],
            },
        };
        assert_eq!(
            e.to_string(),
            "conservation audit failed: refs-conservation (staged = 5 vs refs_done = 4); \
             fabric-parity (fabric traversals = 9 vs x = 8)"
        );
    }

    #[test]
    fn fam_exhausted_carries_source() {
        use std::error::Error;
        let e = SimError::FamExhausted {
            node: 3,
            source: BrokerError::OutOfMemory,
        };
        assert!(e.to_string().contains("node 3"));
        assert!(e.source().is_some());
    }
}
