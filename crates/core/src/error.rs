//! Typed errors for the FACT pipeline, surfaced as `fact-cli` exit
//! codes: `0` success, `1` runtime failure, `2` usage error, `4`
//! deadline expiry.

use act_runtime::ScheduleError;

/// An error of the FACT pipeline or its CLI. Each variant maps to a
/// distinct process exit code (see [`FactError::exit_code`]), so shell
/// pipelines and CI gates can react to *why* a run failed, not just
/// that it did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FactError {
    /// The invocation itself was malformed (unknown command, bad flag,
    /// unparsable model spec). Exit code 2, usage is printed.
    Usage(String),
    /// The run failed at runtime (unreadable file, corrupt artifact,
    /// serialization failure). Exit code 1.
    Runtime(String),
    /// A schedule or trace referenced a process outside the system —
    /// the typed form of [`ScheduleError`]. Exit code 1.
    InvalidSchedule {
        /// Index into the schedule of the offending step.
        step: usize,
        /// The out-of-range process index the step named.
        process: usize,
        /// The system's process count.
        num_processes: usize,
    },
    /// The wall-clock deadline expired before a verdict. Exit code 4.
    TimedOut {
        /// The iteration count at which the deadline fired.
        iterations: usize,
    },
}

impl FactError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            FactError::Runtime(_) | FactError::InvalidSchedule { .. } => 1,
            FactError::Usage(_) => 2,
            FactError::TimedOut { .. } => 4,
        }
    }

    /// Whether this is a usage error (the CLI prints usage for these).
    pub fn is_usage(&self) -> bool {
        matches!(self, FactError::Usage(_))
    }
}

impl std::fmt::Display for FactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactError::Usage(msg) => write!(f, "{msg}"),
            FactError::Runtime(msg) => write!(f, "{msg}"),
            FactError::InvalidSchedule {
                step,
                process,
                num_processes,
            } => write!(
                f,
                "schedule step {step} names process {process}, \
                 but the system has only {num_processes} processes"
            ),
            FactError::TimedOut { iterations } => {
                write!(f, "deadline expired at iteration {iterations}")
            }
        }
    }
}

impl std::error::Error for FactError {}

impl From<String> for FactError {
    fn from(msg: String) -> FactError {
        FactError::Usage(msg)
    }
}

impl From<ScheduleError> for FactError {
    fn from(e: ScheduleError) -> FactError {
        FactError::InvalidSchedule {
            step: e.step,
            process: e.process.index(),
            num_processes: e.num_processes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        assert_eq!(FactError::Runtime("x".into()).exit_code(), 1);
        assert_eq!(
            FactError::InvalidSchedule {
                step: 0,
                process: 9,
                num_processes: 3
            }
            .exit_code(),
            1
        );
        assert_eq!(FactError::Usage("x".into()).exit_code(), 2);
        assert_eq!(FactError::TimedOut { iterations: 2 }.exit_code(), 4);
    }

    #[test]
    fn schedule_errors_convert_with_context() {
        let e = act_runtime::ScheduleError {
            step: 4,
            process: act_topology::ProcessId::new(7),
            num_processes: 3,
        };
        let fe: FactError = e.into();
        assert_eq!(
            fe,
            FactError::InvalidSchedule {
                step: 4,
                process: 7,
                num_processes: 3
            }
        );
        assert!(fe.to_string().contains("names process 7"));
        assert!(!fe.is_usage());
    }
}
