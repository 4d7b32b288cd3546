//! Validated environment-variable parsing, shared by every gvex crate.
//!
//! One place defines what `GVEX_THREADS=garbage` means (warn once, fall back
//! to the machine default — never abort a run over a typo) instead of each
//! crate hand-rolling its own `std::env::var` dance. This module is always
//! compiled, independent of the `enabled` feature.
//!
//! The environment carries the worker count and the observation switches
//! (`GVEX_OBS*`) only. Which kernels run, whether a store is memory-mapped
//! and when a region fans out are decided by the code itself, so every
//! input has one set of output bytes and one configuration to test.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Mutex;

/// A malformed environment variable: which one, what it held, and why it was
/// rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// Variable name, e.g. `GVEX_THREADS`.
    pub var: String,
    /// The offending value, verbatim.
    pub value: String,
    /// What a valid value looks like.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}={:?}: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for EnvError {}

/// The variable's value, with unset / empty / whitespace-only normalized to
/// `None`.
pub fn string(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|s| !s.trim().is_empty())
}

/// Parses an unsigned integer. Unset is `Ok(None)`; a malformed value is an
/// [`EnvError`] for the caller to surface or fall back from.
pub fn parse_usize(var: &str) -> Result<Option<usize>, EnvError> {
    match string(var) {
        None => Ok(None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) => Ok(Some(n)),
            Err(_) => {
                Err(EnvError { var: var.to_string(), value: raw, expected: "an unsigned integer" })
            }
        },
    }
}

/// Parses a boolean toggle: `1`/`true`/`yes`/`on` (case-insensitive) are
/// true, `0`/`false`/`no`/`off` and unset are false. Anything else warns
/// once and reads as false, so a typo disables instrumentation rather than
/// corrupting a run.
pub fn flag(var: &str) -> bool {
    let Some(raw) = string(var) else { return false };
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => true,
        "0" | "false" | "no" | "off" => false,
        _ => {
            let err = EnvError {
                var: var.to_string(),
                value: raw,
                expected: "1/0, true/false, yes/no, or on/off",
            };
            warn_once(var, &format!("{err}; treating as unset"));
            false
        }
    }
}

/// The worker count parallel code should use: a valid `GVEX_THREADS >= 1`
/// wins; anything malformed (including `0`) warns once and falls back to
/// [`default_parallelism`], so a bad value degrades to the machine default
/// instead of failing the run.
pub fn threads() -> usize {
    match parse_usize("GVEX_THREADS") {
        Ok(Some(n)) if n >= 1 => n,
        Ok(None) => default_parallelism(),
        Ok(Some(_)) => {
            warn_once(
                "GVEX_THREADS",
                "invalid GVEX_THREADS=\"0\": expected an integer >= 1; using available parallelism",
            );
            default_parallelism()
        }
        Err(err) => {
            warn_once("GVEX_THREADS", &format!("{err}; using available parallelism"));
            default_parallelism()
        }
    }
}

/// The machine's available parallelism (1 if unknown), snapshotted on
/// first use: `std::thread::available_parallelism` re-reads cgroup limits
/// on every call (microseconds each), and this sits on the dispatch path
/// of every parallel call and adaptive fan-out gate.
pub fn default_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Prints `msg` to stderr the first time `var` misparses in this process;
/// repeated lookups (the thread-count query runs per parallel call) stay
/// silent.
fn warn_once(var: &str, msg: &str) {
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if warned.insert(var.to_string()) {
        eprintln!("[gvex] {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns a unique variable name: tests in this binary run
    // concurrently and the process environment is shared.

    #[test]
    fn unset_and_empty_are_none() {
        assert_eq!(string("GVEX_OBS_TEST_UNSET"), None);
        std::env::set_var("GVEX_OBS_TEST_EMPTY", "  ");
        assert_eq!(string("GVEX_OBS_TEST_EMPTY"), None);
        assert_eq!(parse_usize("GVEX_OBS_TEST_EMPTY"), Ok(None));
    }

    #[test]
    fn parse_usize_accepts_and_rejects() {
        std::env::set_var("GVEX_OBS_TEST_USIZE_OK", " 12 ");
        assert_eq!(parse_usize("GVEX_OBS_TEST_USIZE_OK"), Ok(Some(12)));
        std::env::set_var("GVEX_OBS_TEST_USIZE_BAD", "garbage");
        let err = parse_usize("GVEX_OBS_TEST_USIZE_BAD").unwrap_err();
        assert_eq!(err.var, "GVEX_OBS_TEST_USIZE_BAD");
        assert_eq!(err.value, "garbage");
        assert!(err.to_string().contains("unsigned integer"), "{err}");
    }

    #[test]
    fn flag_spellings() {
        for (value, want) in
            [("1", true), ("TRUE", true), ("on", true), ("Yes", true), ("0", false), ("off", false)]
        {
            std::env::set_var("GVEX_OBS_TEST_FLAG", value);
            assert_eq!(flag("GVEX_OBS_TEST_FLAG"), want, "value {value:?}");
        }
        std::env::set_var("GVEX_OBS_TEST_FLAG_BAD", "maybe");
        assert!(!flag("GVEX_OBS_TEST_FLAG_BAD"));
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
