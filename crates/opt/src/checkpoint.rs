//! Checkpoint files: round-granular snapshots of the optimizer state.
//!
//! A checkpoint is a single JSON document written atomically (to a
//! `.tmp` sibling, then renamed) after initialization and after every
//! completed round. Because the driver is a pure function of its
//! state (see [`crate::driver`]), resuming from any snapshot replays
//! the remaining rounds to *bit-identical* final output: all floats
//! round-trip losslessly (finite values print in shortest-roundtrip
//! form; the incumbent ratio additionally goes through the
//! `json_float` sentinel encoding), and deserialization re-validates
//! every schedule, so a hand-edited file fails loudly instead of
//! optimizing garbage.

use std::path::Path;

use faultline_core::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::driver::OptimizerState;

/// The checkpoint format version this build writes and accepts.
pub(crate) const CHECKPOINT_VERSION: u32 = 1;

/// A versioned snapshot of an `OptimizerState`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub(crate) version: u32,
    /// The snapshotted state.
    pub(crate) state: OptimizerState,
}

impl Checkpoint {
    /// Wraps a state in the current format version.
    #[must_use]
    pub(crate) fn snapshot(state: &OptimizerState) -> Self {
        Checkpoint { version: CHECKPOINT_VERSION, state: state.clone() }
    }

    /// Writes the checkpoint atomically to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] on serialization or I/O failure.
    pub(crate) fn save(&self, path: &Path) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| Error::domain(format!("checkpoint serialization failed: {e}")))?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json.as_bytes())
            .map_err(|e| Error::domain(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| Error::domain(format!("renaming into {}: {e}", path.display())))?;
        Ok(())
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] on I/O failure, a version mismatch,
    /// or a document whose schedules fail re-validation.
    pub fn load(path: &Path) -> Result<Self> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| Error::domain(format!("reading {}: {e}", path.display())))?;
        let checkpoint: Checkpoint = serde_json::from_str(&raw)
            .map_err(|e| Error::domain(format!("parsing {}: {e}", path.display())))?;
        if checkpoint.version != CHECKPOINT_VERSION {
            return Err(Error::domain(format!(
                "checkpoint {} has version {}, this build expects {CHECKPOINT_VERSION}",
                path.display(),
                checkpoint.version
            )));
        }
        Ok(checkpoint)
    }

    /// Unwraps the snapshotted state for resumption.
    #[must_use]
    pub fn into_state(self) -> OptimizerState {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::driver::{advance_round, init_state, resume_state, run, OptimizeConfig};

    fn tiny_state() -> OptimizerState {
        let mut config = OptimizeConfig::new(3, 1);
        config.budget = Budget::Tiny;
        config.xmax = Some(8.0);
        init_state(&config).unwrap()
    }

    #[test]
    fn checkpoints_round_trip_bit_identically() {
        let state = tiny_state();
        let dir = std::env::temp_dir().join("faultline-opt-checkpoint-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        Checkpoint::snapshot(&state).save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap().into_state();
        assert_eq!(loaded, state);
        // A second save of the loaded state is byte-identical: the
        // float encoding is lossless end to end.
        let path2 = dir.join("state2.json");
        Checkpoint::snapshot(&loaded).save(&path2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&path2).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_and_tampering_fail_loudly() {
        let state = tiny_state();
        let dir = std::env::temp_dir().join("faultline-opt-checkpoint-tamper");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        Checkpoint::snapshot(&state).save(&path).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();

        let wrong_version = raw.replacen("\"version\": 1", "\"version\": 99", 1);
        std::fs::write(&path, wrong_version).unwrap();
        assert!(Checkpoint::load(&path).is_err());

        // Corrupt a schedule so magnitudes stop increasing: the
        // re-validating deserializer must reject it.
        let tampered = raw.replacen("\"side\": 1.0", "\"side\": 7.0", 1);
        assert_ne!(tampered, raw, "expected a side field to tamper with");
        std::fs::write(&path, tampered).unwrap();
        assert!(Checkpoint::load(&path).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resuming_a_killed_run_is_bit_identical() {
        let mut config = OptimizeConfig::new(3, 1);
        config.budget = Budget::Tiny;
        config.seed = 42;
        config.xmax = Some(8.0);
        let dir = std::env::temp_dir().join("faultline-opt-resume-test");
        std::fs::create_dir_all(&dir).unwrap();

        // The uninterrupted run.
        let uninterrupted = run(&config).unwrap();

        // The "killed" run: initialize, advance one round, snapshot to
        // disk, drop everything — then resume from the file only.
        let kill_point = dir.join("killed.json");
        {
            let mut state = init_state(&config).unwrap();
            advance_round(&mut state).unwrap();
            Checkpoint::snapshot(&state).save(&kill_point).unwrap();
        }
        let mut resumed_state = Checkpoint::load(&kill_point).unwrap().into_state();
        let resumed = resume_state(&mut resumed_state, None).unwrap();

        let a = serde_json::to_string_pretty(&uninterrupted).unwrap();
        let b = serde_json::to_string_pretty(&resumed).unwrap();
        assert_eq!(a, b, "resumed report differs from uninterrupted report");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
