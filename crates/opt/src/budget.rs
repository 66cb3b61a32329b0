//! Search budgets: named effort tiers mapped to concrete knobs.
//!
//! A [`Budget`] is part of the optimizer's cache identity (the serve
//! route keys on the canonical config, budget included), so it
//! serializes as a lowercase string and parses case-insensitively.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize, Value};

/// Named effort tier for an optimizer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Budget {
    /// Minimal effort for unit tests and doc examples: one descent
    /// round over a coarse grid. Not intended for real studies.
    Tiny,
    /// The CI smoke tier: a couple of starts and rounds, coarse grid.
    #[default]
    Small,
    /// The `repro optimize` artifact tier.
    Medium,
    /// Overnight-style runs (checkpointing recommended).
    Large,
}

/// Concrete knob settings derived from a [`Budget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Number of independent starts (start 0 is the exact `A(n, f)`
    /// lowering; the rest are seeded perturbations of it).
    pub starts: usize,
    /// Rounds of descent + annealing applied to every start.
    pub rounds: usize,
    /// Explicit turning points per robot before the geometric tail.
    pub explicit_turns: usize,
    /// The default `grid_points` a run reports. No measurement reads
    /// it: the exact supremum engine needs no grid.
    pub grid_points: usize,
    /// Annealing proposals per round per start.
    pub anneal_steps: usize,
    /// Initial log-space annealing step size (decays per round).
    pub sigma0: f64,
}

impl Budget {
    /// The concrete knobs for this tier.
    #[must_use]
    pub fn knobs(self) -> Knobs {
        match self {
            Budget::Tiny => Knobs {
                starts: 2,
                rounds: 2,
                explicit_turns: 5,
                grid_points: 16,
                anneal_steps: 4,
                sigma0: 0.20,
            },
            Budget::Small => Knobs {
                starts: 2,
                rounds: 2,
                explicit_turns: 6,
                grid_points: 32,
                anneal_steps: 16,
                sigma0: 0.20,
            },
            Budget::Medium => Knobs {
                starts: 4,
                rounds: 3,
                explicit_turns: 8,
                grid_points: 48,
                anneal_steps: 48,
                sigma0: 0.25,
            },
            Budget::Large => Knobs {
                starts: 8,
                rounds: 6,
                explicit_turns: 10,
                grid_points: 64,
                anneal_steps: 96,
                sigma0: 0.30,
            },
        }
    }

    /// The lowercase name used on the CLI and in JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Budget::Tiny => "tiny",
            Budget::Small => "small",
            Budget::Medium => "medium",
            Budget::Large => "large",
        }
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, fmt: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt.write_str(self.name())
    }
}

impl FromStr for Budget {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(Budget::Tiny),
            "small" => Ok(Budget::Small),
            "medium" => Ok(Budget::Medium),
            "large" => Ok(Budget::Large),
            other => {
                Err(format!("unknown budget `{other}` (expected tiny, small, medium or large)"))
            }
        }
    }
}

impl Serialize for Budget {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.name().to_string()))
    }
}

impl<'de> Deserialize<'de> for Budget {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::String(s) => s.parse().map_err(serde::de::Error::custom),
            other => Err(serde::de::Error::custom(format!(
                "expected a budget string, got {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_roundtrip_as_lowercase_strings() {
        for budget in [Budget::Tiny, Budget::Small, Budget::Medium, Budget::Large] {
            let json = serde_json::to_string(&budget).unwrap();
            assert_eq!(json, format!("\"{}\"", budget.name()));
            let back: Budget = serde_json::from_str(&json).unwrap();
            assert_eq!(back, budget);
        }
    }

    #[test]
    fn parsing_is_case_insensitive_and_rejects_unknown_tiers() {
        assert_eq!("SMALL".parse::<Budget>().unwrap(), Budget::Small);
        assert_eq!("Medium".parse::<Budget>().unwrap(), Budget::Medium);
        assert!("huge".parse::<Budget>().is_err());
        assert!(serde_json::from_str::<Budget>("3").is_err());
    }

    #[test]
    fn knobs_grow_with_the_tier() {
        let tiers = [Budget::Tiny, Budget::Small, Budget::Medium, Budget::Large];
        for pair in tiers.windows(2) {
            let (lo, hi) = (pair[0].knobs(), pair[1].knobs());
            assert!(lo.starts <= hi.starts);
            assert!(lo.rounds <= hi.rounds);
            assert!(lo.explicit_turns <= hi.explicit_turns);
            assert!(lo.grid_points <= hi.grid_points);
            assert!(lo.anneal_steps <= hi.anneal_steps);
        }
    }
}
