//! Robot identities.

use serde::{Deserialize, Serialize};

/// Identifier of a robot within a fleet (its index in plan order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RobotId(pub usize);

impl std::fmt::Display for RobotId {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fmt, "a{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robot_id_displays_like_the_paper() {
        assert_eq!(RobotId(2).to_string(), "a2");
    }
}
