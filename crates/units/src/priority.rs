//! Service priority of racks.

use serde::{Deserialize, Serialize};

/// The priority class of the services running on a rack (§IV of the paper).
///
/// Racks are categorized into three priorities based on their workload:
///
/// * [`Priority::P1`] — high; stateful workloads such as database servers that
///   want battery redundancy available essentially all the time.
/// * [`Priority::P2`] — normal.
/// * [`Priority::P3`] — low; stateless compute such as web tier.
///
/// The derived ordering places more-important priorities **first**
/// (`P1 < P2 < P3`), so sorting racks by `priority` ascending produces the
/// "highest priority first" order that Algorithm 1 requires.
///
/// # Examples
///
/// ```
/// use recharge_units::Priority;
///
/// let mut racks = vec![Priority::P3, Priority::P1, Priority::P2];
/// racks.sort();
/// assert_eq!(racks, vec![Priority::P1, Priority::P2, Priority::P3]);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Priority {
    /// High priority (stateful services, e.g. databases).
    P1,
    /// Normal priority.
    #[default]
    P2,
    /// Low priority (stateless services, e.g. web tier).
    P3,
}

impl Priority {
    /// All priorities, from most to least important.
    pub const ALL: [Priority; 3] = [Priority::P1, Priority::P2, Priority::P3];

    /// Numeric rank: 1 for P1, 2 for P2, 3 for P3. Lower rank = more important.
    #[must_use]
    pub const fn rank(self) -> u8 {
        match self {
            Priority::P1 => 1,
            Priority::P2 => 2,
            Priority::P3 => 3,
        }
    }

    /// Parses `"P1"`, `"P2"`, or `"P3"` (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParsePriorityError`] if the input is not one of the three
    /// priority names.
    pub fn parse(s: &str) -> Result<Self, ParsePriorityError> {
        match s.trim().to_ascii_uppercase().as_str() {
            "P1" => Ok(Priority::P1),
            "P2" => Ok(Priority::P2),
            "P3" => Ok(Priority::P3),
            _ => Err(ParsePriorityError),
        }
    }
}

impl core::fmt::Display for Priority {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Priority::P1 => "P1",
            Priority::P2 => "P2",
            Priority::P3 => "P3",
        };
        f.write_str(name)
    }
}

impl core::str::FromStr for Priority {
    type Err = ParsePriorityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Priority::parse(s)
    }
}

/// Error returned when parsing a [`Priority`] from a string fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsePriorityError;

impl core::fmt::Display for ParsePriorityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("priority was not one of `P1`, `P2`, `P3`")
    }
}

impl std::error::Error for ParsePriorityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_importance_first() {
        assert!(Priority::P1 < Priority::P2);
        assert!(Priority::P2 < Priority::P3);
    }

    #[test]
    fn rank_values() {
        assert_eq!(Priority::P1.rank(), 1);
        assert_eq!(Priority::P2.rank(), 2);
        assert_eq!(Priority::P3.rank(), 3);
    }

    #[test]
    fn parse_round_trip() {
        for p in Priority::ALL {
            let parsed: Priority = p.to_string().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert_eq!("p2".parse::<Priority>().unwrap(), Priority::P2);
        assert!(" bogus ".parse::<Priority>().is_err());
    }

    #[test]
    fn default_is_normal_priority() {
        assert_eq!(Priority::default(), Priority::P2);
    }

    #[test]
    fn error_display() {
        let err = "x".parse::<Priority>().unwrap_err();
        assert!(err.to_string().contains("P1"));
    }
}
