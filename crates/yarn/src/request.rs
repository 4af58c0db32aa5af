//! The ResourceRequest protocol between an ApplicationMaster and the RM.
//!
//! Requests are keyed by `(priority, location)` where location is a node, a
//! rack, or `*` (any). As in YARN, the `*` entry for a priority is the
//! authoritative total: satisfying a node-local request also decrements the
//! matching rack and `*` entries.
//!
//! Priorities follow the **paper's convention** (§3.3): a *larger* numeric
//! value is served first; the MapReduce AM uses 20 for map containers and
//! 10 for reduce containers.

use crate::resources::ResourceVector;
use hdfs_sim::{NodeId, RackId};
use std::collections::BTreeMap;
use std::fmt;

/// Request priority; larger values are served first (paper convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u32);

impl Priority {
    /// Default priority of map-task containers (RMContainerAllocator).
    pub const MAP: Priority = Priority(20);
    /// Default priority of reduce-task containers.
    pub const REDUCE: Priority = Priority(10);
}

/// Where the requested containers should land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Location {
    /// A specific node.
    Node(NodeId),
    /// Any node in a rack.
    Rack(RackId),
    /// Anywhere (`*`).
    Any,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Node(n) => write!(f, "{n}"),
            Location::Rack(r) => write!(f, "{r}"),
            Location::Any => write!(f, "*"),
        }
    }
}

/// At which level an allocation matched the ask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchLevel {
    /// Data-local: the container is on a requested node.
    NodeLocal,
    /// Rack-local.
    RackLocal,
    /// Off-switch (`*`).
    OffSwitch,
}

/// One row of the AM's ask — mirrors the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRequest {
    /// Number of containers wanted at this key (absolute, not a delta).
    pub num_containers: u32,
    /// Request priority.
    pub priority: Priority,
    /// Container size.
    pub capability: ResourceVector,
    /// Placement constraint.
    pub location: Location,
    /// Whether the scheduler may fall back to a less specific location.
    pub relax_locality: bool,
}

/// The outstanding ask of one application, organized like YARN's
/// `AppSchedulingInfo`.
#[derive(Debug, Clone, Default)]
pub struct AskTable {
    /// (priority, location) → (capability, outstanding count).
    entries: BTreeMap<(Priority, Location), (ResourceVector, u32)>,
}

impl AskTable {
    /// Empty ask.
    pub fn new() -> Self {
        AskTable::default()
    }

    /// Apply an absolute request update (YARN semantics: later requests for
    /// the same key replace the count). Returns whether the table changed:
    /// false when the row equals the stored one, or removes an absent row.
    pub fn update(&mut self, req: &ResourceRequest) -> bool {
        let key = (req.priority, req.location);
        if req.num_containers == 0 {
            self.entries.remove(&key).is_some()
        } else {
            let row = (req.capability, req.num_containers);
            self.entries.insert(key, row) != Some(row)
        }
    }

    /// Outstanding containers at the authoritative (`*`) entry for a
    /// priority; 0 if absent.
    pub fn outstanding(&self, priority: Priority) -> u32 {
        self.entries
            .get(&(priority, Location::Any))
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }

    /// Pending count at an exact key.
    pub fn count_at(&self, priority: Priority, location: Location) -> u32 {
        self.entries
            .get(&(priority, location))
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }

    /// Capability registered for a priority (from the `*` entry, falling
    /// back to any entry of that priority).
    pub fn capability(&self, priority: Priority) -> Option<ResourceVector> {
        if let Some(&(cap, _)) = self.entries.get(&(priority, Location::Any)) {
            return Some(cap);
        }
        self.entries
            .iter()
            .find(|((p, _), _)| *p == priority)
            .map(|(_, &(cap, _))| cap)
    }

    /// Priorities with a positive authoritative count, highest first
    /// (paper: higher numeric priority served first).
    pub fn active_priorities(&self) -> Vec<Priority> {
        let mut ps: Vec<Priority> = self
            .entries
            .iter()
            .filter(|((_, loc), &(_, n))| *loc == Location::Any && n > 0)
            .map(|((p, _), _)| *p)
            .collect();
        ps.sort_unstable_by(|a, b| b.cmp(a));
        ps
    }

    /// Whether a node-local entry with pending count exists.
    pub fn wants_node(&self, priority: Priority, node: NodeId) -> bool {
        self.count_at(priority, Location::Node(node)) > 0
    }

    /// Whether a rack-local entry with pending count exists.
    pub fn wants_rack(&self, priority: Priority, rack: RackId) -> bool {
        self.count_at(priority, Location::Rack(rack)) > 0
    }

    /// Record that one container was allocated at `level` on
    /// `(node, rack)`: decrements the matched entry and every less-specific
    /// one (YARN's `allocateNodeLocal` cascade).
    pub fn on_allocated(
        &mut self,
        priority: Priority,
        node: NodeId,
        rack: RackId,
        level: MatchLevel,
    ) {
        let mut dec = |loc: Location| {
            if let Some((_, n)) = self.entries.get_mut(&(priority, loc)) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.entries.remove(&(priority, loc));
                }
            }
        };
        match level {
            MatchLevel::NodeLocal => {
                dec(Location::Node(node));
                dec(Location::Rack(rack));
                dec(Location::Any);
            }
            MatchLevel::RackLocal => {
                dec(Location::Rack(rack));
                dec(Location::Any);
            }
            MatchLevel::OffSwitch => {
                dec(Location::Any);
            }
        }
    }

    /// All rows, for inspection and Table-1-style rendering.
    pub fn rows(&self) -> impl Iterator<Item = (Priority, Location, ResourceVector, u32)> + '_ {
        self.entries
            .iter()
            .map(|(&(p, loc), &(cap, n))| (p, loc, cap, n))
    }

    /// Whether anything is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Render an ask as the paper's Table 1 ("ResourceRequest Object").
///
/// `task_type` labels rows by priority (map for [`Priority::MAP`], reduce
/// for [`Priority::REDUCE`]).
pub fn render_table1(ask: &AskTable) -> String {
    let mut out = String::new();
    out.push_str(
        "| # containers | Priority | Size | Locality | Task type |\n\
         |---|---|---|---|---|\n",
    );
    // Paper's Table 1 lists map rows (node-level) first, then reduce (*).
    let mut rows: Vec<_> = ask.rows().collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    for (p, loc, cap, n) in rows {
        // The authoritative `*` row of the map priority duplicates the
        // node rows; the paper omits it, so we do too for map priority.
        if p == Priority::MAP && loc == Location::Any {
            continue;
        }
        let kind = if p >= Priority::MAP { "map" } else { "reduce" };
        out.push_str(&format!("| {n} | {} | {cap} | {loc} | {kind} |\n", p.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap() -> ResourceVector {
        ResourceVector::new(1024, 1)
    }

    #[test]
    fn update_and_outstanding() {
        let mut ask = AskTable::new();
        ask.update(&ResourceRequest {
            num_containers: 4,
            priority: Priority::MAP,
            capability: cap(),
            location: Location::Any,
            relax_locality: true,
        });
        assert_eq!(ask.outstanding(Priority::MAP), 4);
        assert_eq!(ask.outstanding(Priority::REDUCE), 0);
        // Absolute update semantics.
        ask.update(&ResourceRequest {
            num_containers: 2,
            priority: Priority::MAP,
            capability: cap(),
            location: Location::Any,
            relax_locality: true,
        });
        assert_eq!(ask.outstanding(Priority::MAP), 2);
    }

    #[test]
    fn update_reports_whether_the_table_changed() {
        let mut ask = AskTable::new();
        let row = |num_containers, capability| ResourceRequest {
            num_containers,
            priority: Priority::MAP,
            capability,
            location: Location::Node(NodeId(3)),
            relax_locality: true,
        };
        // Removing an absent row changes nothing.
        assert!(!ask.update(&row(0, cap())));
        assert!(ask.update(&row(2, cap())));
        assert!(!ask.update(&row(2, cap())), "same row again");
        assert!(ask.update(&row(1, cap())), "new count");
        assert!(
            ask.update(&row(1, ResourceVector::new(2048, 1))),
            "new capability"
        );
        assert!(ask.update(&row(0, cap())), "removal");
        assert!(!ask.update(&row(0, cap())), "removal of the removed row");
        assert!(ask.is_empty());
    }

    #[test]
    fn node_local_allocation_cascades() {
        let mut ask = AskTable::new();
        let n1 = NodeId(0);
        let r0 = RackId(0);
        for (loc, n) in [
            (Location::Node(n1), 2),
            (Location::Rack(r0), 2),
            (Location::Any, 2),
        ] {
            ask.update(&ResourceRequest {
                num_containers: n,
                priority: Priority::MAP,
                capability: cap(),
                location: loc,
                relax_locality: true,
            });
        }
        ask.on_allocated(Priority::MAP, n1, r0, MatchLevel::NodeLocal);
        assert_eq!(ask.count_at(Priority::MAP, Location::Node(n1)), 1);
        assert_eq!(ask.count_at(Priority::MAP, Location::Rack(r0)), 1);
        assert_eq!(ask.outstanding(Priority::MAP), 1);
        // Off-switch match only decrements `*`.
        ask.on_allocated(Priority::MAP, NodeId(9), RackId(9), MatchLevel::OffSwitch);
        assert_eq!(ask.count_at(Priority::MAP, Location::Node(n1)), 1);
        assert_eq!(ask.outstanding(Priority::MAP), 0);
    }

    #[test]
    fn priorities_served_highest_first() {
        let mut ask = AskTable::new();
        for p in [Priority::REDUCE, Priority::MAP] {
            ask.update(&ResourceRequest {
                num_containers: 1,
                priority: p,
                capability: cap(),
                location: Location::Any,
                relax_locality: true,
            });
        }
        assert_eq!(
            ask.active_priorities(),
            vec![Priority::MAP, Priority::REDUCE]
        );
    }

    #[test]
    fn table1_running_example() {
        // The paper's running example (§3.1): n=3 nodes, m=4 maps (2 on n1,
        // 2 on n2), r=1 reduce anywhere.
        let mut ask = AskTable::new();
        let x = ResourceVector::new(1024, 1);
        for (loc, n, p) in [
            (Location::Node(NodeId(0)), 2, Priority::MAP),
            (Location::Node(NodeId(1)), 2, Priority::MAP),
            (Location::Any, 4, Priority::MAP),
            (Location::Any, 1, Priority::REDUCE),
        ] {
            ask.update(&ResourceRequest {
                num_containers: n,
                priority: p,
                capability: x,
                location: loc,
                relax_locality: true,
            });
        }
        let rendered = render_table1(&ask);
        assert!(rendered.contains("| 2 | 20 | <1024MB, 1vc> | n0 | map |"));
        assert!(rendered.contains("| 2 | 20 | <1024MB, 1vc> | n1 | map |"));
        assert!(rendered.contains("| 1 | 10 | <1024MB, 1vc> | * | reduce |"));
        // The map `*` row is omitted like in the paper.
        assert!(!rendered.contains("| 4 | 20"));
    }
}
