//! The ResourceRequest protocol between an ApplicationMaster and the RM.
//!
//! Requests are keyed by `(priority, location)` where location is a node, a
//! rack, or `*` (any). As in YARN, the `*` entry for a priority is the
//! authoritative total: satisfying a node-local request also decrements the
//! matching rack and `*` entries.
//!
//! An application's outstanding ask, the paper's Table 1, is held densely
//! in an [`AskTable`]: one table per priority, with node and rack rows
//! indexed by id, so the RM's per-heartbeat updates and the scheduler's
//! per-node queries are O(1) and allocate nothing.
//!
//! Priorities follow the **paper's convention** (§3.3): a *larger* numeric
//! value is served first; the MapReduce AM uses 20 for map containers and
//! 10 for reduce containers.

use crate::resources::ResourceVector;
use hdfs_sim::{NodeId, RackId};
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

/// One row's value: capability and outstanding count. A zero count
/// means the row is absent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Row {
    capability: ResourceVector,
    count: u32,
}

/// Every row of one priority: node and rack rows indexed by id, and the
/// `*` row.
#[derive(Debug, Clone)]
struct PriorityAsk {
    priority: Priority,
    nodes: Vec<Row>,
    racks: Vec<Row>,
    any: Row,
}

impl PriorityAsk {
    fn new(priority: Priority) -> Self {
        PriorityAsk {
            priority,
            nodes: Vec::new(),
            racks: Vec::new(),
            any: Row::default(),
        }
    }

    /// The row at `location`; a zero row when absent.
    fn get(&self, location: Location) -> Row {
        match location {
            Location::Node(n) => self.nodes.get(n.0 as usize).copied().unwrap_or_default(),
            Location::Rack(r) => self.racks.get(r.0 as usize).copied().unwrap_or_default(),
            Location::Any => self.any,
        }
    }

    /// The row at `location`, growing the id-indexed rows to hold it.
    fn slot(&mut self, location: Location) -> &mut Row {
        fn at(rows: &mut Vec<Row>, i: u32) -> &mut Row {
            let i = i as usize;
            if rows.len() <= i {
                rows.resize(i + 1, Row::default());
            }
            &mut rows[i]
        }
        match location {
            Location::Node(n) => at(&mut self.nodes, n.0),
            Location::Rack(r) => at(&mut self.racks, r.0),
            Location::Any => &mut self.any,
        }
    }

    /// The row at `location`, if its id is in range.
    fn get_mut(&mut self, location: Location) -> Option<&mut Row> {
        match location {
            Location::Node(n) => self.nodes.get_mut(n.0 as usize),
            Location::Rack(r) => self.racks.get_mut(r.0 as usize),
            Location::Any => Some(&mut self.any),
        }
    }

    /// Take one container off the row at `location`, if present;
    /// returns whether that emptied (removed) it.
    fn decrement(&mut self, location: Location) -> bool {
        match self.get_mut(location) {
            Some(row) if row.count > 0 => {
                row.count -= 1;
                row.count == 0
            }
            _ => false,
        }
    }

    /// Present rows in location order: nodes by id, racks by id, `*`.
    fn rows(&self) -> impl Iterator<Item = (Location, Row)> + '_ {
        let nodes = (self.nodes.iter().enumerate())
            .map(|(i, &row)| (Location::Node(NodeId(i as u32)), row));
        let racks = (self.racks.iter().enumerate())
            .map(|(i, &row)| (Location::Rack(RackId(i as u32)), row));
        nodes
            .chain(racks)
            .chain([(Location::Any, self.any)])
            .filter(|(_, row)| row.count > 0)
    }
}

/// The outstanding ask of one application, organized like YARN's
/// `AppSchedulingInfo`: the paper's Table 1 held densely.
///
/// Each priority has its own table, kept highest priority first. Within
/// it, node and rack rows sit in vectors indexed by node and rack id,
/// next to the `*` row, so an update, a count and a `wants_*` query cost
/// a scan of the (few) priorities and one index. A zero count means no
/// row. A priority's table is kept once made, even when its rows are
/// gone, so a scheduling pass can walk the priorities by index
/// ([`AskTable::priority_at`]) while it serves rows.
#[derive(Debug, Clone, Default)]
pub struct AskTable {
    by_priority: Vec<PriorityAsk>,
    /// Rows with a positive count, over every priority.
    present: usize,
}

impl AskTable {
    /// Empty ask.
    pub fn new() -> Self {
        AskTable::default()
    }

    fn table(&self, priority: Priority) -> Option<&PriorityAsk> {
        self.by_priority.iter().find(|t| t.priority == priority)
    }

    /// Apply an absolute request update (YARN semantics: later requests for
    /// the same key replace the count). Returns whether the table changed:
    /// false when the row equals the stored one, or removes an absent row.
    pub fn update(&mut self, req: &ResourceRequest) -> bool {
        let row = Row {
            capability: req.capability,
            count: req.num_containers,
        };
        if row.count == 0 {
            let removed = (self.by_priority.iter_mut())
                .find(|t| t.priority == req.priority)
                .and_then(|t| t.get_mut(req.location))
                .is_some_and(|row| std::mem::take(row).count > 0);
            self.present -= usize::from(removed);
            return removed;
        }
        // `by_priority` is sorted highest first.
        let k = match (self.by_priority).binary_search_by(|t| req.priority.cmp(&t.priority)) {
            Ok(k) => k,
            Err(k) => {
                self.by_priority.insert(k, PriorityAsk::new(req.priority));
                k
            }
        };
        let slot = self.by_priority[k].slot(req.location);
        if *slot == row {
            return false;
        }
        if slot.count == 0 {
            self.present += 1;
        }
        *slot = row;
        true
    }

    /// Outstanding containers at the authoritative (`*`) entry for a
    /// priority; 0 if absent.
    pub fn outstanding(&self, priority: Priority) -> u32 {
        self.table(priority).map_or(0, |t| t.any.count)
    }

    /// Pending count at an exact key.
    pub fn count_at(&self, priority: Priority, location: Location) -> u32 {
        self.table(priority).map_or(0, |t| t.get(location).count)
    }

    /// Capability registered for a priority (from the `*` entry, falling
    /// back to its first row in location order).
    pub fn capability(&self, priority: Priority) -> Option<ResourceVector> {
        let table = self.table(priority)?;
        if table.any.count > 0 {
            return Some(table.any.capability);
        }
        table.rows().next().map(|(_, row)| row.capability)
    }

    /// The `k`-th priority that has held a row, highest first (paper:
    /// higher numeric priority served first); `None` past the last.
    /// Indices stay valid while rows are served, so a scheduling pass
    /// walks `priority_at(0)`, `priority_at(1)`, … without allocating,
    /// and skips the priorities with nothing outstanding.
    pub fn priority_at(&self, k: usize) -> Option<Priority> {
        self.by_priority.get(k).map(|t| t.priority)
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
        let Some(table) = self.by_priority.iter_mut().find(|t| t.priority == priority) else {
            return;
        };
        let cascade: &[Location] = match level {
            MatchLevel::NodeLocal => &[Location::Node(node), Location::Rack(rack), Location::Any],
            MatchLevel::RackLocal => &[Location::Rack(rack), Location::Any],
            MatchLevel::OffSwitch => &[Location::Any],
        };
        for &location in cascade {
            if table.decrement(location) {
                self.present -= 1;
            }
        }
    }

    /// All rows in (priority, location) order — ascending priority, then
    /// node rows by id, rack rows by id and `*` — for inspection and
    /// Table-1-style rendering.
    pub fn rows(&self) -> impl Iterator<Item = (Priority, Location, ResourceVector, u32)> + '_ {
        self.by_priority.iter().rev().flat_map(|t| {
            t.rows()
                .map(move |(loc, row)| (t.priority, loc, row.capability, row.count))
        })
    }

    /// Whether anything is outstanding.
    pub fn is_empty(&self) -> bool {
        self.present == 0
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The ask table as it was before it went dense: one `BTreeMap` over
    /// `(priority, location)`. Kept as the oracle the dense table is
    /// checked against.
    /// The priorities a scheduling pass serves: those with a positive
    /// `*` count, highest first.
    fn active_priorities(ask: &AskTable) -> Vec<Priority> {
        (0..)
            .map_while(|k| ask.priority_at(k))
            .filter(|&p| ask.outstanding(p) > 0)
            .collect()
    }

    #[derive(Default)]
    struct OracleTable {
        entries: BTreeMap<(Priority, Location), (ResourceVector, u32)>,
    }

    impl OracleTable {
        fn update(&mut self, req: &ResourceRequest) -> bool {
            let key = (req.priority, req.location);
            if req.num_containers == 0 {
                self.entries.remove(&key).is_some()
            } else {
                let row = (req.capability, req.num_containers);
                self.entries.insert(key, row) != Some(row)
            }
        }

        fn outstanding(&self, priority: Priority) -> u32 {
            self.count_at(priority, Location::Any)
        }

        fn count_at(&self, priority: Priority, location: Location) -> u32 {
            self.entries
                .get(&(priority, location))
                .map(|&(_, n)| n)
                .unwrap_or(0)
        }

        fn capability(&self, priority: Priority) -> Option<ResourceVector> {
            if let Some(&(cap, _)) = self.entries.get(&(priority, Location::Any)) {
                return Some(cap);
            }
            self.entries
                .iter()
                .find(|((p, _), _)| *p == priority)
                .map(|(_, &(cap, _))| cap)
        }

        fn active_priorities(&self) -> Vec<Priority> {
            let mut ps: Vec<Priority> = self
                .entries
                .iter()
                .filter(|((_, loc), &(_, n))| *loc == Location::Any && n > 0)
                .map(|((p, _), _)| *p)
                .collect();
            ps.sort_unstable_by(|a, b| b.cmp(a));
            ps
        }

        fn on_allocated(
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

        fn rows(&self) -> Vec<(Priority, Location, ResourceVector, u32)> {
            self.entries
                .iter()
                .map(|(&(p, loc), &(cap, n))| (p, loc, cap, n))
                .collect()
        }
    }

    #[test]
    fn dense_table_matches_the_btree_oracle() {
        // Ids run past the rows ever written, so absent and out-of-range
        // rows are queried too; priority 25 never gets a row.
        let priorities = [
            Priority(30),
            Priority(25),
            Priority::MAP,
            Priority(15),
            Priority::REDUCE,
        ];
        let caps = [ResourceVector::new(1024, 1), ResourceVector::new(2048, 2)];
        let (nodes, racks) = (7u32, 3u32);
        let locations: Vec<Location> = (0..nodes + 2)
            .map(|n| Location::Node(NodeId(n)))
            .chain((0..racks + 1).map(|r| Location::Rack(RackId(r))))
            .chain([Location::Any])
            .collect();
        let (mut removals, mut emptied) = (0, 0);
        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut dense, mut oracle) = (AskTable::new(), OracleTable::default());
            for step in 0..120 {
                let p = [priorities[0], priorities[2], priorities[3], priorities[4]]
                    [rng.gen_range(0..4usize)];
                if rng.gen_bool(0.7) {
                    let location = match rng.gen_range(0..10u32) {
                        0..=5 => Location::Node(NodeId(rng.gen_range(0..nodes))),
                        6..=7 => Location::Rack(RackId(rng.gen_range(0..racks))),
                        _ => Location::Any,
                    };
                    let req = ResourceRequest {
                        num_containers: rng.gen_range(0..4u32),
                        priority: p,
                        capability: caps[rng.gen_range(0..caps.len())],
                        location,
                        relax_locality: true,
                    };
                    removals += usize::from(req.num_containers == 0);
                    let changed = oracle.update(&req);
                    assert_eq!(
                        dense.update(&req),
                        changed,
                        "seed {seed} step {step}: {req:?}"
                    );
                } else {
                    let node = NodeId(rng.gen_range(0..nodes + 1));
                    let rack = RackId(rng.gen_range(0..racks));
                    let level = [
                        MatchLevel::NodeLocal,
                        MatchLevel::RackLocal,
                        MatchLevel::OffSwitch,
                    ][rng.gen_range(0..3usize)];
                    oracle.on_allocated(p, node, rack, level);
                    dense.on_allocated(p, node, rack, level);
                }
                let at = format!("seed {seed} step {step}");
                assert_eq!(dense.rows().collect::<Vec<_>>(), oracle.rows(), "{at}");
                assert_eq!(dense.is_empty(), oracle.entries.is_empty(), "{at}");
                emptied += usize::from(step > 0 && dense.is_empty());
                assert_eq!(
                    active_priorities(&dense),
                    oracle.active_priorities(),
                    "{at}"
                );
                for p in priorities {
                    assert_eq!(dense.outstanding(p), oracle.outstanding(p), "{at} {p:?}");
                    assert_eq!(dense.capability(p), oracle.capability(p), "{at} {p:?}");
                    for &loc in &locations {
                        let want = oracle.count_at(p, loc);
                        assert_eq!(dense.count_at(p, loc), want, "{at} {p:?} {loc}");
                        match loc {
                            Location::Node(n) => assert_eq!(dense.wants_node(p, n), want > 0),
                            Location::Rack(r) => assert_eq!(dense.wants_rack(p, r), want > 0),
                            Location::Any => {}
                        }
                    }
                }
            }
        }
        assert!(
            removals > 1000 && emptied > 50,
            "{removals} removals, {emptied} empty tables"
        );
    }

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
            active_priorities(&ask),
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
