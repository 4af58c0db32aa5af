//! The scheduling pass: which application gets which container.
//!
//! [`assign`] serves applications' [`AskTable`]s against [`ClusterState`]
//! capacity under one of two [`SchedulerPolicy`] values, honoring the
//! paper's rules (§4.2.2): higher numeric priority first (maps before
//! reduces), node-local before rack-local before off-switch, and — among
//! fitting nodes — the node with the lowest occupancy rate.
//!
//! The paper's testbed runs the Capacity scheduler with a single root
//! queue ("we do not have any hierarchical queues and we have only one
//! root queue. Thus, resource allocation among applications will be in
//! the FIFO order"), which [`SchedulerPolicy::CapacityFifo`] reproduces by
//! draining applications in submission order. Both policies are
//! work-conserving: an application that cannot be served does not block
//! capacity that a later application can use.

use crate::container::{Container, ContainerId, ContainerState};
use crate::node::ClusterState;
use crate::request::{AskTable, MatchLevel, Priority};
use crate::resources::ResourceVector;
use crate::rm::AppId;
use hdfs_sim::NodeId;

/// Which scheduling policy the RM runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Capacity scheduler with a single root queue — FIFO across
    /// applications; the paper's assumed configuration.
    #[default]
    CapacityFifo,
    /// Max–min fair sharing across applications: containers go one at a
    /// time to the running application currently holding the smallest
    /// share of the cluster (dominant-resource ordering, submission order
    /// as tie-break). This is the Fair-Scheduler-like behaviour many
    /// production clusters configure; the paper's model assumes FIFO
    /// instead (the `fair_vs_fifo` example compares the two).
    Fair,
}

/// Scheduler-side state of one registered application.
#[derive(Debug, Clone)]
pub struct AppSchedulingState {
    /// The application.
    pub app: AppId,
    /// Outstanding ask.
    pub ask: AskTable,
    /// Resources currently held by this application's live containers.
    pub used: ResourceVector,
    /// Whether the app has unregistered (no further allocation).
    pub finished: bool,
}

/// One granted container, not yet picked up by its AM.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Receiving application.
    pub app: AppId,
    /// The container (state [`ContainerState::Allocated`]).
    pub container: Container,
}

/// Mints container ids densely from 0, so the RM indexes live
/// containers by id.
#[derive(Debug, Default)]
pub struct ContainerIdGen(u64);

impl ContainerIdGen {
    /// Next unique id.
    pub fn next_id(&mut self) -> ContainerId {
        let id = ContainerId(self.0);
        self.0 += 1;
        id
    }
}

/// Try to serve one container of priority `p` for `app`; returns the
/// allocation if a node fit.
///
/// Among fitting nodes, ordered by (occupancy rate, id), the first
/// requested node wins, then the first node of a requested rack, then
/// the first node (off-switch). The order is total, so each "first" is a
/// minimum, and one scan over the nodes finds all three.
fn assign_one(
    cluster: &mut ClusterState,
    app: &mut AppSchedulingState,
    p: Priority,
    ids: &mut ContainerIdGen,
) -> Option<Allocation> {
    let cap = app.ask.capability(p)?;

    let mut local: Option<(f64, NodeId)> = None;
    let mut rack_local = None;
    let mut any = None;
    for n in cluster.nodes().iter().filter(|n| n.can_fit(&cap)) {
        let key = (n.occupancy_rate(), n.id);
        let beats = |best: &Option<(f64, NodeId)>| {
            best.is_none_or(|b| key.0.total_cmp(&b.0).then(key.1.cmp(&b.1)).is_lt())
        };
        if beats(&local) && app.ask.wants_node(p, n.id) {
            local = Some(key);
        }
        if beats(&rack_local) && app.ask.wants_rack(p, cluster.topology.rack_of(n.id)) {
            rack_local = Some(key);
        }
        if beats(&any) {
            any = Some(key);
        }
    }
    let (node, level) = local
        .map(|(_, n)| (n, MatchLevel::NodeLocal))
        .or(rack_local.map(|(_, n)| (n, MatchLevel::RackLocal)))
        .or(any.map(|(_, n)| (n, MatchLevel::OffSwitch)))?;

    let id = ids.next_id();
    cluster.node_mut(node).allocate(id, cap);
    app.ask
        .on_allocated(p, node, cluster.topology.rack_of(node), level);
    app.used += cap;
    Some(Allocation {
        app: app.app,
        container: Container {
            id,
            node,
            resource: cap,
            priority: p,
            state: ContainerState::Allocated,
        },
    })
}

/// Grant as many containers as capacity and asks allow under `policy`.
/// Mutates node allocations and asks in place.
pub fn assign(
    policy: SchedulerPolicy,
    cluster: &mut ClusterState,
    apps: &mut [AppSchedulingState],
    ids: &mut ContainerIdGen,
) -> Vec<Allocation> {
    let mut out = Vec::new();
    match policy {
        // Serve each app fully (all priorities, highest first), in
        // submission order. A priority with nothing outstanding at the
        // start of the pass stays so: serving only takes rows down.
        SchedulerPolicy::CapacityFifo => {
            for app in apps.iter_mut().filter(|a| !a.finished) {
                let mut k = 0;
                while let Some(p) = app.ask.priority_at(k) {
                    k += 1;
                    while app.ask.outstanding(p) > 0 {
                        match assign_one(cluster, app, p, ids) {
                            Some(a) => out.push(a),
                            None => break, // no node fits this capability now
                        }
                    }
                }
            }
        }
        // One container at a time to the app with the smallest share.
        SchedulerPolicy::Fair => {
            let total = cluster.total_capacity();
            loop {
                let mut order: Vec<usize> = (0..apps.len())
                    .filter(|&i| !apps[i].finished && !apps[i].ask.is_empty())
                    .collect();
                order.sort_by(|&a, &b| {
                    apps[a]
                        .used
                        .dominant_share(&total)
                        .total_cmp(&apps[b].used.dominant_share(&total))
                        .then(a.cmp(&b))
                });
                let mut assigned = false;
                'apps: for i in order {
                    let app = &mut apps[i];
                    let mut k = 0;
                    while let Some(p) = app.ask.priority_at(k) {
                        k += 1;
                        if app.ask.outstanding(p) > 0 {
                            if let Some(a) = assign_one(cluster, app, p, ids) {
                                out.push(a);
                                assigned = true;
                                break 'apps;
                            }
                        }
                    }
                }
                if !assigned {
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Location, ResourceRequest};
    use hdfs_sim::{RackId, Topology};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cluster(nodes: usize, per_node: u32) -> ClusterState {
        ClusterState::homogeneous(
            Topology::single_rack(nodes),
            ResourceVector::new(1024 * per_node as u64, per_node),
        )
    }

    fn app(id: u32) -> AppSchedulingState {
        AppSchedulingState {
            app: AppId(id),
            ask: AskTable::new(),
            used: ResourceVector::ZERO,
            finished: false,
        }
    }

    fn ask_any(a: &mut AppSchedulingState, p: Priority, n: u32) {
        a.ask.update(&ResourceRequest {
            num_containers: n,
            priority: p,
            capability: ResourceVector::new(1024, 1),
            location: Location::Any,
            relax_locality: true,
        });
    }

    fn fifo(c: &mut ClusterState, apps: &mut [AppSchedulingState]) -> Vec<Allocation> {
        assign(
            SchedulerPolicy::CapacityFifo,
            c,
            apps,
            &mut ContainerIdGen::default(),
        )
    }

    fn fair(c: &mut ClusterState, apps: &mut [AppSchedulingState]) -> Vec<Allocation> {
        assign(
            SchedulerPolicy::Fair,
            c,
            apps,
            &mut ContainerIdGen::default(),
        )
    }

    #[test]
    fn fifo_serves_maps_before_reduces() {
        let mut c = cluster(1, 3);
        let mut apps = vec![app(0)];
        ask_any(&mut apps[0], Priority::REDUCE, 2);
        ask_any(&mut apps[0], Priority::MAP, 2);
        let allocs = fifo(&mut c, &mut apps);
        assert_eq!(allocs.len(), 3);
        assert_eq!(allocs[0].container.priority, Priority::MAP);
        assert_eq!(allocs[1].container.priority, Priority::MAP);
        assert_eq!(allocs[2].container.priority, Priority::REDUCE);
        assert_eq!(apps[0].ask.outstanding(Priority::REDUCE), 1);
    }

    #[test]
    fn node_local_preferred() {
        let mut c = cluster(3, 4);
        let mut apps = vec![app(0)];
        // Ask node-local on n2 plus the authoritative any row.
        apps[0].ask.update(&ResourceRequest {
            num_containers: 1,
            priority: Priority::MAP,
            capability: ResourceVector::new(1024, 1),
            location: Location::Node(NodeId(2)),
            relax_locality: true,
        });
        ask_any(&mut apps[0], Priority::MAP, 1);
        let allocs = fifo(&mut c, &mut apps);
        assert_eq!(allocs.len(), 1);
        assert_eq!(allocs[0].container.node, NodeId(2));
        assert!(!apps[0].ask.wants_node(Priority::MAP, NodeId(2)));
    }

    #[test]
    fn off_switch_picks_lowest_occupancy() {
        let mut c = cluster(2, 4);
        // Pre-load node 0.
        c.node_mut(NodeId(0))
            .allocate(ContainerId(99), ResourceVector::new(2048, 2));
        let mut apps = vec![app(0)];
        ask_any(&mut apps[0], Priority::MAP, 1);
        let allocs = fifo(&mut c, &mut apps);
        assert_eq!(allocs[0].container.node, NodeId(1));
    }

    #[test]
    fn node_choice_is_lowest_occupancy_then_lowest_id() {
        let mut c = cluster(3, 4);
        let one = ResourceVector::new(1024, 1);
        c.node_mut(NodeId(0)).allocate(ContainerId(97), one);
        c.node_mut(NodeId(0)).allocate(ContainerId(98), one);
        c.node_mut(NodeId(1)).allocate(ContainerId(99), one);
        let mut apps = vec![app(0)];
        ask_any(&mut apps[0], Priority::MAP, 4);
        let nodes: Vec<NodeId> = fifo(&mut c, &mut apps)
            .iter()
            .map(|a| a.container.node)
            .collect();
        // Occupancy (n0, n1, n2) goes (.50, .25, 0) → n2; then n1 and
        // n2 tie at .25 → n1; then n2 alone at .25 → n2; then all at .5
        // → n0.
        assert_eq!(nodes, [NodeId(2), NodeId(1), NodeId(2), NodeId(0)]);
    }

    #[test]
    fn node_and_rack_local_choices_also_take_the_lowest_occupancy() {
        // Racks r0 = {n0, n1}, r1 = {n2, n3}.
        let mut c =
            ClusterState::homogeneous(Topology::with_racks(&[2, 2]), ResourceVector::new(4096, 4));
        let one = ResourceVector::new(1024, 1);
        c.node_mut(NodeId(1)).allocate(ContainerId(98), one);
        c.node_mut(NodeId(2)).allocate(ContainerId(99), one);
        let mut apps = vec![app(0)];
        for (loc, n) in [
            (Location::Node(NodeId(1)), 1),
            (Location::Node(NodeId(2)), 1),
            (Location::Rack(RackId(1)), 3),
            (Location::Any, 3),
        ] {
            apps[0].ask.update(&ResourceRequest {
                num_containers: n,
                priority: Priority::MAP,
                capability: one,
                location: loc,
                relax_locality: true,
            });
        }
        let nodes: Vec<NodeId> = fifo(&mut c, &mut apps)
            .iter()
            .map(|a| a.container.node)
            .collect();
        // Requested n1 and n2 tie at .25 → n1, then n2 node-local; then
        // rack r1, where n3 is emptier than n2. Never the emptiest n0.
        assert_eq!(nodes, [NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn full_nodes_are_never_chosen() {
        let mut c = cluster(2, 1);
        c.node_mut(NodeId(0))
            .allocate(ContainerId(99), ResourceVector::new(1024, 1));
        let mut apps = vec![app(0)];
        // Node-local on the full n0, plus the authoritative row.
        apps[0].ask.update(&ResourceRequest {
            num_containers: 2,
            priority: Priority::MAP,
            capability: ResourceVector::new(1024, 1),
            location: Location::Node(NodeId(0)),
            relax_locality: true,
        });
        ask_any(&mut apps[0], Priority::MAP, 2);
        let allocs = fifo(&mut c, &mut apps);
        assert_eq!(allocs.len(), 1);
        assert_eq!(allocs[0].container.node, NodeId(1));
    }

    /// A seeded random cluster with mixed occupancy, and apps with
    /// random node, rack and `*` rows over two or three priorities of
    /// differing capabilities (one too large for any node).
    fn random_case(seed: u64) -> (ClusterState, Vec<AppSchedulingState>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let racks: Vec<usize> = (0..rng.gen_range(1..=3usize))
            .map(|_| rng.gen_range(1..=4usize))
            .collect();
        let topo = Topology::with_racks(&racks);
        let mut c = ClusterState::homogeneous(topo.clone(), ResourceVector::new(8192, 8));
        let sizes = [
            ResourceVector::new(1024, 1),
            ResourceVector::new(2048, 1),
            ResourceVector::new(1024, 3),
            ResourceVector::new(3072, 2),
            ResourceVector::new(16384, 1),
        ];
        let mut preload = 1000;
        for n in topo.nodes() {
            for _ in 0..rng.gen_range(0..6u32) {
                let size = sizes[rng.gen_range(0..4usize)];
                if c.nodes()[n.0 as usize].can_fit(&size) {
                    c.node_mut(n).allocate(ContainerId(preload), size);
                    preload += 1;
                }
            }
        }
        let apps = (0..rng.gen_range(1..=4u32))
            .map(|id| {
                let mut a = app(id);
                a.finished = rng.gen_bool(0.15);
                let mut priorities = vec![Priority(30), Priority::MAP, Priority::REDUCE];
                priorities.truncate(rng.gen_range(2..=3usize));
                for p in priorities {
                    let cap = sizes[rng.gen_range(0..sizes.len())];
                    let mut row = |location, num_containers| {
                        a.ask.update(&ResourceRequest {
                            num_containers,
                            priority: p,
                            capability: cap,
                            location,
                            relax_locality: true,
                        });
                    };
                    row(Location::Any, rng.gen_range(1..=12u32));
                    for n in topo.nodes() {
                        if rng.gen_bool(0.3) {
                            row(Location::Node(n), rng.gen_range(1..=4u32));
                        }
                    }
                    for r in 0..racks.len() as u32 {
                        if rng.gen_bool(0.4) {
                            row(Location::Rack(RackId(r)), rng.gen_range(1..=6u32));
                        }
                    }
                }
                a
            })
            .collect();
        (c, apps)
    }

    /// Everything a pass reads or writes.
    type Snapshot = (
        Vec<(ResourceVector, Vec<ContainerId>)>,
        Vec<Vec<(Priority, Location, ResourceVector, u32)>>,
        Vec<ResourceVector>,
        u64,
    );

    fn snapshot(c: &ClusterState, apps: &[AppSchedulingState], ids: &ContainerIdGen) -> Snapshot {
        (
            c.nodes()
                .iter()
                .map(|n| (n.allocated, n.containers.clone()))
                .collect(),
            apps.iter().map(|a| a.ask.rows().collect()).collect(),
            apps.iter().map(|a| a.used).collect(),
            ids.0,
        )
    }

    #[test]
    fn a_pass_leaves_nothing_grantable() {
        // What lets the RM skip a pass over unchanged inputs: right after
        // a pass, a second one grants nothing and changes nothing.
        let mut granted = 0;
        for seed in 0..300 {
            let (cluster, apps) = random_case(seed);
            for policy in [SchedulerPolicy::CapacityFifo, SchedulerPolicy::Fair] {
                let (mut c, mut apps) = (cluster.clone(), apps.clone());
                let mut ids = ContainerIdGen::default();
                granted += assign(policy, &mut c, &mut apps, &mut ids).len();
                let before = snapshot(&c, &apps, &ids);
                let again = assign(policy, &mut c, &mut apps, &mut ids);
                assert!(again.is_empty(), "seed {seed} {policy:?}: {again:?}");
                assert_eq!(snapshot(&c, &apps, &ids), before, "seed {seed} {policy:?}");
            }
        }
        assert!(granted > 1000, "only {granted} grants: cases too tight");
    }

    #[test]
    fn fifo_is_work_conserving_across_apps() {
        let mut c = cluster(1, 2);
        let mut apps = vec![app(0), app(1)];
        ask_any(&mut apps[0], Priority::MAP, 5); // only 2 fit
        ask_any(&mut apps[1], Priority::MAP, 1); // starved: app0 took all
        let allocs = fifo(&mut c, &mut apps);
        assert_eq!(allocs.len(), 2);
        assert!(allocs.iter().all(|a| a.app == AppId(0)));
        // After app0 releases, app1 can be served — here we simply verify
        // app0 kept its pending ask.
        assert_eq!(apps[0].ask.outstanding(Priority::MAP), 3);
        assert_eq!(apps[1].ask.outstanding(Priority::MAP), 1);
    }

    #[test]
    fn fair_scheduler_splits_between_apps() {
        let mut c = cluster(2, 2); // 4 containers
        let mut apps = vec![app(0), app(1)];
        ask_any(&mut apps[0], Priority::MAP, 4);
        ask_any(&mut apps[1], Priority::MAP, 4);
        let allocs = fair(&mut c, &mut apps);
        assert_eq!(allocs.len(), 4);
        let to_a0 = allocs.iter().filter(|a| a.app == AppId(0)).count();
        assert_eq!(to_a0, 2, "fair split expected, got {to_a0}/4 for app0");
    }

    #[test]
    fn fair_scheduler_respects_priorities_within_an_app() {
        let mut c = cluster(1, 2);
        let mut apps = vec![app(0)];
        ask_any(&mut apps[0], Priority::REDUCE, 2);
        ask_any(&mut apps[0], Priority::MAP, 1);
        let allocs = fair(&mut c, &mut apps);
        assert_eq!(allocs[0].container.priority, Priority::MAP);
        assert_eq!(allocs[1].container.priority, Priority::REDUCE);
    }

    #[test]
    fn finished_apps_are_skipped() {
        let mut c = cluster(1, 1);
        let mut apps = vec![app(0)];
        ask_any(&mut apps[0], Priority::MAP, 1);
        apps[0].finished = true;
        assert!(fifo(&mut c, &mut apps).is_empty());
        assert!(fair(&mut c, &mut apps).is_empty());
    }
}
