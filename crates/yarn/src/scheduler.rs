//! Schedulers: FIFO and the Capacity scheduler.
//!
//! Both serve applications' [`AskTable`]s against [`ClusterState`]
//! capacity, honoring the paper's rules (§4.2.2): higher numeric priority
//! first (maps before reduces), node-local before rack-local before
//! off-switch, and — among fitting nodes — the node with the lowest
//! occupancy rate.
//!
//! The Capacity scheduler with a single root queue degenerates to FIFO
//! order among applications, which is the configuration the paper assumes
//! ("we do not have any hierarchical queues and we have only one root
//! queue. Thus, resource allocation among applications will be in the FIFO
//! order"). Both schedulers are work-conserving: an application that cannot
//! be served does not block capacity that a later application can use.

use crate::container::{Container, ContainerId, ContainerState};
use crate::node::ClusterState;
use crate::request::{AskTable, MatchLevel, Priority};
use crate::resources::ResourceVector;
use crate::rm::AppId;

/// Scheduler-side state of one registered application.
#[derive(Debug, Clone)]
pub struct AppSchedulingState {
    /// The application.
    pub app: AppId,
    /// Index into the scheduler's queue list.
    pub queue: usize,
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
    /// Locality level that matched.
    pub level: MatchLevel,
}

/// Mints container ids.
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

/// A container-granting policy.
pub trait Scheduler {
    /// Grant as many containers as capacity and asks allow. Mutates node
    /// allocations and asks in place.
    fn assign(
        &mut self,
        cluster: &mut ClusterState,
        apps: &mut [AppSchedulingState],
        ids: &mut ContainerIdGen,
    ) -> Vec<Allocation>;
}

/// Try to serve one container of priority `p` for `app`; returns the
/// allocation if a node fit.
fn assign_one(
    cluster: &mut ClusterState,
    app: &mut AppSchedulingState,
    p: Priority,
    ids: &mut ContainerIdGen,
) -> Option<Allocation> {
    let cap = app.ask.capability(p)?;

    // Node-local: requested nodes that fit, lowest occupancy first.
    let mut chosen: Option<(hdfs_sim::NodeId, MatchLevel)> = None;
    for n in cluster.candidates_by_occupancy(&cap) {
        if app.ask.wants_node(p, n) {
            chosen = Some((n, MatchLevel::NodeLocal));
            break;
        }
    }
    // Rack-local fallback.
    if chosen.is_none() {
        for n in cluster.candidates_by_occupancy(&cap) {
            if app.ask.wants_rack(p, cluster.topology.rack_of(n)) {
                chosen = Some((n, MatchLevel::RackLocal));
                break;
            }
        }
    }
    // Off-switch: any fitting node, lowest occupancy.
    if chosen.is_none() {
        chosen = cluster
            .candidates_by_occupancy(&cap)
            .first()
            .map(|&n| (n, MatchLevel::OffSwitch));
    }
    let (node, level) = chosen?;

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
        level,
    })
}

/// Serve one app fully (all priorities, highest first), appending to `out`.
fn drain_app(
    cluster: &mut ClusterState,
    app: &mut AppSchedulingState,
    ids: &mut ContainerIdGen,
    out: &mut Vec<Allocation>,
) {
    if app.finished {
        return;
    }
    for p in app.ask.active_priorities() {
        while app.ask.outstanding(p) > 0 {
            match assign_one(cluster, app, p, ids) {
                Some(a) => out.push(a),
                None => break, // no node fits this capability now
            }
        }
    }
}

/// Strict submission-order scheduler.
#[derive(Debug, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn assign(
        &mut self,
        cluster: &mut ClusterState,
        apps: &mut [AppSchedulingState],
        ids: &mut ContainerIdGen,
    ) -> Vec<Allocation> {
        let mut out = Vec::new();
        for app in apps.iter_mut() {
            drain_app(cluster, app, ids, &mut out);
        }
        out
    }
}

/// One leaf queue of the Capacity scheduler.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Human-readable name.
    pub name: String,
    /// Guaranteed fraction of cluster capacity, in (0, 1].
    pub capacity: f64,
}

/// The Hadoop Capacity scheduler restricted to a flat list of leaf queues
/// under the root (hierarchies flatten to this for scheduling purposes).
#[derive(Debug)]
pub struct CapacityScheduler {
    queues: Vec<QueueConfig>,
}

impl CapacityScheduler {
    /// The paper's default: a single root queue holding every application.
    pub fn single_queue() -> Self {
        CapacityScheduler {
            queues: vec![QueueConfig {
                name: "root".to_string(),
                capacity: 1.0,
            }],
        }
    }

    /// Multiple leaf queues; capacities should sum to ≈ 1.
    pub fn with_queues(queues: Vec<QueueConfig>) -> Self {
        assert!(!queues.is_empty());
        let total: f64 = queues.iter().map(|q| q.capacity).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "queue capacities must sum to 1, got {total}"
        );
        CapacityScheduler { queues }
    }

    /// Queue configuration by index.
    pub fn queue(&self, idx: usize) -> &QueueConfig {
        &self.queues[idx]
    }
}

impl Scheduler for CapacityScheduler {
    fn assign(
        &mut self,
        cluster: &mut ClusterState,
        apps: &mut [AppSchedulingState],
        ids: &mut ContainerIdGen,
    ) -> Vec<Allocation> {
        let mut out = Vec::new();
        let total = cluster.total_capacity();
        loop {
            // Queue usage = sum of member apps' holdings (dominant share).
            let mut usage = vec![ResourceVector::ZERO; self.queues.len()];
            for a in apps.iter() {
                usage[a.queue] += a.used;
            }
            // Serve the most under-served queue first; among its apps, FIFO.
            let mut order: Vec<usize> = (0..self.queues.len()).collect();
            order.sort_by(|&a, &b| {
                let ra = usage[a].dominant_share(&total) / self.queues[a].capacity;
                let rb = usage[b].dominant_share(&total) / self.queues[b].capacity;
                ra.total_cmp(&rb).then(a.cmp(&b))
            });
            let mut assigned = false;
            'queues: for q in order {
                for app in apps.iter_mut().filter(|a| a.queue == q && !a.finished) {
                    for p in app.ask.active_priorities() {
                        if app.ask.outstanding(p) > 0 {
                            if let Some(a) = assign_one(cluster, app, p, ids) {
                                out.push(a);
                                assigned = true;
                                break 'queues; // re-evaluate queue fairness
                            }
                        }
                    }
                }
            }
            if !assigned {
                break;
            }
        }
        out
    }
}

/// Max–min fair scheduler: containers go one at a time to the running
/// application currently holding the smallest share of the cluster
/// (dominant-resource ordering, submission order as tie-break). This is
/// the Fair-Scheduler-like behaviour many production clusters configure;
/// the paper's model assumes FIFO instead, and comparing the two explains
/// the multi-job deviation discussed in EXPERIMENTS.md.
#[derive(Debug, Default)]
pub struct FairScheduler;

impl Scheduler for FairScheduler {
    fn assign(
        &mut self,
        cluster: &mut ClusterState,
        apps: &mut [AppSchedulingState],
        ids: &mut ContainerIdGen,
    ) -> Vec<Allocation> {
        let mut out = Vec::new();
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
                for p in app.ask.active_priorities() {
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
        out
    }
}

/// Runtime-selectable scheduler, for simulator configuration.
#[derive(Debug)]
pub enum AnyScheduler {
    /// Capacity scheduler (single root queue = FIFO; the paper's default).
    Capacity(CapacityScheduler),
    /// Max–min fair across applications.
    Fair(FairScheduler),
}

impl Scheduler for AnyScheduler {
    fn assign(
        &mut self,
        cluster: &mut ClusterState,
        apps: &mut [AppSchedulingState],
        ids: &mut ContainerIdGen,
    ) -> Vec<Allocation> {
        match self {
            AnyScheduler::Capacity(s) => s.assign(cluster, apps, ids),
            AnyScheduler::Fair(s) => s.assign(cluster, apps, ids),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Location, ResourceRequest};
    use hdfs_sim::{NodeId, Topology};

    fn cluster(nodes: usize, per_node: u32) -> ClusterState {
        ClusterState::homogeneous(
            Topology::single_rack(nodes),
            ResourceVector::new(1024 * per_node as u64, per_node),
        )
    }

    fn app(id: u32) -> AppSchedulingState {
        AppSchedulingState {
            app: AppId(id),
            queue: 0,
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

    #[test]
    fn fifo_serves_maps_before_reduces() {
        let mut c = cluster(1, 3);
        let mut apps = vec![app(0)];
        ask_any(&mut apps[0], Priority::REDUCE, 2);
        ask_any(&mut apps[0], Priority::MAP, 2);
        let allocs = FifoScheduler.assign(&mut c, &mut apps, &mut ContainerIdGen::default());
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
        let allocs = FifoScheduler.assign(&mut c, &mut apps, &mut ContainerIdGen::default());
        assert_eq!(allocs.len(), 1);
        assert_eq!(allocs[0].container.node, NodeId(2));
        assert_eq!(allocs[0].level, MatchLevel::NodeLocal);
    }

    #[test]
    fn off_switch_picks_lowest_occupancy() {
        let mut c = cluster(2, 4);
        // Pre-load node 0.
        c.node_mut(NodeId(0))
            .allocate(ContainerId(99), ResourceVector::new(2048, 2));
        let mut apps = vec![app(0)];
        ask_any(&mut apps[0], Priority::MAP, 1);
        let allocs = FifoScheduler.assign(&mut c, &mut apps, &mut ContainerIdGen::default());
        assert_eq!(allocs[0].container.node, NodeId(1));
        assert_eq!(allocs[0].level, MatchLevel::OffSwitch);
    }

    #[test]
    fn fifo_is_work_conserving_across_apps() {
        let mut c = cluster(1, 2);
        let mut apps = vec![app(0), app(1)];
        ask_any(&mut apps[0], Priority::MAP, 5); // only 2 fit
        ask_any(&mut apps[1], Priority::MAP, 1); // starved: app0 took all
        let allocs = FifoScheduler.assign(&mut c, &mut apps, &mut ContainerIdGen::default());
        assert_eq!(allocs.len(), 2);
        assert!(allocs.iter().all(|a| a.app == AppId(0)));
        // After app0 releases, app1 can be served — here we simply verify
        // app0 kept its pending ask.
        assert_eq!(apps[0].ask.outstanding(Priority::MAP), 3);
        assert_eq!(apps[1].ask.outstanding(Priority::MAP), 1);
    }

    #[test]
    fn capacity_single_queue_matches_fifo() {
        let mut c1 = cluster(2, 2);
        let mut c2 = cluster(2, 2);
        let mk = || {
            let mut a0 = app(0);
            let mut a1 = app(1);
            ask_any(&mut a0, Priority::MAP, 3);
            ask_any(&mut a1, Priority::MAP, 3);
            vec![a0, a1]
        };
        let mut apps1 = mk();
        let mut apps2 = mk();
        let f = FifoScheduler.assign(&mut c1, &mut apps1, &mut ContainerIdGen::default());
        let mut cs = CapacityScheduler::single_queue();
        let c = cs.assign(&mut c2, &mut apps2, &mut ContainerIdGen::default());
        let key = |allocs: &[Allocation]| -> Vec<(AppId, NodeId)> {
            allocs.iter().map(|a| (a.app, a.container.node)).collect()
        };
        assert_eq!(key(&f), key(&c));
    }

    #[test]
    fn capacity_two_queues_split_fairly() {
        let mut c = cluster(2, 2); // 4 containers total
        let mut cs = CapacityScheduler::with_queues(vec![
            QueueConfig {
                name: "a".into(),
                capacity: 0.5,
            },
            QueueConfig {
                name: "b".into(),
                capacity: 0.5,
            },
        ]);
        let mut a0 = app(0);
        a0.queue = 0;
        let mut a1 = app(1);
        a1.queue = 1;
        ask_any(&mut a0, Priority::MAP, 4);
        ask_any(&mut a1, Priority::MAP, 4);
        let mut apps = vec![a0, a1];
        let allocs = cs.assign(&mut c, &mut apps, &mut ContainerIdGen::default());
        assert_eq!(allocs.len(), 4);
        let to_a0 = allocs.iter().filter(|a| a.app == AppId(0)).count();
        assert_eq!(to_a0, 2, "capacity split should be even");
    }

    #[test]
    fn fair_scheduler_splits_between_apps() {
        let mut c = cluster(2, 2); // 4 containers
        let mut apps = vec![app(0), app(1)];
        ask_any(&mut apps[0], Priority::MAP, 4);
        ask_any(&mut apps[1], Priority::MAP, 4);
        let allocs = FairScheduler.assign(&mut c, &mut apps, &mut ContainerIdGen::default());
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
        let allocs = FairScheduler.assign(&mut c, &mut apps, &mut ContainerIdGen::default());
        assert_eq!(allocs[0].container.priority, Priority::MAP);
        assert_eq!(allocs[1].container.priority, Priority::REDUCE);
    }

    #[test]
    fn any_scheduler_dispatches() {
        let mut c = cluster(1, 1);
        let mut apps = vec![app(0)];
        ask_any(&mut apps[0], Priority::MAP, 1);
        let mut s = AnyScheduler::Fair(FairScheduler);
        let allocs = s.assign(&mut c, &mut apps, &mut ContainerIdGen::default());
        assert_eq!(allocs.len(), 1);
    }

    #[test]
    fn finished_apps_are_skipped() {
        let mut c = cluster(1, 1);
        let mut apps = vec![app(0)];
        ask_any(&mut apps[0], Priority::MAP, 1);
        apps[0].finished = true;
        let allocs = FifoScheduler.assign(&mut c, &mut apps, &mut ContainerIdGen::default());
        assert!(allocs.is_empty());
    }
}
