//! The ResourceManager: application registry, the allocate heartbeat, and
//! container accounting.
//!
//! The RM here is *time-free*: it is a deterministic state machine invoked
//! by the simulation driver at event times. An AM interacts exactly as in
//! YARN (§3.2–3.3 of the paper): register, send `allocate` heartbeats
//! carrying absolute [`ResourceRequest`] updates and releases, pick up
//! granted containers from the response, and unregister when done.
//!
//! A scheduling pass runs only when one of its inputs changed since the
//! last pass (see [`ResourceManager::schedule`]): most heartbeats re-send
//! the rows the RM already holds and release nothing, and a pass over
//! unchanged inputs grants nothing.
//!
//! Every table is dense: each application's Table 1 is a dense
//! [`AskTable`], grants wait for pick-up in a list per [`AppId`], and
//! live containers are indexed by [`ContainerId`], which the RM mints
//! densely from 0. A heartbeat hashes nothing and searches no tree.

use crate::container::{Container, ContainerId, ContainerState};
use crate::node::ClusterState;
use crate::request::{AskTable, ResourceRequest};
use crate::resources::ResourceVector;
use crate::scheduler::{assign, AppSchedulingState, ContainerIdGen, SchedulerPolicy};
use hdfs_sim::NodeId;
use std::fmt;

/// Application identifier, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "application_{:04}", self.0)
    }
}

/// The global ResourceManager (one per cluster).
pub struct ResourceManager {
    cluster: ClusterState,
    policy: SchedulerPolicy,
    apps: Vec<AppSchedulingState>,
    /// Granted but not yet picked up, indexed by application id.
    pending_pickup: Vec<Vec<Container>>,
    /// Every container granted so far, indexed by id: (owner, node,
    /// size) while live, `None` once finished.
    live: Vec<Option<(AppId, NodeId, ResourceVector)>>,
    /// How many of `live` are `Some`.
    live_count: usize,
    ids: ContainerIdGen,
    /// Whether the asks, an application's registration or the cluster's
    /// free capacity changed since the last scheduling pass.
    dirty: bool,
}

impl ResourceManager {
    /// A fresh RM over `cluster` scheduling under `policy`.
    pub fn new(cluster: ClusterState, policy: SchedulerPolicy) -> Self {
        ResourceManager {
            cluster,
            policy,
            apps: Vec::new(),
            pending_pickup: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            ids: ContainerIdGen::default(),
            dirty: false,
        }
    }

    /// Register a new application.
    pub fn submit_application(&mut self) -> AppId {
        let id = AppId(self.apps.len() as u32);
        self.apps.push(AppSchedulingState {
            app: id,
            ask: AskTable::new(),
            used: ResourceVector::ZERO,
            finished: false,
        });
        self.pending_pickup.push(Vec::new());
        self.dirty = true;
        id
    }

    /// The AM heartbeat: apply ask updates and releases, run a scheduling
    /// pass, and hand back the containers granted to `app` (now
    /// `Acquired`).
    pub fn allocate(
        &mut self,
        app: AppId,
        requests: &[ResourceRequest],
        releases: &[ContainerId],
    ) -> Vec<Container> {
        for r in requests {
            self.dirty |= self.apps[app.0 as usize].ask.update(r);
        }
        for &cid in releases {
            self.finish_container(cid);
        }
        self.schedule();
        std::mem::take(&mut self.pending_pickup[app.0 as usize])
    }

    /// Run one scheduling pass; grants become pickable on the next
    /// heartbeat of each AM.
    ///
    /// The pass is skipped when no input changed since the last one: no
    /// application registered or unregistered, no `allocate` changed an
    /// ask row, and no live container finished. The skip is exact
    /// because every [`assign`] pass leaves nothing grantable. Under
    /// [`SchedulerPolicy::CapacityFifo`] each (application, priority)
    /// loop stops only at zero outstanding or when no node fits that
    /// priority's capability, and later grants in the same pass only
    /// shrink capacity. [`SchedulerPolicy::Fair`] loops until a whole
    /// sweep grants nothing. So a pass over unchanged inputs would grant
    /// nothing and mutate nothing, container ids included.
    pub fn schedule(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        let allocs = assign(
            self.policy,
            &mut self.cluster,
            &mut self.apps,
            &mut self.ids,
        );
        for mut a in allocs {
            a.container.transition(ContainerState::Acquired);
            debug_assert_eq!(a.container.id.0, self.live.len() as u64, "ids are dense");
            self.live
                .push(Some((a.app, a.container.node, a.container.resource)));
            self.live_count += 1;
            self.pending_pickup[a.app.0 as usize].push(a.container);
        }
    }

    /// NodeManager reports a container finished (or the AM killed it):
    /// release its resources.
    pub fn finish_container(&mut self, id: ContainerId) {
        let live = self.live.get_mut(id.0 as usize).and_then(Option::take);
        if let Some((app, node, size)) = live {
            self.live_count -= 1;
            self.dirty = true;
            self.cluster.node_mut(node).release(id, size);
            self.app_mut(app).used = self.app_mut(app).used.saturating_sub(&size);
        }
    }

    /// Deregister an application; its pending ask is dropped and its live
    /// containers are reclaimed.
    pub fn unregister_application(&mut self, app: AppId) {
        for i in 0..self.live.len() {
            if matches!(self.live[i], Some((owner, _, _)) if owner == app) {
                self.finish_container(ContainerId(i as u64));
            }
        }
        let state = self.app_mut(app);
        state.finished = true;
        state.ask = AskTable::new();
        self.pending_pickup[app.0 as usize].clear();
        self.dirty = true;
    }

    /// Cluster state (read-only).
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// Number of live containers.
    pub fn live_containers(&self) -> usize {
        self.live_count
    }

    fn app_mut(&mut self, app: AppId) -> &mut AppSchedulingState {
        &mut self.apps[app.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Location, Priority};
    use hdfs_sim::Topology;

    fn rm(nodes: usize, containers_per_node: u32) -> ResourceManager {
        let cluster = ClusterState::homogeneous(
            Topology::single_rack(nodes),
            ResourceVector::new(1024 * containers_per_node as u64, containers_per_node),
        );
        ResourceManager::new(cluster, SchedulerPolicy::CapacityFifo)
    }

    fn any_req(p: Priority, n: u32) -> ResourceRequest {
        ResourceRequest {
            num_containers: n,
            priority: p,
            capability: ResourceVector::new(1024, 1),
            location: Location::Any,
            relax_locality: true,
        }
    }

    #[test]
    fn allocate_heartbeat_roundtrip() {
        let mut rm = rm(2, 2);
        let app = rm.submit_application();
        let granted = rm.allocate(app, &[any_req(Priority::MAP, 3)], &[]);
        assert_eq!(granted.len(), 3);
        assert!(granted.iter().all(|c| c.state == ContainerState::Acquired));
        assert_eq!(rm.live_containers(), 3);
        // Nothing left outstanding: the next heartbeat grants nothing.
        assert!(rm.allocate(app, &[], &[]).is_empty());
    }

    #[test]
    fn deferred_grant_on_capacity() {
        let mut rm = rm(1, 2);
        let app = rm.submit_application();
        let granted = rm.allocate(app, &[any_req(Priority::MAP, 3)], &[]);
        assert_eq!(granted.len(), 2, "only 2 fit");
        // Finish one container; the pending request is served on the next
        // scheduling opportunity, picked up at the next heartbeat.
        rm.finish_container(granted[0].id);
        let granted2 = rm.allocate(app, &[], &[]);
        assert_eq!(granted2.len(), 1);
        assert_eq!(rm.live_containers(), 2);
    }

    #[test]
    fn finished_container_reopens_a_skipped_pass() {
        let mut rm = rm(1, 2);
        let app = rm.submit_application();
        let granted = rm.allocate(app, &[any_req(Priority::MAP, 3)], &[]);
        assert_eq!(granted.len(), 2);
        // The AM re-sends the row the RM already holds: nothing changed,
        // so the pass is skipped and nothing is granted.
        assert!(rm
            .allocate(app, &[any_req(Priority::MAP, 1)], &[])
            .is_empty());
        // Freed capacity is a changed input: the next heartbeat grants.
        rm.finish_container(granted[0].id);
        let granted2 = rm.allocate(app, &[any_req(Priority::MAP, 1)], &[]);
        assert_eq!(granted2.len(), 1);
    }

    #[test]
    fn fifo_across_applications() {
        let mut rm = rm(1, 2);
        let app0 = rm.submit_application();
        let app1 = rm.submit_application();
        // Both ask before any scheduling runs: update asks without
        // triggering allocation for app1 first.
        let r0 = rm.allocate(app0, &[any_req(Priority::MAP, 2)], &[]);
        assert_eq!(r0.len(), 2);
        let r1 = rm.allocate(app1, &[any_req(Priority::MAP, 2)], &[]);
        assert!(r1.is_empty(), "app0 holds the cluster");
        // app0 finishes everything → app1 gets served.
        rm.unregister_application(app0);
        let r1b = rm.allocate(app1, &[], &[]);
        assert_eq!(r1b.len(), 2);
    }

    #[test]
    fn unregister_reclaims_resources() {
        let mut rm = rm(2, 2);
        let app = rm.submit_application();
        rm.allocate(app, &[any_req(Priority::MAP, 4)], &[]);
        assert_eq!(rm.live_containers(), 4);
        rm.unregister_application(app);
        assert_eq!(rm.live_containers(), 0);
        let avail = rm
            .cluster()
            .nodes()
            .iter()
            .fold(ResourceVector::ZERO, |acc, n| acc + n.available());
        assert_eq!(avail, ResourceVector::new(4096, 4));
    }

    #[test]
    fn release_via_heartbeat() {
        let mut rm = rm(1, 1);
        let app = rm.submit_application();
        let granted = rm.allocate(app, &[any_req(Priority::MAP, 1)], &[]);
        let cid = granted[0].id;
        rm.allocate(app, &[], &[cid]);
        assert_eq!(rm.live_containers(), 0);
    }
}
