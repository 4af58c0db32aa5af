//! The MapReduce ApplicationMaster.
//!
//! Re-implements the scheduling behaviour of Hadoop's
//! `RMContainerAllocator` that the paper extracts from the source code
//! (§3.3–3.4):
//!
//! * map containers are requested at priority 20, reduce containers at
//!   priority 10 (higher numeric value served first, paper convention);
//! * map requests carry node-locality rows derived from split replica
//!   hosts plus the authoritative `*` row. The AM keeps its waiting
//!   counts (per replica node, per task type) current as tasks change
//!   state, so a heartbeat's ask costs one pass over the nodes, not one
//!   over every map's replicas;
//! * reduces are *slow-started*: none are requested until the configured
//!   fraction of maps completed (default 5%); afterwards they ramp with
//!   map progress and are all requested once every map is assigned;
//! * tasks move pending → scheduled → assigned → completed (Figs. 2–3);
//! * the AM performs second-level scheduling (late binding): an arriving
//!   container is matched to whichever pending task has data closest to
//!   it, falling back from node-local to any.
//!
//! Per-task state lives in vectors indexed by task, maps first and then
//! reduces: the timing records (`records`) and each task's current
//! container. Nothing is hashed.

use crate::config::SimConfig;
use crate::job::{JobId, JobSpec, TaskId};
use crate::metrics::TaskRecord;
use hdfs_sim::{InputSplit, NodeId, RackId, Topology};
use yarn_sim::{AppId, Container, ContainerId, Location, Priority, ResourceRequest};

/// Priority of the AM's own container (above maps).
pub const AM_PRIORITY: Priority = Priority(30);

/// Task lifecycle states — the paper's §3.4 vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Known to the AM, request not yet sent to the RM.
    Pending,
    /// Request sent to the RM, no container yet.
    Scheduled,
    /// Bound to a container.
    Assigned,
    /// Finished.
    Completed,
}

/// What the driver should do with a granted container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantAction {
    /// It is the AM's own container: start the AM.
    StartAm,
    /// Launch this task in it.
    StartTask(TaskId),
    /// Nothing to run (over-allocation): release it.
    Release,
}

/// Per-job ApplicationMaster state machine.
#[cfg_attr(test, derive(Clone))]
pub struct MrAppMaster {
    /// Workload index of this job.
    pub job: JobId,
    /// Job dataflow statistics.
    pub spec: JobSpec,
    /// YARN application id.
    pub app: AppId,
    /// Input splits (one per map).
    pub splits: Vec<InputSplit>,
    /// Submission time (set by the driver).
    pub submitted_at: f64,
    /// When the AM container came up.
    pub am_started_at: f64,
    /// The AM's own container, once granted.
    pub am_container: Option<ContainerId>,
    /// Whether the AM is up and may ask for task containers.
    pub am_started: bool,
    /// True once every reduce (or every map, if map-only) completed.
    pub done: bool,
    /// Completion time, valid when `done`.
    pub finished_at: f64,

    map_state: Vec<TaskState>,
    reduce_state: Vec<TaskState>,
    /// `Scheduled` maps with a replica on each node, indexed by node id.
    maps_waiting_on: Vec<u32>,
    /// `Scheduled` maps.
    maps_waiting: u32,
    /// `Scheduled` reduces.
    reduces_waiting: u32,
    /// Completed map count.
    pub maps_completed: u32,
    /// Completed reduce count.
    pub reduces_completed: u32,
    maps_asked: bool,
    am_asked: bool,
    /// Cumulative reduce containers requested so far (ramp-up state).
    reduces_requested: u32,
    /// The container each task's current attempt holds, indexed like
    /// `records`.
    container_of: Vec<Option<ContainerId>>,
    /// Node each map ran on (shuffle source locality).
    pub map_node: Vec<Option<NodeId>>,
    /// Node each reduce runs on.
    pub reduce_node: Vec<Option<NodeId>>,
    pending_release: Vec<ContainerId>,
    /// Timing records, indexed by task — maps `0..m`, then reduces
    /// `m..m + r` — and filled in as tasks progress: `None` until a task
    /// is first requested.
    pub records: Vec<Option<TaskRecord>>,
    /// Failed attempts per job (for metrics and tests).
    pub failed_attempts: u32,
}

impl MrAppMaster {
    /// Fresh AM for `spec` with `splits` as map inputs.
    pub fn new(job: JobId, spec: JobSpec, app: AppId, splits: Vec<InputSplit>) -> Self {
        let m = splits.len();
        let r = spec.reduces as usize;
        let nodes = splits
            .iter()
            .flat_map(|s| &s.hosts)
            .map(|h| h.0 as usize + 1)
            .max()
            .unwrap_or(0);
        MrAppMaster {
            job,
            spec,
            app,
            splits,
            submitted_at: 0.0,
            am_started_at: f64::NAN,
            am_container: None,
            am_started: false,
            done: false,
            finished_at: f64::NAN,
            map_state: vec![TaskState::Pending; m],
            reduce_state: vec![TaskState::Pending; r],
            maps_waiting_on: vec![0; nodes],
            maps_waiting: 0,
            reduces_waiting: 0,
            maps_completed: 0,
            reduces_completed: 0,
            maps_asked: false,
            am_asked: false,
            reduces_requested: 0,
            container_of: vec![None; m + r],
            map_node: vec![None; m],
            reduce_node: vec![None; r],
            pending_release: Vec::new(),
            records: vec![None; m + r],
            failed_attempts: 0,
        }
    }

    /// Index of a task in `records`: maps first, then reduces.
    fn slot(&self, t: TaskId) -> usize {
        match t {
            TaskId::Map(i) => i as usize,
            TaskId::Reduce(i) => self.splits.len() + i as usize,
        }
    }

    /// The timing record of a requested task.
    fn record_mut(&mut self, t: TaskId) -> Option<&mut TaskRecord> {
        let slot = self.slot(t);
        self.records[slot].as_mut()
    }

    /// Number of map tasks.
    pub fn num_maps(&self) -> u32 {
        self.splits.len() as u32
    }

    /// Number of reduce tasks.
    pub fn num_reduces(&self) -> u32 {
        self.reduce_state.len() as u32
    }

    /// State of a task.
    pub fn state_of(&self, t: TaskId) -> TaskState {
        match t {
            TaskId::Map(i) => self.map_state[i as usize],
            TaskId::Reduce(i) => self.reduce_state[i as usize],
        }
    }

    /// Whether the slow-start threshold has been reached.
    pub fn slowstart_met(&self, cfg: &SimConfig) -> bool {
        let m = self.num_maps();
        if m == 0 {
            return true;
        }
        let needed = (cfg.slowstart * m as f64).ceil().max(1.0) as u32;
        self.maps_completed >= needed
    }

    /// Build this heartbeat's absolute ask (YARN semantics: counts replace
    /// earlier ones). Marks newly requested tasks `Scheduled`.
    ///
    /// Every row is re-sent on every heartbeat, from the waiting counts
    /// the AM keeps as tasks change state: the map node rows in ascending
    /// node id, then the rack rows (each rack's node counts summed) in
    /// ascending rack id, then the map `*` row and the reduce `*` row.
    /// The absolute re-send is what overwrites the RM's decrements for
    /// grants this AM has not picked up yet.
    pub fn build_asks(
        &mut self,
        now: f64,
        topo: &Topology,
        cfg: &SimConfig,
    ) -> Vec<ResourceRequest> {
        let mut asks = Vec::new();

        if !self.am_asked {
            self.am_asked = true;
            asks.push(ResourceRequest {
                num_containers: 1,
                priority: AM_PRIORITY,
                capability: cfg.am_container_size,
                location: Location::Any,
                relax_locality: true,
            });
        }
        if !self.am_started || self.done {
            return asks;
        }

        // Map ask: every map is requested on the first heartbeat after
        // the AM starts, and the rows then follow the waiting counts.
        if !self.maps_asked {
            self.maps_asked = true;
            for i in 0..self.splits.len() {
                if self.map_state[i] == TaskState::Pending {
                    let t = TaskId::Map(i as u32);
                    self.set_state(t, TaskState::Scheduled);
                    self.records[i] = Some(blank_record(t, now));
                }
            }
        }
        if self.maps_waiting > 0 {
            let map_row = |num_containers, location| ResourceRequest {
                num_containers,
                priority: Priority::MAP,
                capability: cfg.container_size,
                location,
                relax_locality: true,
            };
            let mut per_rack: Vec<u32> = Vec::new();
            for (n, &c) in self.maps_waiting_on.iter().enumerate() {
                if c > 0 {
                    let node = NodeId(n as u32);
                    asks.push(map_row(c, Location::Node(node)));
                    let rack = topo.rack_of(node).0 as usize;
                    if per_rack.len() <= rack {
                        per_rack.resize(rack + 1, 0);
                    }
                    per_rack[rack] += c;
                }
            }
            for (r, &c) in per_rack.iter().enumerate() {
                if c > 0 {
                    asks.push(map_row(c, Location::Rack(RackId(r as u32))));
                }
            }
            asks.push(map_row(self.maps_waiting, Location::Any));
        }

        // Reduce ask: slow start, then ramp with map progress (§4.2.2:
        // "schedule reduce tasks based on the percentage of completed map
        // tasks ... otherwise, schedule all reduce tasks"). Map output
        // locality is NOT considered: the request asks for any host. No
        // map is `Pending` once the map ask went out, so "no waiting map"
        // means every map is assigned or completed.
        let r = self.num_reduces();
        if r > 0 && self.slowstart_met(cfg) {
            let m = self.num_maps();
            let target = if self.maps_waiting == 0 {
                r
            } else {
                ((r as f64 * self.maps_completed as f64 / m as f64).floor() as u32).max(1)
            };
            if target > self.reduces_requested {
                for i in self.reduces_requested..target {
                    let t = TaskId::Reduce(i);
                    self.set_state(t, TaskState::Scheduled);
                    let slot = self.slot(t);
                    self.records[slot] = Some(blank_record(t, now));
                }
                self.reduces_requested = target;
            }
            if self.reduces_waiting > 0 {
                asks.push(ResourceRequest {
                    num_containers: self.reduces_waiting,
                    priority: Priority::REDUCE,
                    capability: cfg.container_size,
                    location: Location::Any,
                    relax_locality: true,
                });
            }
        }
        asks
    }

    /// Containers to release on the next heartbeat.
    pub fn take_releases(&mut self) -> Vec<ContainerId> {
        std::mem::take(&mut self.pending_release)
    }

    /// Second-level scheduling: match a granted container to a task
    /// (data-local first, then any waiting task of the right type).
    pub fn on_grant(&mut self, now: f64, c: &Container) -> GrantAction {
        if c.priority == AM_PRIORITY {
            self.am_container = Some(c.id);
            return GrantAction::StartAm;
        }
        let task = if c.priority == Priority::MAP {
            let local = (0..self.splits.len()).find(|&i| {
                self.map_state[i] == TaskState::Scheduled && self.splits[i].hosts.contains(&c.node)
            });
            let any = local.or_else(|| {
                (0..self.splits.len()).find(|&i| self.map_state[i] == TaskState::Scheduled)
            });
            any.map(|i| TaskId::Map(i as u32))
        } else {
            (0..self.reduce_state.len())
                .find(|&i| self.reduce_state[i] == TaskState::Scheduled)
                .map(|i| TaskId::Reduce(i as u32))
        };
        match task {
            None => GrantAction::Release,
            Some(t) => {
                self.set_state(t, TaskState::Assigned);
                let slot = self.slot(t);
                self.container_of[slot] = Some(c.id);
                match t {
                    TaskId::Map(i) => self.map_node[i as usize] = Some(c.node),
                    TaskId::Reduce(i) => self.reduce_node[i as usize] = Some(c.node),
                }
                if let Some(rec) = self.record_mut(t) {
                    rec.assigned_at = now;
                    rec.node = c.node;
                }
                GrantAction::StartTask(t)
            }
        }
    }

    /// Task `t`'s container finished launching; work begins. Returns
    /// false, and records nothing, when `container` no longer holds
    /// `t`'s current attempt.
    pub fn on_task_started(&mut self, now: f64, t: TaskId, container: ContainerId) -> bool {
        if self.container_of[self.slot(t)] != Some(container) {
            return false;
        }
        if let Some(rec) = self.record_mut(t) {
            rec.started_at = now;
        }
        true
    }

    /// Record a phase boundary on a task's record.
    pub fn mark(&mut self, t: TaskId, field: PhaseMark, now: f64) {
        if let Some(rec) = self.record_mut(t) {
            match field {
                PhaseMark::IoDone => rec.io_done_at = now,
                PhaseMark::CpuDone => rec.cpu_done_at = now,
            }
        }
    }

    /// A task finished; queue its container for release. Returns true if
    /// this completion finished the whole job.
    pub fn on_task_finished(&mut self, now: f64, t: TaskId) -> bool {
        self.set_state(t, TaskState::Completed);
        if let Some(rec) = self.record_mut(t) {
            rec.finished_at = now;
        }
        let slot = self.slot(t);
        if let Some(c) = self.container_of[slot].take() {
            self.pending_release.push(c);
        }
        match t {
            TaskId::Map(_) => self.maps_completed += 1,
            TaskId::Reduce(_) => self.reduces_completed += 1,
        }
        let job_done =
            self.maps_completed == self.num_maps() && self.reduces_completed == self.num_reduces();
        if job_done {
            self.done = true;
            self.finished_at = now;
        }
        job_done
    }

    /// A task attempt failed: release its container and put the task back
    /// to `Scheduled` so the next heartbeat re-requests a container
    /// (Hadoop's task-retry path at the granularity this model needs).
    pub fn on_task_failed(&mut self, _now: f64, t: TaskId) {
        self.failed_attempts += 1;
        self.set_state(t, TaskState::Scheduled);
        match t {
            TaskId::Map(i) => self.map_node[i as usize] = None,
            TaskId::Reduce(i) => self.reduce_node[i as usize] = None,
        }
        let slot = self.slot(t);
        if let Some(c) = self.container_of[slot].take() {
            self.pending_release.push(c);
        }
    }

    /// The one place task states change: keeps the waiting counts that
    /// [`build_asks`](Self::build_asks) reads in step with the states.
    fn set_state(&mut self, t: TaskId, s: TaskState) {
        let state = match t {
            TaskId::Map(i) => &mut self.map_state[i as usize],
            TaskId::Reduce(i) => &mut self.reduce_state[i as usize],
        };
        let was = std::mem::replace(state, s);
        let joins = s == TaskState::Scheduled;
        if (was == TaskState::Scheduled) == joins {
            return;
        }
        let bump = |c: &mut u32| {
            if joins {
                *c += 1
            } else {
                *c -= 1
            }
        };
        match t {
            TaskId::Map(i) => {
                bump(&mut self.maps_waiting);
                for h in &self.splits[i as usize].hosts {
                    bump(&mut self.maps_waiting_on[h.0 as usize]);
                }
            }
            TaskId::Reduce(_) => bump(&mut self.reduces_waiting),
        }
    }
}

/// Which record field a phase boundary updates.
#[derive(Debug, Clone, Copy)]
pub enum PhaseMark {
    /// End of read (map) / shuffle (reduce).
    IoDone,
    /// End of the CPU phase.
    CpuDone,
}

fn blank_record(task: TaskId, scheduled_at: f64) -> TaskRecord {
    TaskRecord {
        task,
        node: NodeId(0),
        scheduled_at,
        assigned_at: f64::NAN,
        started_at: f64::NAN,
        io_done_at: f64::NAN,
        cpu_done_at: f64::NAN,
        finished_at: f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, MB};
    use crate::workload::wordcount;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use yarn_sim::{ContainerState, ResourceVector};

    fn mk_am(maps: usize, reduces: u32) -> MrAppMaster {
        let spec = {
            let mut s = wordcount(maps as u64 * 128 * MB, reduces);
            s.reduces = reduces;
            s
        };
        let splits: Vec<InputSplit> = (0..maps)
            .map(|i| InputSplit {
                index: i,
                len: 128 * MB,
                hosts: vec![NodeId((i % 2) as u32)],
            })
            .collect();
        MrAppMaster::new(JobId(0), spec, AppId(0), splits)
    }

    fn grant(node: u32, p: Priority, id: u64) -> Container {
        Container {
            id: ContainerId(id),
            node: NodeId(node),
            resource: ResourceVector::new(1024, 1),
            priority: p,
            state: ContainerState::Acquired,
        }
    }

    #[test]
    fn am_asks_for_itself_first() {
        let mut am = mk_am(4, 1);
        let cfg = SimConfig::default();
        let topo = Topology::single_rack(2);
        let asks = am.build_asks(0.0, &topo, &cfg);
        assert_eq!(asks.len(), 1);
        assert_eq!(asks[0].priority, AM_PRIORITY);
        // Until the AM starts, no task asks.
        let asks2 = am.build_asks(1.0, &topo, &cfg);
        assert!(asks2.is_empty());
    }

    #[test]
    fn map_ask_carries_locality_rows() {
        let mut am = mk_am(4, 1);
        let cfg = SimConfig::default();
        let topo = Topology::single_rack(2);
        am.build_asks(0.0, &topo, &cfg);
        am.am_started = true;
        let asks = am.build_asks(1.0, &topo, &cfg);
        // 2 node rows (n0: 2 maps, n1: 2 maps) + 1 rack row + 1 any row.
        let node_rows: Vec<_> = asks
            .iter()
            .filter(|a| matches!(a.location, Location::Node(_)))
            .collect();
        assert_eq!(node_rows.len(), 2);
        assert!(node_rows.iter().all(|a| a.num_containers == 2));
        let any: Vec<_> = asks
            .iter()
            .filter(|a| a.location == Location::Any && a.priority == Priority::MAP)
            .collect();
        assert_eq!(any.len(), 1);
        assert_eq!(any[0].num_containers, 4);
        // No reduce ask yet: slow start unmet (0 maps completed).
        assert!(asks.iter().all(|a| a.priority != Priority::REDUCE));
    }

    #[test]
    fn late_binding_prefers_local_map() {
        let mut am = mk_am(4, 0);
        let cfg = SimConfig::default();
        let topo = Topology::single_rack(2);
        am.build_asks(0.0, &topo, &cfg);
        am.am_started = true;
        am.build_asks(1.0, &topo, &cfg);
        // Container on n1 → should get map 1 (first map with replica on n1).
        match am.on_grant(2.0, &grant(1, Priority::MAP, 10)) {
            GrantAction::StartTask(TaskId::Map(i)) => assert_eq!(i, 1),
            other => panic!("unexpected {other:?}"),
        }
        // Next container on n1 → map 3.
        match am.on_grant(2.0, &grant(1, Priority::MAP, 11)) {
            GrantAction::StartTask(TaskId::Map(i)) => assert_eq!(i, 3),
            other => panic!("unexpected {other:?}"),
        }
        // Container on unknown node n5 → falls back to any waiting map.
        match am.on_grant(2.0, &grant(5, Priority::MAP, 12)) {
            GrantAction::StartTask(TaskId::Map(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn surplus_container_released() {
        let mut am = mk_am(1, 0);
        let cfg = SimConfig::default();
        let topo = Topology::single_rack(2);
        am.build_asks(0.0, &topo, &cfg);
        am.am_started = true;
        am.build_asks(1.0, &topo, &cfg);
        assert!(matches!(
            am.on_grant(2.0, &grant(0, Priority::MAP, 1)),
            GrantAction::StartTask(_)
        ));
        assert_eq!(
            am.on_grant(2.0, &grant(0, Priority::MAP, 2)),
            GrantAction::Release
        );
    }

    #[test]
    fn slowstart_gates_reduce_ask() {
        let mut am = mk_am(20, 4);
        let cfg = SimConfig::default(); // slowstart 5% → 1 map
        let topo = Topology::single_rack(2);
        am.build_asks(0.0, &topo, &cfg);
        am.am_started = true;
        am.build_asks(1.0, &topo, &cfg);
        assert!(!am.slowstart_met(&cfg));
        // Assign and complete one map.
        let action = am.on_grant(2.0, &grant(0, Priority::MAP, 1));
        let t = match action {
            GrantAction::StartTask(t) => t,
            _ => panic!(),
        };
        am.on_task_started(2.5, t, ContainerId(1));
        am.on_task_finished(10.0, t);
        assert!(am.slowstart_met(&cfg));
        let asks = am.build_asks(11.0, &topo, &cfg);
        let red: Vec<_> = asks
            .iter()
            .filter(|a| a.priority == Priority::REDUCE)
            .collect();
        // Ramp: 4 reduces × 1/20 completed → max(floor(0.2),1) = 1.
        assert_eq!(red.len(), 1);
        assert_eq!(red[0].num_containers, 1);
    }

    #[test]
    fn map_only_job_completes() {
        let mut am = mk_am(2, 0);
        let cfg = SimConfig::default();
        let topo = Topology::single_rack(2);
        am.build_asks(0.0, &topo, &cfg);
        am.am_started = true;
        am.build_asks(1.0, &topo, &cfg);
        for (k, id) in [(0u64, 1u64), (1, 2)] {
            let t = match am.on_grant(2.0, &grant(k as u32, Priority::MAP, id)) {
                GrantAction::StartTask(t) => t,
                _ => panic!(),
            };
            am.on_task_started(3.0, t, ContainerId(id));
            let done = am.on_task_finished(20.0 + k as f64, t);
            assert_eq!(done, k == 1);
        }
        assert!(am.done);
        assert_eq!(am.take_releases().len(), 2);
    }

    /// The ask as the AM built it before it kept waiting counts: a scan
    /// of every map and reduce, with per-node and per-rack `HashMap`s over
    /// every waiting map's replica hosts. Kept verbatim as the oracle.
    fn reference_asks(
        am: &mut MrAppMaster,
        now: f64,
        topo: &Topology,
        cfg: &SimConfig,
    ) -> Vec<ResourceRequest> {
        let mut asks = Vec::new();

        if !am.am_asked {
            am.am_asked = true;
            asks.push(ResourceRequest {
                num_containers: 1,
                priority: AM_PRIORITY,
                capability: cfg.am_container_size,
                location: Location::Any,
                relax_locality: true,
            });
        }
        if !am.am_started || am.done {
            return asks;
        }

        // Map ask: recomputed every heartbeat from still-waiting maps.
        if !am.maps_asked {
            am.maps_asked = true;
            for (i, s) in am.map_state.iter_mut().enumerate() {
                if *s == TaskState::Pending {
                    *s = TaskState::Scheduled;
                    am.records[i] = Some(blank_record(TaskId::Map(i as u32), now));
                }
            }
        }
        let waiting: Vec<usize> = (0..am.splits.len())
            .filter(|&i| am.map_state[i] == TaskState::Scheduled)
            .collect();
        if !waiting.is_empty() {
            let mut per_node: HashMap<NodeId, u32> = HashMap::new();
            let mut per_rack: HashMap<hdfs_sim::RackId, u32> = HashMap::new();
            for &i in &waiting {
                for &h in &am.splits[i].hosts {
                    *per_node.entry(h).or_insert(0) += 1;
                    *per_rack.entry(topo.rack_of(h)).or_insert(0) += 1;
                }
            }
            let mut nodes: Vec<_> = per_node.into_iter().collect();
            nodes.sort_by_key(|&(n, _)| n);
            for (n, c) in nodes {
                asks.push(ResourceRequest {
                    num_containers: c,
                    priority: Priority::MAP,
                    capability: cfg.container_size,
                    location: Location::Node(n),
                    relax_locality: true,
                });
            }
            let mut racks: Vec<_> = per_rack.into_iter().collect();
            racks.sort_by_key(|&(r, _)| r);
            for (r, c) in racks {
                asks.push(ResourceRequest {
                    num_containers: c,
                    priority: Priority::MAP,
                    capability: cfg.container_size,
                    location: Location::Rack(r),
                    relax_locality: true,
                });
            }
            asks.push(ResourceRequest {
                num_containers: waiting.len() as u32,
                priority: Priority::MAP,
                capability: cfg.container_size,
                location: Location::Any,
                relax_locality: true,
            });
        }

        let r = am.num_reduces();
        if r > 0 && am.slowstart_met(cfg) {
            let m = am.num_maps();
            let all_maps_assigned = am
                .map_state
                .iter()
                .all(|s| matches!(s, TaskState::Assigned | TaskState::Completed));
            let target = if all_maps_assigned {
                r
            } else {
                ((r as f64 * am.maps_completed as f64 / m as f64).floor() as u32).max(1)
            };
            if target > am.reduces_requested {
                for i in am.reduces_requested..target {
                    am.reduce_state[i as usize] = TaskState::Scheduled;
                    am.records[(m + i) as usize] = Some(blank_record(TaskId::Reduce(i), now));
                }
                am.reduces_requested = target;
            }
            let waiting_reduces = (0..r as usize)
                .filter(|&i| am.reduce_state[i] == TaskState::Scheduled)
                .count() as u32;
            if waiting_reduces > 0 {
                asks.push(ResourceRequest {
                    num_containers: waiting_reduces,
                    priority: Priority::REDUCE,
                    capability: cfg.container_size,
                    location: Location::Any,
                    relax_locality: true,
                });
            }
        }
        asks
    }

    /// `build_asks` against the oracle on a copy of the AM: the same rows
    /// in the same order, and the same task states afterwards.
    fn heartbeat_matches_reference(am: &mut MrAppMaster, now: f64, topo: &Topology) {
        let cfg = SimConfig::default();
        let mut shadow = am.clone();
        let want = reference_asks(&mut shadow, now, topo, &cfg);
        let got = am.build_asks(now, topo, &cfg);
        assert_eq!(got, want, "asks at t={now}");
        assert_eq!(am.map_state, shadow.map_state);
        assert_eq!(am.reduce_state, shadow.reduce_state);
        assert_eq!(am.reduces_requested, shadow.reduces_requested);
    }

    #[test]
    fn waiting_counts_match_a_full_recount() {
        // Three racks, so the rack rows sum node counts across racks;
        // the simulator itself only ever builds one.
        let topo = Topology::with_racks(&[3, 2, 4]);
        let nodes = topo.num_nodes() as u32;
        let (mut failures, mut surplus) = (0, 0);
        for seed in 0..40 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let maps = rng.gen_range(1..40usize);
            let reduces = rng.gen_range(0..6u32);
            let splits = (0..maps)
                .map(|index| {
                    let replicas = rng.gen_range(1..=3usize);
                    let mut hosts = Vec::new();
                    while hosts.len() < replicas {
                        let h = NodeId(rng.gen_range(0..nodes));
                        if !hosts.contains(&h) {
                            hosts.push(h);
                        }
                    }
                    InputSplit {
                        index,
                        len: 128 * MB,
                        hosts,
                    }
                })
                .collect();
            let mut spec = wordcount(maps as u64 * 128 * MB, reduces);
            spec.reduces = reduces;
            let mut am = MrAppMaster::new(JobId(0), spec, AppId(0), splits);
            heartbeat_matches_reference(&mut am, 0.0, &topo);
            am.am_started = true;

            // Granted tasks, and whether each has started.
            let mut running: Vec<(ContainerId, TaskId, bool)> = Vec::new();
            let mut next_id = 0;
            let mut now = 0.0;
            while !am.done {
                now += 1.0;
                heartbeat_matches_reference(&mut am, now, &topo);
                match rng.gen_range(0..10u32) {
                    // A grant on a random node: local to some waiting
                    // maps, not to others, or surplus.
                    0..=3 => {
                        let p = if rng.gen_bool(0.7) {
                            Priority::MAP
                        } else {
                            Priority::REDUCE
                        };
                        let c = grant(rng.gen_range(0..nodes), p, next_id);
                        next_id += 1;
                        match am.on_grant(now, &c) {
                            GrantAction::StartTask(t) => running.push((c.id, t, false)),
                            GrantAction::Release => surplus += 1,
                            GrantAction::StartAm => unreachable!("no AM-priority grant"),
                        }
                    }
                    4..=5 if !running.is_empty() => {
                        let k = rng.gen_range(0..running.len());
                        if !running[k].2 {
                            running[k].2 = am.on_task_started(now, running[k].1, running[k].0);
                        }
                    }
                    6..=8 => {
                        if let Some(k) = running.iter().position(|r| r.2) {
                            let (_, t, _) = running.swap_remove(k);
                            am.on_task_finished(now, t);
                        }
                    }
                    // A started map attempt fails: back to waiting.
                    _ => {
                        if let Some(k) = running
                            .iter()
                            .position(|r| r.2 && matches!(r.1, TaskId::Map(_)))
                        {
                            let (_, t, _) = running.swap_remove(k);
                            am.on_task_failed(now, t);
                            failures += 1;
                        }
                    }
                }
            }
            heartbeat_matches_reference(&mut am, now + 1.0, &topo);
        }
        assert!(
            failures > 0 && surplus > 0,
            "{failures} failures, {surplus} surplus"
        );
    }
}
