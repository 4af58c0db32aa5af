//! The cluster simulator: wires AMs, the RM, and per-node fair-share
//! resources into one discrete-event loop.
//!
//! This is the repo's stand-in for the paper's *real Hadoop 2.x setup*:
//! the measurements it produces (median job response times over repeated
//! seeds) are what the analytic model's estimates are validated against.
//!
//! Task execution model (phase granularity, per Herodotou's decomposition):
//!
//! * **map**: read split (local disk, or NIC when non-local) → map-function
//!   CPU → spill/merge writes to local disk;
//! * **reduce**: shuffle fetches (one flow per map: local disk read when
//!   the map ran on the same node, otherwise the receiver NIC) → sort
//!   (disk) → reduce-function CPU → output write (disk) → replication
//!   pipeline (NIC).
//!
//! Resource contention is emergent: all flows on a node share its disk,
//! NIC, and CPU fair-share resources, so concurrent tasks slow each other
//! down exactly the way the paper's queueing network is meant to capture.
//!
//! Completion ticks are armed once per handler. An admission only notes
//! its resource as touched; when the event's handler returns, each
//! touched resource gets one tick at its next completion, in the order
//! of its last admission. A resource tick's own resource keeps its place
//! in that order if a finished step admitted to it, and goes last
//! otherwise. That order and those times are what a tick armed at every
//! admission would give the ticks that stay live, because nothing
//! changes a resource between its last admission and the end of the
//! handler; every other such tick would be stale, or pop after its live
//! twin and find nothing to collect. So a tick in the calendar goes
//! stale only when a later event changes its resource.

use crate::appmaster::{GrantAction, MrAppMaster, PhaseMark};
use crate::config::SimConfig;
use crate::job::{cpu_seconds, JobId, JobSpec, TaskId};
use crate::metrics::JobResult;
use hdfs_sim::{splits_for_file, Namespace, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simcore::{Engine, FairShare, LogNormal, SimTime};
use yarn_sim::{ClusterState, ContainerId, ResourceManager};

/// Which fair-share resource on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResKind {
    /// CPU cores.
    Cpu,
    /// Disk bandwidth.
    Disk,
    /// NIC bandwidth.
    Nic,
}

/// A (resource kind, node) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResKey {
    /// Kind of resource.
    pub kind: ResKind,
    /// Node index.
    pub node: u32,
}

/// Execution phase of a step inside a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Map: read the input split.
    Read,
    /// Map: map-function CPU.
    MapCpu,
    /// Map: spill/merge output to disk.
    Spill,
    /// Reduce: fetch the given map's output partition.
    Fetch(u32),
    /// Reduce: on-disk sort/merge.
    Sort,
    /// Reduce: reduce-function CPU.
    ReduceCpu,
    /// Reduce: write job output locally.
    Write,
    /// Reduce: replication pipeline traffic.
    Replicate,
}

/// One unit of in-flight work on a resource.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Owning job index.
    pub job: u32,
    /// Owning task.
    pub task: TaskId,
    /// Which phase this step is.
    pub phase: Phase,
}

/// Simulation events.
#[derive(Debug)]
enum Ev {
    Submit(u32),
    Heartbeat(u32),
    /// A granted container finished launching: the AM's own
    /// (`task: None`) or one running `task`.
    ContainerStarted {
        job: u32,
        task: Option<TaskId>,
        container: ContainerId,
    },
    ResourceTick {
        res: ResKey,
        gen: u64,
    },
}

/// Fair-share resources of one node.
struct NodeRes {
    cpu: FairShare<Step>,
    disk: FairShare<Step>,
    nic: FairShare<Step>,
}

impl NodeRes {
    fn get(&mut self, kind: ResKind) -> &mut FairShare<Step> {
        match kind {
            ResKind::Cpu => &mut self.cpu,
            ResKind::Disk => &mut self.disk,
            ResKind::Nic => &mut self.nic,
        }
    }
}

/// Per-reduce shuffle bookkeeping.
#[derive(Debug, Clone, Default)]
struct ReduceShuffle {
    launched: bool,
    fetches_admitted: u32,
    fetches_done: u32,
    bytes: u64,
}

/// The whole-cluster discrete-event simulator.
pub struct ClusterSim {
    /// Configuration the simulator was built with.
    pub cfg: SimConfig,
    topo: Topology,
    ns: Namespace,
    engine: Engine<Ev>,
    rm: ResourceManager,
    nodes: Vec<NodeRes>,
    ams: Vec<MrAppMaster>,
    shuffles: Vec<Vec<ReduceShuffle>>,
    /// Actual map output bytes per (job, map).
    map_out: Vec<Vec<u64>>,
    submit_at: Vec<f64>,
    rng: SmallRng,
    jitter: Option<LogNormal>,
    /// Map attempts doomed to fail partway through their map-function
    /// CPU phase: (job, map, fraction of CPU work done before dying).
    failing: Vec<(u32, u32, f64)>,
    /// Resources the current handler admitted to, in the order of their
    /// last admission; armed and cleared when it returns.
    touched: Vec<ResKey>,
    /// Reused buffer for the steps a resource tick collects.
    finished: Vec<Step>,
}

impl ClusterSim {
    /// Build an empty cluster from `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        let topo = Topology::single_rack(cfg.nodes);
        let cluster = ClusterState::homogeneous(topo.clone(), cfg.node_capacity);
        let rm = ResourceManager::new(cluster, cfg.scheduler);
        let nodes = (0..cfg.nodes)
            .map(|i| {
                // Straggler injection: node 0 runs `slow_node_factor`×
                // slower across every resource, so any task placed there
                // straggles the way it would on one degraded machine.
                let slow = if i == 0 { cfg.slow_node_factor } else { 1.0 };
                NodeRes {
                    cpu: FairShare::new(cfg.cpu_cores / slow, 1.0 / slow),
                    disk: FairShare::new(cfg.disk_bw / slow, cfg.disk_bw / slow),
                    nic: FairShare::new(cfg.nic_bw / slow, cfg.nic_bw / slow),
                }
            })
            .collect();
        let jitter = if cfg.jitter_cv > 0.0 {
            Some(LogNormal {
                mean: 1.0,
                cv: cfg.jitter_cv,
            })
        } else {
            None
        };
        let seed = cfg.seed;
        ClusterSim {
            cfg,
            topo,
            ns: Namespace::new(3),
            engine: Engine::new(),
            rm,
            nodes,
            ams: Vec::new(),
            shuffles: Vec::new(),
            map_out: Vec::new(),
            submit_at: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            jitter,
            failing: Vec::new(),
            touched: Vec::new(),
            finished: Vec::new(),
        }
    }

    /// Register a job to be submitted at `submit_at` seconds. Writes its
    /// input file into the simulated HDFS and registers the application.
    pub fn add_job(&mut self, spec: JobSpec, submit_at: f64) -> JobId {
        spec.validate();
        let idx = self.ams.len() as u32;
        let file = self.ns.create_file(
            &self.topo,
            &format!("/job{idx}/input"),
            spec.input_bytes,
            self.cfg.block_size,
            None,
            &mut self.rng,
        );
        let splits = splits_for_file(file);
        let app = self.rm.submit_application();
        let reduces = spec.reduces as usize;
        self.ams
            .push(MrAppMaster::new(JobId(idx), spec, app, splits));
        self.shuffles.push(vec![ReduceShuffle::default(); reduces]);
        self.map_out.push(Vec::new());
        self.submit_at.push(submit_at);
        JobId(idx)
    }

    /// Run every registered job to completion; returns per-job results in
    /// submission order.
    pub fn run(&mut self) -> Vec<JobResult> {
        for (i, &t) in self.submit_at.iter().enumerate() {
            self.engine
                .schedule_at(SimTime::from_secs(t), Ev::Submit(i as u32));
        }
        while let Some((t, ev)) = self.engine.next() {
            let now = t.as_secs();
            match ev {
                Ev::Submit(j) => self.on_submit(now, j),
                Ev::Heartbeat(j) => self.on_heartbeat(now, j),
                Ev::ContainerStarted {
                    job,
                    task,
                    container,
                } => self.on_container_started(now, job, task, container),
                Ev::ResourceTick { res, gen } => self.on_resource_tick(t, res, gen),
            }
            self.arm_touched(t);
        }
        assert!(
            self.ams.iter().all(|a| a.done),
            "simulation drained with unfinished jobs — scheduling deadlock"
        );
        self.ams
            .iter()
            .map(|am| JobResult {
                job: am.job.0,
                submitted_at: am.submitted_at,
                am_started_at: am.am_started_at,
                finished_at: am.finished_at,
                tasks: am.records.iter().flatten().cloned().collect(),
            })
            .collect()
    }

    /// Number of simulation events processed (benchmark metric).
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    fn jitter_factor(&mut self) -> f64 {
        match &self.jitter {
            None => 1.0,
            Some(rv) => rv.sample(&mut self.rng).max(0.05),
        }
    }

    fn on_submit(&mut self, now: f64, j: u32) {
        self.ams[j as usize].submitted_at = now;
        self.engine.schedule_in(0.0, Ev::Heartbeat(j));
    }

    fn on_heartbeat(&mut self, now: f64, j: u32) {
        if self.ams[j as usize].done {
            return;
        }
        let (asks, releases, app) = {
            let am = &mut self.ams[j as usize];
            (
                am.build_asks(now, &self.topo, &self.cfg),
                am.take_releases(),
                am.app,
            )
        };
        for container in self.rm.allocate(app, &asks, &releases) {
            let (delay, task) = match self.ams[j as usize].on_grant(now, &container) {
                GrantAction::StartAm => (self.cfg.am_startup_delay, None),
                GrantAction::StartTask(t) => (self.cfg.container_launch_delay, Some(t)),
                GrantAction::Release => {
                    self.rm.finish_container(container.id);
                    continue;
                }
            };
            self.engine.schedule_in(
                delay,
                Ev::ContainerStarted {
                    job: j,
                    task,
                    container: container.id,
                },
            );
        }
        assert!(
            !self.ams_hold_the_cluster(),
            "application masters hold every container and no task container fits \
             — scheduling deadlock"
        );
        self.engine
            .schedule_in(self.cfg.heartbeat, Ev::Heartbeat(j));
    }

    /// Whether every live container belongs to a running AM while no
    /// task-sized container fits on any node — e.g. batch arrivals of at
    /// least [`batch_deadlock_jobs`] jobs. The state is permanent: an
    /// AM frees its container only when its job finishes, and no job
    /// finishes without a task container, so heartbeats would re-arm
    /// forever. (Nothing fitting implies some container is live, hence
    /// some job unfinished.)
    fn ams_hold_the_cluster(&self) -> bool {
        let size = &self.cfg.container_size;
        let live_ams = self
            .ams
            .iter()
            .filter(|am| am.am_container.is_some() && !am.done);
        !self.rm.cluster().nodes().iter().any(|n| n.can_fit(size))
            && self.rm.live_containers() == live_ams.count()
    }

    fn on_container_started(
        &mut self,
        now: f64,
        j: u32,
        task: Option<TaskId>,
        container: ContainerId,
    ) {
        let Some(task) = task else {
            let am = &mut self.ams[j as usize];
            am.am_started = true;
            am.am_started_at = now;
            return;
        };
        if !self.ams[j as usize].on_task_started(now, task, container) {
            return; // the container no longer holds the task's attempt
        }
        match task {
            TaskId::Map(i) => self.start_map(now, j, i),
            TaskId::Reduce(i) => self.start_reduce(now, j, i),
        }
    }

    fn start_map(&mut self, now: f64, j: u32, i: u32) {
        let jit = self.jitter_factor();
        // Failure injection: a doomed attempt reads its split, burns part
        // of its map-function CPU, then dies; the AM retries in a fresh
        // container (wasted work is the dominant real-world failure cost).
        let fails = self.cfg.map_failure_prob > 0.0
            && rand::Rng::gen::<f64>(&mut self.rng) < self.cfg.map_failure_prob;
        if fails {
            let progress = rand::Rng::gen_range(&mut self.rng, 0.05..0.95);
            self.failing.push((j, i, progress));
        }
        let am = &self.ams[j as usize];
        let split = &am.splits[i as usize];
        let node = am.map_node[i as usize].expect("assigned map has a node");
        let local = split.hosts.contains(&node);
        let work = split.len as f64 * jit;
        let key = ResKey {
            kind: if local { ResKind::Disk } else { ResKind::Nic },
            node: node.0,
        };
        self.admit(
            now,
            key,
            Step {
                job: j,
                task: TaskId::Map(i),
                phase: Phase::Read,
            },
            work,
        );
    }

    fn start_reduce(&mut self, now: f64, j: u32, i: u32) {
        self.shuffles[j as usize][i as usize].launched = true;
        // Fetch output of every already-completed map.
        let completed: Vec<u32> = (0..self.ams[j as usize].num_maps())
            .filter(|&mi| {
                self.ams[j as usize].state_of(TaskId::Map(mi))
                    == crate::appmaster::TaskState::Completed
            })
            .collect();
        for mi in completed {
            self.admit_fetch(now, j, i, mi);
        }
        self.maybe_start_sort(now, j, i);
    }

    /// Admit the fetch flow of map `mi`'s partition into reduce `ri`.
    fn admit_fetch(&mut self, now: f64, j: u32, ri: u32, mi: u32) {
        let am = &self.ams[j as usize];
        let rnode = am.reduce_node[ri as usize].expect("launched reduce has a node");
        let mnode = am.map_node[mi as usize].expect("completed map has a node");
        let total_out = self.map_out[j as usize][mi as usize];
        let r = am.num_reduces().max(1);
        let bytes = total_out / r as u64;
        let sh = &mut self.shuffles[j as usize][ri as usize];
        sh.fetches_admitted += 1;
        sh.bytes += bytes;
        let key = ResKey {
            kind: if mnode == rnode {
                ResKind::Disk
            } else {
                ResKind::Nic
            },
            node: rnode.0,
        };
        self.admit(
            now,
            key,
            Step {
                job: j,
                task: TaskId::Reduce(ri),
                phase: Phase::Fetch(mi),
            },
            bytes as f64,
        );
    }

    /// When every fetch finished and all maps are done, move to sort.
    fn maybe_start_sort(&mut self, now: f64, j: u32, ri: u32) {
        let am = &self.ams[j as usize];
        let m = am.num_maps();
        let all_maps_done = am.maps_completed == m;
        let sh = &self.shuffles[j as usize][ri as usize];
        if !(sh.launched && all_maps_done && sh.fetches_done == m) {
            return;
        }
        let jit = self.jitter_factor();
        let am = &mut self.ams[j as usize];
        am.mark(TaskId::Reduce(ri), PhaseMark::IoDone, now);
        let node = am.reduce_node[ri as usize].unwrap();
        let bytes = self.shuffles[j as usize][ri as usize].bytes;
        let work = bytes as f64 * am.spec.sort_io_factor * jit;
        self.admit(
            now,
            ResKey {
                kind: ResKind::Disk,
                node: node.0,
            },
            Step {
                job: j,
                task: TaskId::Reduce(ri),
                phase: Phase::Sort,
            },
            work,
        );
    }

    /// Put `work` units on a resource. Its completion tick is armed when
    /// the handler returns ([`Self::arm_touched`]).
    fn admit(&mut self, now: f64, key: ResKey, step: Step, work: f64) {
        let res = self.nodes[key.node as usize].get(key.kind);
        res.admit(SimTime::from_secs(now), step, work);
        if let Some(i) = self.touched.iter().position(|&k| k == key) {
            self.touched.remove(i);
        }
        self.touched.push(key);
    }

    /// Arm one completion tick for each resource the handler admitted
    /// to, in the order of their last admission (see the module docs).
    fn arm_touched(&mut self, t: SimTime) {
        for &key in &self.touched {
            let res = self.nodes[key.node as usize].get(key.kind);
            let gen = res.generation();
            if let Some(next) = res.next_completion() {
                self.engine
                    .schedule_at(next.max(t), Ev::ResourceTick { res: key, gen });
            }
        }
        self.touched.clear();
    }

    fn on_resource_tick(&mut self, t: SimTime, key: ResKey, gen: u64) {
        let now = t.as_secs();
        let res = self.nodes[key.node as usize].get(key.kind);
        if res.generation() != gen {
            return; // stale tick
        }
        let mut finished = std::mem::take(&mut self.finished);
        res.collect_finished(t, &mut finished);
        for step in finished.drain(..) {
            self.advance(now, key, step);
        }
        self.finished = finished;
        // Re-armed last unless a finished step admitted to it.
        if !self.touched.contains(&key) {
            self.touched.push(key);
        }
    }

    /// Advance a task past a finished step.
    fn advance(&mut self, now: f64, key: ResKey, step: Step) {
        let j = step.job;
        match (step.task, step.phase) {
            (TaskId::Map(i), Phase::Read) => {
                let jit = self.jitter_factor();
                let doomed_fraction = self
                    .failing
                    .iter()
                    .find(|&&(fj, fi, _)| fj == j && fi == i)
                    .map(|&(_, _, p)| p);
                let am = &mut self.ams[j as usize];
                am.mark(TaskId::Map(i), PhaseMark::IoDone, now);
                let split_len = am.splits[i as usize].len;
                let work = cpu_seconds(split_len, am.spec.map_cpu_s_per_mb)
                    * jit
                    * doomed_fraction.unwrap_or(1.0);
                self.admit(
                    now,
                    ResKey {
                        kind: ResKind::Cpu,
                        node: key.node,
                    },
                    Step {
                        job: j,
                        task: TaskId::Map(i),
                        phase: Phase::MapCpu,
                    },
                    work,
                );
            }
            (TaskId::Map(i), Phase::MapCpu) => {
                if let Some(pos) = self
                    .failing
                    .iter()
                    .position(|&(fj, fi, _)| fj == j && fi == i)
                {
                    self.failing.swap_remove(pos);
                    self.ams[j as usize].on_task_failed(now, TaskId::Map(i));
                    return;
                }
                let jit = self.jitter_factor();
                let am = &mut self.ams[j as usize];
                am.mark(TaskId::Map(i), PhaseMark::CpuDone, now);
                let split_len = am.splits[i as usize].len;
                let out = am.spec.map_output_bytes(split_len);
                let work = out as f64 * am.spec.spill_io_factor * jit;
                self.admit(
                    now,
                    ResKey {
                        kind: ResKind::Disk,
                        node: key.node,
                    },
                    Step {
                        job: j,
                        task: TaskId::Map(i),
                        phase: Phase::Spill,
                    },
                    work,
                );
            }
            (TaskId::Map(i), Phase::Spill) => {
                let out = {
                    let am = &self.ams[j as usize];
                    am.spec.map_output_bytes(am.splits[i as usize].len)
                };
                let outs = &mut self.map_out[j as usize];
                if outs.len() <= i as usize {
                    outs.resize(self.ams[j as usize].num_maps() as usize, 0);
                }
                outs[i as usize] = out;
                let job_done = self.ams[j as usize].on_task_finished(now, TaskId::Map(i));
                // Feed running reduces.
                let launched: Vec<u32> = (0..self.ams[j as usize].num_reduces())
                    .filter(|&ri| {
                        let sh = &self.shuffles[j as usize][ri as usize];
                        sh.launched && sh.fetches_done < self.ams[j as usize].num_maps()
                    })
                    .collect();
                for ri in launched {
                    self.admit_fetch(now, j, ri, i);
                    // A reduce whose fetches were already all done may now
                    // see all maps complete.
                    self.maybe_start_sort(now, j, ri);
                }
                if job_done {
                    self.finish_job(now, j);
                }
            }
            (TaskId::Reduce(ri), Phase::Fetch(_mi)) => {
                self.shuffles[j as usize][ri as usize].fetches_done += 1;
                self.maybe_start_sort(now, j, ri);
            }
            (TaskId::Reduce(ri), Phase::Sort) => {
                let jit = self.jitter_factor();
                let am = &self.ams[j as usize];
                let bytes = self.shuffles[j as usize][ri as usize].bytes;
                let work = cpu_seconds(bytes, am.spec.reduce_cpu_s_per_mb) * jit;
                self.admit(
                    now,
                    ResKey {
                        kind: ResKind::Cpu,
                        node: key.node,
                    },
                    Step {
                        job: j,
                        task: TaskId::Reduce(ri),
                        phase: Phase::ReduceCpu,
                    },
                    work,
                );
            }
            (TaskId::Reduce(ri), Phase::ReduceCpu) => {
                let jit = self.jitter_factor();
                let am = &mut self.ams[j as usize];
                am.mark(TaskId::Reduce(ri), PhaseMark::CpuDone, now);
                let bytes = self.shuffles[j as usize][ri as usize].bytes;
                let out = (bytes as f64 * am.spec.reduce_output_ratio).round();
                self.admit(
                    now,
                    ResKey {
                        kind: ResKind::Disk,
                        node: key.node,
                    },
                    Step {
                        job: j,
                        task: TaskId::Reduce(ri),
                        phase: Phase::Write,
                    },
                    out * jit,
                );
            }
            (TaskId::Reduce(ri), Phase::Write) => {
                let repl_bytes = {
                    let am = &self.ams[j as usize];
                    let bytes = self.shuffles[j as usize][ri as usize].bytes;
                    let out = bytes as f64 * am.spec.reduce_output_ratio;
                    out * (self.cfg.replication.saturating_sub(1)) as f64
                };
                if repl_bytes > 0.0 {
                    self.admit(
                        now,
                        ResKey {
                            kind: ResKind::Nic,
                            node: key.node,
                        },
                        Step {
                            job: j,
                            task: TaskId::Reduce(ri),
                            phase: Phase::Replicate,
                        },
                        repl_bytes,
                    );
                } else if self.ams[j as usize].on_task_finished(now, TaskId::Reduce(ri)) {
                    self.finish_job(now, j);
                }
            }
            (TaskId::Reduce(ri), Phase::Replicate) => {
                if self.ams[j as usize].on_task_finished(now, TaskId::Reduce(ri)) {
                    self.finish_job(now, j);
                }
            }
            (task, phase) => unreachable!("impossible step {task:?}/{phase:?}"),
        }
    }

    fn finish_job(&mut self, _now: f64, j: u32) {
        let app = self.ams[j as usize].app;
        self.rm.unregister_application(app);
        // Kick other AMs' pending asks: capacity freed by this job can be
        // granted at their next heartbeat (already scheduled).
        self.rm.schedule();
    }
}

/// The fewest jobs, all submitted at once, that deadlock a cluster of
/// `cfg`: their application masters leave no node room for a task
/// container, the state the simulator's heartbeat asserts against.
/// Every count from the bound up deadlocks; `None` when none does.
///
/// All AM asks are served at the submission instant, before any AM has
/// started and asked for tasks. Identical AMs on identical nodes, each
/// placed on the least-occupied node, spread evenly, so the emptiest
/// node holds `⌊jobs / nodes⌋` of them (or as many as fit). Once that
/// node has no room, neither has any other. Later, no node holds more
/// AMs than it did then (while AMs wait, every node already holds as
/// many as fit), so a cluster that fits a task at the submission
/// instant never deadlocks.
pub fn batch_deadlock_jobs(cfg: &SimConfig) -> Option<usize> {
    let (node, am, task) = (cfg.node_capacity, cfg.am_container_size, cfg.container_size);
    if !task.fits_in(&node) {
        return None; // `SimConfig::validate`'s concern, not a deadlock
    }
    let mut free = node;
    (1..=node.count_fitting(&am) as usize).find_map(|ams| {
        free = free.saturating_sub(&am);
        (!task.fits_in(&free)).then_some(ams * cfg.nodes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchedulerPolicy, GB, MB};
    use crate::workload::{grep, wordcount};
    use std::panic::AssertUnwindSafe;
    use yarn_sim::ResourceVector;

    fn quiet_cfg(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            jitter_cv: 0.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn single_small_job_completes() {
        let mut sim = ClusterSim::new(quiet_cfg(2));
        sim.add_job(wordcount(256 * MB, 2), 0.0);
        let results = sim.run();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!(r.response_time() > 0.0);
        assert_eq!(r.map_records().count(), 2);
        assert_eq!(r.reduce_records().count(), 2);
        // Phase boundaries are monotone for every task.
        for t in &r.tasks {
            assert!(t.assigned_at >= t.scheduled_at);
            assert!(t.started_at >= t.assigned_at);
            assert!(t.io_done_at >= t.started_at);
            assert!(t.finished_at >= t.io_done_at, "{t:?}");
        }
    }

    #[test]
    fn one_byte_tail_split_terminates() {
        // 256 MB + 1 byte: two full splits plus a degenerate 1-byte third
        // split. The 1-byte read used to strand a sub-ulp residual on the
        // disk fair-share late in the run, freezing the event calendar at
        // one timestamp (seeds 0 and 1 hung; seed 2 happened to pass).
        for seed in 0..3 {
            let mut sim = ClusterSim::new(SimConfig {
                seed,
                ..SimConfig::default()
            });
            sim.add_job(wordcount(256 * MB + 1, 2), 0.0);
            let results = sim.run();
            assert!(results[0].response_time() > 0.0, "seed {seed}");
        }
    }

    #[test]
    fn map_only_job_completes() {
        let mut sim = ClusterSim::new(quiet_cfg(2));
        let mut spec = grep(256 * MB);
        spec.reduces = 0;
        sim.add_job(spec, 0.0);
        let results = sim.run();
        assert_eq!(results[0].reduce_records().count(), 0);
        assert!(results[0].response_time() > 0.0);
    }

    #[test]
    fn determinism_same_seed() {
        let run = || {
            let mut sim = ClusterSim::new(SimConfig {
                seed: 42,
                ..quiet_cfg(3)
            });
            sim.add_job(wordcount(512 * MB, 2), 0.0);
            sim.run()[0].response_time()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seed_changes_placement_or_jitter() {
        let run = |seed| {
            let mut sim = ClusterSim::new(SimConfig {
                seed,
                jitter_cv: 0.2,
                ..SimConfig::default()
            });
            sim.add_job(wordcount(GB, 4), 0.0);
            sim.run()[0].response_time()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn more_nodes_is_faster_for_big_jobs() {
        let resp = |nodes| {
            let mut sim = ClusterSim::new(quiet_cfg(nodes));
            sim.add_job(wordcount(2 * GB, nodes as u32), 0.0);
            sim.run()[0].response_time()
        };
        let r4 = resp(4);
        let r8 = resp(8);
        assert!(
            r8 < r4,
            "8 nodes should beat 4 nodes: r4={r4:.1}s r8={r8:.1}s"
        );
    }

    #[test]
    fn concurrent_jobs_slow_each_other() {
        let one = {
            let mut sim = ClusterSim::new(quiet_cfg(4));
            sim.add_job(wordcount(GB, 4), 0.0);
            sim.run()[0].response_time()
        };
        let four = {
            let mut sim = ClusterSim::new(quiet_cfg(4));
            for _ in 0..4 {
                sim.add_job(wordcount(GB, 4), 0.0);
            }
            let rs = {
                let mut sim_results = sim.run();
                sim_results
                    .drain(..)
                    .map(|r| r.response_time())
                    .sum::<f64>()
                    / 4.0
            };
            rs
        };
        assert!(
            four > 1.5 * one,
            "4 concurrent jobs must contend: one={one:.1}s four_avg={four:.1}s"
        );
    }

    #[test]
    fn failure_injection_retries_and_completes() {
        // 14 maps on 7 task containers: two exactly full waves, so a
        // retry cannot hide in idle capacity and must extend the job.
        let input = 14 * 128 * MB;
        let cfg = SimConfig {
            map_failure_prob: 0.3,
            ..quiet_cfg(2)
        };
        let mut sim = ClusterSim::new(cfg);
        sim.add_job(wordcount(input, 2), 0.0);
        let with_failures = sim.run()[0].response_time();
        let failed = sim.ams[0].failed_attempts;
        assert!(
            failed > 0,
            "with p=0.3 over 14 maps some attempt should fail"
        );

        let mut clean = ClusterSim::new(quiet_cfg(2));
        clean.add_job(wordcount(input, 2), 0.0);
        let without = clean.run()[0].response_time();
        assert!(
            with_failures > without,
            "retries must cost time: {with_failures:.1} vs {without:.1}"
        );
    }

    #[test]
    fn fair_scheduler_interleaves_jobs() {
        // Under FIFO the first job finishes far earlier than the second;
        // under fair sharing they finish close together.
        let run = |policy: SchedulerPolicy| {
            let mut sim = ClusterSim::new(SimConfig {
                scheduler: policy,
                ..quiet_cfg(2)
            });
            for _ in 0..2 {
                sim.add_job(wordcount(2 * GB, 2), 0.0);
            }
            let r = sim.run();
            (r[0].response_time(), r[1].response_time())
        };
        let (fifo_a, fifo_b) = run(SchedulerPolicy::CapacityFifo);
        let (fair_a, fair_b) = run(SchedulerPolicy::Fair);
        let fifo_gap = (fifo_b - fifo_a).abs();
        let fair_gap = (fair_b - fair_a).abs();
        assert!(
            fair_gap < fifo_gap,
            "fair should even out completions: fifo gap {fifo_gap:.1}, fair gap {fair_gap:.1}"
        );
        // Fair sharing delays the first job relative to FIFO.
        assert!(fair_a > fifo_a);
    }

    /// `jobs` batch-submitted small jobs on one node of four containers.
    fn one_node_batch(jobs: usize, scheduler: SchedulerPolicy) -> Vec<JobResult> {
        let mut sim = ClusterSim::new(SimConfig {
            scheduler,
            ..quiet_cfg(1)
        });
        for _ in 0..jobs {
            sim.add_job(wordcount(256 * MB, 1), 0.0);
        }
        sim.run()
    }

    #[test]
    fn three_jobs_share_the_last_free_container() {
        for policy in [SchedulerPolicy::CapacityFifo, SchedulerPolicy::Fair] {
            let results = one_node_batch(3, policy);
            assert!(results.iter().all(|r| r.response_time() > 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "scheduling deadlock")]
    fn ams_filling_the_cluster_panic_under_capacity_fifo() {
        // Four AMs take all four containers: no task can ever start.
        one_node_batch(4, SchedulerPolicy::CapacityFifo);
    }

    #[test]
    #[should_panic(expected = "scheduling deadlock")]
    fn ams_filling_the_cluster_panic_under_fair() {
        one_node_batch(4, SchedulerPolicy::Fair);
    }

    #[test]
    fn batch_deadlock_bound_splits_finishing_runs_from_deadlocks() {
        let deadlocks = |cfg: &SimConfig, jobs: usize| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut sim = ClusterSim::new(cfg.clone());
                for _ in 0..jobs {
                    sim.add_job(grep(128 * MB), 0.0);
                }
                sim.run()
            }))
            .map_err(|e| {
                let msg = (e.downcast_ref::<String>().map(String::as_str))
                    .or(e.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(msg.contains("scheduling deadlock"), "{msg}");
            })
            .is_err()
        };
        for scheduler in [SchedulerPolicy::CapacityFifo, SchedulerPolicy::Fair] {
            for nodes in 1..=3 {
                for (container_mb, per_node) in [(512, 4), (1024, 4), (2048, 3)] {
                    let cfg = SimConfig {
                        container_size: ResourceVector::new(container_mb, 1),
                        scheduler,
                        ..SimConfig::paper_testbed(nodes)
                    };
                    let bound = batch_deadlock_jobs(&cfg);
                    assert_eq!(bound, Some(per_node * nodes), "{cfg:?}");
                    let bound = bound.unwrap();
                    assert!(!deadlocks(&cfg, bound - 1), "{} jobs: {cfg:?}", bound - 1);
                    assert!(deadlocks(&cfg, bound), "{bound} jobs: {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn batch_deadlock_bound_is_none_when_ams_leave_room() {
        // Four AMs are as many as fit, and they leave 512 MB and four
        // vcores free: a 512 MB task container always fits beside them.
        let roomy = SimConfig {
            node_capacity: ResourceVector::new(4608, 8),
            container_size: ResourceVector::new(512, 1),
            ..SimConfig::paper_testbed(2)
        };
        assert_eq!(batch_deadlock_jobs(&roomy), None);
        let too_big = SimConfig {
            container_size: ResourceVector::new(8192, 1),
            ..SimConfig::paper_testbed(2)
        };
        assert_eq!(batch_deadlock_jobs(&too_big), None);
    }

    #[test]
    fn slow_start_makes_shuffle_overlap_maps() {
        // With slow start, the first reduce is assigned before the last map
        // finishes (for a job with enough maps).
        let mut sim = ClusterSim::new(quiet_cfg(2));
        sim.add_job(wordcount(2 * GB, 2), 0.0); // 16 maps on 16 containers
        let results = sim.run();
        let r = &results[0];
        let last_map_end = r
            .map_records()
            .map(|t| t.finished_at)
            .fold(0.0f64, f64::max);
        let first_reduce_assigned = r
            .reduce_records()
            .map(|t| t.assigned_at)
            .fold(f64::INFINITY, f64::min);
        assert!(
            first_reduce_assigned < last_map_end,
            "slow start should overlap shuffle with maps: reduce assigned {first_reduce_assigned:.1}, last map {last_map_end:.1}"
        );
    }
}
