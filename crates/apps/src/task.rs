//! Task submission and execution (paper Fig. 1, steps 5–6).
//!
//! * [`TaskSubmitterApp`] runs on an edge device and submits *workflows*
//!   ([`int_workload::WorkflowSpec`]): task DAGs whose tasks are released
//!   stage by stage, once their parents complete. Each stage queries the
//!   scheduler, sends each task to a top-ranked candidate server, streams
//!   its input data over TCP (header + payload), and waits for the
//!   executor's `TaskDone` callback. A job (the paper's 1-task serverless
//!   or 3-task distributed job) is a one-stage workflow: its parentless
//!   tasks go out in one query whose id is the job id. The submitter
//!   records every timestamp the experiment harness needs.
//! * [`TaskExecutorApp`] runs on every edge server: accepts task streams,
//!   runs each task once its data has fully arrived, then reports
//!   completion over UDP. Execution uses a real compute model: a finite
//!   number of parallel slots and a FIFO- or EDF-ordered run queue, with
//!   the per-task queue wait recorded and echoed in the completion
//!   callback. The default configuration keeps the slot count effectively
//!   unlimited, which reproduces the paper's network-isolated evaluation.
//!
//! Failure accounting: a submitter can arm a bounded completion timeout
//! per dispatched task — a task stream that dies mid-transfer (e.g. a
//! faulted link; the transport retries forever and the executor never sees
//! a close) is then marked failed instead of wedging [`TaskSubmitterApp::all_done`]
//! forever. An empty candidate list likewise materializes *unplaceable*
//! records, so experiment totals account for every planned task.

use int_netsim::{App, AppCtx, ConnId, NodeId, SimDuration, SimTime, TcpEvent, Topology};
use int_obs::{Labels, MetricsRegistry};
use int_packet::msgs::{ControlMsg, RankingKind, TaskStreamHeader};
use int_packet::wire::{WireDecode, WireEncode};
use int_packet::{SCHEDULER_UDP_PORT, SCHED_CLIENT_UDP_PORT, TASK_UDP_PORT};
use int_workload::{JobSpec, TaskClass, WorkflowSpec, WorkflowTaskSpec};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------- executor

/// How an executor orders its run queue when all slots are busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunQueueOrder {
    /// Data-arrival order.
    #[default]
    Fifo,
    /// Earliest deadline first (tasks without a deadline go last, in
    /// arrival order).
    Edf,
}

/// Executor compute-model configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Parallel execution slots. The default is effectively unlimited
    /// (`u32::MAX`), reproducing the paper's network-isolated evaluation;
    /// the workflow experiments pin it down to model compute contention.
    pub slots: u32,
    /// Run-queue discipline once all slots are busy.
    pub order: RunQueueOrder,
    /// Where to push `LoadReport`s (outstanding = running + queued) when
    /// the count changes; `None` disables reporting.
    pub report_load_to: Option<Ipv4Addr>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig { slots: u32::MAX, order: RunQueueOrder::Fifo, report_load_to: None }
    }
}

/// A task an executor finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutedTask {
    /// Job the task belongs to.
    pub job_id: u64,
    /// Task within the job.
    pub task_id: u64,
    /// Submitting node.
    pub origin: u32,
    /// Payload bytes received.
    pub data_bytes: u64,
    /// When the stream was accepted.
    pub accepted_at: SimTime,
    /// When the last payload byte arrived.
    pub data_received_at: SimTime,
    /// Time spent waiting in the run queue for a free slot, ns.
    pub queue_wait_ns: u64,
    /// When execution finished.
    pub finished_at: SimTime,
}

struct InboundStream {
    buf: Vec<u8>,
    header: Option<TaskStreamHeader>,
    accepted_at: SimTime,
    data_received_at: Option<SimTime>,
}

/// A task whose data is complete, waiting for (or holding) a slot.
#[derive(Debug, Clone, Copy)]
struct ReadyTask {
    header: TaskStreamHeader,
    accepted_at: SimTime,
    data_received_at: SimTime,
    /// Arrival sequence number — the FIFO key and the EDF tiebreak.
    seq: u64,
}

/// The run queue: tasks with complete data waiting for a free slot.
#[derive(Debug, Default)]
struct RunQueue {
    items: Vec<ReadyTask>,
}

impl RunQueue {
    fn push(&mut self, t: ReadyTask) {
        self.items.push(t);
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    /// Remove and return the next task under `order`.
    fn pop(&mut self, order: RunQueueOrder) -> Option<ReadyTask> {
        if self.items.is_empty() {
            return None;
        }
        let key = |t: &ReadyTask| match order {
            RunQueueOrder::Fifo => (0u64, t.seq),
            RunQueueOrder::Edf => {
                // No deadline sorts after every real deadline.
                let d = if t.header.deadline_ns == 0 { u64::MAX } else { t.header.deadline_ns };
                (d, t.seq)
            }
        };
        let (best, _) = self
            .items
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| key(t))
            .expect("non-empty queue");
        Some(self.items.swap_remove(best))
    }
}

/// The edge-server side: receives task streams and executes them.
pub struct TaskExecutorApp {
    cfg: ExecutorConfig,
    streams: HashMap<ConnId, InboundStream>,
    queue: RunQueue,
    /// Tasks currently holding a slot.
    running: u32,
    /// Inbound streams whose header has been decoded but whose payload is
    /// still arriving — counted in [`Self::outstanding`] so load reports
    /// see work that is already committed to this server.
    receiving: u32,
    /// Execution timers: timer id → (ready task, queue wait it accrued).
    pending_exec: BTreeMap<u64, (ReadyTask, u64)>,
    /// Completion callbacks being (re)sent:
    /// timer id → (header, data_received_at, queue_wait_ns, resends left).
    pending_done: BTreeMap<u64, (TaskStreamHeader, SimTime, u64, u32)>,
    next_timer: u64,
    next_seq: u64,
    /// Streams that closed before their payload completed.
    pub truncated_streams: u64,
    /// Executor counters (disabled by default).
    metrics: MetricsRegistry,
    /// Finished tasks, in completion order.
    pub executed: Vec<ExecutedTask>,
}

impl TaskExecutorApp {
    /// New executor with the default (unlimited-slot) compute model.
    pub fn new() -> Self {
        Self::with_config(ExecutorConfig::default())
    }

    /// New executor with an explicit compute model.
    pub fn with_config(cfg: ExecutorConfig) -> Self {
        TaskExecutorApp {
            cfg,
            streams: HashMap::new(),
            queue: RunQueue::default(),
            running: 0,
            receiving: 0,
            pending_exec: BTreeMap::new(),
            pending_done: BTreeMap::new(),
            next_timer: 1,
            next_seq: 0,
            truncated_streams: 0,
            metrics: MetricsRegistry::new(),
            executed: Vec::new(),
        }
    }

    /// Enable or disable the executor's metric counters.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics.set_enabled(on);
    }

    /// The executor's metric counters.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Tasks committed to this server: running, queued, or still
    /// transferring their input data.
    pub fn outstanding(&self) -> u32 {
        self.running + self.queue.len() as u32 + self.receiving
    }

    fn try_consume(&mut self, ctx: &mut AppCtx<'_>, conn: ConnId) {
        let Some(st) = self.streams.get_mut(&conn) else { return };
        if st.header.is_none() && st.buf.len() >= TaskStreamHeader::LEN {
            match TaskStreamHeader::decode(&mut &st.buf[..]) {
                Ok(h) => {
                    st.buf.drain(..TaskStreamHeader::LEN);
                    st.header = Some(h);
                    self.receiving += 1;
                    self.report_load(ctx);
                }
                Err(_) => {
                    // Corrupt stream: drop our bookkeeping; the transport
                    // will close naturally.
                    self.streams.remove(&conn);
                    return;
                }
            }
        }
        let Some(st) = self.streams.get_mut(&conn) else { return };
        let Some(h) = st.header else { return };
        if st.data_received_at.is_none() && st.buf.len() as u64 >= h.data_len {
            st.data_received_at = Some(ctx.now);
            let accepted_at = st.accepted_at;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.receiving = self.receiving.saturating_sub(1);
            self.admit(ctx, ReadyTask { header: h, accepted_at, data_received_at: ctx.now, seq });
        }
    }

    /// A task's data is complete: start it if a slot is free, else queue.
    fn admit(&mut self, ctx: &mut AppCtx<'_>, t: ReadyTask) {
        if self.running < self.cfg.slots {
            self.start(ctx, t);
        } else {
            self.metrics.counter_inc("tasks_queued", Labels::none());
            self.queue.push(t);
        }
        self.report_load(ctx);
    }

    fn start(&mut self, ctx: &mut AppCtx<'_>, t: ReadyTask) {
        let queue_wait_ns = ctx.now.as_nanos().saturating_sub(t.data_received_at.as_nanos());
        self.running += 1;
        let timer = self.next_timer;
        self.next_timer += 1;
        self.pending_exec.insert(timer, (t, queue_wait_ns));
        ctx.set_timer(SimDuration::from_nanos(t.header.exec_duration_ns), timer);
    }

    fn report_load(&mut self, ctx: &mut AppCtx<'_>) {
        if let Some(sched) = self.cfg.report_load_to {
            let msg = ControlMsg::LoadReport { host: ctx.node.0, outstanding: self.outstanding() };
            ctx.send_udp(TASK_UDP_PORT, sched, SCHEDULER_UDP_PORT, msg.to_bytes());
        }
    }

    fn send_done(
        &self,
        ctx: &mut AppCtx<'_>,
        h: &TaskStreamHeader,
        data_received_at: SimTime,
        queue_wait_ns: u64,
    ) {
        let done = ControlMsg::TaskDone {
            job_id: h.job_id,
            task_id: h.task_id,
            executed_on: ctx.node.0,
            data_received_ts_ns: data_received_at.as_nanos(),
            queue_wait_ns,
        };
        let origin_ip = Topology::host_ip(NodeId(h.origin));
        ctx.send_udp(TASK_UDP_PORT, origin_ip, TASK_UDP_PORT, done.to_bytes());
    }
}

impl Default for TaskExecutorApp {
    fn default() -> Self {
        Self::new()
    }
}

impl App for TaskExecutorApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.tcp_listen(TASK_UDP_PORT);
    }

    fn on_tcp(&mut self, ctx: &mut AppCtx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Accepted { conn, .. } => {
                self.streams.insert(
                    conn,
                    InboundStream {
                        buf: Vec::new(),
                        header: None,
                        accepted_at: ctx.now,
                        data_received_at: None,
                    },
                );
            }
            TcpEvent::Data { conn, data } => {
                if let Some(st) = self.streams.get_mut(&conn) {
                    st.buf.extend_from_slice(&data);
                    self.try_consume(ctx, conn);
                }
            }
            TcpEvent::Closed { conn } => {
                // Completed submissions were already admitted in
                // try_consume; a stream that closes with its payload
                // incomplete was truncated (the submitter's completion
                // timeout does the lifecycle accounting on its side).
                if let Some(st) = self.streams.remove(&conn) {
                    if st.data_received_at.is_none() {
                        self.truncated_streams += 1;
                        self.metrics.counter_inc("streams_truncated", Labels::none());
                        if st.header.is_some() {
                            self.receiving = self.receiving.saturating_sub(1);
                            self.report_load(ctx);
                        }
                    }
                }
            }
            TcpEvent::Connected { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        if let Some((t, queue_wait_ns)) = self.pending_exec.remove(&timer_id) {
            let h = t.header;
            self.executed.push(ExecutedTask {
                job_id: h.job_id,
                task_id: h.task_id,
                origin: h.origin,
                data_bytes: h.data_len,
                accepted_at: t.accepted_at,
                data_received_at: t.data_received_at,
                queue_wait_ns,
                finished_at: ctx.now,
            });
            self.metrics.counter_inc("tasks_executed", Labels::none());
            // The completion callback is UDP: repeat it a few times so a
            // single drop at a congested queue cannot lose the completion
            // (receivers treat duplicates idempotently).
            self.send_done(ctx, &h, t.data_received_at, queue_wait_ns);
            let timer = self.next_timer;
            self.next_timer += 1;
            self.pending_done.insert(timer, (h, t.data_received_at, queue_wait_ns, 2));
            ctx.set_timer(SimDuration::from_secs(1), timer);
            // The slot frees up: start the next queued task, if any.
            self.running = self.running.saturating_sub(1);
            if let Some(next) = self.queue.pop(self.cfg.order) {
                self.start(ctx, next);
            }
            self.report_load(ctx);
            return;
        }
        if let Some((h, data_received_at, queue_wait_ns, left)) = self.pending_done.remove(&timer_id)
        {
            self.send_done(ctx, &h, data_received_at, queue_wait_ns);
            if left > 1 {
                let timer = self.next_timer;
                self.next_timer += 1;
                self.pending_done.insert(timer, (h, data_received_at, queue_wait_ns, left - 1));
                ctx.set_timer(SimDuration::from_secs(1), timer);
            }
        }
    }
}

// ---------------------------------------------------------------- submitter

/// Why a task record was marked failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The completion timeout expired before `TaskDone` arrived (e.g. the
    /// task stream died mid-transfer on a faulted path).
    Timeout,
    /// The scheduler returned an empty candidate list.
    Unplaceable,
    /// A workflow ancestor failed, so this task could never be released.
    ParentFailed,
}

/// The full record of one task's lifecycle, as seen by its submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRecord {
    /// Job (or workflow stage) the task belongs to.
    pub job_id: u64,
    /// Task within the job (unique within the workflow, for workflows).
    pub task_id: u64,
    /// Workflow this task belongs to, if any.
    pub workflow_id: Option<u64>,
    /// Table I class.
    pub class: TaskClass,
    /// Input data size, bytes.
    pub data_bytes: u64,
    /// Declared execution time, ns.
    pub exec_ns: u64,
    /// Absolute deadline, ns since epoch (0 = no deadline).
    pub deadline_ns: u64,
    /// When the job was submitted (scheduler query sent).
    pub submitted_at: SimTime,
    /// When the task's TCP stream was opened (candidates received).
    pub dispatched_at: Option<SimTime>,
    /// Server the task went to.
    pub server: Option<u32>,
    /// Server-side time the data fully arrived (from `TaskDone`).
    pub data_received_at: Option<SimTime>,
    /// Server-side run-queue wait (from `TaskDone`), ns.
    pub queue_wait_ns: Option<u64>,
    /// When the completion callback arrived.
    pub completed_at: Option<SimTime>,
    /// When the submitter gave up on the task (timeout / unplaceable /
    /// failed ancestor).
    pub failed_at: Option<SimTime>,
    /// Why it failed.
    pub fail_reason: Option<FailReason>,
}

impl TaskRecord {
    /// Transfer time: stream open → all data at the server.
    pub fn transfer_time(&self) -> Option<SimDuration> {
        Some(self.data_received_at?.since(self.dispatched_at?))
    }

    /// Task completion time: job submission → completion callback. This is
    /// the paper's task-completion metric (scheduling query, transfer, and
    /// execution all included).
    pub fn completion_time(&self) -> Option<SimDuration> {
        Some(self.completed_at?.since(self.submitted_at))
    }

    /// Has the task reached a terminal state (completed or failed)?
    pub fn resolved(&self) -> bool {
        self.completed_at.is_some() || self.failed_at.is_some()
    }

    /// For a deadline-carrying task: did it miss? (Not completing at all
    /// counts as a miss.)
    pub fn missed_deadline(&self) -> bool {
        self.deadline_ns != 0
            && match self.completed_at {
                Some(t) => t.as_nanos() > self.deadline_ns,
                None => true,
            }
    }
}

/// An outstanding scheduler query: one stage of a plan.
struct PendingQuery {
    tasks: Vec<WorkflowTaskSpec>,
    submitted_at: SimTime,
    /// Index into `plans`.
    plan: usize,
}

/// Release bookkeeping for one planned workflow. A job is a one-stage
/// workflow: its tasks are parentless, carry no deadline and are released
/// together at the job's submission time.
struct Plan {
    spec: WorkflowSpec,
    /// Stage job ids are `base | stage_seq`: the job id for a job (so its
    /// one stage keeps it), `workflow_id << 16` for a workflow.
    base: u64,
    /// The records' `workflow_id`: `None` for a job.
    workflow_id: Option<u64>,
    /// Tasks already dispatched to a query (or terminally failed).
    released: BTreeSet<u64>,
    completed: BTreeSet<u64>,
    failed: BTreeSet<u64>,
    /// Stages released so far.
    stage_seq: u64,
}

impl Plan {
    fn new(spec: WorkflowSpec, base: u64, workflow_id: Option<u64>) -> Self {
        let (released, completed, failed) = Default::default();
        Plan { spec, base, workflow_id, released, completed, failed, stage_seq: 0 }
    }

    fn of_job(job: JobSpec) -> Self {
        let tasks = job
            .tasks
            .iter()
            .map(|t| WorkflowTaskSpec {
                task_id: t.task_id,
                data_bytes: t.data_bytes,
                exec_ns: t.exec_ns,
                class: t.class,
                deadline_ns: 0,
                parents: Vec::new(),
            })
            .collect();
        let spec = WorkflowSpec {
            workflow_id: job.job_id,
            submitter: job.submitter,
            release_at_ns: job.submit_at_ns,
            tasks,
        };
        Plan::new(spec, job.job_id, None)
    }

    fn of_workflow(spec: WorkflowSpec) -> Self {
        let id = spec.workflow_id;
        Plan::new(spec, id << 16, Some(id))
    }

    /// Job id of the next stage.
    fn next_stage(&mut self) -> u64 {
        let job_id = self.base | self.stage_seq;
        self.stage_seq += 1;
        job_id
    }
}

// Timer-id encoding: low 32 bits are a payload index, the high bits select
// the timer kind.
const RELEASE_BIT: u64 = 1 << 32; // plan release (payload: plan index)
const TIMEOUT_BIT: u64 = 1 << 33; // completion timeout (payload: record index)
const STAGE_RETRY_BIT: u64 = 1 << 34; // stage query retry (payload: stage counter)
const PAYLOAD_MASK: u64 = RELEASE_BIT - 1;

/// The edge-device side: submits planned jobs and workflows through the
/// scheduler.
pub struct TaskSubmitterApp {
    scheduler: Ipv4Addr,
    ranking: RankingKind,
    plans: Vec<Plan>,
    awaiting_response: HashMap<u64, PendingQuery>,
    /// Stage-retry timer payload → stage job id.
    stage_retry: BTreeMap<u64, u64>,
    next_stage_retry: u64,
    /// Stage job id → plan index (for `TaskDone` routing).
    job_to_plan: HashMap<u64, usize>,
    /// (job_id, task_id) → index into `records`.
    record_idx: HashMap<(u64, u64), usize>,
    /// Per-task completion timeout armed at dispatch; `None` disables it.
    completion_timeout: Option<SimDuration>,
    /// Submitter counters (disabled by default).
    metrics: MetricsRegistry,
    /// Everything this submitter observed, in dispatch order.
    pub records: Vec<TaskRecord>,
}

impl TaskSubmitterApp {
    /// Submitter for `jobs` (all owned by this node), querying `scheduler`
    /// with `ranking`. Each job is submitted as a one-stage workflow whose
    /// query id is the job id.
    pub fn new(scheduler: Ipv4Addr, ranking: RankingKind, jobs: Vec<JobSpec>) -> Self {
        Self::with_plans(scheduler, ranking, jobs.into_iter().map(Plan::of_job).collect())
    }

    /// Submitter for DAG `workflows` (all owned by this node). Stage by
    /// stage, ready tasks are released only once their parents complete,
    /// each stage re-querying the scheduler.
    pub fn new_workflows(
        scheduler: Ipv4Addr,
        ranking: RankingKind,
        workflows: Vec<WorkflowSpec>,
    ) -> Self {
        Self::with_plans(scheduler, ranking, workflows.into_iter().map(Plan::of_workflow).collect())
    }

    fn with_plans(scheduler: Ipv4Addr, ranking: RankingKind, plans: Vec<Plan>) -> Self {
        TaskSubmitterApp {
            scheduler,
            ranking,
            plans,
            awaiting_response: HashMap::new(),
            stage_retry: BTreeMap::new(),
            next_stage_retry: 0,
            job_to_plan: HashMap::new(),
            record_idx: HashMap::new(),
            completion_timeout: None,
            metrics: MetricsRegistry::new(),
            records: Vec::new(),
        }
    }

    /// Bound every dispatched task's wait for its completion callback.
    /// When the timeout expires first the record is marked failed
    /// ([`FailReason::Timeout`]) instead of wedging [`Self::all_done`]
    /// forever — the regression this guards is a task stream dying on a
    /// faulted link mid-transfer, which the transport retries endlessly
    /// and the executor never notices.
    pub fn with_completion_timeout(mut self, timeout: SimDuration) -> Self {
        self.completion_timeout = Some(timeout);
        self
    }

    /// Enable or disable the submitter's metric counters.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics.set_enabled(on);
    }

    /// The submitter's metric counters.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Planned tasks across jobs and workflows.
    pub fn planned_tasks(&self) -> usize {
        self.plans.iter().map(|p| p.spec.tasks.len()).sum()
    }

    /// True once every planned task has reached a terminal state
    /// (completion callback, timeout, unplaceable, or failed ancestor).
    /// Test accessor: the submitter's unit tests assert it as the ground
    /// truth that no record was left wedged.
    pub fn all_done(&self) -> bool {
        self.records.len() == self.planned_tasks() && self.records.iter().all(|r| r.resolved())
    }

    fn send_query(&self, ctx: &mut AppCtx<'_>, job_id: u64, task_count: u8) {
        let req = ControlMsg::SchedRequest {
            requester: ctx.node.0,
            job_id,
            task_count,
            ranking: self.ranking,
        };
        ctx.send_udp(SCHED_CLIENT_UDP_PORT, self.scheduler, SCHEDULER_UDP_PORT, req.to_bytes());
    }

    /// Dispatch one task to `server`: open the stream, write header +
    /// payload, create the record, and arm the completion timeout.
    fn dispatch_task(
        &mut self,
        ctx: &mut AppCtx<'_>,
        job_id: u64,
        workflow_id: Option<u64>,
        submitted_at: SimTime,
        task: &WorkflowTaskSpec,
        server: u32,
    ) {
        let server_ip = Topology::host_ip(NodeId(server));
        let conn = ctx.tcp_connect(server_ip, TASK_UDP_PORT);
        let header = TaskStreamHeader {
            job_id,
            task_id: task.task_id,
            origin: ctx.node.0,
            exec_duration_ns: task.exec_ns,
            deadline_ns: task.deadline_ns,
            data_len: task.data_bytes,
        };
        let mut stream = header.to_bytes();
        stream.extend(std::iter::repeat_n(0u8, task.data_bytes as usize));
        ctx.tcp_send(conn, stream);
        ctx.tcp_close(conn);

        let rec = TaskRecord {
            job_id,
            task_id: task.task_id,
            workflow_id,
            class: task.class,
            data_bytes: task.data_bytes,
            exec_ns: task.exec_ns,
            deadline_ns: task.deadline_ns,
            submitted_at,
            dispatched_at: Some(ctx.now),
            server: Some(server),
            data_received_at: None,
            queue_wait_ns: None,
            completed_at: None,
            failed_at: None,
            fail_reason: None,
        };
        let idx = self.records.len();
        self.record_idx.insert((job_id, task.task_id), idx);
        self.records.push(rec);
        self.metrics.counter_inc("tasks_dispatched", Labels::none());
        if let Some(timeout) = self.completion_timeout {
            ctx.set_timer(timeout, TIMEOUT_BIT | idx as u64);
        }
    }

    /// Record a task that terminally failed without ever being dispatched.
    fn push_failed_record(
        &mut self,
        now: SimTime,
        job_id: u64,
        workflow_id: Option<u64>,
        submitted_at: SimTime,
        task: &WorkflowTaskSpec,
        reason: FailReason,
    ) {
        let rec = TaskRecord {
            job_id,
            task_id: task.task_id,
            workflow_id,
            class: task.class,
            data_bytes: task.data_bytes,
            exec_ns: task.exec_ns,
            deadline_ns: task.deadline_ns,
            submitted_at,
            dispatched_at: None,
            server: None,
            data_received_at: None,
            queue_wait_ns: None,
            completed_at: None,
            failed_at: Some(now),
            fail_reason: Some(reason),
        };
        self.record_idx.insert((job_id, task.task_id), self.records.len());
        self.records.push(rec);
    }

    /// Release every task of plan `plan` whose parents have all resolved:
    /// tasks with a failed ancestor are terminally failed (cascading),
    /// the rest are batched into one stage query.
    fn release_ready(&mut self, ctx: &mut AppCtx<'_>, plan: usize) {
        loop {
            let p = &self.plans[plan];
            let mut doomed: Vec<WorkflowTaskSpec> = Vec::new();
            let mut ready: Vec<WorkflowTaskSpec> = Vec::new();
            for t in &p.spec.tasks {
                if p.released.contains(&t.task_id) {
                    continue;
                }
                let resolved = t
                    .parents
                    .iter()
                    .all(|x| p.completed.contains(x) || p.failed.contains(x));
                if !resolved {
                    continue;
                }
                if t.parents.iter().any(|x| p.failed.contains(x)) {
                    doomed.push(t.clone());
                } else {
                    ready.push(t.clone());
                }
            }
            if doomed.is_empty() && ready.is_empty() {
                return;
            }

            let p = &mut self.plans[plan];
            let job_id = p.next_stage();
            let workflow_id = p.workflow_id;
            if !doomed.is_empty() {
                for t in &doomed {
                    p.released.insert(t.task_id);
                    p.failed.insert(t.task_id);
                }
                self.metrics.counter_add(
                    "tasks_failed_parent",
                    Labels::none(),
                    doomed.len() as u64,
                );
                for t in doomed {
                    self.push_failed_record(
                        ctx.now,
                        job_id,
                        workflow_id,
                        ctx.now,
                        &t,
                        FailReason::ParentFailed,
                    );
                }
                // A cascade may have unblocked (or doomed) more tasks.
                continue;
            }

            // One stage query for all simultaneously ready tasks.
            for t in &ready {
                p.released.insert(t.task_id);
            }
            let task_count = ready.len().min(u8::MAX as usize) as u8;
            self.job_to_plan.insert(job_id, plan);
            self.awaiting_response
                .insert(job_id, PendingQuery { tasks: ready, submitted_at: ctx.now, plan });
            self.send_query(ctx, job_id, task_count);
            // Query and response ride UDP; retry until the response lands.
            let retry_payload = self.next_stage_retry;
            self.next_stage_retry += 1;
            self.stage_retry.insert(retry_payload, job_id);
            ctx.set_timer(SimDuration::from_secs(2), STAGE_RETRY_BIT | retry_payload);
        }
    }

    /// A task of plan `plan` reached a terminal state; advance the DAG.
    fn on_task_resolved(&mut self, ctx: &mut AppCtx<'_>, plan: usize, task_id: u64, failed: bool) {
        let p = &mut self.plans[plan];
        if failed {
            p.failed.insert(task_id);
        } else {
            p.completed.insert(task_id);
        }
        self.release_ready(ctx, plan);
    }
}

impl App for TaskSubmitterApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(SCHED_CLIENT_UDP_PORT);
        ctx.bind_udp(TASK_UDP_PORT);
        for (i, p) in self.plans.iter().enumerate() {
            let delay = SimTime(p.spec.release_at_ns).since(ctx.now);
            ctx.set_timer(delay, RELEASE_BIT | i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        let payload = (timer_id & PAYLOAD_MASK) as usize;

        if timer_id & STAGE_RETRY_BIT != 0 {
            let Some(&job_id) = self.stage_retry.get(&(payload as u64)) else { return };
            let Some(pending) = self.awaiting_response.get(&job_id) else {
                self.stage_retry.remove(&(payload as u64));
                return; // the response arrived in the meantime
            };
            let task_count = pending.tasks.len().min(u8::MAX as usize) as u8;
            self.send_query(ctx, job_id, task_count);
            ctx.set_timer(SimDuration::from_secs(2), timer_id);
            return;
        }

        if timer_id & TIMEOUT_BIT != 0 {
            let Some(rec) = self.records.get_mut(payload) else { return };
            if rec.resolved() {
                return;
            }
            rec.failed_at = Some(ctx.now);
            rec.fail_reason = Some(FailReason::Timeout);
            self.metrics.counter_inc("tasks_failed_timeout", Labels::none());
            let (job_id, task_id) = (rec.job_id, rec.task_id);
            self.on_task_resolved(ctx, self.job_to_plan[&job_id], task_id, true);
            return;
        }

        if timer_id & RELEASE_BIT != 0 && payload < self.plans.len() {
            self.release_ready(ctx, payload);
        }
    }

    fn on_udp(
        &mut self,
        ctx: &mut AppCtx<'_>,
        _from: Ipv4Addr,
        _from_port: u16,
        to_port: u16,
        payload: &[u8],
    ) {
        let Ok(msg) = ControlMsg::decode(&mut &payload[..]) else { return };
        match (to_port, msg) {
            (SCHED_CLIENT_UDP_PORT, ControlMsg::SchedResponse { job_id, candidates }) => {
                let Some(pending) = self.awaiting_response.remove(&job_id) else { return };
                let workflow_id = self.plans[pending.plan].workflow_id;
                if candidates.is_empty() {
                    // Nowhere to run: account for every planned task with
                    // an unplaceable record instead of dropping the job.
                    self.metrics.counter_add(
                        "tasks_unplaceable",
                        Labels::none(),
                        pending.tasks.len() as u64,
                    );
                    for task in &pending.tasks {
                        self.push_failed_record(
                            ctx.now,
                            job_id,
                            workflow_id,
                            pending.submitted_at,
                            task,
                            FailReason::Unplaceable,
                        );
                        self.plans[pending.plan].failed.insert(task.task_id);
                    }
                    self.release_ready(ctx, pending.plan);
                    return;
                }
                for (i, task) in pending.tasks.iter().enumerate() {
                    // Top-N assignment: task i goes to candidate i (wrap if
                    // the list is short).
                    let server = candidates[i % candidates.len()].node;
                    self.dispatch_task(
                        ctx,
                        job_id,
                        workflow_id,
                        pending.submitted_at,
                        task,
                        server,
                    );
                }
            }
            (
                TASK_UDP_PORT,
                ControlMsg::TaskDone { job_id, task_id, data_received_ts_ns, queue_wait_ns, .. },
            ) => {
                let Some(&idx) = self.record_idx.get(&(job_id, task_id)) else { return };
                let rec = &mut self.records[idx];
                if rec.resolved() {
                    return; // duplicate callback, or already timed out
                }
                rec.data_received_at = Some(SimTime(data_received_ts_ns));
                rec.queue_wait_ns = Some(queue_wait_ns);
                rec.completed_at = Some(ctx.now);
                self.metrics.counter_inc("tasks_completed", Labels::none());
                if rec.deadline_ns != 0 && ctx.now.as_nanos() > rec.deadline_ns {
                    self.metrics.counter_inc("tasks_missed_deadline", Labels::none());
                }
                self.on_task_resolved(ctx, self.job_to_plan[&job_id], task_id, false);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeSenderApp;
    use crate::scheduler::SchedulerApp;
    use int_core::rank::StaticDistances;
    use int_core::{CoreConfig, Policy};
    use int_netsim::{FaultPlan, LinkParams, SimConfig, Simulator};
    use int_packet::msgs::Candidate;
    use int_workload::{JobKind, TaskClass, TaskSpec, WorkflowSpec, WorkflowTaskSpec};

    /// h0 (device) — s2 — h1 (server+scheduler side below)
    ///                \— s3 — h4 (scheduler)
    /// Minimal star: device h0, server h1, scheduler h4 around switch s2/s3.
    fn star() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let device = t.add_host("device");
        let server = t.add_host("server");
        let s = t.add_switch("s");
        let scheduler = t.add_host("sched");
        t.add_link(device, s, LinkParams::paper_default());
        t.add_link(server, s, LinkParams::paper_default());
        t.add_link(scheduler, s, LinkParams::paper_default());
        (t, device, server, scheduler)
    }

    fn job(
        job_id: u64,
        submitter: u32,
        at_s: u64,
        class: TaskClass,
        data_kb: u64,
        exec_ms: u64,
    ) -> JobSpec {
        JobSpec {
            job_id,
            submitter,
            submit_at_ns: at_s * 1_000_000_000,
            kind: JobKind::Serverless,
            tasks: vec![TaskSpec {
                task_id: 0,
                data_bytes: data_kb * 1000,
                exec_ns: exec_ms * 1_000_000,
                class,
            }],
        }
    }

    /// Test-only scheduler: answers every query with a fixed candidate
    /// list (possibly empty), no telemetry required.
    struct StubSchedulerApp {
        candidates: Vec<Candidate>,
    }

    impl App for StubSchedulerApp {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.bind_udp(SCHEDULER_UDP_PORT);
        }

        fn on_udp(
            &mut self,
            ctx: &mut AppCtx<'_>,
            from: Ipv4Addr,
            from_port: u16,
            _to_port: u16,
            payload: &[u8],
        ) {
            let Ok(ControlMsg::SchedRequest { job_id, .. }) =
                ControlMsg::decode(&mut &payload[..])
            else {
                return;
            };
            let resp =
                ControlMsg::SchedResponse { job_id, candidates: self.candidates.clone() };
            ctx.send_udp(SCHEDULER_UDP_PORT, from, from_port, resp.to_bytes());
        }
    }

    fn candidate(node: u32) -> Candidate {
        Candidate { node, est_delay_ns: 30_000_000, est_bandwidth_bps: 20_000_000 }
    }

    #[test]
    fn end_to_end_task_lifecycle() {
        let (t, device, server, scheduler) = star();
        let mut sim = Simulator::new(t, SimConfig::default());

        // Server probes the scheduler so the map learns it.
        sim.install_app(
            server,
            Box::new(ProbeSenderApp::new(
                Topology::host_ip(scheduler),
                ProbeSenderApp::DEFAULT_INTERVAL,
            )),
        );
        // Device also probes (so the scheduler knows the device's location).
        sim.install_app(
            device,
            Box::new(ProbeSenderApp::new(
                Topology::host_ip(scheduler),
                ProbeSenderApp::DEFAULT_INTERVAL,
            )),
        );
        sim.install_app(
            scheduler,
            Box::new(SchedulerApp::new(
                scheduler.0,
                Policy::IntDelay,
                CoreConfig::default(),
                StaticDistances::new(),
                1,
            )),
        );
        let exec = sim.install_app(server, Box::new(TaskExecutorApp::new()));
        let submit = sim.install_app(
            device,
            Box::new(TaskSubmitterApp::new(
                Topology::host_ip(scheduler),
                RankingKind::Delay,
                vec![job(1, device.0, 2, TaskClass::VerySmall, 500, 1000)],
            )),
        );

        sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));

        let sub = sim.app::<TaskSubmitterApp>(device, submit).unwrap();
        assert!(sub.all_done(), "records: {:?}", sub.records);
        let rec = &sub.records[0];
        // Task goes to the only candidate that isn't the requester or…
        // actually scheduler itself is also a candidate; top-ranked must be
        // one of the two.
        assert!(rec.server == Some(server.0) || rec.server == Some(scheduler.0));
        let transfer = rec.transfer_time().unwrap();
        // 500 kB over a 20 Mbit/s two-hop path: ≥ 0.2 s line-rate bound.
        assert!(transfer.as_secs_f64() > 0.2, "transfer {transfer}");
        let completion = rec.completion_time().unwrap();
        assert!(
            completion.as_secs_f64() > transfer.as_secs_f64() + 1.0,
            "completion {completion} includes the 1 s execution"
        );
        assert_eq!(rec.queue_wait_ns, Some(0), "unlimited slots: no queueing");

        let ex = sim.app::<TaskExecutorApp>(server, exec).unwrap();
        if rec.server == Some(server.0) {
            assert_eq!(ex.executed.len(), 1);
            assert_eq!(ex.executed[0].data_bytes, 500_000);
            assert_eq!(ex.executed[0].origin, device.0);
        }
    }

    #[test]
    fn distributed_job_fans_out_to_three_servers() {
        // 5 hosts on one switch: device, 3 servers, scheduler.
        let mut t = Topology::new();
        let device = t.add_host("device");
        let s = t.add_switch("s");
        let servers: Vec<NodeId> = (0..3).map(|i| t.add_host(format!("srv{i}"))).collect();
        let scheduler = t.add_host("sched");
        t.add_link(device, s, LinkParams::paper_default());
        for &srv in &servers {
            t.add_link(srv, s, LinkParams::paper_default());
        }
        t.add_link(scheduler, s, LinkParams::paper_default());

        let mut sim = Simulator::new(t, SimConfig::default());
        for &srv in &servers {
            sim.install_app(
                srv,
                Box::new(ProbeSenderApp::new(
                    Topology::host_ip(scheduler),
                    ProbeSenderApp::DEFAULT_INTERVAL,
                )),
            );
            sim.install_app(srv, Box::new(TaskExecutorApp::new()));
        }
        sim.install_app(
            device,
            Box::new(ProbeSenderApp::new(
                Topology::host_ip(scheduler),
                ProbeSenderApp::DEFAULT_INTERVAL,
            )),
        );
        sim.install_app(
            scheduler,
            Box::new(SchedulerApp::new(
                scheduler.0,
                Policy::IntDelay,
                CoreConfig::default(),
                StaticDistances::new(),
                1,
            )),
        );

        let dist_job = JobSpec {
            job_id: 9,
            submitter: device.0,
            submit_at_ns: 2_000_000_000,
            kind: JobKind::Distributed,
            tasks: (0..3)
                .map(|task_id| TaskSpec {
                    task_id,
                    data_bytes: 100_000,
                    exec_ns: 500_000_000,
                    class: TaskClass::VerySmall,
                })
                .collect(),
        };
        let submit = sim.install_app(
            device,
            Box::new(TaskSubmitterApp::new(
                Topology::host_ip(scheduler),
                RankingKind::Delay,
                vec![dist_job],
            )),
        );

        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let sub = sim.app::<TaskSubmitterApp>(device, submit).unwrap();
        assert!(sub.all_done(), "{:?}", sub.records);
        assert_eq!(sub.records.len(), 3);
        let used: std::collections::BTreeSet<u32> =
            sub.records.iter().filter_map(|r| r.server).collect();
        assert_eq!(used.len(), 3, "three distinct servers used: {used:?}");
    }

    #[test]
    fn run_queue_orders_fifo_and_edf() {
        let ready = |task_id: u64, deadline_ns: u64, seq: u64| ReadyTask {
            header: TaskStreamHeader {
                job_id: 1,
                task_id,
                origin: 0,
                exec_duration_ns: 1,
                deadline_ns,
                data_len: 0,
            },
            accepted_at: SimTime::ZERO,
            data_received_at: SimTime::ZERO,
            seq,
        };

        // FIFO pops in arrival order regardless of deadlines.
        let mut q = RunQueue::default();
        q.push(ready(0, 50, 0));
        q.push(ready(1, 10, 1));
        q.push(ready(2, 30, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(RunQueueOrder::Fifo))
            .map(|t| t.header.task_id)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);

        // EDF pops earliest deadline first; 0 (= none) goes last; ties
        // break by arrival.
        let mut q = RunQueue::default();
        q.push(ready(0, 50, 0));
        q.push(ready(1, 0, 1));
        q.push(ready(2, 10, 2));
        q.push(ready(3, 10, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(RunQueueOrder::Edf))
            .map(|t| t.header.task_id)
            .collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn edf_executor_runs_urgent_task_first() {
        // One single-slot executor; three root tasks released together.
        // Arrival order (by data size over the shared uplink) is 0, 1, 2,
        // but task 2's deadline is earlier than task 1's: EDF must run it
        // first once the slot frees; FIFO must not.
        let wf = |order: RunQueueOrder| {
            let (t, device, server, scheduler) = star();
            let mut sim = Simulator::new(t, SimConfig::default());
            sim.install_app(
                scheduler,
                Box::new(StubSchedulerApp { candidates: vec![candidate(server.0)] }),
            );
            let exec = sim.install_app(
                server,
                Box::new(TaskExecutorApp::with_config(ExecutorConfig {
                    slots: 1,
                    order,
                    report_load_to: None,
                })),
            );
            let task = |task_id: u64, data_kb: u64, exec_ms: u64, deadline_s: u64| {
                WorkflowTaskSpec {
                    task_id,
                    data_bytes: data_kb * 1000,
                    exec_ns: exec_ms * 1_000_000,
                    class: TaskClass::VerySmall,
                    deadline_ns: deadline_s * 1_000_000_000,
                    parents: vec![],
                }
            };
            let spec = WorkflowSpec {
                workflow_id: 1,
                submitter: device.0,
                release_at_ns: 1_000_000_000,
                tasks: vec![
                    task(0, 50, 10_000, 1000), // runs first, holds the slot 10 s
                    task(1, 100, 100, 500),    // arrives second, late deadline
                    task(2, 200, 100, 100),    // arrives third, urgent
                ],
            };
            let submit = sim.install_app(
                device,
                Box::new(TaskSubmitterApp::new_workflows(
                    Topology::host_ip(scheduler),
                    RankingKind::Delay,
                    vec![spec],
                )),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
            let sub = sim.app::<TaskSubmitterApp>(device, submit).unwrap();
            assert!(sub.all_done(), "{:?}", sub.records);
            let ex = sim.app::<TaskExecutorApp>(server, exec).unwrap();
            let order: Vec<u64> = ex.executed.iter().map(|e| e.task_id).collect();
            let waited: Vec<u64> = ex.executed.iter().map(|e| e.queue_wait_ns).collect();
            (order, waited, sub.records.clone())
        };

        let (edf_order, edf_waits, records) = wf(RunQueueOrder::Edf);
        assert_eq!(edf_order, vec![0, 2, 1], "EDF runs the urgent task first");
        assert_eq!(edf_waits[0], 0, "first task takes the free slot");
        assert!(edf_waits[1] > 0 && edf_waits[2] > 0, "queued tasks record their wait");
        // Queue waits propagate to the submitter's records.
        for r in &records {
            if r.task_id != 0 {
                assert!(r.queue_wait_ns.unwrap() > 0, "{r:?}");
            }
        }

        let (fifo_order, _, _) = wf(RunQueueOrder::Fifo);
        assert_eq!(fifo_order, vec![0, 1, 2], "FIFO runs in arrival order");
    }

    /// A job is submitted as a one-stage workflow: the same three tasks as
    /// a 3-task job and as one parentless workflow leave records that
    /// differ only in the query id and the workflow tag.
    #[test]
    fn a_job_is_a_one_stage_workflow() {
        let (t, device, server, scheduler) = star();
        let run = |app: TaskSubmitterApp| {
            let mut sim = Simulator::new(t.clone(), SimConfig::default());
            let stub = StubSchedulerApp { candidates: vec![candidate(server.0)] };
            sim.install_app(scheduler, Box::new(stub));
            sim.install_app(server, Box::new(TaskExecutorApp::new()));
            let submit = sim.install_app(device, Box::new(app));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
            let sub = sim.app::<TaskSubmitterApp>(device, submit).unwrap();
            assert!(sub.all_done(), "{:?}", sub.records);
            sub.records.clone()
        };
        let tasks: Vec<TaskSpec> = [(0, 300, 800), (1, 100, 200), (2, 200, 500)]
            .into_iter()
            .map(|(task_id, kb, ms)| TaskSpec {
                task_id,
                data_bytes: kb * 1000,
                exec_ns: ms * 1_000_000,
                class: TaskClass::VerySmall,
            })
            .collect();
        let stage = tasks
            .iter()
            .map(|t| WorkflowTaskSpec {
                task_id: t.task_id,
                data_bytes: t.data_bytes,
                exec_ns: t.exec_ns,
                class: t.class,
                deadline_ns: 0,
                parents: vec![],
            })
            .collect();
        let (sched, at_ns) = (Topology::host_ip(scheduler), 2_000_000_000);
        let kind = JobKind::Distributed;
        let job = JobSpec { job_id: 9, submitter: device.0, submit_at_ns: at_ns, kind, tasks };
        let wf = WorkflowSpec { workflow_id: 4, submitter: device.0, release_at_ns: at_ns, tasks: stage };
        let as_job = run(TaskSubmitterApp::new(sched, RankingKind::Delay, vec![job]));
        let as_workflow = run(TaskSubmitterApp::new_workflows(sched, RankingKind::Delay, vec![wf]));

        assert_eq!((as_job.len(), as_workflow.len()), (3, 3));
        for (j, w) in as_job.iter().zip(&as_workflow) {
            assert_eq!((j.job_id, j.workflow_id), (9, None), "a job's query id is its job id");
            assert_eq!((w.job_id, w.workflow_id), (4 << 16, Some(4)), "stage 0 of workflow 4");
            assert!(j.completed_at.is_some(), "{j:?}");
            assert_eq!(*j, TaskRecord { job_id: j.job_id, workflow_id: j.workflow_id, ..*w });
        }
    }

    #[test]
    fn workflow_stages_release_only_after_parents_complete() {
        let (t, device, server, scheduler) = star();
        let mut sim = Simulator::new(t, SimConfig::default());
        sim.install_app(
            scheduler,
            Box::new(StubSchedulerApp { candidates: vec![candidate(server.0)] }),
        );
        sim.install_app(server, Box::new(TaskExecutorApp::new()));
        let chain = WorkflowSpec {
            workflow_id: 7,
            submitter: device.0,
            release_at_ns: 1_000_000_000,
            tasks: (0..3)
                .map(|task_id| WorkflowTaskSpec {
                    task_id,
                    data_bytes: 50_000,
                    exec_ns: 500_000_000,
                    class: TaskClass::VerySmall,
                    deadline_ns: 0,
                    parents: if task_id == 0 { vec![] } else { vec![task_id - 1] },
                })
                .collect(),
        };
        let submit = sim.install_app(
            device,
            Box::new(TaskSubmitterApp::new_workflows(
                Topology::host_ip(scheduler),
                RankingKind::Delay,
                vec![chain],
            )),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let sub = sim.app::<TaskSubmitterApp>(device, submit).unwrap();
        assert!(sub.all_done(), "{:?}", sub.records);
        assert_eq!(sub.records.len(), 3);
        // Records appear in stage order, each dispatched only after the
        // previous task's completion callback.
        for w in sub.records.windows(2) {
            assert!(
                w[1].dispatched_at.unwrap().as_nanos() >= w[0].completed_at.unwrap().as_nanos(),
                "child dispatched before its parent completed: {w:?}"
            );
        }
        assert!(sub.records.iter().all(|r| r.workflow_id == Some(7)));
        // Each stage got its own scheduler query → distinct job ids.
        let jobs: BTreeSet<u64> = sub.records.iter().map(|r| r.job_id).collect();
        assert_eq!(jobs.len(), 3);
    }

    #[test]
    fn empty_candidates_yield_unplaceable_records() {
        let (t, device, _server, scheduler) = star();
        let mut sim = Simulator::new(t, SimConfig::default());
        // An all-excluded map: the stub scheduler answers with no
        // candidates at all.
        sim.install_app(scheduler, Box::new(StubSchedulerApp { candidates: vec![] }));
        let mut sub_app = TaskSubmitterApp::new(
            Topology::host_ip(scheduler),
            RankingKind::Delay,
            vec![job(1, device.0, 1, TaskClass::VerySmall, 100, 500)],
        );
        sub_app.set_metrics_enabled(true);
        let submit = sim.install_app(device, Box::new(sub_app));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));

        let sub = sim.app::<TaskSubmitterApp>(device, submit).unwrap();
        assert_eq!(sub.records.len(), 1, "the planned task is accounted for");
        let rec = &sub.records[0];
        assert_eq!(rec.fail_reason, Some(FailReason::Unplaceable));
        assert!(rec.failed_at.is_some());
        assert_eq!(rec.server, None);
        assert_eq!(rec.dispatched_at, None);
        assert!(sub.all_done(), "unplaceable tasks resolve all_done");
        assert_eq!(sub.metrics().counter("tasks_unplaceable", Labels::none()), 1);
    }

    #[test]
    fn completion_timeout_unwedges_a_faulted_transfer() {
        // A 5 MB stream over a ~20 Mbit/s path takes ~2 s; the server's
        // link is cut 1 s into the transfer. The transport retries forever
        // and the executor never sees a close — without the timeout the
        // submitter would wait for the completion callback indefinitely.
        let (t, device, server, scheduler) = star();
        let mut sim = Simulator::new(t.clone(), SimConfig::default());
        sim.install_app(
            scheduler,
            Box::new(StubSchedulerApp { candidates: vec![candidate(server.0)] }),
        );
        let exec = sim.install_app(server, Box::new(TaskExecutorApp::new()));
        let mut sub_app = TaskSubmitterApp::new(
            Topology::host_ip(scheduler),
            RankingKind::Delay,
            vec![job(1, device.0, 2, TaskClass::Large, 5000, 500)],
        )
        .with_completion_timeout(SimDuration::from_secs(10));
        sub_app.set_metrics_enabled(true);
        let submit = sim.install_app(device, Box::new(sub_app));

        // The star's switch is the node right after device and server.
        let switch = NodeId(2);
        sim.install_fault_plan(&FaultPlan::new().link_down(
            server,
            switch,
            SimTime::ZERO + SimDuration::from_secs(3),
        ));

        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let sub = sim.app::<TaskSubmitterApp>(device, submit).unwrap();
        assert!(sub.all_done(), "the timeout resolves the record: {:?}", sub.records);
        let rec = &sub.records[0];
        assert_eq!(rec.fail_reason, Some(FailReason::Timeout));
        assert!(rec.failed_at.is_some());
        assert!(rec.completed_at.is_none());
        // Timeout armed at dispatch (~2 s): fires ~12 s, well before the
        // 30 s horizon.
        assert!(rec.failed_at.unwrap().as_nanos() < 15_000_000_000);
        assert_eq!(sub.metrics().counter("tasks_failed_timeout", Labels::none()), 1);
        // The executor never saw the payload complete.
        let ex = sim.app::<TaskExecutorApp>(server, exec).unwrap();
        assert!(ex.executed.is_empty());
    }

    #[test]
    fn failed_parent_cascades_to_descendants() {
        // Chain 0 → 1 → 2 where task 0 is unplaceable: 1 and 2 must be
        // terminally failed (ParentFailed) so the workflow still resolves.
        let (t, device, _server, scheduler) = star();
        let mut sim = Simulator::new(t, SimConfig::default());
        sim.install_app(scheduler, Box::new(StubSchedulerApp { candidates: vec![] }));
        let chain = WorkflowSpec {
            workflow_id: 3,
            submitter: device.0,
            release_at_ns: 1_000_000_000,
            tasks: (0..3)
                .map(|task_id| WorkflowTaskSpec {
                    task_id,
                    data_bytes: 10_000,
                    exec_ns: 100_000_000,
                    class: TaskClass::VerySmall,
                    deadline_ns: 0,
                    parents: if task_id == 0 { vec![] } else { vec![task_id - 1] },
                })
                .collect(),
        };
        let submit = sim.install_app(
            device,
            Box::new(TaskSubmitterApp::new_workflows(
                Topology::host_ip(scheduler),
                RankingKind::Delay,
                vec![chain],
            )),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let sub = sim.app::<TaskSubmitterApp>(device, submit).unwrap();
        assert!(sub.all_done(), "{:?}", sub.records);
        assert_eq!(sub.records.len(), 3);
        let reasons: Vec<FailReason> =
            sub.records.iter().map(|r| r.fail_reason.unwrap()).collect();
        assert_eq!(
            reasons,
            vec![FailReason::Unplaceable, FailReason::ParentFailed, FailReason::ParentFailed]
        );
    }
}
