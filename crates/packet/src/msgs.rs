//! Control-plane messages carried over UDP between edge devices, edge
//! servers, and the scheduler (paper Fig. 1, steps 3–6), plus the task
//! stream header used by the reliable transport and the echo payloads used
//! by the ping application.

use crate::wire::{need, WireDecode, WireEncode};
use crate::{PacketError, Result};
use bytes::{Buf, BufMut};
use serde::Serialize;

/// Which ranking the edge device asks the scheduler to apply (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RankingKind {
    /// Sort candidates by estimated end-to-end delay (paper §III-C, Alg. 1).
    Delay,
    /// Sort candidates by estimated available path bandwidth (paper §III-D).
    Bandwidth,
}

impl RankingKind {
    fn value(self) -> u8 {
        match self {
            RankingKind::Delay => 0,
            RankingKind::Bandwidth => 1,
        }
    }

    fn from_value(v: u8) -> Result<Self> {
        match v {
            0 => Ok(RankingKind::Delay),
            1 => Ok(RankingKind::Bandwidth),
            other => {
                Err(PacketError::InvalidField { field: "ranking_kind", value: other as u64 })
            }
        }
    }
}

/// One candidate edge server in a scheduler response, with the network
/// performance the scheduler estimated for the path device → server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Candidate {
    /// Node id of the edge server.
    pub node: u32,
    /// Estimated one-way delay from the querying device, ns.
    pub est_delay_ns: u64,
    /// Estimated available path bandwidth, bits/s.
    pub est_bandwidth_bps: u64,
}

impl Candidate {
    const LEN: usize = 4 + 8 + 8;

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.node);
        buf.put_u64(self.est_delay_ns);
        buf.put_u64(self.est_bandwidth_bps);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "candidate", Self::LEN)?;
        Ok(Candidate {
            node: buf.get_u32(),
            est_delay_ns: buf.get_u64(),
            est_bandwidth_bps: buf.get_u64(),
        })
    }
}

/// Every control-plane message exchanged over UDP.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ControlMsg {
    /// Edge device → scheduler: "give me ranked candidate servers".
    SchedRequest {
        /// Node id of the querying edge device.
        requester: u32,
        /// Job this query is for (echoed in the response).
        job_id: u64,
        /// How many servers the device intends to use (1 for serverless,
        /// 3 for distributed jobs in the paper's evaluation).
        task_count: u8,
        /// Ranking metric to apply.
        ranking: RankingKind,
    },
    /// Scheduler → edge device: ranked candidate list (best first).
    SchedResponse {
        /// Job the response refers to.
        job_id: u64,
        /// Candidates sorted best-first by the requested metric.
        candidates: Vec<Candidate>,
    },
    /// Edge server → edge device: a task finished executing.
    TaskDone {
        /// Job the task belongs to.
        job_id: u64,
        /// Task within the job.
        task_id: u64,
        /// Node that executed the task.
        executed_on: u32,
        /// Server-side time at which the task's input data had fully
        /// arrived, ns — lets the submitter compute the transfer time.
        data_received_ts_ns: u64,
        /// Time the task spent in the executor's run queue waiting for a
        /// free slot, ns (0 when a slot was free on arrival).
        queue_wait_ns: u64,
    },
    /// Edge server → scheduler: outstanding-task count changed. Keeps the
    /// scheduler's [`ComputeTracker`](../../int_core/compute/struct.ComputeTracker.html)
    /// load view current for the composite (load-aware) policies.
    LoadReport {
        /// Reporting edge server.
        host: u32,
        /// Tasks currently running or queued on that server.
        outstanding: u32,
    },
    /// Ping echo request.
    EchoRequest {
        /// Sequence number.
        seq: u64,
        /// Sender timestamp, ns.
        ts_ns: u64,
    },
    /// Ping echo reply (fields copied from the request).
    EchoReply {
        /// Sequence number from the request.
        seq: u64,
        /// Sender timestamp from the request, ns.
        ts_ns: u64,
    },
}

const TAG_SCHED_REQUEST: u8 = 1;
const TAG_SCHED_RESPONSE: u8 = 2;
const TAG_TASK_DONE: u8 = 3;
const TAG_ECHO_REQUEST: u8 = 4;
const TAG_ECHO_REPLY: u8 = 5;
const TAG_LOAD_REPORT: u8 = 6;

impl WireEncode for ControlMsg {
    fn encoded_len(&self) -> usize {
        1 + match self {
            ControlMsg::SchedRequest { .. } => 4 + 8 + 1 + 1,
            ControlMsg::SchedResponse { candidates, .. } => 8 + 2 + candidates.len() * Candidate::LEN,
            ControlMsg::TaskDone { .. } => 8 + 8 + 4 + 8 + 8,
            ControlMsg::LoadReport { .. } => 4 + 4,
            ControlMsg::EchoRequest { .. } | ControlMsg::EchoReply { .. } => 8 + 8,
        }
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            ControlMsg::SchedRequest { requester, job_id, task_count, ranking } => {
                buf.put_u8(TAG_SCHED_REQUEST);
                buf.put_u32(*requester);
                buf.put_u64(*job_id);
                buf.put_u8(*task_count);
                buf.put_u8(ranking.value());
            }
            ControlMsg::SchedResponse { job_id, candidates } => {
                buf.put_u8(TAG_SCHED_RESPONSE);
                buf.put_u64(*job_id);
                debug_assert!(candidates.len() <= u16::MAX as usize);
                buf.put_u16(candidates.len() as u16);
                for c in candidates {
                    c.encode(buf);
                }
            }
            ControlMsg::TaskDone { job_id, task_id, executed_on, data_received_ts_ns, queue_wait_ns } => {
                buf.put_u8(TAG_TASK_DONE);
                buf.put_u64(*job_id);
                buf.put_u64(*task_id);
                buf.put_u32(*executed_on);
                buf.put_u64(*data_received_ts_ns);
                buf.put_u64(*queue_wait_ns);
            }
            ControlMsg::LoadReport { host, outstanding } => {
                buf.put_u8(TAG_LOAD_REPORT);
                buf.put_u32(*host);
                buf.put_u32(*outstanding);
            }
            ControlMsg::EchoRequest { seq, ts_ns } => {
                buf.put_u8(TAG_ECHO_REQUEST);
                buf.put_u64(*seq);
                buf.put_u64(*ts_ns);
            }
            ControlMsg::EchoReply { seq, ts_ns } => {
                buf.put_u8(TAG_ECHO_REPLY);
                buf.put_u64(*seq);
                buf.put_u64(*ts_ns);
            }
        }
    }
}

impl WireDecode for ControlMsg {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "control msg tag", 1)?;
        let tag = buf.get_u8();
        match tag {
            TAG_SCHED_REQUEST => {
                need(buf, "sched request", 4 + 8 + 1 + 1)?;
                Ok(ControlMsg::SchedRequest {
                    requester: buf.get_u32(),
                    job_id: buf.get_u64(),
                    task_count: buf.get_u8(),
                    ranking: RankingKind::from_value(buf.get_u8())?,
                })
            }
            TAG_SCHED_RESPONSE => {
                need(buf, "sched response", 8 + 2)?;
                let job_id = buf.get_u64();
                let n = buf.get_u16() as usize;
                let mut candidates = Vec::with_capacity(n);
                for _ in 0..n {
                    candidates.push(Candidate::decode(buf)?);
                }
                Ok(ControlMsg::SchedResponse { job_id, candidates })
            }
            TAG_TASK_DONE => {
                need(buf, "task done", 8 + 8 + 4 + 8 + 8)?;
                Ok(ControlMsg::TaskDone {
                    job_id: buf.get_u64(),
                    task_id: buf.get_u64(),
                    executed_on: buf.get_u32(),
                    data_received_ts_ns: buf.get_u64(),
                    queue_wait_ns: buf.get_u64(),
                })
            }
            TAG_LOAD_REPORT => {
                need(buf, "load report", 4 + 4)?;
                Ok(ControlMsg::LoadReport { host: buf.get_u32(), outstanding: buf.get_u32() })
            }
            TAG_ECHO_REQUEST => {
                need(buf, "echo request", 16)?;
                Ok(ControlMsg::EchoRequest { seq: buf.get_u64(), ts_ns: buf.get_u64() })
            }
            TAG_ECHO_REPLY => {
                need(buf, "echo reply", 16)?;
                Ok(ControlMsg::EchoReply { seq: buf.get_u64(), ts_ns: buf.get_u64() })
            }
            other => Err(PacketError::InvalidField { field: "control.tag", value: other as u64 }),
        }
    }
}

/// Header at the front of a task-submission byte stream (over the reliable
/// transport). After this header follow exactly `data_len` payload bytes —
/// the task's input data (paper Table I sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TaskStreamHeader {
    /// Job the task belongs to.
    pub job_id: u64,
    /// Task within the job.
    pub task_id: u64,
    /// Node id of the submitting edge device (for the completion callback).
    pub origin: u32,
    /// Simulated execution duration once the data has fully arrived, ns.
    pub exec_duration_ns: u64,
    /// Absolute completion deadline, ns since simulation epoch (0 = no
    /// deadline). EDF executors order their run queues by this.
    pub deadline_ns: u64,
    /// Number of payload bytes following this header.
    pub data_len: u64,
}

impl TaskStreamHeader {
    /// Wire size.
    pub const LEN: usize = 8 + 8 + 4 + 8 + 8 + 8;
}

impl WireEncode for TaskStreamHeader {
    fn encoded_len(&self) -> usize {
        Self::LEN
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64(self.job_id);
        buf.put_u64(self.task_id);
        buf.put_u32(self.origin);
        buf.put_u64(self.exec_duration_ns);
        buf.put_u64(self.deadline_ns);
        buf.put_u64(self.data_len);
    }
}

impl WireDecode for TaskStreamHeader {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        need(buf, "task stream header", Self::LEN)?;
        Ok(TaskStreamHeader {
            job_id: buf.get_u64(),
            task_id: buf.get_u64(),
            origin: buf.get_u32(),
            exec_duration_ns: buf.get_u64(),
            deadline_ns: buf.get_u64(),
            data_len: buf.get_u64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: ControlMsg) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.encoded_len(), "encoded_len exact for {msg:?}");
        let parsed = ControlMsg::decode(&mut &bytes[..]).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(ControlMsg::SchedRequest {
            requester: 3,
            job_id: 99,
            task_count: 3,
            ranking: RankingKind::Bandwidth,
        });
        roundtrip(ControlMsg::SchedResponse {
            job_id: 99,
            candidates: vec![
                Candidate { node: 1, est_delay_ns: 30_000_000, est_bandwidth_bps: 20_000_000 },
                Candidate { node: 5, est_delay_ns: 90_000_000, est_bandwidth_bps: 5_000_000 },
            ],
        });
        roundtrip(ControlMsg::TaskDone {
            job_id: 1,
            task_id: 2,
            executed_on: 8,
            data_received_ts_ns: 123_456,
            queue_wait_ns: 42_000,
        });
        roundtrip(ControlMsg::LoadReport { host: 3, outstanding: 17 });
        roundtrip(ControlMsg::EchoRequest { seq: 7, ts_ns: 1234 });
        roundtrip(ControlMsg::EchoReply { seq: 7, ts_ns: 1234 });
    }

    #[test]
    fn empty_candidate_list_roundtrips() {
        roundtrip(ControlMsg::SchedResponse { job_id: 1, candidates: vec![] });
    }

    #[test]
    fn unknown_tag_rejected() {
        let err = ControlMsg::decode(&mut &[0xEEu8][..]).unwrap_err();
        assert!(matches!(err, PacketError::InvalidField { field: "control.tag", .. }));
    }

    #[test]
    fn unknown_ranking_rejected() {
        let mut bytes = ControlMsg::SchedRequest {
            requester: 1,
            job_id: 1,
            task_count: 1,
            ranking: RankingKind::Delay,
        }
        .to_bytes();
        *bytes.last_mut().unwrap() = 9;
        assert!(ControlMsg::decode(&mut &bytes[..]).is_err());
    }

    #[test]
    fn task_header_roundtrip() {
        let h = TaskStreamHeader {
            job_id: 11,
            task_id: 2,
            origin: 4,
            exec_duration_ns: 5_000_000_000,
            deadline_ns: 20_000_000_000,
            data_len: 3_200_000,
        };
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), TaskStreamHeader::LEN);
        assert_eq!(TaskStreamHeader::decode(&mut &bytes[..]).unwrap(), h);
    }
}
