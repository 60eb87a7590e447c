//! The baseline scheduler↔agent wire protocol.

use vce_codec::{Codec, CodecError, Decoder, Encoder, Result};
use vce_net::NodeId;

use crate::workload::JobId;

impl Codec for JobId {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(JobId(u32::decode(dec)?))
    }
}

/// Messages between the central scheduler and worker agents.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineMsg {
    /// Scheduler → agent: run a job.
    Run {
        /// The job.
        job: JobId,
        /// Work to execute, Mops.
        mops: f64,
    },
    /// Scheduler → agent: suspend a running job (Stealth semantics).
    Suspend {
        /// The job.
        job: JobId,
    },
    /// Scheduler → agent: resume a suspended job.
    Resume {
        /// The job.
        job: JobId,
    },
    /// Scheduler → agent: kill a job and report its remaining work
    /// (migration recall / Spawn reclamation).
    Recall {
        /// The job.
        job: JobId,
        /// If false the remaining work is discarded at the scheduler
        /// (restart semantics).
        keep_progress: bool,
    },
    /// Agent → scheduler: recalled job state.
    Recalled {
        /// The job.
        job: JobId,
        /// Remaining work, Mops (full work if progress was discarded).
        remaining_mops: f64,
    },
    /// Agent → scheduler: job finished.
    Done {
        /// The job.
        job: JobId,
        /// Where.
        node: NodeId,
    },
    /// Agent → scheduler: periodic machine state.
    LoadReport {
        /// The machine.
        node: NodeId,
        /// Total load.
        load: f64,
        /// Owner component.
        background: f64,
        /// Nominal speed, Mops/s.
        speed_mops: f64,
    },
}

const T_RUN: u8 = 0;
const T_SUSPEND: u8 = 1;
const T_RESUME: u8 = 2;
const T_RECALL: u8 = 3;
const T_RECALLED: u8 = 4;
const T_DONE: u8 = 5;
const T_LOAD: u8 = 6;

impl Codec for BaselineMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            BaselineMsg::Run { job, mops } => {
                enc.put_u8(T_RUN);
                job.encode(enc);
                enc.put_f64(*mops);
            }
            BaselineMsg::Suspend { job } => {
                enc.put_u8(T_SUSPEND);
                job.encode(enc);
            }
            BaselineMsg::Resume { job } => {
                enc.put_u8(T_RESUME);
                job.encode(enc);
            }
            BaselineMsg::Recall { job, keep_progress } => {
                enc.put_u8(T_RECALL);
                job.encode(enc);
                enc.put_bool(*keep_progress);
            }
            BaselineMsg::Recalled {
                job,
                remaining_mops,
            } => {
                enc.put_u8(T_RECALLED);
                job.encode(enc);
                enc.put_f64(*remaining_mops);
            }
            BaselineMsg::Done { job, node } => {
                enc.put_u8(T_DONE);
                job.encode(enc);
                node.encode(enc);
            }
            BaselineMsg::LoadReport {
                node,
                load,
                background,
                speed_mops,
            } => {
                enc.put_u8(T_LOAD);
                node.encode(enc);
                enc.put_f64(*load);
                enc.put_f64(*background);
                enc.put_f64(*speed_mops);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            T_RUN => BaselineMsg::Run {
                job: JobId::decode(dec)?,
                mops: dec.get_f64()?,
            },
            T_SUSPEND => BaselineMsg::Suspend {
                job: JobId::decode(dec)?,
            },
            T_RESUME => BaselineMsg::Resume {
                job: JobId::decode(dec)?,
            },
            T_RECALL => BaselineMsg::Recall {
                job: JobId::decode(dec)?,
                keep_progress: dec.get_bool()?,
            },
            T_RECALLED => BaselineMsg::Recalled {
                job: JobId::decode(dec)?,
                remaining_mops: dec.get_f64()?,
            },
            T_DONE => BaselineMsg::Done {
                job: JobId::decode(dec)?,
                node: NodeId::decode(dec)?,
            },
            T_LOAD => BaselineMsg::LoadReport {
                node: NodeId::decode(dec)?,
                load: dec.get_f64()?,
                background: dec.get_f64()?,
                speed_mops: dec.get_f64()?,
            },
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    value: u64::from(other),
                    type_name: "BaselineMsg",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_round_trip() {
        let msgs = vec![
            BaselineMsg::Run {
                job: JobId(1),
                mops: 5.5,
            },
            BaselineMsg::Suspend { job: JobId(2) },
            BaselineMsg::Resume { job: JobId(2) },
            BaselineMsg::Recall {
                job: JobId(3),
                keep_progress: true,
            },
            BaselineMsg::Recalled {
                job: JobId(3),
                remaining_mops: 2.25,
            },
            BaselineMsg::Done {
                job: JobId(4),
                node: NodeId(7),
            },
            BaselineMsg::LoadReport {
                node: NodeId(1),
                load: 1.5,
                background: 0.5,
                speed_mops: 100.0,
            },
        ];
        for m in msgs {
            let bytes = vce_codec::to_bytes(&m);
            assert_eq!(vce_codec::from_bytes::<BaselineMsg>(&bytes).unwrap(), m);
        }
    }
}
