//! Sharing the PSCAN physical layer with non-SCA traffic.
//!
//! §IV: "the PSCAN physical layer was deliberately designed to be generic,
//! such that it could be shared with other traffic besides SCA and SCA⁻¹
//! transactions" — P-sync "does not preclude communication between
//! processors". This module provides the static-TDM planner that makes that
//! sharing collision-free: SCA transactions reserve slot ranges up front;
//! point-to-point messages are packed into the remaining slots, respecting
//! the waveguide's directionality (a message can only flow downstream).

use serde::Serialize;

use crate::cp::{CommProgram, CpAction, CpEntry};
use crate::NodeId;

/// A point-to-point message request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Message {
    /// Sender (must be upstream of the receiver).
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Payload length in bus words.
    pub words: u64,
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// src ≥ dst: the waveguide only flows downstream.
    WrongDirection {
        /// The offending message index.
        index: usize,
    },
    /// Not enough free slots in the frame.
    FrameFull {
        /// Slots still needed when the frame ran out.
        deficit: u64,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::WrongDirection { index } => {
                write!(
                    f,
                    "message {index} flows upstream: impossible on a directional bus"
                )
            }
            PlanError::FrameFull { deficit } => {
                write!(f, "frame too small: {deficit} more slots needed")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A TDM frame plan: per-node programs combining reserved SCA runs and
/// packed messages.
#[derive(Debug, Clone)]
pub struct FramePlan {
    /// Per-node combined communication programs.
    pub programs: Vec<CommProgram>,
    /// Slot ranges assigned to each message, in request order.
    pub message_slots: Vec<(u64, u64)>,
    /// Total frame length in slots.
    pub frame_len: u64,
}

/// Plans a frame of `frame_len` slots over `nodes` nodes.
#[derive(Debug, Clone)]
pub struct TdmPlanner {
    nodes: usize,
    frame_len: u64,
    /// (start, len, node) reservations from SCA transactions.
    reserved: Vec<(u64, u64, NodeId)>,
}

impl TdmPlanner {
    /// New planner.
    pub fn new(nodes: usize, frame_len: u64) -> Self {
        TdmPlanner {
            nodes,
            frame_len,
            reserved: Vec::new(),
        }
    }

    /// Reserve `[start, start+len)` for `node` to drive (an SCA share).
    ///
    /// # Panics
    /// Panics on out-of-frame or overlapping reservations — reservations
    /// come from the SCA compiler, which never produces either.
    pub fn reserve(&mut self, node: NodeId, start: u64, len: u64) -> &mut Self {
        assert!(node < self.nodes, "node {node} out of range");
        assert!(start + len <= self.frame_len, "reservation exceeds frame");
        for &(s, l, _) in &self.reserved {
            assert!(
                start + len <= s || s + l <= start,
                "overlapping reservation"
            );
        }
        self.reserved.push((start, len, node));
        self
    }

    /// Pack `messages` into the unreserved slots and emit per-node CPs.
    pub fn plan(&self, messages: &[Message]) -> Result<FramePlan, PlanError> {
        for (i, m) in messages.iter().enumerate() {
            if m.src >= m.dst || m.dst >= self.nodes {
                return Err(PlanError::WrongDirection { index: i });
            }
        }
        // Free-slot scan: sorted reservations, then first-fit packing.
        let mut res = self.reserved.clone();
        res.sort_unstable();
        let mut free: Vec<(u64, u64)> = Vec::new(); // (start, len)
        let mut cursor = 0;
        for &(s, l, _) in &res {
            if s > cursor {
                free.push((cursor, s - cursor));
            }
            cursor = s + l;
        }
        if cursor < self.frame_len {
            free.push((cursor, self.frame_len - cursor));
        }

        // Per-node entry lists: start from reservations (Drive).
        let mut drive: Vec<Vec<CpEntry>> = vec![Vec::new(); self.nodes];
        let mut listen: Vec<Vec<CpEntry>> = vec![Vec::new(); self.nodes];
        for &(s, l, n) in &res {
            drive[n].push(CpEntry {
                start: s,
                len: l,
                action: CpAction::Drive,
            });
        }

        let mut message_slots = Vec::with_capacity(messages.len());
        let mut fi = 0;
        for m in messages {
            let mut need = m.words;
            let mut first = None;
            // Messages may fragment across free runs; record the first
            // fragment for reporting.
            while need > 0 {
                let Some(run) = free.get_mut(fi) else {
                    return Err(PlanError::FrameFull { deficit: need });
                };
                if run.1 == 0 {
                    fi += 1;
                    continue;
                }
                let take = need.min(run.1);
                let start = run.0;
                if first.is_none() {
                    first = Some(start);
                }
                drive[m.src].push(CpEntry {
                    start,
                    len: take,
                    action: CpAction::Drive,
                });
                listen[m.dst].push(CpEntry {
                    start,
                    len: take,
                    action: CpAction::Listen,
                });
                run.0 += take;
                run.1 -= take;
                need -= take;
            }
            message_slots.push((first.expect("nonzero message"), m.words));
        }

        // Merge drive + listen per node, sort, build programs.
        let mut programs = Vec::with_capacity(self.nodes);
        for n in 0..self.nodes {
            let mut entries = drive[n].clone();
            entries.extend(listen[n].iter().copied());
            entries.sort_by_key(|e| e.start);
            programs.push(CommProgram::new(entries).expect("planner produced overlapping entries"));
        }
        Ok(FramePlan {
            programs,
            message_slots,
            frame_len: self.frame_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusSim;
    use photonics::waveguide::ChipLayout;
    use photonics::wdm::WavelengthPlan;

    #[test]
    fn messages_pack_around_reservations() {
        let mut p = TdmPlanner::new(4, 32);
        p.reserve(1, 8, 8); // an SCA share in the middle of the frame
        let plan = p
            .plan(&[
                Message {
                    src: 0,
                    dst: 3,
                    words: 8,
                },
                Message {
                    src: 0,
                    dst: 2,
                    words: 10,
                },
            ])
            .unwrap();
        // First message fits before the reservation; second wraps past it.
        assert_eq!(plan.message_slots[0], (0, 8));
        assert_eq!(plan.message_slots[1].0, 16);
        // Programs are valid and disjoint in Drive slots.
        assert!(crate::compiler::CpCompiler::audit_disjoint(&plan.programs).is_ok());
    }

    #[test]
    fn planned_frame_executes_on_the_bus() {
        let mut p = TdmPlanner::new(4, 16);
        p.reserve(2, 0, 4);
        let plan = p
            .plan(&[Message {
                src: 0,
                dst: 1,
                words: 3,
            }])
            .unwrap();
        let bus = BusSim::new(ChipLayout::square(20.0, 4), WavelengthPlan::paper_320g());
        // Node 2 drives its SCA share; node 0 drives the message.
        let data = vec![vec![100, 101, 102], vec![], vec![1, 2, 3, 4], vec![]];
        let out = bus.transact(&plan.programs, &data).unwrap();
        assert_eq!(out.delivered[1], vec![100, 101, 102]);
        // SCA share coalesces at the terminus untouched.
        assert_eq!(
            out.gather.received[0..4],
            [Some(1), Some(2), Some(3), Some(4)]
        );
    }

    #[test]
    fn upstream_messages_rejected() {
        let p = TdmPlanner::new(4, 16);
        let err = p
            .plan(&[Message {
                src: 3,
                dst: 1,
                words: 1,
            }])
            .unwrap_err();
        assert_eq!(err, PlanError::WrongDirection { index: 0 });
        let err = p
            .plan(&[Message {
                src: 2,
                dst: 2,
                words: 1,
            }])
            .unwrap_err();
        assert_eq!(err, PlanError::WrongDirection { index: 0 });
    }

    #[test]
    fn overfull_frame_rejected() {
        let mut p = TdmPlanner::new(2, 8);
        p.reserve(0, 0, 6);
        let err = p
            .plan(&[Message {
                src: 0,
                dst: 1,
                words: 4,
            }])
            .unwrap_err();
        assert_eq!(err, PlanError::FrameFull { deficit: 2 });
    }

    #[test]
    #[should_panic(expected = "overlapping reservation")]
    fn overlapping_reservations_rejected() {
        let mut p = TdmPlanner::new(4, 32);
        p.reserve(0, 0, 8).reserve(1, 4, 8);
    }
}
