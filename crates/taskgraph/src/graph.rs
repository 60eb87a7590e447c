//! The task graph itself.

use vce_codec::{impl_codec_for_enum, Codec, Decoder, Encoder, Result};

use crate::task::{TaskId, TaskSpec};

/// What an arc means (§3.1: arcs "define the communication and
/// synchronization relationships among the tasks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArcKind {
    /// Producer → consumer dependency: the consumer cannot start until the
    /// producer finishes and its output is transferred.
    DataFlow,
    /// An ongoing channel between concurrently running tasks; imposes no
    /// start ordering but requires a VCE channel at runtime.
    Stream,
}

impl_codec_for_enum!(ArcKind {
    ArcKind::DataFlow => 0,
    ArcKind::Stream => 1,
});

/// A directed arc between two tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// Producer / sender.
    pub from: TaskId,
    /// Consumer / receiver.
    pub to: TaskId,
    /// Relationship kind.
    pub kind: ArcKind,
    /// Data volume carried, KiB (drives transfer latency and the
    /// channel layer's accounting).
    pub data_kib: u64,
}

impl Codec for Arc {
    fn encode(&self, enc: &mut Encoder) {
        self.from.encode(enc);
        self.to.encode(enc);
        self.kind.encode(enc);
        self.data_kib.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Arc {
            from: TaskId::decode(dec)?,
            to: TaskId::decode(dec)?,
            kind: ArcKind::decode(dec)?,
            data_kib: u64::decode(dec)?,
        })
    }
}

/// An application's task graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskGraph {
    /// Application name.
    pub name: String,
    tasks: Vec<TaskSpec>,
    arcs: Vec<Arc>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tasks: Vec::new(),
            arcs: Vec::new(),
        }
    }

    /// Insert a task, assigning its [`TaskId`].
    pub fn add_task(&mut self, mut task: TaskSpec) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        task.id = id;
        self.tasks.push(task);
        id
    }

    /// Connect two tasks. Panics on unknown ids (graph construction is
    /// programmer-driven; a bad id is a bug, not input).
    pub fn add_arc(&mut self, from: TaskId, to: TaskId, kind: ArcKind, data_kib: u64) {
        assert!(self.get(from).is_some(), "unknown task {from:?}");
        assert!(self.get(to).is_some(), "unknown task {to:?}");
        assert_ne!(from, to, "self-arcs are not allowed");
        self.arcs.push(Arc {
            from,
            to,
            kind,
            data_kib,
        });
    }

    /// Convenience: a dataflow dependency.
    pub fn depends(&mut self, consumer: TaskId, producer: TaskId, data_kib: u64) {
        self.add_arc(producer, consumer, ArcKind::DataFlow, data_kib);
    }

    /// Task by id.
    pub fn get(&self, id: TaskId) -> Option<&TaskSpec> {
        self.tasks.get(id.0 as usize)
    }

    /// Mutable task by id.
    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut TaskSpec> {
        self.tasks.get_mut(id.0 as usize)
    }

    /// All tasks in id order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// All arcs.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks exist.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Task ids.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Dataflow predecessors of `id` (tasks it waits for).
    pub fn predecessors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.arcs
            .iter()
            .filter(move |a| a.kind == ArcKind::DataFlow && a.to == id)
            .map(|a| a.from)
    }

    /// Dataflow successors of `id` (tasks waiting for it).
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.arcs
            .iter()
            .filter(move |a| a.kind == ArcKind::DataFlow && a.from == id)
            .map(|a| a.to)
    }

    /// Stream peers of `id` (channel partners).
    pub fn stream_peers(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.arcs.iter().filter_map(move |a| {
            if a.kind != ArcKind::Stream {
                None
            } else if a.from == id {
                Some(a.to)
            } else if a.to == id {
                Some(a.from)
            } else {
                None
            }
        })
    }

    /// Find a task id by name.
    pub fn find(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().find(|t| t.name == name).map(|t| t.id)
    }
}

impl Codec for TaskGraph {
    fn encode(&self, enc: &mut Encoder) {
        self.name.encode(enc);
        self.tasks.encode(enc);
        self.arcs.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(TaskGraph {
            name: String::decode(dec)?,
            tasks: Vec::<TaskSpec>::decode(dec)?,
            arcs: Vec::<Arc>::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        // a → b, a → c, b → d, c → d
        let mut g = TaskGraph::new("diamond");
        let a = g.add_task(TaskSpec::new("a"));
        let b = g.add_task(TaskSpec::new("b"));
        let c = g.add_task(TaskSpec::new("c"));
        let d = g.add_task(TaskSpec::new("d"));
        g.depends(b, a, 10);
        g.depends(c, a, 10);
        g.depends(d, b, 10);
        g.depends(d, c, 10);
        (g, [a, b, c, d])
    }

    #[test]
    fn ids_assigned_sequentially() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!([a, b, c, d], [TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.get(a).unwrap().name, "a");
        assert_eq!(g.find("c"), Some(c));
        assert_eq!(g.find("zzz"), None);
    }

    #[test]
    fn predecessor_successor_queries() {
        let (g, [a, b, c, d]) = diamond();
        let mut preds: Vec<TaskId> = g.predecessors(d).collect();
        preds.sort();
        assert_eq!(preds, vec![b, c]);
        let succs: Vec<TaskId> = g.successors(a).collect();
        assert_eq!(succs, vec![b, c]);
        assert_eq!(g.predecessors(a).count(), 0);
        assert_eq!(g.successors(d).count(), 0);
    }

    #[test]
    fn stream_arcs_do_not_impose_order() {
        let mut g = TaskGraph::new("pipes");
        let a = g.add_task(TaskSpec::new("a"));
        let b = g.add_task(TaskSpec::new("b"));
        g.add_arc(a, b, ArcKind::Stream, 100);
        assert_eq!(g.predecessors(b).count(), 0);
        assert_eq!(g.stream_peers(a).collect::<Vec<_>>(), vec![b]);
        assert_eq!(g.stream_peers(b).collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    #[should_panic(expected = "self-arcs")]
    fn self_arc_rejected() {
        let mut g = TaskGraph::new("bad");
        let a = g.add_task(TaskSpec::new("a"));
        g.add_arc(a, a, ArcKind::DataFlow, 1);
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn unknown_arc_target_rejected() {
        let mut g = TaskGraph::new("bad");
        let a = g.add_task(TaskSpec::new("a"));
        g.add_arc(a, TaskId(9), ArcKind::DataFlow, 1);
    }

    #[test]
    fn codec_round_trip() {
        let (g, _) = diamond();
        let bytes = vce_codec::to_bytes(&g);
        assert_eq!(vce_codec::from_bytes::<TaskGraph>(&bytes).unwrap(), g);
    }

    #[test]
    fn mutation_through_get_mut() {
        let (mut g, [a, ..]) = diamond();
        g.get_mut(a).unwrap().work_mops = 77.0;
        assert_eq!(g.get(a).unwrap().work_mops, 77.0);
    }
}
