//! Task specifications with layered annotations.

use vce_codec::{Codec, Decoder, Encoder, Result};

use crate::classes::{Language, ProblemClass, TaskNature};

/// Identifies a task within one task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl Codec for TaskId {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(TaskId(u32::decode(dec)?))
    }
}

/// How a task may be migrated (§4.4's four techniques each require
/// different cooperation from the task).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationTraits {
    /// The task checkpoints its own state periodically (enables
    /// migration-through-checkpointing).
    pub checkpoints: bool,
    /// Checkpoint interval hint, seconds (meaningful when `checkpoints`).
    pub checkpoint_interval_s: u32,
    /// The task may be killed and restarted from scratch elsewhere without
    /// corrupting the application (idempotent).
    pub restartable: bool,
    /// Its address space may be dumped and resumed on an identical
    /// architecture (the "old-fashioned way").
    pub core_dumpable: bool,
}

impl Default for MigrationTraits {
    fn default() -> Self {
        Self {
            checkpoints: false,
            checkpoint_interval_s: 30,
            restartable: true,
            core_dumpable: true,
        }
    }
}

impl Codec for MigrationTraits {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(self.checkpoints);
        self.checkpoint_interval_s.encode(enc);
        enc.put_bool(self.restartable);
        enc.put_bool(self.core_dumpable);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(MigrationTraits {
            checkpoints: dec.get_bool()?,
            checkpoint_interval_s: u32::decode(dec)?,
            restartable: dec.get_bool()?,
            core_dumpable: dec.get_bool()?,
        })
    }
}

/// User hints (§3.1.1: "These hints will allow the execution module to do
/// extra optimization", e.g. dispatch the long-running module first).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskHints {
    /// Expected run time relative to siblings (larger ⇒ dispatch earlier);
    /// 0 = no hint.
    pub expected_dominance: u32,
    /// User/administrator priority boost (authorized users only, §4.3).
    pub priority_boost: i32,
}

impl Codec for TaskHints {
    fn encode(&self, enc: &mut Encoder) {
        self.expected_dominance.encode(enc);
        self.priority_boost.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(TaskHints {
            expected_dominance: u32::decode(dec)?,
            priority_boost: i32::decode(dec)?,
        })
    }
}

/// A fully annotatable task: the node of a task graph.
///
/// Fields fill in as the SDM layers run; [`validate()`](crate::validate()) checks that
/// the layers a consumer needs have completed.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Graph-local identity (assigned by [`crate::TaskGraph::add_task`]).
    pub id: TaskId,
    /// Human name / program path ("/apps/snow/predictor.vce").
    pub name: String,
    /// Maximum useful instances (scripts may request several, §5; ranges
    /// like `SYNC 5,10` set [`TaskSpec::instances_min`] too).
    pub instances: u32,
    /// Minimum instances the application needs to proceed (≤ `instances`).
    pub instances_min: u32,
    // ---- design-stage annotations ----
    /// Problem-architecture class (design stage).
    pub class: Option<ProblemClass>,
    /// Task nature (design stage).
    pub nature: TaskNature,
    // ---- coding-level annotations ----
    /// Implementation language (coding level).
    pub language: Option<Language>,
    /// Estimated compute per instance, million operations.
    pub work_mops: f64,
    /// Memory requirement, MB.
    pub mem_mb: u32,
    /// Input files needed besides predecessor outputs (anticipatory file
    /// replication targets, §4.5).
    pub input_files: Vec<String>,
    /// Migration cooperation traits.
    pub migration: MigrationTraits,
    /// Must run on the submitting user's workstation (`LOCAL` directive).
    pub local_only: bool,
    /// Data-parallel decomposable: `work_mops` divides across however many
    /// instances the runtime obtains (free parallelism exploits this);
    /// non-divisible tasks replicate the full work per instance.
    pub divisible: bool,
    // ---- user hints ----
    /// Runtime-manager hints.
    pub hints: TaskHints,
}

impl TaskSpec {
    /// Problem-specification-layer constructor: a bare task.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            id: TaskId(u32::MAX), // assigned on insertion
            name: name.into(),
            instances: 1,
            instances_min: 1,
            class: None,
            nature: TaskNature::Compute,
            language: None,
            work_mops: 0.0,
            mem_mb: 1,
            input_files: Vec::new(),
            migration: MigrationTraits::default(),
            local_only: false,
            divisible: false,
            hints: TaskHints::default(),
        }
    }

    /// Design stage: set the problem class.
    pub fn with_class(mut self, class: ProblemClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Design stage: set the nature.
    pub fn with_nature(mut self, nature: TaskNature) -> Self {
        self.nature = nature;
        self
    }

    /// Coding level: set the language.
    pub fn with_language(mut self, language: Language) -> Self {
        self.language = Some(language);
        self
    }

    /// Coding level: compute estimate in Mops.
    pub fn with_work(mut self, work_mops: f64) -> Self {
        self.work_mops = work_mops;
        self
    }

    /// Coding level: memory requirement.
    pub fn with_mem(mut self, mem_mb: u32) -> Self {
        self.mem_mb = mem_mb;
        self
    }

    /// Number of instances to run (min = max = `instances`).
    pub fn with_instances(mut self, instances: u32) -> Self {
        self.instances = instances.max(1);
        self.instances_min = self.instances;
        self
    }

    /// Instance range: accept anywhere from `min` to `max` replicas (the
    /// §5 future-work constructs `ASYNC 5-` and `SYNC 5,10`).
    pub fn with_instance_range(mut self, min: u32, max: u32) -> Self {
        assert!(min >= 1 && min <= max, "bad instance range {min},{max}");
        self.instances_min = min;
        self.instances = max;
        self
    }

    /// Extra input files.
    pub fn with_input_file(mut self, path: impl Into<String>) -> Self {
        self.input_files.push(path.into());
        self
    }

    /// Migration traits.
    pub fn with_migration(mut self, migration: MigrationTraits) -> Self {
        self.migration = migration;
        self
    }

    /// Pin to the submitting workstation.
    pub fn local(mut self) -> Self {
        self.local_only = true;
        self
    }

    /// Mark the work as divisible across instances.
    pub fn divisible(mut self) -> Self {
        self.divisible = true;
        self
    }

    /// User hints.
    pub fn with_hints(mut self, hints: TaskHints) -> Self {
        self.hints = hints;
        self
    }

    /// True once design-stage annotations are present.
    pub fn design_complete(&self) -> bool {
        self.class.is_some()
    }

    /// True once coding-level annotations are present.
    pub fn coding_complete(&self) -> bool {
        self.design_complete() && self.language.is_some() && self.work_mops > 0.0
    }
}

impl Codec for TaskSpec {
    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        self.name.encode(enc);
        self.instances.encode(enc);
        self.instances_min.encode(enc);
        self.class.encode(enc);
        self.nature.encode(enc);
        self.language.encode(enc);
        enc.put_f64(self.work_mops);
        self.mem_mb.encode(enc);
        self.input_files.encode(enc);
        self.migration.encode(enc);
        enc.put_bool(self.local_only);
        enc.put_bool(self.divisible);
        self.hints.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(TaskSpec {
            id: TaskId::decode(dec)?,
            name: String::decode(dec)?,
            instances: u32::decode(dec)?,
            instances_min: u32::decode(dec)?,
            class: Option::<ProblemClass>::decode(dec)?,
            nature: TaskNature::decode(dec)?,
            language: Option::<Language>::decode(dec)?,
            work_mops: dec.get_f64()?,
            mem_mb: u32::decode(dec)?,
            input_files: Vec::<String>::decode(dec)?,
            migration: MigrationTraits::decode(dec)?,
            local_only: dec.get_bool()?,
            divisible: dec.get_bool()?,
            hints: TaskHints::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_codec::{from_bytes, to_bytes};

    #[test]
    fn layered_annotation() {
        let t = TaskSpec::new("predictor");
        assert!(!t.design_complete());
        let t = t.with_class(ProblemClass::Synchronous);
        assert!(t.design_complete());
        assert!(!t.coding_complete());
        let t = t.with_language(Language::HpFortran).with_work(500.0);
        assert!(t.coding_complete());
    }

    #[test]
    fn builder_covers_all_fields() {
        let t = TaskSpec::new("collector")
            .with_class(ProblemClass::Asynchronous)
            .with_nature(TaskNature::Graphic)
            .with_language(Language::C)
            .with_work(100.0)
            .with_mem(32)
            .with_instances(2)
            .with_input_file("/data/obs.dat")
            .with_migration(MigrationTraits {
                checkpoints: true,
                checkpoint_interval_s: 10,
                restartable: false,
                core_dumpable: true,
            })
            .with_hints(TaskHints {
                expected_dominance: 3,
                priority_boost: -1,
            });
        assert_eq!(t.instances, 2);
        assert_eq!(t.nature, TaskNature::Graphic);
        assert!(t.migration.checkpoints);
        assert_eq!(t.hints.priority_boost, -1);
        assert!(!t.local_only);
    }

    #[test]
    fn instances_floor_at_one() {
        assert_eq!(TaskSpec::new("x").with_instances(0).instances, 1);
    }

    #[test]
    fn local_directive() {
        assert!(TaskSpec::new("display").local().local_only);
    }

    #[test]
    fn codec_round_trip() {
        let t = TaskSpec::new("p")
            .with_class(ProblemClass::LooselySynchronous)
            .with_language(Language::HpCpp)
            .with_work(42.5)
            .with_input_file("f");
        let bytes = to_bytes(&t);
        assert_eq!(from_bytes::<TaskSpec>(&bytes).unwrap(), t);
    }
}
