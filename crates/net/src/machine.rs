//! Machine descriptions: architecture classes and capability records.
//!
//! §4.1 of the paper: "all the machines participating in the VCE are divided
//! into classes. These classes are the low-level counterparts of the problem
//! architecture classes used by the design stage." §5 names WORKSTATION,
//! SIMD and MIMD groups. These types are the vocabulary every other crate
//! (design stage, compilation manager, bidding protocol, simulator) shares,
//! which is why they live here at the bottom of the crate graph.

use std::fmt;

use vce_codec::{impl_codec_for_enum, Codec, Decoder, Encoder, Result};

use crate::addr::NodeId;

/// Low-level machine architecture class (paper §4.1, Fig. 3).
///
/// The synchronous problem class maps to [`MachineClass::Simd`] ("machines
/// like the CM5 and the MasPar MP-1"), loosely-synchronous to
/// [`MachineClass::Mimd`], asynchronous to [`MachineClass::Workstation`];
/// [`MachineClass::Vector`] covers the vector computers §1 lists among the
/// architectural classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MachineClass {
    /// General-purpose Unix workstation.
    Workstation,
    /// SIMD array machine (CM-5 in SIMD mode, MasPar MP-1, ...).
    Simd,
    /// MIMD multiprocessor.
    Mimd,
    /// Vector supercomputer.
    Vector,
}

impl_codec_for_enum!(MachineClass {
    MachineClass::Workstation => 0,
    MachineClass::Simd => 1,
    MachineClass::Mimd => 2,
    MachineClass::Vector => 3,
});

impl MachineClass {
    /// All classes, in group-formation order.
    pub const ALL: [MachineClass; 4] = [
        MachineClass::Workstation,
        MachineClass::Simd,
        MachineClass::Mimd,
        MachineClass::Vector,
    ];

    /// The keyword used in VCE application-description scripts.
    pub fn script_keyword(self) -> &'static str {
        match self {
            // The paper's script uses problem-architecture words for remote
            // directives; these are the machine-class equivalents used when
            // a script addresses hardware groups directly.
            MachineClass::Workstation => "WORKSTATION",
            MachineClass::Simd => "SIMD",
            MachineClass::Mimd => "MIMD",
            MachineClass::Vector => "VECTOR",
        }
    }
}

impl fmt::Display for MachineClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.script_keyword())
    }
}

/// Static description of one machine: what the "simple database maintained
/// by VCE software" (§3.1.2) records about it.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineInfo {
    /// Network identity.
    pub node: NodeId,
    /// Architecture class (determines group membership).
    pub class: MachineClass,
    /// Nominal speed in million operations per second. Heterogeneity between
    /// machines of the same class is expressed here.
    pub speed_mops: f64,
    /// Physical memory in megabytes (checked against task requirements).
    pub mem_mb: u32,
    /// Whether the owner authorises hosting remote VCE executions (§5: "each
    /// workstation authorized to host remote executions").
    pub allows_remote: bool,
}

impl MachineInfo {
    /// A conventional workstation entry.
    pub fn workstation(node: NodeId, speed_mops: f64) -> Self {
        Self {
            node,
            class: MachineClass::Workstation,
            speed_mops,
            mem_mb: 64,
            allows_remote: true,
        }
    }

    /// Builder-style class override.
    pub fn with_class(mut self, class: MachineClass) -> Self {
        self.class = class;
        self
    }

    /// Builder-style memory override.
    pub fn with_mem_mb(mut self, mem_mb: u32) -> Self {
        self.mem_mb = mem_mb;
        self
    }

    /// Builder-style remote-hosting override.
    pub fn with_allows_remote(mut self, allows: bool) -> Self {
        self.allows_remote = allows;
        self
    }
}

impl Codec for MachineInfo {
    fn encode(&self, enc: &mut Encoder) {
        self.node.encode(enc);
        self.class.encode(enc);
        enc.put_f64(self.speed_mops);
        self.mem_mb.encode(enc);
        enc.put_bool(self.allows_remote);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(MachineInfo {
            node: NodeId::decode(dec)?,
            class: MachineClass::decode(dec)?,
            speed_mops: dec.get_f64()?,
            mem_mb: u32::decode(dec)?,
            allows_remote: dec.get_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_codec::{from_bytes, to_bytes};

    #[test]
    fn class_round_trip() {
        for c in MachineClass::ALL {
            assert_eq!(from_bytes::<MachineClass>(&to_bytes(&c)).unwrap(), c);
        }
    }

    #[test]
    fn keywords_match_paper_vocabulary() {
        assert_eq!(MachineClass::Workstation.script_keyword(), "WORKSTATION");
        assert_eq!(MachineClass::Simd.script_keyword(), "SIMD");
        assert_eq!(MachineClass::Mimd.to_string(), "MIMD");
    }

    #[test]
    fn machine_info_builder_and_codec() {
        let m = MachineInfo::workstation(NodeId(3), 50.0)
            .with_class(MachineClass::Vector)
            .with_mem_mb(1024)
            .with_allows_remote(false);
        assert_eq!(m.class, MachineClass::Vector);
        assert_eq!(m.mem_mb, 1024);
        assert!(!m.allows_remote);
        assert_eq!(from_bytes::<MachineInfo>(&to_bytes(&m)).unwrap(), m);
    }
}
