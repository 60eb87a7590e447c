#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vce-channels — task communication: channels, MPI, proxies
//!
//! §4.2 of the paper defines the VCE communication architecture:
//!
//! * **Channels**: "a logical transport medium that connects possibly many
//!   tasks ... distinct from the tasks that are connected to them", so a
//!   client "may be unaware of whether messages are being received by
//!   groups or individuals". The runtime may **split** channels, interposing
//!   tasks "to deal with issues such as authentication or data conversion",
//!   and may **move** connections (the hook process migration needs).
//!   Channels attach to tasks through **ports** whose "creation, placement,
//!   and destruction" the runtime owns. [`registry::ChannelRegistry`] is
//!   that bookkeeping plus routing.
//! * **MPI**: "Communication between tasks will take place either through
//!   primitives defined in the MPI or via object-oriented method invocation
//!   semantics." [`mpi`] implements the MPI subset (send/recv/bcast/
//!   barrier/reduce/gather/scatter over communicators) as a library above a
//!   transport trait; [`conduit`] implements that trait over the channel
//!   registry, so every MPI send is routed by the port's current location.
//! * **Proxies** (Fig. 2): client proxy and server proxy marshal method
//!   invocations into architecture-independent form and forward them.
//!   [`idl`] is the stand-in for the OMG IDL compiler (§4.2 cites it);
//!   [`proxy`] generates the proxy pair at runtime from an interface
//!   definition.

pub mod conduit;
pub mod idl;
pub mod mpi;
pub mod proxy;
pub mod registry;

pub use conduit::{ChannelConduit, ConduitWorld};
pub use idl::{InterfaceDef, MethodDef, ParamType};
pub use proxy::{ClientProxy, ProxyError, ServerProxy, Service};
pub use registry::{ChannelError, ChannelId, ChannelRegistry, PortId, Role};
