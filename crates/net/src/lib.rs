//! # rvisor-net
//!
//! The virtual network substrate: Ethernet-style frames, a learning L2
//! switch connecting VM network endpoints, and bandwidth/latency link models.
//!
//! Two consumers drive the design:
//!
//! * **virtio-net** (`rvisor-virtio`) attaches each VM's NIC to a
//!   [`VirtualSwitch`] port and exchanges [`Frame`]s with its peers;
//! * **live migration** (`rvisor-migrate`) pushes memory pages through a
//!   [`Link`], whose bandwidth model determines round lengths and downtime —
//!   exactly the quantity experiment E4 sweeps, or through a shared
//!   [`ClosFabric`] when whole fleets contend for the network (experiments
//!   E17 and E21).
//!
//! ## The fabric model
//!
//! [`ClosFabric`] upgrades the private point-to-point [`Link`] to a shared
//! datacenter network, and it is the only fabric simulator. Hosts live in
//! racks behind leaf switches of
//! [`ClosParams::leaf_uplink_bytes_per_second`], connected by
//! [`ClosParams::spines`] independent spine paths; every endpoint owns a
//! NIC, and payloads are chunked into MTU-sized packets that each pay
//! framing bytes. Striped transfers hash their streams ECMP-style across
//! the live spines, so cross-rack multi-stream migration genuinely
//! completes earlier in simulated time, while rack-local traffic skips the
//! spine tier entirely.
//!
//! The worst case — every host behind one shared backbone, where
//! disjoint host pairs contend and striping never wins — is the
//! [`ClosParams::single_spine`] preset built from [`FabricParams`]: one
//! rack whose leaf plays the backbone's role. Every modelling assumption
//! is a named parameter, documented on the [`clos`] module and on the
//! preset. Timing is pure integer-nanosecond arithmetic over busy-until
//! marks, so orchestrator runs over the fabric replay `==`-identically.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod clos;
pub mod fabric;
pub mod frame;
pub mod link;
pub mod switch;

pub use clos::{ClosFabric, ClosParams};
pub use fabric::{FabricParams, DEFAULT_CHUNK_OVERHEAD};
pub use frame::{Frame, MacAddr, ETHERTYPE_IPV4, MAX_FRAME_SIZE, MIN_FRAME_SIZE};
pub use link::{Link, LinkModel};
pub use switch::{SwitchPort, SwitchStats, VirtualSwitch};
