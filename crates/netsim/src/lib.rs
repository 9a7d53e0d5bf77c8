//! Deterministic packet-level IPv6 Internet model.
//!
//! This crate is the measurement substrate for the XMap reproduction: it
//! plays the role of the live IPv6 Internet in the paper. It has three
//! layers:
//!
//! 1. **Packet model & transport** ([`packet`], [`Network`]) — IPv6 headers
//!    with hop limits, ICMPv6 (echo, destination-unreachable, time-exceeded
//!    per RFC 4443), UDP/TCP application exchanges. The scanner crate talks
//!    to any [`Network`] implementation; in the paper that was a raw socket,
//!    here it is a simulator.
//! 2. **Engine** ([`engine`], [`topology`]) — an explicit router-level
//!    simulator: nodes with longest-prefix-match routing tables, links with
//!    traversal counters, hop-limit decrement and ICMPv6 error generation.
//!    Used for the RFC 7084 CE-router case studies (Table XII) and for
//!    measuring routing-loop amplification packet by packet.
//! 3. **World** ([`world`], [`isp`], [`bgp`]) — a procedural, seeded model of
//!    the global IPv6 Internet: twelve ISPs' sample blocks with per-block
//!    allocation policy (Table I), device populations with vendor/IID/service
//!    mixes, and a BGP table spanning thousands of ASes. Device existence and
//!    properties are *derived deterministically by hashing*, so a block with
//!    2³² sub-prefixes costs no memory and any scaled slice of it is
//!    self-consistent across scans.
//!
//! Neither the engine nor the world decides an answer on its own: both
//! call the rule book, [`rules`], where each RFC 4443 / RFC 7084 clause
//! the paper's method relies on is one function. Where the two differ on
//! purpose (the hop limit errors leave with, which one rate-limits
//! errors), the difference is an argument or a line of DESIGN.md §2's
//! clause table. `tests/engine_world_consistency.rs` at the workspace root
//! still probes both on mirrored configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
pub mod device;
pub mod engine;
pub mod fault;
pub mod geo;
pub mod isp;
pub mod packet;
pub mod rng;
pub mod rules;
pub mod selftest;
pub mod services;
pub mod telemetry;
pub mod topology;
pub mod world;

pub use device::{Device, DeviceKind};
pub use engine::{Engine, NodeId};
pub use fault::{FaultPlan, IcmpRateLimit};
pub use packet::{Icmpv6, Ipv6Packet, Network, Payload};
pub use telemetry::NetsimTelemetry;
pub use world::{Allocation, KillPoint, World};
