//! # bgpsdn-topology — topology toolkit for multi-AS experiments
//!
//! The paper's framework lets an experimenter "easily create topologies
//! based on measured Internet data or theoretical models". This crate
//! supplies both halves:
//!
//! * [`gen`]: the artificial topology of the paper's Figure 2, the
//!   16-AS clique;
//! * [`caida`]: a parser for the CAIDA AS-relationship format, plus a
//!   synthetic generator with the same statistical shape (the real
//!   dataset cannot be redistributed), the source of every sparse,
//!   Internet-like graph;
//! * [`iplane`]: a parser for the iPlane Inter-PoP format and its
//!   collapse to AS granularity;
//! * [`relationships`]: AS graphs annotated with customer-provider /
//!   peer-peer relationships;
//! * [`ipalloc`]: the automatic IP address plan;
//! * [`templates`]: per-AS router configuration skeletons and Quagga-style
//!   rendering.

#![warn(missing_docs)]

pub mod caida;
pub mod gen;
pub mod graph;
pub mod ipalloc;
pub mod iplane;
pub mod relationships;
pub mod templates;

pub use graph::Graph;
pub use ipalloc::{AddressPlan, AllocError};
pub use relationships::{AsEdge, AsGraph, EdgeKind};
pub use templates::{plan, TopologyPlan};
