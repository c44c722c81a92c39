//! The management-plane benchmark: a real in-process `virtd` serving a
//! unix socket, closed-loop `Connect` clients, reply verification,
//! end-to-end metrics from untraced runs and a per-layer breakdown from
//! a separate traced run. See `README.md` in this directory.

pub mod alloc;
pub mod bench;
pub mod check;
pub mod gen;
pub mod host;
pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
