//! End-to-end benchmark of fault-tolerant Poisson/CG solves, with a traced
//! mode that attributes time to each workspace layer through the public
//! seams.  See `README.md` in this directory for usage.

pub mod layers;
pub mod measure;
pub mod seams;
pub mod stats;
pub mod trace;
pub mod workload;
