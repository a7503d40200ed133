//! `tmk-machines`: the five platforms of the ISCA'94 case study, assembled
//! from the workspace's substrates and exposed through the PARMACS-like
//! [`tmk_parmacs::System`] interface.
//!
//! | Platform | Paper role | Composition |
//! |---|---|---|
//! | [`Platform::Dec`] | DECstation-5000/240 baseline | primary cache + private memory |
//! | [`Platform::Sgi`] | SGI 4D/480 (hardware SM) | write-through primary, write-back secondary, Illinois snooping bus |
//! | [`Platform::AsCluster`] | TreadMarks on ATM (software SM); also the simulation study's AS | `tmk-core` LRC DSM over `tmk-net` ATM with software overheads |
//! | [`Platform::Ah`] | all-hardware directory design | full-map directory over a crossbar |
//! | [`Platform::Hs`] | hardware–software hybrid | bus-based SMP nodes, one DSM instance per node |
//!
//! Applications run unmodified on every platform via [`run_on`]; the only
//! thing that changes is the shared-memory implementation — the point of
//! the paper.

mod dsm;
mod fabric;
mod hw;
mod hybrid;
pub mod json;
mod report;
mod run;

pub use dsm::{DsmMachine, DsmParams};
pub use hw::{HwKind, HwMachine, HwParams};
pub use hybrid::{HsMachine, HsParams};
pub use json::Json;
pub use report::{Outcome, RunReport};
pub use run::{
    run_on, run_on_with, run_workload, run_workload_traced_with, run_workload_with, DsmTuning,
    Platform, RunOpts,
};
pub use tmk_core::{DsmProtocol, ProtoNode, RecoveryStats};
