#![warn(missing_docs)]

//! Tartan's configuration matrix and experiment runner: build a machine +
//! robot, run the pipeline, and snapshot everything the figures need as a
//! [`RunOutcome`].
//!
//! The figure/table drivers that consume these runs live one layer up, in
//! `tartan-campaign` (`experiments`): they expand the checked-in scenario
//! manifests and execute them through the campaign engine. This crate
//! stays at the single-run level — [`run_robot`] plus the
//! [`overhead`] area/power model — so the scenario and campaign layers
//! can both link it without cycles.
//!
//! # Examples
//!
//! ```
//! use tartan_core::{run_robot, ExperimentParams, MachineConfig, RobotKind, SoftwareConfig};
//!
//! let out = run_robot(
//!     RobotKind::DeliBot,
//!     MachineConfig::tartan(),
//!     SoftwareConfig::approximable(),
//!     &ExperimentParams::quick(),
//! );
//! assert!(out.wall_cycles > 0);
//! ```

pub mod overhead;
pub mod runner;

pub use runner::{run_robot, CampaignJob, ExperimentParams, RunOutcome};

pub use tartan_robots::{NeuralExec, NnsKind, RobotKind, Scale, SoftwareConfig};
pub use tartan_scenario::{ConfigId, Plan, PlannedJob, RunParams, ScenarioError, ScenarioSpec};
pub use tartan_sim::{FcpConfig, FcpManipulation, MachineConfig, NpuMode, PrefetcherKind};
