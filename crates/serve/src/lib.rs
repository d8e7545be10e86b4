//! `cce-serve` — the explanation-serving daemon: a zero-dependency
//! HTTP/1.1 service over the CCE core.
//!
//! * [`app`] routes requests and runs admission, drain and rendering
//!   once, over the one [`Backend`] a daemon serves from ([`backend`]):
//!   the in-RAM engine behind the coalescing [`batcher`], a converted
//!   store, or the [`shard`] router;
//! * [`admission`] degrades explains to bounded [`WorkBudget`]s under
//!   load, then sheds with `429`;
//! * [`ingest`] runs the online monitor behind the [`Durable`] WAL, so an
//!   HTTP `200` on `/monitor/ingest` *is* a durability acknowledgment;
//! * [`server`] is the TCP layer and the graceful drain protocol.
//!
//! [`Durable`]: cce_core::Durable
//! [`WorkBudget`]: cce_core::WorkBudget

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod app;
pub mod backend;
pub mod batcher;
pub mod http;
pub mod ingest;
pub mod json;
pub mod server;
pub mod shard;

pub use admission::{Admission, AdmissionConfig, Level};
pub use app::{build_app, explain_response, App};
pub use backend::{Backend, LiveWindow};
pub use batcher::{Batcher, BatcherConfig};
pub use ingest::{IngestAck, IngestError, IngestState, MonitorBackend};
pub use server::{Server, ServerConfig};
