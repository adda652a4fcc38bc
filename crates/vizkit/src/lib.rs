//! # vizkit — a miniature VTK for in situ visualization
//!
//! Colza's pipelines run ParaView/Catalyst, which sits on VTK's data model,
//! filters, renderers, and an abstract communication layer. No Rust
//! bindings exist for any of that (the reproduction's repro band is 2), so
//! this crate rebuilds the slice the paper's three pipelines exercise:
//!
//! * **Data model** ([`data`]): typed data arrays, regular grids
//!   (`ImageData`), unstructured grids (voxel/hexahedron/tetra/triangle
//!   cells), and triangle surfaces (`PolyData`), with point and cell
//!   attributes.
//! * **Filters** ([`filters`]): marching-cubes contouring, plane clipping,
//!   thresholding, block merging, and resampling of voxel-based
//!   unstructured grids to regular grids (the DWI volume-rendering path).
//! * **Rendering** ([`render`]): a software triangle rasterizer with
//!   z-buffer and Lambert shading, and a front-to-back volume ray-caster,
//!   plus cameras, color maps and transfer functions.
//! * **Communication abstraction** ([`controller`]): the analogue of
//!   `vtkMultiProcessController`/`vtkCommunicator` — the seam the paper
//!   exploits to inject MoNA in place of MPI *without modifying VTK*.
//!   Concrete controllers live outside this crate (in `catalyst`), exactly
//!   as `vtkMPIController` lives outside core VTK modules.

#![forbid(unsafe_code)]

pub mod controller;
pub mod data;
pub mod filters;
pub mod math;
pub mod render;

pub use controller::{global_controller, set_global_controller, Controller, VtkComm};
pub use data::{Attributes, DataArray, DataSet, ImageData, PolyData, UnstructuredGrid};
pub use render::{Camera, ColorMap, Image, TransferFunction};
