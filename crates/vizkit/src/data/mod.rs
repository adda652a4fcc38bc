//! The data model: arrays, attributes, and the three dataset types the
//! paper's pipelines consume.

mod array;
mod image;
mod polydata;
mod ugrid;

pub use array::{ArrayStats, Attributes, DataArray};
pub use image::ImageData;
pub use polydata::PolyData;
pub use ugrid::{CellType, UnstructuredGrid};

/// Any dataset a pipeline can stage or produce.
#[derive(Debug, Clone)]
pub enum DataSet {
    /// A regular grid with point/cell attributes.
    Image(ImageData),
    /// An unstructured grid.
    UGrid(UnstructuredGrid),
    /// A triangle surface.
    Poly(PolyData),
}

impl DataSet {
    /// Approximate in-memory size in bytes (used for staging accounting
    /// and the Fig. 1a data-growth harness).
    pub fn byte_size(&self) -> usize {
        match self {
            DataSet::Image(d) => d.byte_size(),
            DataSet::UGrid(d) => d.byte_size(),
            DataSet::Poly(d) => d.byte_size(),
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        match self {
            DataSet::Image(d) => d.num_cells(),
            DataSet::UGrid(d) => d.num_cells(),
            DataSet::Poly(d) => d.triangles.len(),
        }
    }

    /// The unstructured grid inside, if that is what this is.
    pub fn as_ugrid(&self) -> Option<&UnstructuredGrid> {
        match self {
            DataSet::UGrid(g) => Some(g),
            _ => None,
        }
    }

    /// Summary statistics of the named scalar field in this dataset,
    /// looked up in point data first, then cell data. Empty stats when
    /// the field is absent.
    pub fn field_stats(&self, name: &str) -> ArrayStats {
        let (points, cells) = match self {
            DataSet::Image(d) => (Some(&d.point_data), Some(&d.cell_data)),
            DataSet::UGrid(d) => (Some(&d.point_data), Some(&d.cell_data)),
            DataSet::Poly(d) => (Some(&d.point_data), None),
        };
        points
            .and_then(|a| a.get(name))
            .or_else(|| cells.and_then(|a| a.get(name)))
            .map(|arr| arr.stats())
            .unwrap_or_else(ArrayStats::empty)
    }
}
