//! Regular grids (`vtkImageData`).

use crate::data::Attributes;
use crate::math::Vec3;

/// A regular grid: `dims` points along each axis, placed at
/// `origin + index * spacing`.
#[derive(Debug, Clone, Default)]
pub struct ImageData {
    /// Point counts `[nx, ny, nz]` (each ≥ 1).
    pub dims: [usize; 3],
    /// Position of point (0, 0, 0).
    pub origin: [f32; 3],
    /// Distance between adjacent points along each axis.
    pub spacing: [f32; 3],
    /// Attributes on points (`dims.product()` tuples each).
    pub point_data: Attributes,
    /// Attributes on cells (`(nx-1)(ny-1)(nz-1)` tuples each).
    pub cell_data: Attributes,
}

impl ImageData {
    /// A grid with the given point dimensions, unit spacing at the origin.
    pub fn new(dims: [usize; 3]) -> Self {
        Self {
            dims,
            origin: [0.0; 3],
            spacing: [1.0; 3],
            point_data: Attributes::new(),
            cell_data: Attributes::new(),
        }
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.dims
            .iter()
            .map(|&d| d.saturating_sub(1).max(if d == 1 { 1 } else { 0 }))
            .product::<usize>()
    }

    /// Flat index of point `(i, j, k)` (x varies fastest, as in VTK).
    pub fn point_index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.dims[0] && j < self.dims[1] && k < self.dims[2]);
        (k * self.dims[1] + j) * self.dims[0] + i
    }

    /// World position of point `(i, j, k)`.
    pub fn point_position(&self, i: usize, j: usize, k: usize) -> Vec3 {
        Vec3 {
            x: self.origin[0] + i as f32 * self.spacing[0],
            y: self.origin[1] + j as f32 * self.spacing[1],
            z: self.origin[2] + k as f32 * self.spacing[2],
        }
    }

    /// Axis-aligned bounds `(min, max)` of the grid.
    pub fn bounds(&self) -> (Vec3, Vec3) {
        let min = Vec3 {
            x: self.origin[0],
            y: self.origin[1],
            z: self.origin[2],
        };
        let max = Vec3 {
            x: self.origin[0] + (self.dims[0].saturating_sub(1)) as f32 * self.spacing[0],
            y: self.origin[1] + (self.dims[1].saturating_sub(1)) as f32 * self.spacing[1],
            z: self.origin[2] + (self.dims[2].saturating_sub(1)) as f32 * self.spacing[2],
        };
        (min, max)
    }

    /// Approximate in-memory byte size.
    pub fn byte_size(&self) -> usize {
        self.point_data.byte_size() + self.cell_data.byte_size() + 64
    }

    /// Trilinear interpolation of a point-data scalar at world position
    /// `p`. Returns `None` outside the grid.
    pub fn sample_trilinear(&self, field: &str, p: Vec3) -> Option<f32> {
        let arr = self.point_data.get(field)?;
        let fx = (p.x - self.origin[0]) / self.spacing[0];
        let fy = (p.y - self.origin[1]) / self.spacing[1];
        let fz = (p.z - self.origin[2]) / self.spacing[2];
        if fx < 0.0 || fy < 0.0 || fz < 0.0 {
            return None;
        }
        let (nx, ny, nz) = (self.dims[0], self.dims[1], self.dims[2]);
        let i = fx.floor() as usize;
        let j = fy.floor() as usize;
        let k = fz.floor() as usize;
        if i + 1 >= nx || j + 1 >= ny || k + 1 >= nz {
            // Clamp exact-boundary samples onto the last cell.
            if fx > (nx - 1) as f32 + 1e-4
                || fy > (ny - 1) as f32 + 1e-4
                || fz > (nz - 1) as f32 + 1e-4
            {
                return None;
            }
        }
        let i = i.min(nx.saturating_sub(2));
        let j = j.min(ny.saturating_sub(2));
        let k = k.min(nz.saturating_sub(2));
        let tx = (fx - i as f32).clamp(0.0, 1.0);
        let ty = (fy - j as f32).clamp(0.0, 1.0);
        let tz = (fz - k as f32).clamp(0.0, 1.0);
        let at = |ii, jj, kk| arr.get_f32(self.point_index(ii, jj, kk));
        let c00 = at(i, j, k) * (1.0 - tx) + at(i + 1, j, k) * tx;
        let c10 = at(i, j + 1, k) * (1.0 - tx) + at(i + 1, j + 1, k) * tx;
        let c01 = at(i, j, k + 1) * (1.0 - tx) + at(i + 1, j, k + 1) * tx;
        let c11 = at(i, j + 1, k + 1) * (1.0 - tx) + at(i + 1, j + 1, k + 1) * tx;
        let c0 = c00 * (1.0 - ty) + c10 * ty;
        let c1 = c01 * (1.0 - ty) + c11 * ty;
        Some(c0 * (1.0 - tz) + c1 * tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataArray;
    use crate::math::vec3;

    fn grid_with_x_field() -> ImageData {
        let mut g = ImageData::new([3, 3, 3]);
        let mut vals = Vec::new();
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..3 {
                    let _ = (j, k);
                    vals.push(i as f32);
                }
            }
        }
        g.point_data.set("x", DataArray::F32(vals));
        g
    }

    #[test]
    fn counts_and_indexing() {
        let g = ImageData::new([4, 3, 2]);
        assert_eq!(g.num_points(), 24);
        assert_eq!(g.num_cells(), 3 * 2);
        assert_eq!(g.point_index(0, 0, 0), 0);
        assert_eq!(g.point_index(3, 2, 1), 23);
    }

    #[test]
    fn positions_respect_origin_and_spacing() {
        let mut g = ImageData::new([2, 2, 2]);
        g.origin = [1.0, 2.0, 3.0];
        g.spacing = [0.5, 1.0, 2.0];
        assert_eq!(g.point_position(1, 1, 1), vec3(1.5, 3.0, 5.0));
        let (lo, hi) = g.bounds();
        assert_eq!(lo, vec3(1.0, 2.0, 3.0));
        assert_eq!(hi, vec3(1.5, 3.0, 5.0));
    }

    #[test]
    fn trilinear_interpolates_linear_field_exactly() {
        let g = grid_with_x_field();
        for &(p, expect) in &[
            (vec3(0.0, 0.0, 0.0), 0.0f32),
            (vec3(1.0, 1.0, 1.0), 1.0),
            (vec3(0.5, 0.3, 1.7), 0.5),
            (vec3(1.75, 2.0, 2.0), 1.75),
        ] {
            let got = g.sample_trilinear("x", p).unwrap();
            assert!((got - expect).abs() < 1e-5, "{p:?}: {got} != {expect}");
        }
    }

    #[test]
    fn sampling_outside_returns_none() {
        let g = grid_with_x_field();
        assert!(g.sample_trilinear("x", vec3(-0.1, 0.0, 0.0)).is_none());
        assert!(g.sample_trilinear("x", vec3(2.3, 0.0, 0.0)).is_none());
        assert!(g.sample_trilinear("nope", vec3(0.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn boundary_samples_are_included() {
        let g = grid_with_x_field();
        let got = g.sample_trilinear("x", vec3(2.0, 2.0, 2.0)).unwrap();
        assert!((got - 2.0).abs() < 1e-4);
    }
}
