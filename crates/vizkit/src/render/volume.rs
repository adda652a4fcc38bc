//! Volume ray-casting of regular grids.

use std::borrow::Cow;

use crate::data::{DataArray, ImageData};
use crate::math::Vec3;
use crate::render::camera::RayFrame;
use crate::render::{Camera, Image, TransferFunction};

/// Front-to-back volume rendering of a point-data scalar field.
///
/// Produces a premultiplied-alpha image; `depth` holds the first sample
/// with noticeable opacity (used for ordered parallel compositing). The
/// `step` is the sampling distance in world units. A sample whose
/// interpolated value is not finite (any corner of its cell is NaN or
/// infinite, e.g. a resampling background of `-inf`) is empty space.
pub fn render_volume(
    vol: &ImageData,
    field: &str,
    camera: &Camera,
    tf: &TransferFunction,
    width: usize,
    height: usize,
    step: f32,
) -> Image {
    let mut img = Image::new(width, height);
    let [nx, ny, nz] = vol.dims;
    let Some(arr) = vol.point_data.get(field) else {
        return img;
    };
    if nx < 2 || ny < 2 || nz < 2 {
        // A flat grid has no cell to interpolate in.
        return img;
    }
    let vals: Cow<[f32]> = match arr {
        DataArray::F32(v) => Cow::Borrowed(v),
        other => Cow::Owned((0..other.len()).map(|i| other.get_f32(i)).collect()),
    };
    assert_eq!(
        vals.len(),
        nx * ny * nz,
        "field {field:?} does not match the grid"
    );
    let table = tf.table(step);
    let frame = RayFrame::new(camera, width, height);
    let (lo, hi) = vol.bounds();

    // World → grid coordinates: `g = (p - origin) / spacing`, so along a
    // ray `g(t) = g0 + gd * t` with the two terms fixed per ray.
    let inv = [
        1.0 / vol.spacing[0],
        1.0 / vol.spacing[1],
        1.0 / vol.spacing[2],
    ];
    let g0 = [
        (frame.origin.x - vol.origin[0]) * inv[0],
        (frame.origin.y - vol.origin[1]) * inv[1],
        (frame.origin.z - vol.origin[2]) * inv[2],
    ];
    // Last cell along each axis, and the strides of the 2x2x2 window.
    let (ci, cj, ck) = (nx - 2, ny - 2, nz - 2);
    let (sy, sz) = (nx, nx * ny);

    for y in 0..height {
        let row = frame.row(y as f32);
        for x in 0..width {
            let dir = frame.dir(x as f32, row);
            let Some((t_in, t_out)) = ray_box(frame.origin, dir, lo, hi) else {
                continue;
            };
            let t_in = t_in.max(camera.near);
            if t_out <= t_in {
                continue;
            }
            let gd = [dir.x * inv[0], dir.y * inv[1], dir.z * inv[2]];
            let mut color = [0f32; 3];
            let mut alpha = 0f32;
            let mut first_hit: Option<f32> = None;
            let mut t = t_in;
            while t < t_out && alpha < 0.995 {
                let gx = g0[0] + gd[0] * t;
                let gy = g0[1] + gd[1] * t;
                let gz = g0[2] + gd[2] * t;
                // `t` lies inside the box up to rounding, so the casts
                // (which saturate below 0) and `min` only absorb that
                // rounding; the fractions may leave [0, 1] by as much.
                let i = (gx as usize).min(ci);
                let j = (gy as usize).min(cj);
                let k = (gz as usize).min(ck);
                let (tx, ty, tz) = (gx - i as f32, gy - j as f32, gz - k as f32);
                let base = k * sz + j * sy + i;
                let w = &vals[base..base + sz + sy + 2];
                let c00 = w[0] + (w[1] - w[0]) * tx;
                let c10 = w[sy] + (w[sy + 1] - w[sy]) * tx;
                let c01 = w[sz] + (w[sz + 1] - w[sz]) * tx;
                let c11 = w[sz + sy] + (w[sz + sy + 1] - w[sz + sy]) * tx;
                let c0 = c00 + (c10 - c00) * ty;
                let c1 = c01 + (c11 - c01) * ty;
                let v = c0 + (c1 - c0) * tz;
                if v.is_finite() {
                    let [r, g, b, a] = table.lookup(v);
                    if a > 0.0 {
                        let rest = 1.0 - alpha;
                        color[0] += r * rest;
                        color[1] += g * rest;
                        color[2] += b * rest;
                        alpha += a * rest;
                        if first_hit.is_none() && alpha > 0.02 {
                            first_hit = Some(t);
                        }
                    }
                }
                t += step;
            }
            if alpha > 0.003 {
                let i = img.idx(x, y);
                img.rgba[i * 4] = (color[0] * 255.0).min(255.0) as u8;
                img.rgba[i * 4 + 1] = (color[1] * 255.0).min(255.0) as u8;
                img.rgba[i * 4 + 2] = (color[2] * 255.0).min(255.0) as u8;
                img.rgba[i * 4 + 3] = (alpha * 255.0).min(255.0) as u8;
                // Normalized pseudo-depth from the hit distance.
                let hit = first_hit.unwrap_or(t_in);
                img.depth[i] = (hit / camera.far).clamp(0.0, 0.9999);
            }
        }
    }
    img
}

/// Ray / axis-aligned box intersection; returns `(t_enter, t_exit)`.
fn ray_box(origin: Vec3, dir: Vec3, lo: Vec3, hi: Vec3) -> Option<(f32, f32)> {
    let mut t0 = 0f32;
    let mut t1 = f32::INFINITY;
    for axis in 0..3 {
        let (o, d, l, h) = match axis {
            0 => (origin.x, dir.x, lo.x, hi.x),
            1 => (origin.y, dir.y, lo.y, hi.y),
            _ => (origin.z, dir.z, lo.z, hi.z),
        };
        if d.abs() < 1e-12 {
            if o < l || o > h {
                return None;
            }
            continue;
        }
        let (mut a, mut b) = ((l - o) / d, (h - o) / d);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        t0 = t0.max(a);
        t1 = t1.min(b);
        if t0 > t1 {
            return None;
        }
    }
    Some((t0, t1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{CellType, DataArray, UnstructuredGrid};
    use crate::filters::resample_to_image;
    use crate::math::vec3;
    use crate::render::ColorMap;
    use proptest::prelude::*;

    fn ball_volume(n: usize) -> ImageData {
        let mut g = ImageData::new([n, n, n]);
        let c = (n - 1) as f32 / 2.0;
        let mut vals = Vec::with_capacity(n * n * n);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let d = vec3(i as f32 - c, j as f32 - c, k as f32 - c).length();
                    // Dense inside a ball of radius n/4, empty outside.
                    vals.push(if d < c / 2.0 { 1.0 } else { 0.0 });
                }
            }
        }
        g.point_data.set("rho", DataArray::F32(vals));
        g
    }

    fn tf() -> TransferFunction {
        TransferFunction::ramp(ColorMap::viridis((0.0, 1.0)), 0.9)
    }

    /// What [`reference_render`] knows about its image.
    struct Oracle {
        image: Image,
        /// Pixels whose ray has a sample within 1e-4 cells of an interior
        /// grid plane. Next to background the emptiness rule is
        /// discontinuous there (the cell on one side has a `-inf` corner,
        /// the other has none), so the last bits of a coordinate decide
        /// which side a sample falls on, in any formulation.
        on_a_plane: Vec<bool>,
        /// Per pixel, every hit distance the 0.02 first-hit rule could
        /// report if the running alpha were off by [`FIRST_HIT_BAND`].
        first_hits: Vec<Vec<f32>>,
    }

    /// Running alphas this close to 0.02 may tip the first-hit rule: a
    /// few samples' worth of the table's half-entry opacity error.
    const FIRST_HIT_BAND: f32 = 1e-3;

    /// The march this module replaced, kept as the oracle: a world-space
    /// `sample_trilinear`, `tf.eval` and `powf` per sample and a camera
    /// basis per pixel, under the same emptiness rule.
    fn reference_render(
        vol: &ImageData,
        field: &str,
        camera: &Camera,
        tf: &TransferFunction,
        (width, height): (usize, usize),
        step: f32,
    ) -> Oracle {
        let mut img = Image::new(width, height);
        let mut on_a_plane = vec![false; width * height];
        let mut first_hits = vec![Vec::new(); width * height];
        let (lo, hi) = vol.bounds();
        for y in 0..height {
            for x in 0..width {
                let (origin, dir) = camera.pixel_ray(x as f32, y as f32, width, height);
                let Some((t_in, t_out)) = ray_box(origin, dir, lo, hi) else {
                    continue;
                };
                let t_in = t_in.max(camera.near);
                if t_out <= t_in {
                    continue;
                }
                let pixel = y * width + x;
                let mut color = [0f32; 3];
                let mut alpha = 0f32;
                let mut first_hit: Option<f32> = None;
                let mut t = t_in;
                while t < t_out && alpha < 0.995 {
                    // `t_in..t_out` is inside the box up to rounding; without
                    // the clamp `sample_trilinear` drops an entry sample that
                    // rounds to just below a low face.
                    let p = origin + dir * t;
                    let p = vec3(
                        p.x.clamp(lo.x, hi.x),
                        p.y.clamp(lo.y, hi.y),
                        p.z.clamp(lo.z, hi.z),
                    );
                    on_a_plane[pixel] |= (0..3).any(|axis| {
                        let g = (p.to_array()[axis] - vol.origin[axis]) / vol.spacing[axis];
                        let plane = g.round();
                        (g - plane).abs() < 1e-4
                            && plane > 0.0
                            && plane < (vol.dims[axis] - 1) as f32
                    });
                    if let Some(v) = vol.sample_trilinear(field, p).filter(|v| v.is_finite()) {
                        let (rgb, a) = tf.eval(v);
                        let a = 1.0 - (1.0 - a.clamp(0.0, 1.0)).powf(step);
                        if a > 0.0 {
                            let before = alpha;
                            let w = a * (1.0 - alpha);
                            color[0] += rgb[0] * w;
                            color[1] += rgb[1] * w;
                            color[2] += rgb[2] * w;
                            alpha += w;
                            if first_hit.is_none() && alpha > 0.02 {
                                first_hit = Some(t);
                            }
                            if before <= 0.02 + FIRST_HIT_BAND && alpha > 0.02 - FIRST_HIT_BAND {
                                first_hits[pixel].push(t);
                            }
                        }
                    }
                    t += step;
                }
                if alpha <= 0.02 + FIRST_HIT_BAND {
                    first_hits[pixel].push(t_in);
                }
                if alpha > 0.003 {
                    img.rgba[pixel * 4] = (color[0] * 255.0).min(255.0) as u8;
                    img.rgba[pixel * 4 + 1] = (color[1] * 255.0).min(255.0) as u8;
                    img.rgba[pixel * 4 + 2] = (color[2] * 255.0).min(255.0) as u8;
                    img.rgba[pixel * 4 + 3] = (alpha * 255.0).min(255.0) as u8;
                    let hit = first_hit.unwrap_or(t_in);
                    img.depth[pixel] = (hit / camera.far).clamp(0.0, 0.9999);
                }
            }
        }
        Oracle {
            image: img,
            on_a_plane,
            first_hits,
        }
    }

    /// A Deep-Water-Impact-like volume: voxel cells under a crater-and-
    /// splash surface (so they do not fill their bounding box), resampled
    /// onto `n`^3 points the way the pipeline does, background `-inf`.
    fn dwi_like_volume(n: usize) -> ImageData {
        const M: usize = 14;
        let mut g = UnstructuredGrid::new();
        for k in 0..=M {
            for j in 0..=M {
                for i in 0..=M {
                    g.points
                        .push([i as f32 * 2.0, j as f32 * 2.0, k as f32 * 1.5]);
                }
            }
        }
        let pt = |i: usize, j: usize, k: usize| ((k * (M + 1) + j) * (M + 1) + i) as u32;
        let mut vals = Vec::new();
        for k in 0..M {
            for j in 0..M {
                for i in 0..M {
                    let c = (M as f32 - 1.0) / 2.0;
                    let r = vec3(i as f32 - c, j as f32 - c, 0.0).length() / c;
                    // Sea level with a crater, a rim, and a central jet.
                    let surface = M as f32
                        * (0.45 - 0.3 * (-r * r * 8.0).exp()
                            + 0.35 * (-(r - 0.55).powi(2) * 30.0).exp());
                    let jet = r < 0.15;
                    if (k as f32) < surface || jet {
                        // VTK voxel order: x fastest, then y, then z.
                        let corners: [u32; 8] = std::array::from_fn(|c| {
                            pt(i + (c & 1), j + (c >> 1 & 1), k + (c >> 2))
                        });
                        g.add_cell(CellType::Voxel, &corners);
                        let depth = (surface - k as f32).max(0.0) / M as f32;
                        vals.push(
                            6.0 * (1.0 - r).max(0.0) * (1.0 - depth) + if jet { 2.0 } else { 0.0 },
                        );
                    }
                }
            }
        }
        g.cell_data.set("v02", DataArray::F32(vals));
        resample_to_image(&g, "v02", [n, n, n], f32::NEG_INFINITY)
    }

    /// The driver's ramp and the pipeline's three-stop opacity.
    fn transfer_functions(range: (f32, f32)) -> [TransferFunction; 2] {
        [
            TransferFunction::ramp(ColorMap::cool_to_warm(range), 0.9),
            TransferFunction::with_opacity(
                ColorMap::cool_to_warm(range),
                vec![(0.0, 0.0), (0.35, 0.27), (1.0, 0.9)],
            ),
        ]
    }

    /// The pipeline's sampling distance for a grid `n` points wide.
    fn sampling_step(vol: &ImageData) -> f32 {
        let (lo, hi) = vol.bounds();
        (hi - lo).length() / vol.dims[0] as f32
    }

    /// Renders both ways and holds the march to the oracle's image.
    fn check_against_reference(
        vol: &ImageData,
        field: &str,
        camera: &Camera,
        tf: &TransferFunction,
    ) -> Result<(), String> {
        const SIZE: (usize, usize) = (128, 96);
        let step = sampling_step(vol);
        let got = render_volume(vol, field, camera, tf, SIZE.0, SIZE.1, step);
        let oracle = reference_render(vol, field, camera, tf, SIZE, step);
        let want = &oracle.image;
        let mut differing = 0;
        for (i, (g, w)) in got.rgba.chunks(4).zip(want.rgba.chunks(4)).enumerate() {
            if oracle.on_a_plane[i] {
                continue;
            }
            differing += usize::from(g != w);
            if g.iter().zip(w).any(|(a, b)| a.abs_diff(*b) > 1) {
                return Err(format!("pixel {i}: {g:?} vs reference {w:?}"));
            }
            match (got.depth[i] < 1.0, want.depth[i] < 1.0) {
                (true, true) => {
                    let depth = got.depth[i];
                    let allowed =
                        |hit: &f32| ((hit / camera.far).clamp(0.0, 0.9999) - depth).abs() < 1e-6;
                    if !oracle.first_hits[i].iter().any(allowed) {
                        let reference = want.depth[i];
                        return Err(format!("pixel {i}: depth {depth} vs reference {reference}"));
                    }
                }
                // Covered on one side only: it sat on the write threshold.
                (true, false) | (false, true) if g[3].max(w[3]) > 1 => {
                    return Err(format!(
                        "pixel {i} covered in one image only: {g:?} vs {w:?}"
                    ));
                }
                _ => {}
            }
        }
        if differing * 200 > SIZE.0 * SIZE.1 {
            return Err(format!("{differing} of {} pixels differ", SIZE.0 * SIZE.1));
        }
        Ok(())
    }

    #[test]
    fn march_matches_the_reference_from_the_fitted_camera() {
        let mut cases = vec![("rho", (0.0, 1.0), ball_volume(20))];
        for n in [18, 35, 56] {
            cases.push(("v02", (0.0, 6.0), dwi_like_volume(n)));
        }
        for (field, range, vol) in &cases {
            let (lo, hi) = vol.bounds();
            let camera = Camera::fit_bounds(lo, hi);
            for tf in transfer_functions(*range) {
                check_against_reference(vol, field, &camera, &tf)
                    .unwrap_or_else(|e| panic!("{field} {:?}: {e}", vol.dims));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn march_matches_the_reference_from_generated_cameras(
            azimuth in 0.0f32..360.0,
            elevation in -70.0f32..70.0,
            margin in 1.05f32..1.6,
            fovy_deg in 25.0f32..70.0,
            which in 0usize..4,
        ) {
            let (field, range, vol) = if which % 2 == 0 {
                ("rho", (0.0, 1.0), ball_volume(20))
            } else {
                ("v02", (0.0, 6.0), dwi_like_volume(18))
            };
            // Like `fit_bounds`, the camera frames the bounding sphere,
            // but from any side, with any lens and any margin.
            let (lo, hi) = vol.bounds();
            let center = (lo + hi) * 0.5;
            let radius = (hi - lo).length() * 0.5;
            let distance = radius / (fovy_deg.to_radians() / 2.0).tan() * margin;
            let (az, el) = (azimuth.to_radians(), elevation.to_radians());
            let toward_eye = vec3(el.cos() * az.cos(), el.cos() * az.sin(), el.sin());
            let camera = Camera {
                position: center + toward_eye * distance,
                focal_point: center,
                up: vec3(0.0, 0.0, 1.0),
                fovy_deg,
                near: radius * 0.01,
                far: distance + radius * 4.0,
            };
            let tf = &transfer_functions(range)[which / 2];
            if let Err(e) = check_against_reference(&vol, field, &camera, tf) {
                return Err(TestCaseError::fail(format!("{camera:?} on {field}: {e}")));
            }
        }
    }

    #[test]
    fn two_renders_of_one_input_are_identical() {
        let vol = dwi_like_volume(18);
        let (lo, hi) = vol.bounds();
        let camera = Camera::fit_bounds(lo, hi);
        let tf = &transfer_functions((0.0, 6.0))[1];
        let render = || render_volume(&vol, "v02", &camera, tf, 64, 48, sampling_step(&vol));
        assert_eq!(render(), render());
    }

    #[test]
    fn f64_volume_renders_like_its_f32_copy() {
        let vol = dwi_like_volume(18);
        let Some(DataArray::F32(vals)) = vol.point_data.get("v02") else {
            panic!("resampling produces f32");
        };
        let mut wide = vol.clone();
        wide.point_data.set(
            "v02",
            DataArray::F64(vals.iter().map(|&v| v as f64).collect()),
        );
        let (lo, hi) = vol.bounds();
        let camera = Camera::fit_bounds(lo, hi);
        let tf = &transfer_functions((0.0, 6.0))[0];
        let render = |v: &ImageData| render_volume(v, "v02", &camera, tf, 64, 48, sampling_step(v));
        let img = render(&vol);
        assert!(img.coverage() > 0.0);
        assert_eq!(img, render(&wide));
    }

    /// Resampling marks grid points no cell covers with `-inf`. A ray's
    /// entry sample sits on a box face, where one trilinear weight is
    /// exactly 0, and `-inf * 0` is NaN: that must read as empty space,
    /// not as the transfer function's last (most opaque) stop.
    #[test]
    fn rays_through_background_only_stay_transparent() {
        let vol = dwi_like_volume(35);
        let Some(DataArray::F32(vals)) = vol.point_data.get("v02") else {
            panic!("resampling produces f32");
        };
        assert!(vals.contains(&f32::NEG_INFINITY) && vals.iter().any(|v| v.is_finite()));
        let (lo, hi) = vol.bounds();
        let camera = Camera::fit_bounds(lo, hi);
        let step = sampling_step(&vol);
        let (width, height) = (128, 96);
        // Whether every grid point within two cells of `p` is background.
        let clear_of_data = |p: Vec3| {
            let g = [
                (p.x - vol.origin[0]) / vol.spacing[0],
                (p.y - vol.origin[1]) / vol.spacing[1],
                (p.z - vol.origin[2]) / vol.spacing[2],
            ];
            let near = |axis: usize| {
                let c = g[axis].round() as i64;
                (c - 2).max(0) as usize..=(c + 2).min(vol.dims[axis] as i64 - 1) as usize
            };
            near(2).all(|k| {
                near(1).all(|j| near(0).all(|i| !vals[vol.point_index(i, j, k)].is_finite()))
            })
        };
        for tf in transfer_functions((0.0, 6.0)) {
            let img = render_volume(&vol, "v02", &camera, &tf, width, height, step);
            assert!(img.coverage() > 0.05, "the data itself must show");
            let mut background_rays = 0;
            for y in 0..height {
                for x in 0..width {
                    let (origin, dir) = camera.pixel_ray(x as f32, y as f32, width, height);
                    let Some((t_in, t_out)) = ray_box(origin, dir, lo, hi) else {
                        continue;
                    };
                    let fine = step / 4.0;
                    let samples = ((t_out - t_in) / fine) as usize + 1;
                    if (0..=samples).all(|s| clear_of_data(origin + dir * (t_in + s as f32 * fine)))
                    {
                        background_rays += 1;
                        let i = img.idx(x, y);
                        assert_eq!(
                            (img.rgba[i * 4 + 3], img.depth[i]),
                            (0, 1.0),
                            "pixel ({x}, {y}) crosses background only"
                        );
                    }
                }
            }
            assert!(
                background_rays > 100,
                "only {background_rays} rays miss the data"
            );
        }
    }

    #[test]
    fn ray_box_hits_and_misses() {
        let lo = vec3(0.0, 0.0, 0.0);
        let hi = vec3(1.0, 1.0, 1.0);
        let hit = ray_box(vec3(0.5, 0.5, -1.0), vec3(0.0, 0.0, 1.0), lo, hi).unwrap();
        assert!((hit.0 - 1.0).abs() < 1e-5 && (hit.1 - 2.0).abs() < 1e-5);
        assert!(ray_box(vec3(2.0, 2.0, -1.0), vec3(0.0, 0.0, 1.0), lo, hi).is_none());
        // Ray parallel to an axis inside the slab.
        assert!(ray_box(vec3(0.5, 0.5, 0.5), vec3(1.0, 0.0, 0.0), lo, hi).is_some());
    }

    #[test]
    fn ball_appears_in_the_center() {
        let vol = ball_volume(20);
        let (lo, hi) = vol.bounds();
        let cam = Camera::fit_bounds(lo, hi);
        let img = render_volume(&vol, "rho", &cam, &tf(), 40, 40, 0.5);
        let center = img.idx(20, 20);
        assert!(img.rgba[center * 4 + 3] > 60, "center alpha too low");
        let corner = img.idx(1, 1);
        assert_eq!(img.rgba[corner * 4 + 3], 0, "corner should be empty");
    }

    #[test]
    fn depth_is_sensible_for_hits() {
        let vol = ball_volume(16);
        let (lo, hi) = vol.bounds();
        let cam = Camera::fit_bounds(lo, hi);
        let img = render_volume(&vol, "rho", &cam, &tf(), 32, 32, 0.5);
        let center = img.idx(16, 16);
        assert!(img.depth[center] < 1.0);
        assert!(img.depth[center] > 0.0);
    }

    #[test]
    fn empty_volume_renders_nothing() {
        let mut vol = ImageData::new([8, 8, 8]);
        vol.point_data
            .set("rho", DataArray::F32(vec![0.0; 8 * 8 * 8]));
        let cam = Camera::fit_bounds(vec3(0.0, 0.0, 0.0), vec3(7.0, 7.0, 7.0));
        let img = render_volume(&vol, "rho", &cam, &tf(), 16, 16, 0.5);
        assert_eq!(img.coverage(), 0.0);
    }

    #[test]
    fn denser_sampling_increases_or_keeps_opacity_similar() {
        // Opacity correction should make step size roughly neutral.
        let vol = ball_volume(16);
        let (lo, hi) = vol.bounds();
        let cam = Camera::fit_bounds(lo, hi);
        let coarse = render_volume(&vol, "rho", &cam, &tf(), 24, 24, 1.0);
        let fine = render_volume(&vol, "rho", &cam, &tf(), 24, 24, 0.25);
        let ci = coarse.idx(12, 12);
        let a_coarse = coarse.rgba[ci * 4 + 3] as f32;
        let a_fine = fine.rgba[ci * 4 + 3] as f32;
        assert!(
            (a_coarse - a_fine).abs() < 80.0,
            "step correction broken: {a_coarse} vs {a_fine}"
        );
    }
}
