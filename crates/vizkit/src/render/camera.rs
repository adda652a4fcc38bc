//! Cameras.

use crate::math::{vec3, Mat4, Vec3};

/// A perspective camera.
#[derive(Debug, Clone, Copy)]
pub struct Camera {
    /// Eye position.
    pub position: Vec3,
    /// Look-at target.
    pub focal_point: Vec3,
    /// View-up direction.
    pub up: Vec3,
    /// Vertical field of view in degrees.
    pub fovy_deg: f32,
    /// Near clip distance.
    pub near: f32,
    /// Far clip distance.
    pub far: f32,
}

impl Default for Camera {
    fn default() -> Self {
        Self {
            position: vec3(0.0, 0.0, 5.0),
            focal_point: vec3(0.0, 0.0, 0.0),
            up: vec3(0.0, 1.0, 0.0),
            fovy_deg: 45.0,
            near: 0.1,
            far: 1000.0,
        }
    }
}

impl Camera {
    /// A camera framing the axis-aligned box `(lo, hi)` from a diagonal
    /// direction, like ParaView's "reset camera".
    pub fn fit_bounds(lo: Vec3, hi: Vec3) -> Self {
        let center = (lo + hi) * 0.5;
        let radius = ((hi - lo).length() * 0.5).max(1e-3);
        let dir = vec3(1.0, 0.8, 1.2).normalized();
        let dist = radius / (22.5f32.to_radians()).tan() * 1.1;
        Self {
            position: center + dir * dist,
            focal_point: center,
            up: vec3(0.0, 0.0, 1.0),
            fovy_deg: 45.0,
            near: (dist - radius * 2.0).max(radius * 0.01),
            far: dist + radius * 4.0,
        }
    }

    /// The combined projection × view matrix for an image aspect ratio.
    pub fn view_proj(&self, aspect: f32) -> Mat4 {
        let view = Mat4::look_at(self.position, self.focal_point, self.up);
        let proj = Mat4::perspective(self.fovy_deg.to_radians(), aspect, self.near, self.far);
        proj.mul_mat(&view)
    }

    /// Projects a world point to pixel coordinates and normalized depth.
    /// Returns `None` for points behind the near plane.
    pub fn project(&self, p: Vec3, width: usize, height: usize) -> Option<(f32, f32, f32)> {
        let mvp = self.view_proj(width as f32 / height as f32);
        let h = mvp.transform_point(p);
        if h[3] <= 1e-9 {
            return None;
        }
        let ndc = [h[0] / h[3], h[1] / h[3], h[2] / h[3]];
        let x = (ndc[0] * 0.5 + 0.5) * (width as f32 - 1.0);
        let y = (1.0 - (ndc[1] * 0.5 + 0.5)) * (height as f32 - 1.0);
        let depth = ndc[2] * 0.5 + 0.5;
        Some((x, y, depth))
    }

    /// The world-space ray through pixel `(x, y)`: `(origin, direction)`.
    pub fn pixel_ray(&self, x: f32, y: f32, width: usize, height: usize) -> (Vec3, Vec3) {
        let frame = RayFrame::new(self, width, height);
        (frame.origin, frame.dir(x, frame.row(y)))
    }

    /// Distance from the eye to a world point along the view direction.
    pub fn view_depth(&self, p: Vec3) -> f32 {
        let forward = (self.focal_point - self.position).normalized();
        (p - self.position).dot(forward)
    }
}

/// Everything about a camera's pixel rays that does not depend on the
/// pixel: built once per image, then [`RayFrame::row`] once per scanline
/// and [`RayFrame::dir`] once per pixel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RayFrame {
    /// Ray origin (the eye), shared by every pixel.
    pub(crate) origin: Vec3,
    forward: Vec3,
    right: Vec3,
    up: Vec3,
    half_h: f32,
    aspect: f32,
    width: f32,
    height: f32,
}

impl RayFrame {
    pub(crate) fn new(camera: &Camera, width: usize, height: usize) -> Self {
        let forward = (camera.focal_point - camera.position).normalized();
        let right = forward.cross(camera.up).normalized();
        Self {
            origin: camera.position,
            forward,
            right,
            up: right.cross(forward),
            half_h: (camera.fovy_deg.to_radians() / 2.0).tan(),
            aspect: width as f32 / height as f32,
            width: width as f32,
            height: height as f32,
        }
    }

    /// The vertical term of every ray on scanline `y`.
    pub(crate) fn row(&self, y: f32) -> Vec3 {
        let ndc_y = 1.0 - (y + 0.5) / self.height * 2.0;
        self.up * (ndc_y * self.half_h)
    }

    /// Unit direction of the ray through column `x` of the scanline whose
    /// [`RayFrame::row`] term is `row`.
    pub(crate) fn dir(&self, x: f32, row: Vec3) -> Vec3 {
        let ndc_x = (x + 0.5) / self.width * 2.0 - 1.0;
        (self.forward + self.right * (ndc_x * self.half_h * self.aspect) + row).normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focal_point_projects_to_center() {
        let cam = Camera::default();
        let (x, y, d) = cam.project(cam.focal_point, 101, 101).unwrap();
        assert!((x - 50.0).abs() < 1.0, "x={x}");
        assert!((y - 50.0).abs() < 1.0, "y={y}");
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn points_behind_eye_are_rejected() {
        let cam = Camera::default();
        assert!(cam.project(vec3(0.0, 0.0, 10.0), 64, 64).is_none());
    }

    #[test]
    fn nearer_points_get_smaller_depth() {
        let cam = Camera::default();
        let (_, _, d_near) = cam.project(vec3(0.0, 0.0, 2.0), 64, 64).unwrap();
        let (_, _, d_far) = cam.project(vec3(0.0, 0.0, -5.0), 64, 64).unwrap();
        assert!(d_near < d_far);
    }

    #[test]
    fn fit_bounds_sees_the_whole_box() {
        let cam = Camera::fit_bounds(vec3(0.0, 0.0, 0.0), vec3(10.0, 10.0, 10.0));
        for corner in [
            vec3(0.0, 0.0, 0.0),
            vec3(10.0, 10.0, 10.0),
            vec3(10.0, 0.0, 0.0),
            vec3(0.0, 10.0, 10.0),
        ] {
            let p = cam.project(corner, 100, 100);
            assert!(p.is_some());
            let (x, y, _) = p.unwrap();
            assert!((-5.0..105.0).contains(&x), "corner {corner:?} at x {x}");
            assert!((-5.0..105.0).contains(&y), "corner {corner:?} at y {y}");
        }
    }

    #[test]
    fn pixel_ray_points_toward_scene() {
        let cam = Camera::default();
        let (o, dir) = cam.pixel_ray(32.0, 32.0, 64, 64);
        assert_eq!(o, cam.position);
        // The central ray heads from +z toward the origin.
        assert!(dir.z < -0.9);
        assert!((dir.length() - 1.0).abs() < 1e-5);
    }

    /// `pixel_ray` as it was before `RayFrame` carried its formula.
    fn pixel_ray_per_call(
        cam: &Camera,
        x: f32,
        y: f32,
        width: usize,
        height: usize,
    ) -> (Vec3, Vec3) {
        let aspect = width as f32 / height as f32;
        let fov = cam.fovy_deg.to_radians();
        let forward = (cam.focal_point - cam.position).normalized();
        let right = forward.cross(cam.up).normalized();
        let up = right.cross(forward);
        let ndc_x = (x + 0.5) / width as f32 * 2.0 - 1.0;
        let ndc_y = 1.0 - (y + 0.5) / height as f32 * 2.0;
        let half_h = (fov / 2.0).tan();
        let dir =
            (forward + right * (ndc_x * half_h * aspect) + up * (ndc_y * half_h)).normalized();
        (cam.position, dir)
    }

    #[test]
    fn pixel_ray_is_bit_for_bit_what_it_was() {
        let cameras = [
            Camera::default(),
            Camera::fit_bounds(vec3(0.0, 0.0, 0.0), vec3(28.0, 28.0, 21.0)),
            Camera {
                position: vec3(-3.5, 7.25, 1.125),
                focal_point: vec3(2.0, -1.0, 0.5),
                up: vec3(0.1, 0.2, 1.0),
                fovy_deg: 63.0,
                ..Camera::default()
            },
        ];
        let bits = |(o, d): (Vec3, Vec3)| [o, d].map(|v| v.to_array().map(f32::to_bits));
        for cam in &cameras {
            for (width, height) in [(512, 384), (64, 64), (37, 91)] {
                for y in (0..height).step_by(7) {
                    for x in (0..width).step_by(5) {
                        let (x, y) = (x as f32, y as f32);
                        assert_eq!(
                            bits(cam.pixel_ray(x, y, width, height)),
                            bits(pixel_ray_per_call(cam, x, y, width, height)),
                            "pixel ({x}, {y}) of {width}x{height}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn view_depth_orders_points() {
        let cam = Camera::default();
        assert!(cam.view_depth(vec3(0.0, 0.0, 2.0)) < cam.view_depth(vec3(0.0, 0.0, -2.0)));
    }
}
