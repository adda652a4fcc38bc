//! Color maps and volume transfer functions.

/// A piecewise-linear scalar → RGB color map.
#[derive(Debug, Clone)]
pub struct ColorMap {
    /// Control points `(t, [r, g, b])`, `t` ascending in `[0, 1]`.
    stops: Vec<(f32, [f32; 3])>,
    /// Scalar range mapped onto `[0, 1]`.
    range: (f32, f32),
}

impl ColorMap {
    /// A map from explicit stops over the given scalar range.
    pub fn from_stops(stops: Vec<(f32, [f32; 3])>, range: (f32, f32)) -> Self {
        assert!(!stops.is_empty());
        debug_assert!(stops.windows(2).all(|w| w[0].0 <= w[1].0));
        Self { stops, range }
    }

    /// ParaView's default "Cool to Warm" diverging map.
    pub fn cool_to_warm(range: (f32, f32)) -> Self {
        Self::from_stops(
            vec![
                (0.0, [0.231, 0.298, 0.753]),
                (0.5, [0.865, 0.865, 0.865]),
                (1.0, [0.706, 0.016, 0.149]),
            ],
            range,
        )
    }

    /// A viridis-like perceptually ordered map.
    pub fn viridis(range: (f32, f32)) -> Self {
        Self::from_stops(
            vec![
                (0.0, [0.267, 0.005, 0.329]),
                (0.25, [0.229, 0.322, 0.546]),
                (0.5, [0.127, 0.566, 0.551]),
                (0.75, [0.369, 0.789, 0.383]),
                (1.0, [0.993, 0.906, 0.144]),
            ],
            range,
        )
    }

    /// Looks up a named preset.
    pub fn by_name(name: &str, range: (f32, f32)) -> Self {
        match name {
            "viridis" => Self::viridis(range),
            _ => Self::cool_to_warm(range),
        }
    }

    /// The mapped scalar range.
    pub fn range(&self) -> (f32, f32) {
        self.range
    }

    /// Maps a scalar to RGB (clamped to the range).
    pub fn map(&self, v: f32) -> [f32; 3] {
        let (lo, hi) = self.range;
        let t = if hi > lo { ((v - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.5 };
        let mut prev = self.stops[0];
        for &stop in &self.stops {
            if t <= stop.0 {
                let span = stop.0 - prev.0;
                let f = if span > 1e-9 { (t - prev.0) / span } else { 0.0 };
                return [
                    prev.1[0] + (stop.1[0] - prev.1[0]) * f,
                    prev.1[1] + (stop.1[1] - prev.1[1]) * f,
                    prev.1[2] + (stop.1[2] - prev.1[2]) * f,
                ];
            }
            prev = stop;
        }
        prev.1
    }

    /// Maps a scalar to an 8-bit opaque RGBA pixel.
    pub fn map_rgba(&self, v: f32) -> [u8; 4] {
        let c = self.map(v);
        [
            (c[0] * 255.0) as u8,
            (c[1] * 255.0) as u8,
            (c[2] * 255.0) as u8,
            255,
        ]
    }
}

/// A volume transfer function: scalar → color + opacity-per-unit-length.
#[derive(Debug, Clone)]
pub struct TransferFunction {
    /// Underlying color map.
    pub colors: ColorMap,
    /// Opacity control points `(t in [0, 1], opacity)`.
    opacity_stops: Vec<(f32, f32)>,
}

impl TransferFunction {
    /// A transfer function with a linear opacity ramp.
    pub fn ramp(colors: ColorMap, max_opacity: f32) -> Self {
        Self {
            colors,
            opacity_stops: vec![(0.0, 0.0), (1.0, max_opacity)],
        }
    }

    /// A transfer function with explicit opacity stops.
    pub fn with_opacity(colors: ColorMap, opacity_stops: Vec<(f32, f32)>) -> Self {
        assert!(!opacity_stops.is_empty());
        Self {
            colors,
            opacity_stops,
        }
    }

    /// Evaluates `(rgb, opacity)` for a scalar value. A non-finite scalar
    /// is empty space: opacity 0.
    pub fn eval(&self, v: f32) -> ([f32; 3], f32) {
        if !v.is_finite() {
            return ([0.0; 3], 0.0);
        }
        let (lo, hi) = self.colors.range();
        let t = if hi > lo { ((v - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.5 };
        let mut prev = self.opacity_stops[0];
        let mut alpha = prev.1;
        for &stop in &self.opacity_stops {
            if t <= stop.0 {
                let span = stop.0 - prev.0;
                let f = if span > 1e-9 { (t - prev.0) / span } else { 0.0 };
                alpha = prev.1 + (stop.1 - prev.1) * f;
                return (self.colors.map(v), alpha);
            }
            prev = stop;
            alpha = stop.1;
        }
        (self.colors.map(v), alpha)
    }

    /// Tabulates the function for samples `step` apart: opacity is
    /// per unit length, so a sample stands for `1 - (1 - a)^step`.
    pub(crate) fn table(&self, step: f32) -> TransferTable {
        let (lo, hi) = self.colors.range();
        let span = if hi > lo { hi - lo } else { 0.0 };
        let last = (TABLE_ENTRIES - 1) as f32;
        let entries = (0..TABLE_ENTRIES)
            .map(|i| {
                let (rgb, a) = self.eval(lo + span * (i as f32 / last));
                let a = 1.0 - (1.0 - a.clamp(0.0, 1.0)).powf(step);
                [rgb[0] * a, rgb[1] * a, rgb[2] * a, a]
            })
            .collect();
        TransferTable {
            entries,
            lo,
            scale: if span > 0.0 { last / span } else { 0.0 },
        }
    }
}

/// Entries in a [`TransferTable`]. With nearest-entry lookup a scalar is
/// off by at most half an entry, which keeps a rendered channel within one
/// 8-bit level of per-sample [`TransferFunction::eval`] (pinned by the
/// ray-caster's oracle tests); the 256 KiB still sit in the L2 cache.
const TABLE_ENTRIES: usize = 16384;

/// A [`TransferFunction`] tabulated for one sampling distance: what the
/// ray-caster blends per sample, without `eval`'s stop scans or a `powf`.
pub(crate) struct TransferTable {
    /// Premultiplied, opacity-corrected `[r·a, g·a, b·a, a]` at evenly
    /// spaced scalars over the colour map's range.
    entries: Vec<[f32; 4]>,
    lo: f32,
    /// Entries per scalar unit; 0 for a degenerate range.
    scale: f32,
}

impl TransferTable {
    /// The entry nearest to a finite scalar `v`, clamped to the range.
    #[inline]
    pub(crate) fn lookup(&self, v: f32) -> [f32; 4] {
        // `max` also turns an overflowed NaN into entry 0; the cast
        // saturates, so `min` covers everything above the range.
        let i = ((v - self.lo) * self.scale).max(0.0) + 0.5;
        self.entries[(i as usize).min(TABLE_ENTRIES - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_map_to_end_stops() {
        let m = ColorMap::cool_to_warm((0.0, 10.0));
        let close = |a: [f32; 3], b: [f32; 3]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-5);
        assert!(close(m.map(0.0), [0.231, 0.298, 0.753]));
        assert!(close(m.map(10.0), [0.706, 0.016, 0.149]));
    }

    #[test]
    fn out_of_range_clamps() {
        let m = ColorMap::viridis((0.0, 1.0));
        assert_eq!(m.map(-5.0), m.map(0.0));
        assert_eq!(m.map(7.0), m.map(1.0));
    }

    #[test]
    fn midpoint_interpolates() {
        let m = ColorMap::from_stops(
            vec![(0.0, [0.0, 0.0, 0.0]), (1.0, [1.0, 1.0, 1.0])],
            (0.0, 2.0),
        );
        let mid = m.map(1.0);
        for c in mid {
            assert!((c - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn degenerate_range_is_safe() {
        let m = ColorMap::viridis((3.0, 3.0));
        let c = m.map(3.0);
        assert!(c.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn rgba_is_opaque_and_scaled() {
        let m = ColorMap::from_stops(vec![(0.0, [1.0, 0.5, 0.0])], (0.0, 1.0));
        assert_eq!(m.map_rgba(0.0), [255, 127, 0, 255]);
    }

    #[test]
    fn transfer_function_ramps_opacity() {
        let tf = TransferFunction::ramp(ColorMap::viridis((0.0, 1.0)), 0.8);
        let (_, a0) = tf.eval(0.0);
        let (_, a1) = tf.eval(1.0);
        let (_, ah) = tf.eval(0.5);
        assert_eq!(a0, 0.0);
        assert!((a1 - 0.8).abs() < 1e-6);
        assert!((ah - 0.4).abs() < 1e-6);
    }

    #[test]
    fn non_finite_scalars_are_empty_space() {
        let tf = TransferFunction::ramp(ColorMap::cool_to_warm((0.0, 6.0)), 0.9);
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(tf.eval(v).1, 0.0, "eval({v})");
        }
        // Finite values beyond the range still clamp onto its ends.
        assert!((tf.eval(1e30).1 - 0.9).abs() < 1e-6);
    }

    #[test]
    fn table_holds_premultiplied_corrected_eval() {
        let stops = vec![(0.0, 0.0), (0.35, 0.27), (1.0, 0.9)];
        for range in [(0.0, 6.0), (-2.0, 0.5), (3.0, 3.0)] {
            let tf = TransferFunction::with_opacity(ColorMap::cool_to_warm(range), stops.clone());
            for step in [0.4f32, 2.5] {
                let table = tf.table(step);
                for s in -10..=110 {
                    let v = range.0 + (range.1 - range.0 + 1.0) * s as f32 / 100.0 - 0.5;
                    let (rgb, a) = tf.eval(v);
                    let a = 1.0 - (1.0 - a).powf(step);
                    let want = [rgb[0] * a, rgb[1] * a, rgb[2] * a, a];
                    let got = table.lookup(v);
                    for c in 0..4 {
                        assert!(
                            (got[c] - want[c]).abs() < 2e-4,
                            "range {range:?} step {step} v {v}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_opacity_stops() {
        let tf = TransferFunction::with_opacity(
            ColorMap::viridis((0.0, 1.0)),
            vec![(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)],
        );
        let (_, mid) = tf.eval(0.5);
        assert!((mid - 1.0).abs() < 1e-6);
        let (_, end) = tf.eval(1.0);
        assert!(end.abs() < 1e-6);
    }
}
