//! Minimal SVG rendering for space–time diagrams (Figures 1–4, 6–7).
//!
//! The canvas maps problem coordinates (position on the line, time)
//! into SVG pixels with position on the horizontal axis and time
//! growing **upwards**, matching the paper's figures.

use faultline_core::{Error, Result};

/// An SVG canvas over a rectangular region of the space–time plane.
#[derive(Debug, Clone)]
pub struct SvgCanvas {
    width: f64,
    height: f64,
    x_range: (f64, f64),
    y_range: (f64, f64),
    elements: Vec<String>,
}

impl SvgCanvas {
    /// Creates a canvas of `width x height` pixels covering
    /// `x_range x y_range` in problem coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Domain`] for empty ranges or non-positive pixel
    /// dimensions.
    pub fn new(width: f64, height: f64, x_range: (f64, f64), y_range: (f64, f64)) -> Result<Self> {
        if !(width > 0.0 && height > 0.0) {
            return Err(Error::domain("canvas dimensions must be positive"));
        }
        if !(x_range.0 < x_range.1 && y_range.0 < y_range.1) {
            return Err(Error::domain("canvas ranges must be non-empty"));
        }
        Ok(SvgCanvas { width, height, x_range, y_range, elements: Vec::new() })
    }

    fn map(&self, x: f64, y: f64) -> (f64, f64) {
        let px = (x - self.x_range.0) / (self.x_range.1 - self.x_range.0) * self.width;
        // SVG y grows downwards; flip so time grows upwards.
        let py =
            self.height - (y - self.y_range.0) / (self.y_range.1 - self.y_range.0) * self.height;
        (px, py)
    }

    /// Draws a polyline through problem-space points.
    pub fn polyline(&mut self, points: &[(f64, f64)], color: &str, stroke_width: f64) {
        if points.len() < 2 {
            return;
        }
        let coords: Vec<String> = points
            .iter()
            .map(|&(x, y)| {
                let (px, py) = self.map(x, y);
                format!("{px:.2},{py:.2}")
            })
            .collect();
        self.elements.push(format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"{stroke_width}\"/>",
            coords.join(" ")
        ));
    }

    /// Draws a filled circle at a problem-space point.
    pub(crate) fn circle(&mut self, x: f64, y: f64, radius_px: f64, color: &str) {
        let (px, py) = self.map(x, y);
        self.elements.push(format!(
            "<circle cx=\"{px:.2}\" cy=\"{py:.2}\" r=\"{radius_px}\" fill=\"{color}\"/>"
        ));
    }

    /// Places a text label at a problem-space point.
    pub(crate) fn text(&mut self, x: f64, y: f64, content: &str) {
        let (px, py) = self.map(x, y);
        let escaped = content.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;");
        self.elements.push(format!(
            "<text x=\"{px:.2}\" y=\"{py:.2}\" font-size=\"12\" font-family=\"monospace\">{escaped}</text>"
        ));
    }

    /// Draws the coordinate axes (the line `t = 0` and the axis `x = 0`)
    /// when they fall inside the canvas.
    pub fn axes(&mut self) {
        if self.y_range.0 <= 0.0 && self.y_range.1 >= 0.0 {
            self.polyline(&[(self.x_range.0, 0.0), (self.x_range.1, 0.0)], "#888888", 1.0);
        }
        if self.x_range.0 <= 0.0 && self.x_range.1 >= 0.0 {
            self.polyline(&[(0.0, self.y_range.0), (0.0, self.y_range.1)], "#888888", 1.0);
        }
    }

    /// Serializes the canvas as a standalone SVG document.
    #[must_use]
    pub fn into_svg(self) -> String {
        let mut out = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
             viewBox=\"0 0 {} {}\">\n",
            self.width, self.height, self.width, self.height
        );
        out.push_str("<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");
        for el in self.elements {
            out.push_str(&el);
            out.push('\n');
        }
        out.push_str("</svg>\n");
        out
    }
}

/// A small palette for multi-robot diagrams.
pub const PALETTE: &[&str] =
    &["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canvas_validation() {
        assert!(SvgCanvas::new(0.0, 100.0, (0.0, 1.0), (0.0, 1.0)).is_err());
        assert!(SvgCanvas::new(100.0, 100.0, (1.0, 1.0), (0.0, 1.0)).is_err());
        assert!(SvgCanvas::new(100.0, 100.0, (0.0, 1.0), (2.0, 1.0)).is_err());
    }

    #[test]
    fn svg_document_structure() {
        let mut c = SvgCanvas::new(200.0, 100.0, (-5.0, 5.0), (0.0, 10.0)).unwrap();
        c.axes();
        c.polyline(&[(0.0, 0.0), (1.0, 1.0), (-2.0, 4.0)], "#1f77b4", 1.5);
        c.circle(1.0, 1.0, 3.0, "#d62728");
        c.text(0.0, 9.0, "cone C<beta>");
        let svg = c.into_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("<polyline"));
        assert!(svg.contains("<circle"));
        assert!(svg.contains("&lt;beta&gt;"), "text must be escaped");
    }

    #[test]
    fn time_axis_points_up() {
        let mut c = SvgCanvas::new(100.0, 100.0, (0.0, 1.0), (0.0, 1.0)).unwrap();
        c.circle(0.0, 1.0, 1.0, "#000000"); // top of time range
        let svg = c.into_svg();
        // Mapped y must be 0 (top of the image).
        assert!(svg.contains("cy=\"0.00\""), "{svg}");
    }

    #[test]
    fn short_polylines_are_ignored() {
        let mut c = SvgCanvas::new(100.0, 100.0, (0.0, 1.0), (0.0, 1.0)).unwrap();
        c.polyline(&[(0.5, 0.5)], "#000000", 1.0);
        assert!(!c.into_svg().contains("polyline"));
    }
}
