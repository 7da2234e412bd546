package dataset

import "math"

// Side is the image edge length; all datasets in the paper are 28×28.
const Side = 28

// Pixels is the flattened image size (784), matching the paper's
// autoencoder input/output width in Table I.
const Pixels = Side * Side

// Canvas is a float32 grayscale drawing surface in [0,1], y-down.
type Canvas struct {
	Pix []float32
}

// NewCanvas returns a black Side×Side canvas.
func NewCanvas() *Canvas { return &Canvas{Pix: make([]float32, Pixels)} }

// blend deposits intensity v at integer pixel (x, y), saturating at 1.
func (c *Canvas) blend(x, y int, v float32) {
	if x < 0 || x >= Side || y < 0 || y >= Side || v <= 0 {
		return
	}
	i := y*Side + x
	nv := c.Pix[i] + v
	if nv > 1 {
		nv = 1
	}
	c.Pix[i] = nv
}

// coverage converts a signed distance beyond a stroke radius into an
// anti-aliased intensity in [0,1] with a one-pixel soft edge.
func coverage(dist, radius float64) float64 {
	t := radius + 0.5 - dist
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	return t
}

// Line draws an anti-aliased stroke from (x0,y0) to (x1,y1) with the given
// thickness and intensity.
func (c *Canvas) Line(x0, y0, x1, y1, thickness, intensity float64) {
	radius := thickness / 2
	minX := int(math.Floor(math.Min(x0, x1) - radius - 1))
	maxX := int(math.Ceil(math.Max(x0, x1) + radius + 1))
	minY := int(math.Floor(math.Min(y0, y1) - radius - 1))
	maxY := int(math.Ceil(math.Max(y0, y1) + radius + 1))
	dx, dy := x1-x0, y1-y0
	lenSq := dx*dx + dy*dy
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x), float64(y)
			var t float64
			if lenSq > 0 {
				t = ((px-x0)*dx + (py-y0)*dy) / lenSq
				if t < 0 {
					t = 0
				} else if t > 1 {
					t = 1
				}
			}
			cx, cy := x0+t*dx, y0+t*dy
			d := math.Hypot(px-cx, py-cy)
			c.blend(x, y, float32(intensity*coverage(d, radius)))
		}
	}
}

// Arc draws an elliptical arc centred at (cx,cy) with radii (rx,ry) from
// angle a0 to a1 (radians, y-down screen convention), approximated by a
// 48-segment polyline.
func (c *Canvas) Arc(cx, cy, rx, ry, a0, a1, thickness, intensity float64) {
	const segs = 48
	prevX := cx + rx*math.Cos(a0)
	prevY := cy + ry*math.Sin(a0)
	for i := 1; i <= segs; i++ {
		a := a0 + (a1-a0)*float64(i)/segs
		x := cx + rx*math.Cos(a)
		y := cy + ry*math.Sin(a)
		c.Line(prevX, prevY, x, y, thickness, intensity)
		prevX, prevY = x, y
	}
}

// Ellipse draws a full elliptical ring.
func (c *Canvas) Ellipse(cx, cy, rx, ry, thickness, intensity float64) {
	c.Arc(cx, cy, rx, ry, 0, 2*math.Pi, thickness, intensity)
}

// Bezier draws a quadratic Bezier stroke with control point (cx,cy).
func (c *Canvas) Bezier(x0, y0, cx, cy, x1, y1, thickness, intensity float64) {
	const segs = 32
	prevX, prevY := x0, y0
	for i := 1; i <= segs; i++ {
		t := float64(i) / segs
		mt := 1 - t
		x := mt*mt*x0 + 2*mt*t*cx + t*t*x1
		y := mt*mt*y0 + 2*mt*t*cy + t*t*y1
		c.Line(prevX, prevY, x, y, thickness, intensity)
		prevX, prevY = x, y
	}
}

// FillPolygon fills a simple polygon (even-odd rule) with vertex lists xs,
// ys. Edges are hard (no AA); silhouettes drawn with it are softened by the
// per-sample jitter pipeline anyway.
func (c *Canvas) FillPolygon(xs, ys []float64, intensity float64) {
	n := len(xs)
	if n < 3 {
		return
	}
	minY, maxY := ys[0], ys[0]
	for _, y := range ys[1:] {
		minY = math.Min(minY, y)
		maxY = math.Max(maxY, y)
	}
	for y := int(math.Floor(minY)); y <= int(math.Ceil(maxY)); y++ {
		fy := float64(y)
		// Gather crossings of the scanline with polygon edges.
		var xsCross []float64
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			y0, y1 := ys[i], ys[j]
			if (y0 <= fy && y1 > fy) || (y1 <= fy && y0 > fy) {
				t := (fy - y0) / (y1 - y0)
				xsCross = append(xsCross, xs[i]+t*(xs[j]-xs[i]))
			}
		}
		// Insertion-sort the few crossings.
		for i := 1; i < len(xsCross); i++ {
			for j := i; j > 0 && xsCross[j] < xsCross[j-1]; j-- {
				xsCross[j], xsCross[j-1] = xsCross[j-1], xsCross[j]
			}
		}
		for i := 0; i+1 < len(xsCross); i += 2 {
			for x := int(math.Ceil(xsCross[i])); x <= int(math.Floor(xsCross[i+1])); x++ {
				c.blend(x, y, float32(intensity))
			}
		}
	}
}
