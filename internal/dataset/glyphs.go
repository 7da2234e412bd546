package dataset

import (
	"fmt"
	"math"

	"cbnet/internal/rng"
)

// Family identifies one of the paper's three image-classification datasets.
// Because this environment has no network access, each family is synthesized
// procedurally (see README.md, "Reproduction substitutions"); the glyph
// geometry below gives each of the 10 classes per family a distinct,
// learnable shape.
type Family int

// The three dataset families evaluated in the paper.
const (
	MNIST        Family = iota // handwritten-digit-like glyphs
	FashionMNIST               // clothing silhouettes
	KMNIST                     // cursive stroke patterns
)

// String returns the dataset name as used in the paper's tables.
func (f Family) String() string {
	switch f {
	case MNIST:
		return "MNIST"
	case FashionMNIST:
		return "FMNIST"
	case KMNIST:
		return "KMNIST"
	default:
		return "unknown"
	}
}

// FamilyByName maps the CLI spelling of a dataset family ("mnist",
// "fmnist", "kmnist") to its Family, shared by every command's -dataset
// flag.
func FamilyByName(name string) (Family, error) {
	switch name {
	case "mnist":
		return MNIST, nil
	case "fmnist":
		return FashionMNIST, nil
	case "kmnist":
		return KMNIST, nil
	default:
		return 0, fmt.Errorf("unknown dataset %q (want mnist, fmnist or kmnist)", name)
	}
}

// NumClasses is the class count for every family (all three datasets in the
// paper are balanced 10-class problems).
const NumClasses = 10

// drawDigit renders an MNIST-like digit. th is the stroke thickness.
func drawDigit(c *Canvas, class int, th float64) {
	const ink = 1.0
	switch class {
	case 0:
		c.Ellipse(14, 14, 6.5, 8.5, th, ink)
	case 1:
		c.Line(14, 5, 14, 23, th, ink)
		c.Line(10, 9, 14, 5, th, ink)
	case 2:
		c.Arc(14, 10, 5.5, 5, math.Pi, 2.2*math.Pi, th, ink)
		c.Line(18.5, 12.5, 8.5, 22.5, th, ink)
		c.Line(8.5, 22.5, 20, 22.5, th, ink)
	case 3:
		c.Arc(13, 9.5, 5.5, 4.5, -0.6*math.Pi, 0.5*math.Pi, th, ink)
		c.Arc(13, 18.5, 5.5, 4.5, -0.5*math.Pi, 0.6*math.Pi, th, ink)
	case 4:
		c.Line(17, 5, 17, 23, th, ink)
		c.Line(17, 5, 8, 16, th, ink)
		c.Line(8, 16, 21, 16, th, ink)
	case 5:
		c.Line(18.5, 5.5, 9.5, 5.5, th, ink)
		c.Line(9.5, 5.5, 9.5, 12.5, th, ink)
		c.Arc(13, 17, 5.5, 5.2, -0.45*math.Pi, 0.75*math.Pi, th, ink)
	case 6:
		c.Arc(14, 14, 6, 9, 0.55*math.Pi, 1.45*math.Pi, th, ink)
		c.Ellipse(14, 18, 5, 4.5, th, ink)
	case 7:
		c.Line(8, 6, 20, 6, th, ink)
		c.Line(20, 6, 12, 23, th, ink)
	case 8:
		c.Ellipse(14, 9.5, 4.7, 4.3, th, ink)
		c.Ellipse(14, 18.5, 5.5, 4.7, th, ink)
	case 9:
		c.Ellipse(14, 10, 5, 4.5, th, ink)
		c.Arc(14, 14, 6, 9, -0.45*math.Pi, 0.45*math.Pi, th, ink)
	}
}

// drawFashion renders an FMNIST-like clothing silhouette. The classes follow
// Fashion-MNIST's label order: t-shirt, trouser, pullover, dress, coat,
// sandal, shirt, sneaker, bag, ankle boot.
func drawFashion(c *Canvas, class int, th float64) {
	const ink = 0.85
	switch class {
	case 0: // t-shirt: torso + short sleeves
		c.FillPolygon(
			[]float64{9, 19, 19, 9},
			[]float64{8, 8, 23, 23}, ink)
		c.FillPolygon(
			[]float64{4, 9, 9, 5},
			[]float64{8, 8, 13, 13}, ink)
		c.FillPolygon(
			[]float64{19, 24, 23, 19},
			[]float64{8, 8, 13, 13}, ink)
	case 1: // trouser: two legs joined at waist
		c.FillPolygon(
			[]float64{9, 19, 19, 15.5, 15.5, 12.5, 12.5, 9},
			[]float64{5, 5, 24, 24, 11, 11, 24, 24}, ink)
	case 2: // pullover: torso + long sleeves
		c.FillPolygon(
			[]float64{9, 19, 19, 9},
			[]float64{7, 7, 23, 23}, ink)
		c.FillPolygon(
			[]float64{4, 9, 9, 4},
			[]float64{7, 7, 21, 21}, ink)
		c.FillPolygon(
			[]float64{19, 24, 24, 19},
			[]float64{7, 7, 21, 21}, ink)
	case 3: // dress: fitted top flaring to a wide hem
		c.FillPolygon(
			[]float64{11, 17, 21, 7},
			[]float64{5, 5, 24, 24}, ink)
	case 4: // coat: torso + sleeves + open front seam
		c.FillPolygon(
			[]float64{8, 20, 20, 8},
			[]float64{6, 6, 24, 24}, ink)
		c.FillPolygon(
			[]float64{3, 8, 8, 3},
			[]float64{6, 6, 20, 20}, ink)
		c.FillPolygon(
			[]float64{20, 25, 25, 20},
			[]float64{6, 6, 20, 20}, ink)
		// Carve the open front seam by zeroing a thin column.
		for y := 6; y <= 24; y++ {
			c.Pix[y*Side+14] = 0
		}
	case 5: // sandal: thin sole + diagonal straps
		c.FillPolygon(
			[]float64{4, 24, 24, 4},
			[]float64{19, 19, 22, 22}, ink)
		c.Line(7, 19, 13, 12, th, ink)
		c.Line(13, 12, 19, 19, th, ink)
		c.Line(11, 19, 17, 14, th, ink)
	case 6: // shirt: torso + short sleeves + collar notch
		c.FillPolygon(
			[]float64{9, 19, 19, 9},
			[]float64{7, 7, 23, 23}, ink)
		c.FillPolygon(
			[]float64{5, 9, 9, 5},
			[]float64{7, 7, 15, 15}, ink)
		c.FillPolygon(
			[]float64{19, 23, 23, 19},
			[]float64{7, 7, 15, 15}, ink)
		// collar: carve a V at the neckline
		for y := 7; y <= 11; y++ {
			w := 11 - y
			for x := 14 - w/2; x <= 14+w/2; x++ {
				if x >= 0 && x < Side {
					c.Pix[y*Side+x] = 0
				}
			}
		}
	case 7: // sneaker: low-profile shoe with a thick sole
		c.FillPolygon(
			[]float64{4, 18, 24, 24, 4},
			[]float64{14, 14, 18, 22, 22}, ink)
		c.Line(7, 14, 10, 17, 1.2, ink)
		c.Line(10, 14, 13, 17, 1.2, ink)
	case 8: // bag: body + handle arc
		c.FillPolygon(
			[]float64{6, 22, 22, 6},
			[]float64{12, 12, 23, 23}, ink)
		c.Arc(14, 12, 5, 5, math.Pi, 2*math.Pi, th, ink)
	case 9: // ankle boot: shaft + foot
		c.FillPolygon(
			[]float64{9, 16, 16, 24, 24, 9},
			[]float64{5, 5, 15, 18, 23, 23}, ink)
	}
}

// kmnistStrokes holds per-class stroke programs generated once from a fixed
// seed, giving each class a stable cursive-like shape distinct from the
// digit and fashion families.
var kmnistStrokes = buildKMNISTStrokes()

type bezierStroke struct {
	x0, y0, cx, cy, x1, y1 float64
}

func buildKMNISTStrokes() [][]bezierStroke {
	out := make([][]bezierStroke, NumClasses)
	var accepted [][]float32
	// One fixed stream drives all classes, so shapes never change across
	// runs; rejection sampling keeps the 10 canonical glyphs far apart in
	// pixel space (without it, random strokes produce near-collisions that
	// cap every classifier's accuracy well below the paper's).
	r := rng.New(0xC0FFEE)
	const minPairwiseL2 = 6.0
	for class := 0; class < NumClasses; class++ {
		for attempt := 0; ; attempt++ {
			strokes := randomStrokes(r)
			img := renderStrokes(strokes)
			if attempt >= 400 || minGlyphDist(img, accepted) >= minPairwiseL2 {
				out[class] = strokes
				accepted = append(accepted, img)
				break
			}
		}
	}
	return out
}

func randomStrokes(r *rng.RNG) []bezierStroke {
	n := 3 + r.Intn(3) // 3-5 strokes
	strokes := make([]bezierStroke, n)
	for i := range strokes {
		strokes[i] = bezierStroke{
			x0: 4 + 20*r.Float64(), y0: 4 + 20*r.Float64(),
			cx: 2 + 24*r.Float64(), cy: 2 + 24*r.Float64(),
			x1: 4 + 20*r.Float64(), y1: 4 + 20*r.Float64(),
		}
	}
	return strokes
}

func renderStrokes(strokes []bezierStroke) []float32 {
	c := NewCanvas()
	for _, s := range strokes {
		c.Bezier(s.x0, s.y0, s.cx, s.cy, s.x1, s.y1, 1.9, 1.0)
	}
	return c.Pix
}

func minGlyphDist(img []float32, others [][]float32) float64 {
	best := 1e18
	for _, o := range others {
		var d float64
		for i := range img {
			diff := float64(img[i] - o[i])
			d += diff * diff
		}
		if d < best {
			best = d
		}
	}
	if len(others) == 0 {
		return 1e18
	}
	return math.Sqrt(best)
}

// drawKuzushiji renders a KMNIST-like cursive glyph from the class's fixed
// stroke program. Strokes are drawn 30% thicker than the digit families:
// thin cursive curves are otherwise dominated by sub-pixel misalignment
// under the MSE reconstruction loss, which real KMNIST brush strokes (wide,
// inky) do not suffer from.
func drawKuzushiji(c *Canvas, class int, th float64) {
	for _, s := range kmnistStrokes[class] {
		c.Bezier(s.x0, s.y0, s.cx, s.cy, s.x1, s.y1, th*1.3, 1.0)
	}
}

// RenderGlyph draws the canonical glyph for (family, class) with the given
// stroke thickness into a fresh image.
func RenderGlyph(family Family, class int, thickness float64) []float32 {
	c := NewCanvas()
	switch family {
	case MNIST:
		drawDigit(c, class, thickness)
	case FashionMNIST:
		drawFashion(c, class, thickness)
	case KMNIST:
		drawKuzushiji(c, class, thickness)
	default:
		panic("dataset: unknown family")
	}
	return c.Pix
}
