package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"cbnet/internal/rng"
)

func TestGenerateShapes(t *testing.T) {
	d := MustGenerate(Config{Family: MNIST, N: 100, HardFraction: -1, Seed: 1})
	if d.Len() != 100 {
		t.Fatalf("len %d", d.Len())
	}
	if d.Images.Shape[0] != 100 || d.Images.Shape[1] != Pixels {
		t.Fatalf("images shape %v", d.Images.Shape)
	}
	if len(d.Labels) != 100 || len(d.Hard) != 100 {
		t.Fatalf("labels/hard %d/%d", len(d.Labels), len(d.Hard))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Family: FashionMNIST, N: 50, HardFraction: 0.2, Seed: 7}
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	for i := range a.Images.Data {
		if a.Images.Data[i] != b.Images.Data[i] {
			t.Fatalf("pixel %d differs between identically-seeded runs", i)
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] || a.Hard[i] != b.Hard[i] {
			t.Fatalf("metadata %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(Config{Family: MNIST, N: 20, HardFraction: 0, Seed: 1})
	b := MustGenerate(Config{Family: MNIST, N: 20, HardFraction: 0, Seed: 2})
	same := true
	for i := range a.Images.Data {
		if a.Images.Data[i] != b.Images.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical pixel data")
	}
}

func TestPixelRange(t *testing.T) {
	for _, f := range []Family{MNIST, FashionMNIST, KMNIST} {
		d := MustGenerate(Config{Family: f, N: 60, HardFraction: 0.5, Seed: 3})
		for i, v := range d.Images.Data {
			if v < 0 || v > 1 {
				t.Fatalf("%v: pixel %d = %v outside [0,1]", f, i, v)
			}
		}
	}
}

func TestClassBalance(t *testing.T) {
	d := MustGenerate(Config{Family: KMNIST, N: 1000, HardFraction: -1, Seed: 4})
	counts := make([]int, NumClasses)
	for _, l := range d.Labels {
		counts[l]++
	}
	for cls, n := range counts {
		if n != 100 {
			t.Errorf("class %d count %d, want 100", cls, n)
		}
	}
}

func TestHardFractionCalibration(t *testing.T) {
	cases := []struct {
		f    Family
		want float64
	}{
		{MNIST, 0.05}, {FashionMNIST, 0.23}, {KMNIST, 0.37},
	}
	for _, tc := range cases {
		d := MustGenerate(Config{Family: tc.f, N: 2000, HardFraction: -1, Seed: 5})
		if got := d.HardFraction(); math.Abs(got-tc.want) > 0.005 {
			t.Errorf("%v hard fraction %v, want ≈%v", tc.f, got, tc.want)
		}
	}
}

func TestGlyphsNonEmptyAndDistinct(t *testing.T) {
	for _, f := range []Family{MNIST, FashionMNIST, KMNIST} {
		imgs := make([][]float32, NumClasses)
		for cls := 0; cls < NumClasses; cls++ {
			img := RenderGlyph(f, cls, 2.0)
			var sum float64
			for _, v := range img {
				sum += float64(v)
			}
			if sum < 10 {
				t.Errorf("%v class %d glyph nearly empty (ink %v)", f, cls, sum)
			}
			imgs[cls] = img
		}
		// Pairwise L2 distance between canonical glyphs must be clearly
		// nonzero for classes to be distinguishable.
		for a := 0; a < NumClasses; a++ {
			for b := a + 1; b < NumClasses; b++ {
				var dist float64
				for i := range imgs[a] {
					diff := float64(imgs[a][i] - imgs[b][i])
					dist += diff * diff
				}
				if math.Sqrt(dist) < 2 {
					t.Errorf("%v classes %d and %d are too similar (L2 %v)", f, a, b, math.Sqrt(dist))
				}
			}
		}
	}
}

func TestHardSamplesDifferFromEasy(t *testing.T) {
	r := rng.New(6)
	// Hard renders of the same class should be farther from the canonical
	// glyph, on average, than easy renders.
	for _, f := range []Family{MNIST, FashionMNIST, KMNIST} {
		canon := RenderGlyph(f, 3, 1.85)
		var easyD, hardD float64
		const n = 30
		for i := 0; i < n; i++ {
			e := RenderSample(f, 3, false, r)
			h := RenderSample(f, 3, true, r)
			for j := range canon {
				de := float64(e[j] - canon[j])
				dh := float64(h[j] - canon[j])
				easyD += de * de
				hardD += dh * dh
			}
		}
		if hardD <= easyD {
			t.Errorf("%v: hard samples (%v) not farther from canon than easy (%v)", f, hardD, easyD)
		}
	}
}

func TestSubsetPreservesHardFraction(t *testing.T) {
	d := MustGenerate(Config{Family: FashionMNIST, N: 1000, HardFraction: 0.3, Seed: 7})
	r := rng.New(8)
	for _, ratio := range []float64{0.1, 0.5, 0.9} {
		s, err := d.Subset(ratio, r)
		if err != nil {
			t.Fatal(err)
		}
		wantN := int(ratio * 1000)
		if math.Abs(float64(s.Len()-wantN)) > 2 {
			t.Errorf("ratio %v: size %d, want ≈%d", ratio, s.Len(), wantN)
		}
		if math.Abs(s.HardFraction()-0.3) > 0.02 {
			t.Errorf("ratio %v: hard fraction %v, want ≈0.3", ratio, s.HardFraction())
		}
	}
}

func TestSubsetRejectsBadRatio(t *testing.T) {
	d := MustGenerate(Config{Family: MNIST, N: 10, HardFraction: 0, Seed: 9})
	r := rng.New(1)
	if _, err := d.Subset(0, r); err == nil {
		t.Fatal("ratio 0 should error")
	}
	if _, err := d.Subset(1.5, r); err == nil {
		t.Fatal("ratio >1 should error")
	}
}

func TestSelectCopies(t *testing.T) {
	d := MustGenerate(Config{Family: MNIST, N: 10, HardFraction: 0, Seed: 10})
	s := d.Select([]int{0, 1})
	s.Images.Data[0] = 0.123
	if d.Images.Data[0] == 0.123 {
		t.Fatal("Select aliased parent storage")
	}
}

func TestBatch(t *testing.T) {
	d := MustGenerate(Config{Family: MNIST, N: 10, HardFraction: 0, Seed: 11})
	x, labels := d.Batch(2, 5)
	if x.Shape[0] != 3 || x.Shape[1] != Pixels {
		t.Fatalf("batch shape %v", x.Shape)
	}
	if len(labels) != 3 {
		t.Fatalf("labels %d", len(labels))
	}
	if x.Data[0] != d.Image(2)[0] {
		t.Fatal("batch content wrong")
	}
}

func TestBatchPanicsOnBadRange(t *testing.T) {
	d := MustGenerate(Config{Family: MNIST, N: 4, HardFraction: 0, Seed: 12})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Batch(3, 3)
}

func TestLoadStandardDefaults(t *testing.T) {
	std, err := LoadStandard(MNIST, 200, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if std.Train.Len() != 200 || std.Test.Len() != 50 {
		t.Fatalf("sizes %d/%d", std.Train.Len(), std.Test.Len())
	}
	// Train and test must differ (different seeds).
	same := true
	for i := 0; i < Pixels; i++ {
		if std.Train.Images.Data[i] != std.Test.Images.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("train/test identical")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Family: MNIST, N: 0}); err == nil {
		t.Fatal("N=0 should error")
	}
	if _, err := Generate(Config{Family: MNIST, N: 10, HardFraction: 1.5}); err == nil {
		t.Fatal("hard fraction > 1 should error")
	}
}

func TestTransformsPreserveRange(t *testing.T) {
	r := rng.New(16)
	img := RenderGlyph(MNIST, 5, 2)
	blurred := GaussianBlur(img, 1.5)
	for _, v := range blurred {
		if v < -1e-5 || v > 1+1e-5 {
			t.Fatalf("blur out of range: %v", v)
		}
	}
	AddNoise(img, r, 0.3)
	for _, v := range img {
		if v < 0 || v > 1 {
			t.Fatalf("noise out of range: %v", v)
		}
	}
}

func TestGaussianBlurPreservesMass(t *testing.T) {
	// Blur with reflected edges approximately preserves total ink for a
	// centred glyph.
	img := RenderGlyph(MNIST, 0, 2)
	var before float64
	for _, v := range img {
		before += float64(v)
	}
	blurred := GaussianBlur(img, 1.0)
	var after float64
	for _, v := range blurred {
		after += float64(v)
	}
	if math.Abs(before-after) > 0.05*before {
		t.Fatalf("blur changed ink mass %v → %v", before, after)
	}
}

func TestAffineIdentity(t *testing.T) {
	img := RenderGlyph(MNIST, 8, 2)
	id := Affine(img, 0, 1, 0, 0)
	for i := range img {
		if math.Abs(float64(img[i]-id[i])) > 1e-5 {
			t.Fatalf("identity affine changed pixel %d: %v → %v", i, img[i], id[i])
		}
	}
}

func TestOccludeZeroesBlock(t *testing.T) {
	r := rng.New(17)
	img := make([]float32, Pixels)
	for i := range img {
		img[i] = 1
	}
	Occlude(img, r, 6)
	zeros := 0
	for _, v := range img {
		if v == 0 {
			zeros++
		}
	}
	if zeros != 36 {
		t.Fatalf("occluded %d pixels, want 36", zeros)
	}
}

// Property: every generated sample keeps pixels in [0,1] and a valid label.
func TestQuickSampleInvariants(t *testing.T) {
	f := func(seed uint64, fam uint8, cls uint8, hard bool) bool {
		family := Family(fam % 3)
		class := int(cls % NumClasses)
		r := rng.New(seed)
		img := RenderSample(family, class, hard, r)
		if len(img) != Pixels {
			return false
		}
		for _, v := range img {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Subset of a subset keeps the stratification bound.
func TestQuickSubsetSize(t *testing.T) {
	d := MustGenerate(Config{Family: KMNIST, N: 400, HardFraction: 0.25, Seed: 18})
	f := func(seed uint64) bool {
		r := rng.New(seed)
		ratio := 0.2 + 0.6*r.Float64()
		s, err := d.Subset(ratio, r)
		if err != nil {
			return false
		}
		return math.Abs(float64(s.Len())-ratio*400) <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
