package engine

import (
	"math"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// TestLogitsDoNotDependOnBatchMates: on either route, every row of the
// logits forward returns — for batches of random sizes from 1 to MaxBatch,
// of images drawn in random order — is bit-equal to the image's row of one
// batch of 32 through plans compiled at 32, and so is the hard route's
// converted image. So a batch-32 oracle agrees with what serving computed on
// the logits, not only on the argmax, whatever batch an image rode in.
func TestLogitsDoNotDependOnBatchMates(t *testing.T) {
	const maxBatch = 32
	e := testEngine(t, Config{MaxBatch: maxBatch, Workers: 1})
	images := make([][]float32, maxBatch)
	x := tensor.New(maxBatch, dataset.Pixels)
	for i := range images {
		if i%2 == 0 {
			images[i] = hardImage(uint64(100 + i))
		} else {
			images[i] = easyImage(uint64(100 + i))
		}
		copy(x.Data[i*dataset.Pixels:], images[i])
	}
	for _, rt := range []*route{e.hard, e.easy} {
		ref, err := rt.plans(maxBatch)
		if err != nil {
			t.Fatal(err)
		}
		logits, converted := ref.Logits(x)
		want := append([]float32(nil), logits.Data...)
		var wantConv []float32
		if converted != nil {
			wantConv = append(wantConv, converted.Data...)
		}
		w := e.newWorker(rt)
		r := rng.New(61)
		for round := 0; round < 8; round++ {
			perm := r.Perm(maxBatch)
			for lo := 0; lo < maxBatch; {
				hi := min(maxBatch, lo+1+r.Intn(maxBatch))
				batch := make([]*request, hi-lo)
				for i, img := range perm[lo:hi] {
					batch[i] = &request{pixels: images[img]}
				}
				got, gotConv, _, err := e.forward(rt, w, batch, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, string(rt.name)+" logits", perm[lo:hi], got, want)
				if wantConv != nil {
					sameRows(t, string(rt.name)+" converted", perm[lo:hi], gotConv, wantConv)
				}
				lo = hi
			}
		}
	}
}

// sameRows fails t unless row i of got is row imgs[i] of want, bit for bit.
func sameRows(t *testing.T, what string, imgs []int, got *tensor.Tensor, want []float32) {
	t.Helper()
	width := got.Shape[1]
	for i, img := range imgs {
		for j := 0; j < width; j++ {
			g, w := got.Data[i*width+j], want[img*width+j]
			if math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%s, batch of %d: image %d element %d = %#08x, %#08x in the batch of %d",
					what, len(imgs), img, j, math.Float32bits(g), math.Float32bits(w), len(want)/width)
			}
		}
	}
}
