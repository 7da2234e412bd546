package models

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// Failure-injection tests: corrupted or truncated checkpoints must be
// rejected with errors, never loaded partially.

func TestLoadRejectsTruncatedStream(t *testing.T) {
	r := rng.New(1)
	net := NewLeNet(r)
	var buf bytes.Buffer
	if err := SaveParams(&buf, net); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if err := LoadParams(bytes.NewReader(truncated), NewLeNet(rng.New(2))); err == nil {
		t.Fatal("expected error for truncated checkpoint")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	garbage := bytes.NewReader([]byte("not a gob stream at all"))
	if err := LoadParams(garbage, NewLeNet(rng.New(3))); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

func TestLoadRejectsCorruptedFile(t *testing.T) {
	r := rng.New(4)
	net := NewLeNet(r)
	path := filepath.Join(t.TempDir(), "model.ck")
	if err := SaveFile(path, net); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the middle of the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+64 && i < len(data); i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	target := NewLeNet(rng.New(5))
	if err := LoadFile(path, target); err == nil {
		// Corruption in the middle of float payloads can decode without a
		// gob error; in that case the values must still be loadable or the
		// call must fail. Either way the call must not panic, which
		// reaching this point demonstrates.
		t.Log("corrupted payload decoded; values replaced wholesale (acceptable)")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if err := LoadFile(filepath.Join(t.TempDir(), "absent.ck"), NewLeNet(rng.New(6))); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestConcurrentInference runs every inference path on one shared model from
// eight goroutines at once — BranchyNet's exit cascade, and plans of the
// lightweight classifier and the autoencoder — and holds each result bit for
// bit to a serial run of the same input on a twin built from the same seed.
// Each call compiles its own cascade and plans, with private buffers; what they
// share is the layers' parameters, read only, and Dense's packed weights,
// which the goroutines race to pack first on the fresh shared model and
// publish through an atomic pointer: a single loaded model serves parallel
// requests (the edge deployment pattern). Run it under -race.
func TestConcurrentInference(t *testing.T) {
	type model struct {
		b      *BranchyNet
		lw, ae *nn.Sequential
	}
	build := func() model {
		r := rng.New(7)
		b := NewBranchyLeNet(r, 0.2)
		return model{b: b, lw: ExtractLightweight(b), ae: NewTableIAE(dataset.MNIST, r).Net}
	}
	type result struct {
		infer   InferenceResult
		lw, rec []float32
	}
	run := func(m model, x *tensor.Tensor) result {
		n := x.Shape[0]
		infer := InferenceResult{Pred: make([]int, n), Exited: make([]bool, n), BranchEntropy: make([]float64, n)}
		m.b.CompileCascade(n).Run(infer, x, m.b.Threshold)
		return result{infer: infer, lw: runNet(m.lw, x).Data, rec: runNet(m.ae, x).Data}
	}
	const workers = 8
	serial, shared := build(), build()
	inputs := make([]*tensor.Tensor, workers)
	want := make([]result, workers)
	for w := range inputs {
		inputs[w] = tensor.New(4+4*w, dataset.Pixels)
		inputs[w].RandUniform(rng.New(uint64(w+100)), 0, 1)
		want[w] = run(serial, inputs[w])
	}

	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got[w] = append(got[w], run(shared, inputs[w]))
			}
		}()
	}
	wg.Wait()
	for w, rs := range got {
		for i, g := range rs {
			if !reflect.DeepEqual(g.infer, want[w].infer) {
				t.Errorf("worker %d round %d: cascade %+v, serial %+v", w, i, g.infer, want[w].infer)
			}
			requireBits(t, fmt.Sprintf("worker %d round %d: lightweight", w, i), g.lw, want[w].lw)
			requireBits(t, fmt.Sprintf("worker %d round %d: autoencoder", w, i), g.rec, want[w].rec)
		}
	}
}

// TestConcurrentInferenceDeterministic confirms concurrent inference on one
// shared LeNet gives the same outputs, bit for bit, as serial inference.
func TestConcurrentInferenceDeterministic(t *testing.T) {
	r := rng.New(8)
	net := NewLeNet(r)
	x := tensor.New(8, dataset.Pixels)
	x.RandUniform(r, 0, 1)
	want := runNet(net, x)

	var wg sync.WaitGroup
	results := make([]*tensor.Tensor, 6)
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = runNet(net, x)
		}()
	}
	wg.Wait()
	for w, got := range results {
		requireBits(t, fmt.Sprintf("worker %d", w), got.Data, want.Data)
	}
}

// requireBits fails unless got and want hold the same float32 bit patterns.
func requireBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, serial %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v, serial %v", what, i, got[i], want[i])
		}
	}
}
