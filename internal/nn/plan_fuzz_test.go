package nn

import (
	"fmt"
	"testing"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// fuzzNet decodes spec into a small Sequential over all eight Layer types.
// The first three bytes give the input volume (1–3 channels of 4–12 × 4–12);
// after that one byte picks a layer and the next few its parameters, the
// decoder tracking the running shape so that convs and pools get a geometry
// that fits (one that does not, or that follows a dense layer, is skipped).
// reject reports whether Compile must refuse the result: it holds a nested
// Sequential (the one Layer type with no plan step), a dense layer of the
// wrong input width, an activation ahead of every shape-bearing layer, or no
// shape-bearing layer at all.
func fuzzNet(spec []byte, r *rng.RNG) (net *Sequential, reject bool) {
	next := func() int {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return int(b)
	}
	c, h, w := 1+next()%3, 4+next()%9, 4+next()%9
	width, volume, shaped := c*h*w, true, false
	var layers []Layer
	for len(spec) > 0 && len(layers) < 12 {
		name := fmt.Sprintf("l%d", len(layers))
		switch op := next() % 10; op {
		case 0, 9:
			in := width
			if op == 9 && shaped {
				in += 1 + next()%3
				reject = true
			}
			out := 1 + next()%48
			layers = append(layers, NewDense(name, in, out, r))
			width, volume, shaped = out, false, true
		case 1:
			if !volume {
				continue
			}
			conv, err := NewConv2D(name, c, h, w, 1+next()%4, 1+next()%3, 1+next()%3, 1+next()%2, next()%3, r)
			if err != nil {
				continue
			}
			layers = append(layers, conv)
			c, h, w = conv.OutC, conv.Dims.OutH, conv.Dims.OutW
			width, shaped = c*h*w, true
		case 2:
			if !volume {
				continue
			}
			pool, err := NewMaxPool2D(name, c, h, w, 1+next()%3, 1+next()%3)
			if err != nil {
				continue
			}
			layers = append(layers, pool)
			h, w = pool.OutH, pool.OutW
			width, shaped = c*h*w, true
		case 3:
			layers = append(layers, NewReLU(name))
			reject = reject || !shaped
		case 4:
			layers = append(layers, NewSigmoid(name))
			reject = reject || !shaped
		case 5:
			layers = append(layers, NewSoftmax(name))
			reject = reject || !shaped
		case 6, 7:
			if op == 6 {
				next() // skipped, so the seed corpus still decodes to the networks its names describe
			}
			layers = append(layers, NewActivityRegularizer(name, 1e-6))
		case 8:
			layers = append(layers, NewSequential(name, NewReLU(name+"/relu")))
			reject = true
		}
	}
	return NewSequential("fuzz", layers...), reject || !shaped
}

// FuzzCompileMatchesForward holds the compiler to the layers it compiles:
// a random small network either is refused with an error — exactly when
// fuzzNet says it must be, and never by a panic — or compiles at a random
// capacity into a plan whose Execute agrees with Forward(x, false), within a
// bound that grows with the stack's depth, at one row, a ragged batch and
// the full capacity, one plan serving all three.
// Shape inference, the dropped identity layers, activations fused and
// standalone, the ping-pong buffers and both GEMM dispatches (the larger
// nets at the larger capacities take the blocked, packed path) are all
// under it. The seed corpus under testdata/fuzz is replayed by `go test`.
func FuzzCompileMatchesForward(f *testing.F) {
	// conv+relu, pool, conv+sigmoid, dense, activity reg ×2, dense+softmax
	f.Add(uint64(42), byte(15), []byte{0, 8, 8, 1, 3, 2, 2, 0, 1, 3, 2, 1, 1, 1, 5, 2, 2, 0, 0, 4, 0, 31, 6, 3, 7, 0, 9, 5})
	f.Add(uint64(7), byte(31), []byte{2, 3, 3, 3, 0, 20}) // leading relu: rejected
	f.Fuzz(func(t *testing.T, seed uint64, capByte byte, spec []byte) {
		net, reject := fuzzNet(spec, rng.New(seed))
		batchCap := 1 + int(capByte)%32
		p, err := Compile(net, batchCap)
		if reject {
			if err == nil {
				t.Fatalf("Compile accepted a network it has no plan for: %v", layerNames(net))
			}
			return
		}
		if err != nil {
			t.Fatalf("Compile refused %v: %v", layerNames(net), err)
		}
		// Plan and Forward sum each dot product in a different order (packed,
		// blocked GEMM against the plain loops), so every layer that sums —
		// Dense, Conv2D — may move a value by about one part in 1e5, and the
		// next one carries that forward: the bound is 1e-5 per summing layer
		// in the stack (relative above 1), not 1e-5 whatever the depth. Nine
		// of them at batch 32 differ by 1.27e-5 (corpus entry
		// nine-layers-cap32-depth-tolerance).
		summing := 0
		for _, l := range net.Layers {
			switch l.(type) {
			case *Dense, *Conv2D:
				summing++
			}
		}
		depthTol := 1e-5 * float32(max(summing, 1))
		for _, n := range []int{1, 1 + int(seed%uint64(batchCap)), batchCap} {
			x := tensor.New(n, p.InWidth())
			x.RandUniform(rng.New(seed+uint64(n)), -1, 1)
			want := net.Forward(x, false)
			got := p.Execute(nil, x)
			if !got.SameShape(want) {
				t.Fatalf("%v batch %d: plan shape %v, forward %v", p.StepNames(), n, got.Shape, want.Shape)
			}
			for i, v := range want.Data {
				tol := depthTol
				if v > 1 || v < -1 {
					tol *= max(v, -v)
				}
				if d := got.Data[i] - v; !(d >= -tol && d <= tol) {
					t.Fatalf("%v batch %d of %d: plan[%d] = %v, forward = %v", p.StepNames(), n, batchCap, i, got.Data[i], v)
				}
			}
		}
	})
}

func layerNames(net *Sequential) []string {
	names := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		names[i] = fmt.Sprintf("%s:%T", l.Name(), l)
	}
	return names
}
