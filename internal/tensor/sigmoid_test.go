package tensor

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// vecKernels returns the available kernels that come with vector routines
// (tileTail, packRows8, sigmoidVec): what a test of those routines runs
// under, one after the other.
func vecKernels() []kernelDesc {
	var ks []kernelDesc
	for _, k := range kernelTable {
		if k.available && k.vec != vecNone {
			ks = append(ks, k)
		}
	}
	return ks
}

// checkSigmoidSlice runs SigmoidSlice over the float32s whose bit patterns
// are in bits, out of place and in place, at the given offset into the
// buffers (so blocks start at every alignment and a Go tail of every length
// follows them) and holds every element to Sigmoid32 bit for bit. For
// patterns that all lie within the trust bound (|x| ≤ 80) it returns how
// many elements sat in blocks the vector body refused; −1 for the rest,
// whose blocks it refuses by design.
func checkSigmoidSlice(t *testing.T, bits []uint32, offset int, buf *[2][]float32) (refused int) {
	n := len(bits)
	inBound := true
	for _, b := range bits {
		inBound = inBound && b&^(1<<31) <= math.Float32bits(80)
	}
	for i := range buf {
		if cap(buf[i]) < offset+n {
			buf[i] = make([]float32, offset+n)
		}
	}
	src, dst := buf[0][offset:offset+n], buf[1][offset:offset+n]
	for i, b := range bits {
		src[i] = math.Float32frombits(b)
	}
	refused = -1
	if isa := activeKernel.vec; inBound && isa != vecNone {
		// SigmoidSlice's walk, counting where the body stops short.
		refused = 0
		for i := 0; i < n; i += sigmoidBlock {
			i += sigmoidVec(isa, dst[i:], src[i:])
			if n-i >= isa.width() {
				refused += min(sigmoidBlock, n-i)
			}
		}
	}
	SigmoidSlice(dst, src)
	SigmoidSlice(src, src)
	for i, b := range bits {
		want := math.Float32bits(Sigmoid32(math.Float32frombits(b)))
		if got := math.Float32bits(dst[i]); got != want {
			t.Fatalf("%s: SigmoidSlice(%#08x) = %#08x, Sigmoid32 gives %#08x (element %d of %d at offset %d)",
				GEMMKernelName(), b, got, want, i, n, offset)
		}
		if got := math.Float32bits(src[i]); got != want {
			t.Fatalf("%s: SigmoidSlice in place (%#08x) = %#08x, Sigmoid32 gives %#08x (element %d of %d at offset %d)",
				GEMMKernelName(), b, got, want, i, n, offset)
		}
	}
	return refused
}

// TestSigmoidSliceExhaustive holds SigmoidSlice to Sigmoid32 on float32 bit
// patterns, under every kernel with a vector sigmoid. Asked for by name (go
// test -run SigmoidSliceExhaustive ./internal/tensor, as CI does once per
// vector ISA) it compares all 2³² of them, about 90 core-seconds; as part of
// a plain go test it takes every 251st pattern and the 129 patterns around
// every power of two and around ±80 (the trust bound), ±17.33 (where the
// float32 result reaches 1 through a run of ties) and ±87.3 (where it goes
// subnormal).
func TestSigmoidSliceExhaustive(t *testing.T) {
	full := strings.Contains(flag.Lookup("test.run").Value.String(), "SigmoidSliceExhaustive")
	names := []string{"generic-8x8"}
	for _, k := range vecKernels() {
		names = append(names, k.name)
	}
	for _, name := range names {
		if full && name != GEMMKernelName() {
			continue // the full sweep covers the ISA the run was started under
		}
		t.Run(name, func(t *testing.T) {
			defer SetGEMMKernelForTest(SetGEMMKernelForTest(name))
			var total, bounded, scalar atomic.Int64
			check := func(bits []uint32, offset int, buf *[2][]float32) {
				total.Add(int64(len(bits)))
				if n := checkSigmoidSlice(t, bits, offset, buf); n >= 0 {
					bounded.Add(int64(len(bits)))
					scalar.Add(int64(n))
				}
			}
			if !full {
				var buf [2][]float32
				var bits []uint32
				for b := uint64(0); b < 1<<32; b += 251 {
					bits = append(bits, uint32(b))
				}
				centres := []float32{80, 17.33, 87.3}
				for e := -149; e <= 127; e++ {
					centres = append(centres, float32(math.Ldexp(1, e)))
				}
				for _, c := range centres {
					for d := -64; d <= 64; d++ {
						b := uint32(int64(math.Float32bits(c)) + int64(d))
						bits = append(bits, b, b|1<<31)
					}
				}
				const chunk = 1<<16 + 5
				for i := 0; i < len(bits); i += chunk {
					check(bits[i:min(i+chunk, len(bits))], i/chunk%sigmoidBlock, &buf)
				}
			} else {
				// Chunks of an odd length, each at its own buffer offset, split
				// over the cores: every chunk ends in a Go tail and starts at
				// a different lane of the pattern space.
				const chunk = 1<<18 + 7
				var next atomic.Uint64
				var wg sync.WaitGroup
				for w := 0; w < runtime.GOMAXPROCS(0); w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var buf [2][]float32
						bits := make([]uint32, 0, chunk)
						for !t.Failed() {
							c := next.Add(1) - 1
							lo := c * chunk
							if lo >= 1<<32 {
								return
							}
							bits = bits[:0]
							for b := lo; b < min(lo+chunk, uint64(1)<<32); b++ {
								bits = append(bits, uint32(b))
							}
							check(bits, int(c%sigmoidBlock), &buf)
						}
					}()
				}
				wg.Wait()
			}
			mode := "stride"
			if full {
				mode = "full sweep"
			}
			t.Logf("%s, %s: %d float32 inputs bit-equal to Sigmoid32; of %d in chunks within |x| ≤ 80, %d (%.4f %%) went to Sigmoid32 in refused blocks",
				name, mode, total.Load(), bounded.Load(), scalar.Load(), 100*float64(scalar.Load())/float64(max(bounded.Load(), 1)))
		})
	}
}

// TestSigmoidSliceBailAndResume places one lane the vector body must not
// trust — a NaN, a value past the trust bound, a value whose float64 sigmoid
// sits on a float32 rounding tie — first, in the middle and last in the
// first, a middle and the last block of a slice of trusted values, and
// checks that the body stops exactly at that block, that the slice form
// resumes after it, and that every element has Sigmoid32's bits.
func TestSigmoidSliceBailAndResume(t *testing.T) {
	// 17.328679 is where 1 − e⁻ˣ crosses 1 − 2⁻²⁵, the tie between the last
	// float32 below 1 and 1.
	suspects := []float32{float32(math.NaN()), 80.00001, -1e30, float32(math.Inf(1)), 17.328679}
	for _, k := range vecKernels() {
		t.Run(k.name, func(t *testing.T) {
			defer SetGEMMKernelForTest(SetGEMMKernelForTest(k.name))
			width := k.vec.width() // the body's block
			const blocks = 5
			n := blocks*sigmoidBlock + 3
			src := make([]float32, n)
			dst := make([]float32, n)
			for _, bad := range suspects {
				for _, block := range []int{0, blocks / 2, blocks - 1} {
					for _, lane := range []int{0, sigmoidBlock / 2, sigmoidBlock - 1} {
						for i := range src {
							src[i] = 0.3 + float32(i)/64
						}
						if got := sigmoidVec(k.vec, dst, src); got != n&^(width-1) {
							t.Fatalf("trusted slice: body stopped at %d of %d", got, n)
						}
						at := block*sigmoidBlock + lane
						src[at] = bad
						if got, want := sigmoidVec(k.vec, dst, src), at&^(width-1); got != want {
							t.Fatalf("untrusted %v at %d: body stopped at %d, want %d", bad, at, got, want)
						}
						SigmoidSlice(dst, src)
						for i, v := range src {
							if got, want := math.Float32bits(dst[i]), math.Float32bits(Sigmoid32(v)); got != want {
								t.Fatalf("untrusted %v at %d: dst[%d] = %#08x, Sigmoid32(%v) = %#08x", bad, at, i, got, v, want)
							}
						}
					}
				}
			}
		})
	}
}

// BenchmarkSigmoidSlice times the AE's output activation at batch 32 — 32
// rows of 784 pre-activations — through SigmoidSlice under each kernel with
// a vector body and through the scalar loop it replaced, rotating inputs so
// no branch learns them.
func BenchmarkSigmoidSlice(b *testing.B) {
	const rows, cols = 32, 784
	inputs := make([][]float32, 8)
	for i := range inputs {
		inputs[i] = make([]float32, rows*cols)
		fillMantissa(inputs[i], uint32(i+1))
		for j := range inputs[i] {
			inputs[i][j] *= 8 // pre-activations over the sigmoid's whole working range
		}
	}
	dst := make([]float32, rows*cols)
	run := func(b *testing.B, f func(dst, src []float32)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f(dst, inputs[i%len(inputs)])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*cols), "ns/elem")
	}
	b.Run(fmt.Sprintf("%dx%d/scalar", cols, rows), func(b *testing.B) {
		run(b, func(dst, src []float32) {
			for i, v := range src {
				dst[i] = Sigmoid32(v)
			}
		})
	})
	for _, k := range vecKernels() {
		b.Run(fmt.Sprintf("%dx%d/%s", cols, rows, k.name), func(b *testing.B) {
			defer SetGEMMKernelForTest(SetGEMMKernelForTest(k.name))
			run(b, SigmoidSlice)
		})
	}
}
