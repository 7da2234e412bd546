//go:build !amd64

package tensor

// No vector loops outside the micro-kernel on this architecture: every
// registry entry is vecNone, gemvRow runs its Go loops and no convolution
// takes the direct path.

func tapConv(vecISA, []float32, []float32, []float32, []int, float32, float32) {
	panic("tensor: active kernel has no direct-convolution routine")
}

func axpy4(vecISA, []float32, []float32, []float32, []float32, []float32, float32, float32, float32, float32) int {
	return 0
}

func axpy1(vecISA, []float32, []float32, float32) int { return 0 }
